"""Closed-form flows of affine fields and the flow-map algebra.

The time-t map of the field with generator G = [[C, B], [0, 0]] takes one of
two forms, which a FlowMap derives from its field:

* translation            x + t B                          (C exactly zero)
* augmented-exponential  the first n entries of exp(t G) (x, 1)

The augmented exponential covers every affine field (Van Loan 1978), so no
fixed point is solved for and no tolerance decides which formula runs.  When
C U + B = 0 has solutions, the paper's form exp(tC)(x - U) + U still holds for
every such U; validation check 10 tests that identity against this path.
``flow_images`` is the evaluation path of the augmented exponential: row j
is the j-th point under the flow of the j-th generator at the j-th time, in
two steps, the exponentials exp(t_j G_j) and then their images of the
points.  ``flow_at`` over many times is ``flow_images`` with its one
generator shared by every time.  The time-t map is one group element that
acts on every point alike, so a FlowMap keeps exp(t G) for the last scalar
time it was evaluated at, and a scalar ``flow_at`` at that time again takes
only the image step.  Validation checks 1, 2 and 10 call ``flow_images`` on
whole ensembles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fields import AffineField, MatrixValue
# solve_linear is unused here; instrumentation looks it up in this namespace.
from .linalg import mat_exp, solve_linear  # noqa: F401

TRANSLATION = "translation"
AUGMENTED_EXPONENTIAL = "augmented-exponential"

# Largest number of matrix entries in the stack of one mat_exp call in
# flow_images.  At 2^13 floats (64 KiB per temporary of the kernel) a long
# orbit's working memory stays near 2 MB beyond its points, and the fixed
# cost of a call is spread over 18 times at n = 20 and 910 at n = 2.
ORBIT_BLOCK_ENTRIES = 2**13


@dataclass(frozen=True, eq=False)
class FlowMap(MatrixValue):
    """Closed-form flow of an affine field; immutable and pure to evaluate.

    ``form`` is derived from the field: translation exactly when C is zero,
    else the augmented exponential of ``field.matrix``.  Two flows are equal
    when their fields are.  A flow keeps exp(t G) for the last scalar time it
    was evaluated at; that memo is no field, so equality, repr and pickles
    do not see it.
    """

    field: AffineField

    def __post_init__(self):
        form = AUGMENTED_EXPONENTIAL if self.field.C.any() else TRANSLATION
        object.__setattr__(self, "form", form)
        object.__setattr__(self, "_memo", None)

    def __reduce__(self):
        return FlowMap, (self.field,)

    def _parts(self) -> tuple:
        return (self.field,)

    def _exp_at(self, t: float) -> np.ndarray:
        """exp(t G) as a read-only stack of one, formed once for a run of
        calls at one time.  The memo is one (t, exp) pair, replaced in one
        step, so a reader in another thread sees a whole pair.  A t whose
        t G overflows leaves the memo as it was.  Times 0.0 and -0.0 share
        an entry: their images are x exactly either way."""
        memo = self._memo
        if memo is not None and memo[0] == t:
            return memo[1]
        exps = _exponentials(self.field.matrix[None], np.array([t]))
        exps.flags.writeable = False
        object.__setattr__(self, "_memo", (t, exps))
        return exps


def make_flow(field: AffineField) -> FlowMap:
    """Translation when C is exactly zero, else the augmented exponential."""
    return FlowMap(field)


def _exponentials(generators, times) -> np.ndarray:
    """The stack exp(t_j G_j); a generator stack of length 1 is shared.

    Raises OverflowError when some t G is not representable in floats.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        scaled = times[:, None, None] * generators
    if not np.isfinite(scaled).all():
        raise OverflowError("t G overflows the float range")
    return mat_exp(scaled)


def _images(exps, points) -> np.ndarray:
    """Rows (E_j (x_j, 1))[:n] for the stack E of exponentials; a ``points``
    axis of length 1 is shared.  Overflow is left for ``_checked``."""
    n = points.shape[1]
    with np.errstate(over="ignore", invalid="ignore"):
        return (exps[:, :n, :n] @ points[..., None])[..., 0] + exps[:, :n, n]


def _checked(images, times, points) -> np.ndarray:
    """The images, with each row at t_j = 0 made x_j exactly.

    Raises OverflowError when some image is not representable in floats.
    """
    if not np.isfinite(images).all():
        raise OverflowError("image overflows the float range")
    # The time-zero map is the identity exactly, not just up to rounding.
    np.copyto(images, points, where=(times == 0.0)[:, None])
    return images


def flow_images(generators, times, points) -> np.ndarray:
    """Images of points, each under the flow of its own generator.

    ``times`` has k entries, ``generators`` is a (k, n+1, n+1) stack of
    [[C, B], [0, 0]] and ``points`` is (k, n); a leading axis of length 1
    is shared by all k rows.  Row j of the (k, n) result is the first n
    entries of exp(t_j G_j) (x_j, 1), and a row with t_j = 0 is x_j exactly.
    The rows are taken in blocks of at most ORBIT_BLOCK_ENTRIES matrix
    entries, one ``mat_exp`` call per block.  Since ``mat_exp`` decides per
    matrix, each row is bit for bit what a stack of one gives, whatever the
    other rows.  A generator with C = 0 gives x + t B (rule 3 of
    ``mat_exp``), up to the sign of a zero coordinate.  The inputs are taken
    as finite and of matching shapes; ``flow_at`` checks its own.

    Raises OverflowError when some t G or image is not representable in
    floats.
    """
    k, n = len(times), points.shape[1]
    images = np.empty((k, n))
    size = max(1, ORBIT_BLOCK_ENTRIES // (n + 1) ** 2)
    for lo in range(0, k, size):
        rows = slice(lo, lo + size)
        g = generators if len(generators) == 1 else generators[rows]
        x = points if len(points) == 1 else points[rows]
        images[rows] = _images(_exponentials(g, times[rows]), x)
    return _checked(images, times, points)


def flow_at(flow: FlowMap, t, x) -> np.ndarray:
    """Image of the point x under the time-t flow map.

    ``t`` is a scalar, giving the (n,) image, or a 1-D array of k times,
    giving the (k, n) images, row j at time t[j] and bit for bit the image
    for the scalar t[j].  An augmented exponential over an array is
    ``flow_images`` with the field's one generator and x shared by every
    time, so the working memory does not grow with k.  At a scalar t it is
    the image of x under the flow's exp(t G), a stack of one, which the flow
    forms once and keeps until it is called at another scalar time: several
    points at one time cost one exponential, and each result is bit for bit
    that of a fresh flow.  An image at t = 0 is x exactly.

    Raises ValueError for an empty or 2-D array of times and for a
    non-finite t or x, and OverflowError when t G or an image is not
    representable in floats.
    """
    times = np.asarray(t, dtype=float)
    if times.ndim > 1 or times.size == 0:
        raise ValueError(
            f"t must be a scalar or a non-empty 1-D array, not shape {times.shape}"
        )
    if not np.isfinite(times).all():
        raise ValueError("t must be finite")
    p = np.asarray(x, dtype=float).reshape(-1)
    n = flow.field.n
    if p.size != n:
        raise ValueError(f"point has dim {p.size}, flow lives on R^{n}")
    if not all(map(math.isfinite, p.tolist())):
        raise ValueError("point must be finite")
    stack = times.reshape(-1)
    if flow.form == TRANSLATION:
        with np.errstate(over="ignore", invalid="ignore"):
            images = p + stack[:, None] * flow.field.B
        if not np.isfinite(images).all():
            raise OverflowError("image overflows the float range")
        # Not _checked: its masked copy over every entry costs a long
        # translation orbit more than this row index.
        images[stack == 0.0] = p
    elif times.ndim:
        images = flow_images(flow.field.matrix[None], stack, p[None])
    else:
        images = _checked(_images(flow._exp_at(float(times)), p[None]), stack, p[None])
    return images if times.ndim else images[0]


def group_law_defect(flow: FlowMap, s: float, t: float, x) -> float:
    """Norm of flow(s + t, x) minus flow(s, flow(t, x)).

    The one-parameter group law holds exactly in real arithmetic; this
    statistic measures its floating-point defect.
    """
    direct = flow_at(flow, s + t, x)
    composed = flow_at(flow, s, flow_at(flow, t, x))
    return float(np.linalg.norm(direct - composed))


@dataclass(frozen=True, eq=False)
class Orbit(MatrixValue):
    """Sampled integral path: points[k] is the flow at times[k] from start.
    Two orbits are equal when their three arrays are."""

    start: np.ndarray
    times: np.ndarray
    points: np.ndarray

    def __post_init__(self):
        start = np.array(self.start, dtype=float).reshape(-1)
        times = np.array(self.times, dtype=float).reshape(-1)
        points = np.array(self.points, dtype=float)
        for arr in (start, times, points):
            arr.flags.writeable = False
        object.__setattr__(self, "start", start)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "points", points)

    def __reduce__(self):
        return Orbit, (self.start, self.times, self.points)

    def _parts(self) -> tuple:
        return self.start, self.times, self.points


def orbit(flow: FlowMap, x, t_grid) -> Orbit:
    """Evaluate the flow from x at each time in t_grid (flattened to 1-D).

    The points are ``flow_at`` on the whole grid.  Each equals the
    single-time image ``flow_at(flow, t, x)`` bit for bit, and the point at
    t = 0 is the start exactly.

    Raises what ``flow_at`` raises: ValueError for an empty or non-finite
    grid and for a non-finite or misshapen start point, and OverflowError
    when t G or a point is not representable in floats.
    """
    times = np.asarray(t_grid, dtype=float).reshape(-1)
    return Orbit(start=x, times=times, points=flow_at(flow, times, x))
