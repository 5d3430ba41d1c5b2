"""Closed-form flows of affine fields and the flow-map algebra.

The time-t map of the field with generator G = [[C, B], [0, 0]] is the
first n entries of exp(t G) (x, 1), the augmented exponential (Van Loan
1978).  It covers every affine field, so no fixed point is solved for and no
tolerance decides which formula runs.  A constant field is no exception: its
G^2 = 0, so ``mat_exp`` returns I + t G bit for bit and the map is x + t B,
up to the sign of a zero coordinate.  When C U + B = 0 has solutions, the
paper's form exp(tC)(x - U) + U still holds for every such U; validation
check 10 tests that identity against this path.  ``flow_images`` is the
evaluation path: row j is the j-th point under the flow of the j-th
generator at the j-th time, in two steps, the exponentials exp(t_j G_j) and
then their images E[:n, :n] x + E[:n, n] of the points, by
``linalg._affine`` as fields and actions take theirs.  ``flow_at`` over
many times is ``flow_images`` with its one generator shared by every time.
The time-t map acts on every point alike, so a FlowMap keeps exp(t G) for
the last scalar time it was evaluated at, and a scalar ``flow_at`` at that
time again takes only ``_affine`` of the kept E = exp(t G), a stack of one
(every decision ``mat_exp`` makes for it is a Python scalar), bit for bit
the row of ``flow_images``.  Validation checks 8, 9 and 10 call
``flow_images`` on whole ensembles; checks 1 and 2 take the exponentials
of theirs as ``_exponentials`` stacks, each formed once, and their images
by ``_affine``, the same rows bit for bit.  ``orbit`` on a uniform grid of K
times takes ``flow_at`` at about sqrt(K) of them and carries those points
on by about sqrt(K) step exponentials (the group law), within a rounding
bound of ``flow_at``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fields import AffineField, MatrixValue
# solve_linear is unused here; instrumentation looks it up in this namespace.
from .linalg import _affine, _image, _real, mat_exp, solve_linear  # noqa: F401

TRANSLATION = "translation"
AUGMENTED_EXPONENTIAL = "augmented-exponential"

# Largest number of matrix entries in the stack of one mat_exp call in
# _exponentials.  At 2^13 floats (64 KiB per temporary of the kernel) a long
# orbit's working memory stays near 2 MB beyond its points, and the fixed
# cost of a call is spread over 18 times at n = 20 and 910 at n = 2.
ORBIT_BLOCK_ENTRIES = 2**13


@dataclass(frozen=True, eq=False)
class FlowMap(MatrixValue):
    """Closed-form flow of an affine field; immutable and pure to evaluate.

    Every flow is the augmented exponential of ``field.matrix``; ``form`` is
    a label derived from the field, translation exactly when C is zero, else
    augmented exponential.  Two flows are equal when their fields are.  A
    flow keeps exp(t G) for the last scalar time it was evaluated at; that
    memo is no field, so equality, repr and pickles do not see it.
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
    """The flow of ``field``: the augmented exponential of its generator."""
    return FlowMap(field)


def _exponentials(generators, times) -> np.ndarray:
    """The stack exp(t_j G_j); a generator stack of length 1 is shared.

    The rows go to ``mat_exp`` in blocks of at most ORBIT_BLOCK_ENTRIES
    matrix entries, one call per block, so the kernel's working memory stays
    bounded however long the stack is.  Since ``mat_exp`` decides per
    matrix, each row is bit for bit that of a stack of one.

    Raises OverflowError when some t G is not representable in floats.
    """
    size = max(1, ORBIT_BLOCK_ENTRIES // generators.shape[-1] ** 2)
    blocks = []
    for lo in range(0, len(times), size):
        g = generators if len(generators) == 1 else generators[lo:lo + size]
        with np.errstate(over="ignore", invalid="ignore"):
            scaled = times[lo:lo + size, None, None] * g
        if not np.isfinite(scaled).all():
            raise OverflowError("t G overflows the float range")
        blocks.append(mat_exp(scaled))
    return blocks[0] if len(blocks) == 1 else np.concatenate(blocks)


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
    entries, a block's exponentials by one ``_exponentials`` call (one
    ``mat_exp`` call) and its images at once, so no more than a block of
    exponentials is held.  Since ``mat_exp`` decides per matrix, each row
    is bit for bit what a stack of one gives, whatever the other rows.  A generator with C = 0 gives x + t B (rule 3 of
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
        exps = _exponentials(g, times[rows])
        with np.errstate(over="ignore", invalid="ignore"):
            images[rows] = _affine(exps, x)
    return _checked(images, times, points)


def flow_at(flow: FlowMap, t, x) -> np.ndarray:
    """Image of the point x under the time-t flow map.

    ``t`` is a scalar, giving the (n,) image, or a 1-D array of k times,
    giving the (k, n) images, row j at time t[j] and bit for bit the image
    for the scalar t[j].  Every field takes the augmented exponential.  Over
    an array it is ``flow_images`` with the field's one generator and x
    shared by every time, so the working memory does not grow with k.  At a
    scalar t it is E[:n, :n] x + E[:n, n] for the flow's E = exp(t G), a
    stack of one, which the flow forms once and keeps until it is called at
    another scalar time: several points at one time cost one exponential,
    and each result is bit for bit that of a fresh flow and the row that an
    array of times gives.  An image at t = 0 is x exactly (a copy).

    Raises TypeError for a complex t or x, ValueError for an empty or 2-D
    array of times and for a non-finite t or x, and OverflowError when t G
    or an image is not representable in floats.
    """
    times = _real(t, "t")
    if times.ndim > 1 or times.size == 0:
        raise ValueError(
            f"t must be a scalar or a non-empty 1-D array, not shape {times.shape}"
        )
    n = flow.field.n
    p = _real(x, "point", n, "flow")
    if times.ndim:
        return flow_images(flow.field.matrix[None], times, p[None])
    t = float(times)
    e = flow._exp_at(t)[0]
    if t == 0.0:
        return p.copy()
    return _image(e, p, "image")


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
        for name in ("start", "times", "points"):
            arr = np.array(_real(getattr(self, name), name, finite=None))
            arr = arr if name == "points" else arr.reshape(-1)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    def __reduce__(self):
        return Orbit, (self.start, self.times, self.points)

    def _parts(self) -> tuple:
        return self.start, self.times, self.points


def _grid_step(times) -> float:
    """h when the k >= 4 times, finite as ``orbit`` takes them, are
    t_0 + j h with h != 0, each to within 4 eps max |t|, so a ``linspace``
    grid passes; else 0.0."""
    k = len(times)
    if k < 4:
        return 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        h = (times[-1] - times[0]) / (k - 1)
        offsets = np.abs(times - (times[0] + np.arange(k) * h))
        uniform = offsets.max() <= 4.0 * np.finfo(float).eps * np.abs(times).max()
    return h if uniform and h != 0.0 else 0.0


def _uniform_orbit(flow: FlowMap, times, x, h: float) -> np.ndarray:
    """The points of ``orbit`` on the grid t_0 + j h, h != 0, by the group
    law: row q m + r is (exp(r h G) (w_q, 1))[:n] for the anchor point w_q
    at t_(q m), with m = isqrt(k - 1) + 1.  One product of the stacked
    (w_q, 1) with the step exponentials writes the carried rows in place
    into an (anchors, m, n) array; the rows past t_(k-1) that fill the last
    anchor's run are cut off."""
    k, n = len(times), flow.field.n
    m = math.isqrt(k - 1) + 1
    anchors = flow_at(flow, times[::m], x)
    exps = _exponentials(flow.field.matrix[None], np.arange(1, m) * h)
    rows, lifted = np.empty((len(anchors), m, n)), np.ones((len(anchors), n + 1))
    rows[:, 0] = lifted[:, :n] = anchors
    with np.errstate(over="ignore", invalid="ignore"):
        np.matmul(lifted, exps[:, :n].transpose(0, 2, 1), out=rows[:, 1:].transpose(1, 0, 2))
    return _checked(rows.reshape(-1, n)[:k], times, x[None])


def orbit(flow: FlowMap, x, t_grid) -> Orbit:
    """Evaluate the flow from x at each time in t_grid (flattened to 1-D).

    On a uniform grid, K >= 4 times t_0 + k h to within 4 eps max |t|
    (eps = 2^-52) with h = (t_(K-1) - t_0) / (K - 1) != 0, as ``linspace``
    gives, the flow goes by the group law
    exp(t_(qM+r) G) = exp(r h G) exp(t_(qM) G), M = isqrt(K - 1) + 1: about
    2 sqrt(K) exponentials instead of K.  Its anchor points, at t_(qM), are
    ``flow_at(flow, t, x)`` bit for bit; each other point is within
    1e-14 (1 + |t| |G|_1) |(|exp(t G)| |(x, 1)|)[:n]| of it and of the exact
    image.  On every other grid each point is ``flow_at(flow, t, x)`` bit
    for bit.  On every grid the point at t = 0 is the start exactly.

    Raises what ``flow_at`` raises: ValueError for an empty or non-finite
    grid and for a non-finite or misshapen start point, and OverflowError
    when t G or a point is not representable in floats.
    """
    times = _real(t_grid, "t").reshape(-1)
    p = _real(x, "point", flow.field.n, "flow")
    h = _grid_step(times)
    points = _uniform_orbit(flow, times, p, h) if h else flow_at(flow, times, p)
    return Orbit(start=p, times=times, points=points)
