"""Closed-form flows of affine fields and the flow-map algebra.

The time-t map of the field with generator G = [[C, B], [0, 0]] takes one of
two forms, which a FlowMap derives from its field:

* translation            x + t B                          (C exactly zero)
* augmented-exponential  the first n entries of exp(t G) (x, 1)

The augmented exponential covers every affine field (Van Loan 1978), so no
fixed point is solved for and no tolerance decides which formula runs.  When
C U + B = 0 has solutions, the paper's form exp(tC)(x - U) + U still holds for
every such U; validation check 10 tests that identity against this path.
``flow_at`` is the one evaluation path, for one time or many.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import AffineField
# solve_linear is unused here; instrumentation looks it up in this namespace.
from .linalg import mat_exp, solve_linear  # noqa: F401

TRANSLATION = "translation"
AUGMENTED_EXPONENTIAL = "augmented-exponential"

# Largest number of matrix entries in the stack of one mat_exp call in
# flow_at.  At 2^13 floats (64 KiB per temporary of the kernel) a long
# orbit's working memory stays near 2 MB beyond its points, and the fixed
# cost of a call is spread over 18 times at n = 20 and 910 at n = 2.
ORBIT_BLOCK_ENTRIES = 2**13


@dataclass(frozen=True)
class FlowMap:
    """Closed-form flow of an affine field; immutable and pure to evaluate.

    ``form`` is derived from the field: translation exactly when C is zero,
    else the augmented exponential of ``field.matrix``.
    """

    field: AffineField

    def __post_init__(self):
        form = AUGMENTED_EXPONENTIAL if self.field.C.any() else TRANSLATION
        object.__setattr__(self, "form", form)


def make_flow(field: AffineField) -> FlowMap:
    """Translation when C is exactly zero, else the augmented exponential."""
    return FlowMap(field)


def flow_at(flow: FlowMap, t, x) -> np.ndarray:
    """Image of the point x under the time-t flow map.

    ``t`` is a scalar, giving the (n,) image, or a 1-D array of k times,
    giving the (k, n) images, row j at time t[j] and bit for bit the image
    for the scalar t[j].  Many times are evaluated in blocks of at most
    ORBIT_BLOCK_ENTRIES matrix entries, one ``mat_exp`` call on the stack of
    t G per block, so the working memory does not grow with k; a scalar is a
    stack of one.  An image at t = 0 is x exactly.

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
    if not np.isfinite(p).all():
        raise ValueError("point must be finite")
    stack = times.reshape(-1)
    with np.errstate(over="ignore", invalid="ignore"):
        if flow.form == TRANSLATION:
            images = p + stack[:, None] * flow.field.B
        else:
            images = np.empty((stack.size, n))
            size = max(1, ORBIT_BLOCK_ENTRIES // (n + 1) ** 2)
            for lo in range(0, stack.size, size):
                scaled = stack[lo : lo + size, None, None] * flow.field.matrix
                if not np.isfinite(scaled).all():
                    raise OverflowError("t G overflows the float range")
                big = mat_exp(scaled)
                images[lo : lo + size] = big[:, :n, :n] @ p + big[:, :n, n]
    if not np.isfinite(images).all():
        raise OverflowError("image overflows the float range")
    # The time-zero map is the identity exactly, not just up to rounding.
    images[stack == 0.0] = p
    return images if times.ndim else images[0]


def group_law_defect(flow: FlowMap, s: float, t: float, x) -> float:
    """Norm of flow(s + t, x) minus flow(s, flow(t, x)).

    The one-parameter group law holds exactly in real arithmetic; this
    statistic measures its floating-point defect.
    """
    direct = flow_at(flow, s + t, x)
    composed = flow_at(flow, s, flow_at(flow, t, x))
    return float(np.linalg.norm(direct - composed))


@dataclass(frozen=True)
class Orbit:
    """Sampled integral path: points[k] is the flow at times[k] from start."""

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
