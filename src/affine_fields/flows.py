"""Closed-form flows of affine fields and the flow-map algebra.

The time-t map of the field x -> C x + B takes one of two forms, which a
FlowMap derives from its field:

* translation            x + t B                          (C exactly zero)
* augmented-exponential  the first n entries of exp(t G) (x, 1), where G is
                         the homogeneous embedding [[C, B], [0, 0]]

The augmented exponential covers every affine field (Van Loan 1978), so no
fixed point is solved for and no tolerance decides which formula runs.  When
C U + B = 0 has solutions, the paper's form exp(tC)(x - U) + U still holds for
every such U; validation check 10 tests that identity against this path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import AffineField
# solve_linear is unused here; instrumentation looks it up in this namespace.
from .linalg import augment_affine, mat_exp, solve_linear  # noqa: F401

TRANSLATION = "translation"
AUGMENTED_EXPONENTIAL = "augmented-exponential"

# Largest number of matrix entries in the stack of one mat_exp call in
# orbit.  At 2^13 floats (64 KiB per temporary of the kernel) a long orbit's
# working memory stays near 2 MB beyond its points, and the fixed cost of a
# call is spread over 18 grid times at n = 20 and 910 at n = 2.
ORBIT_BLOCK_ENTRIES = 2**13


@dataclass(frozen=True)
class FlowMap:
    """Closed-form flow of an affine field; immutable and pure to evaluate.

    ``form`` is derived from the field: translation exactly when C is zero,
    else the augmented exponential.  ``generator`` is the homogeneous
    embedding [[C, B], [0, 0]], built once.
    """

    field: AffineField

    def __post_init__(self):
        form = AUGMENTED_EXPONENTIAL if np.any(self.field.C) else TRANSLATION
        object.__setattr__(self, "form", form)
        generator = augment_affine(self.field.C, self.field.B)
        generator.flags.writeable = False
        object.__setattr__(self, "generator", generator)


def make_flow(field: AffineField) -> FlowMap:
    """Translation when C is exactly zero, else the augmented exponential."""
    return FlowMap(field)


def _start_point(flow: FlowMap, x) -> np.ndarray:
    """x as a finite float vector in the flow's dimension."""
    p = np.asarray(x, dtype=float).reshape(-1)
    n = flow.field.n
    if p.size != n:
        raise ValueError(f"point has dim {p.size}, flow lives on R^{n}")
    if not np.isfinite(p).all():
        raise ValueError("point must be finite")
    return p


def flow_at(flow: FlowMap, t: float, x) -> np.ndarray:
    """Image of the point x under the time-t flow map.

    Raises OverflowError when t G or the image is not representable in
    floats, and ValueError for a non-finite t or x.
    """
    if not np.isfinite(t):
        raise ValueError("t must be finite")
    p = _start_point(flow, x)
    if t == 0.0:
        # The time-zero map is the identity exactly, not just up to rounding.
        return p.copy()
    n = flow.field.n
    with np.errstate(over="ignore", invalid="ignore"):
        if flow.form == TRANSLATION:
            image = p + t * flow.field.B
        else:
            scaled = t * flow.generator
            if not np.isfinite(scaled).all():
                raise OverflowError(f"time-{t!r} generator overflows")
            big = mat_exp(scaled)
            image = big[:n, :n] @ p + big[:n, n]
    if not np.isfinite(image).all():
        raise OverflowError(f"time-{t!r} image overflows")
    return image


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


def orbit(flow: FlowMap, x, t_grid) -> Orbit:
    """Evaluate the flow from x at each time in t_grid.

    A translation is the one broadcast x + t B.  Otherwise the generator G is
    scaled by a block of grid times, ``mat_exp`` runs once on that stack, and
    the first n rows of each exp(t G) are applied to (x, 1).  A block holds
    at most ORBIT_BLOCK_ENTRIES matrix entries, so the working memory does
    not grow with the grid.  Points at t = 0 are the start exactly; the
    others agree with ``flow_at`` to rounding (translations bitwise).

    Raises ValueError for an empty or non-finite grid and for a start point
    that ``flow_at`` rejects, and OverflowError when t G or a point is not
    representable in floats.
    """
    times = np.asarray(t_grid, dtype=float).reshape(-1)
    if times.size == 0:
        raise ValueError("time grid is empty")
    if not np.all(np.isfinite(times)):
        raise ValueError("time grid has non-finite entries")
    start = _start_point(flow, x)
    n = flow.field.n
    with np.errstate(over="ignore", invalid="ignore"):
        if flow.form == TRANSLATION:
            points = start + times[:, None] * flow.field.B
        else:
            points = np.empty((times.size, n))
            size = max(1, ORBIT_BLOCK_ENTRIES // (n + 1) ** 2)
            for lo in range(0, times.size, size):
                scaled = times[lo : lo + size, None, None] * flow.generator
                if not np.isfinite(scaled).all():
                    raise OverflowError("generator overflows on the time grid")
                big = mat_exp(scaled)
                points[lo : lo + size] = big[:, :n, :n] @ start + big[:, :n, n]
    if not np.isfinite(points).all():
        raise OverflowError("orbit point overflows on the time grid")
    points[times == 0.0] = start
    return Orbit(start=start, times=times, points=points)
