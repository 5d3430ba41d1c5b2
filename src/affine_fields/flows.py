"""Closed-form flows of affine fields and the flow-map algebra.

The time-t map of the field x -> C x + B takes one of two forms:

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

_FORMS = (TRANSLATION, AUGMENTED_EXPONENTIAL)


@dataclass(frozen=True)
class FlowMap:
    """Closed-form flow of an affine field; immutable and pure to evaluate.

    ``generator`` is the homogeneous embedding [[C, B], [0, 0]], built once.
    """

    field: AffineField
    form: str

    def __post_init__(self):
        if self.form not in _FORMS:
            raise ValueError(f"unknown flow form {self.form!r}")
        generator = augment_affine(self.field.C, self.field.B)
        generator.flags.writeable = False
        object.__setattr__(self, "generator", generator)


def make_flow(field: AffineField) -> FlowMap:
    """Translation when C is exactly zero, else the augmented exponential."""
    if not np.any(field.C):
        return FlowMap(field, TRANSLATION)
    return FlowMap(field, AUGMENTED_EXPONENTIAL)


def flow_at(flow: FlowMap, t: float, x) -> np.ndarray:
    """Image of the point x under the time-t flow map.

    Raises OverflowError when t G or the image is not representable in
    floats, and ValueError for a non-finite t or x.
    """
    if not np.isfinite(t):
        raise ValueError("t must be finite")
    p = np.asarray(x, dtype=float).reshape(-1)
    field = flow.field
    n = field.n
    if p.size != n:
        raise ValueError(f"point has dim {p.size}, flow lives on R^{n}")
    if not np.isfinite(p).all():
        raise ValueError("point must be finite")
    if t == 0.0:
        # The time-zero map is the identity exactly, not just up to rounding.
        return p.copy()
    with np.errstate(over="ignore", invalid="ignore"):
        if flow.form == TRANSLATION:
            image = p + t * field.B
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
    """Evaluate the flow from x at each time in t_grid."""
    times = np.asarray(t_grid, dtype=float).reshape(-1)
    if times.size == 0:
        raise ValueError("time grid is empty")
    if not np.all(np.isfinite(times)):
        raise ValueError("time grid has non-finite entries")
    start = np.asarray(x, dtype=float).reshape(-1)
    points = np.stack([flow_at(flow, t, start) for t in times])
    return Orbit(start=start, times=times, points=points)
