"""Registry of explicit charts: diffeomorphisms of open boxes of R^n.

A chart is n one-dimensional coordinate maps, the k-th reading the k-th
ambient coordinate on its own, so its Jacobian is diagonal.  Each map carries
its inverse, its derivative, its open domain interval and a finite sampling
interval well inside the domain for probing.  Charts localize group actions:
conjugating a global action by a chart gives a local action whose fundamental
fields are affine in the chart frame but generally not in the ambient one.
Charts compare their maps by identity, so the registry's builders share
their maps or are cached: equal arguments give equal, equally hashed charts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, NamedTuple

import numpy as np

from .linalg import _real


class ChartDomainError(ValueError):
    """A point fell outside a chart's domain or its coordinate image."""


class Coordinate(NamedTuple):
    """A coordinate map v = forward(x) on the open interval ``domain``, with
    its inverse and derivative; ``box`` is the sampling interval."""

    forward: Callable[[float], float]
    inverse: Callable[[float], float]
    derivative: Callable[[float], float]
    domain: tuple[float, float] = (-math.inf, math.inf)
    box: tuple[float, float] = (-2.0, 2.0)


@dataclass(frozen=True)
class Chart:
    """The product of ``coordinates``; ``domain`` and ``box`` are read-only
    2 x n arrays of lower and upper bounds."""

    name: str
    coordinates: tuple[Coordinate, ...]
    n: int = field(init=False, compare=False)
    domain: np.ndarray = field(init=False, repr=False, compare=False)
    box: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "n", len(self.coordinates))
        for attr in ("domain", "box"):
            bounds = _real([getattr(c, attr) for c in self.coordinates], attr, finite=None)
            bounds = bounds.reshape(self.n, 2).T.copy()
            bounds.flags.writeable = False
            object.__setattr__(self, attr, bounds)

    def _apply(self, part: str, x) -> np.ndarray:
        """Each coordinate's ``part`` map on its column of x, one point of n
        coordinates or a (..., n) stack of them, a value at a time."""
        p = _real(x, "point", self.n, f"chart {self.name!r}", finite=None, stack=True,
                  error=ChartDomainError)
        columns = [list(map(getattr(c, part), column))
                   for c, column in zip(self.coordinates, p.reshape(-1, self.n).T.tolist())]
        return np.array(columns).T.reshape(p.shape)

    def forward(self, x) -> np.ndarray:
        return self._apply("forward", x)

    def inverse(self, v) -> np.ndarray:
        return self._apply("inverse", v)

    def jacobian(self, x) -> np.ndarray:
        return np.diag(self._apply("derivative", x))

    def contains(self, x) -> bool:
        p = _real(x, "point", self.n, f"chart {self.name!r}", finite=None,
                  error=ChartDomainError)
        return bool(np.all(p > self.domain[0]) and np.all(p < self.domain[1]))

    def require(self, x) -> np.ndarray:
        """x as a float point, or a (..., n) stack of points, once every
        point lies in the domain, which no NaN or infinite entry does; else
        the first point outside it is named."""
        p = _real(x, "point", self.n, f"chart {self.name!r}", finite=None, stack=True,
                  error=ChartDomainError)
        inside = (p > self.domain[0]) & (p < self.domain[1])
        if not inside.all():
            rows = p.reshape(-1, self.n)
            outside = rows[~inside.reshape(-1, self.n).all(axis=1)][0]
            raise ChartDomainError(f"point {outside.tolist()} outside chart {self.name!r}")
        return p

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        return rng.uniform(self.box[0], self.box[1])


_IDENTITY = Coordinate(lambda x: x, lambda v: v, lambda x: 1.0)


def identity_chart(n: int) -> Chart:
    return Chart("identity", (_IDENTITY,) * n)


@lru_cache(maxsize=None)
def exponential_chart(n: int) -> Chart:
    """First coordinate is read through a logarithm: v1 = log(x1), vk = xk.

    The inverse x1 = exp(v1) keeps the first ambient coordinate positive, so
    translation actions conjugated through this chart rescale x1.
    """
    log = Coordinate(math.log, math.exp, lambda x: 1.0 / x, (0.0, math.inf), (0.2, 3.0))
    return Chart("exponential", (log,) + (_IDENTITY,) * (n - 1))


# u e^u is increasing and convex for u > -1; inverting it is the principal
# branch of the Lambert W function.
_LAMBERT_FLOOR = -1.0 + 1e-12
_LAMBERT_MAX_ITERATIONS = 50
_LAMBERT_RESIDUAL = 1e-14
# A Newton step of at most this many ulps of u ends the iteration: once u is
# in the hundreds, the rounding of u e^u exceeds the residual bound, and the
# iterates settle within an ulp of the root instead.
_LAMBERT_STEP_ULPS = 1
# Above e the residual is taken 2^-10 times, which keeps u e^u finite up to
# the largest float and, a power of two being exact, changes no rounding.
_LAMBERT_SCALE = 2.0**-10


def lambert_w(w: float) -> float:
    """Solve u * exp(u) = w for u > -1 by Newton iteration.

    The first Newton step from any start lands at or right of the root
    because the map is convex and increasing there; subsequent steps
    converge monotonically and quadratically.  The iteration stops when the
    residual is within 1e-14 (1 + |w|) or a step moves u by at most
    _LAMBERT_STEP_ULPS ulps; the latter returns the stepped u.
    """
    if w == 0.0:
        return 0.0
    if w < -math.exp(-1.0):
        raise ChartDomainError(f"{w} is below the image of u * exp(u) on u > -1")
    scale = _LAMBERT_SCALE if w > math.e else 1.0
    u = math.log(w) if w > math.e else min(w, 1.0)
    u = max(u, _LAMBERT_FLOOR)
    bound = _LAMBERT_RESIDUAL * (1.0 + abs(w)) * scale
    for _ in range(_LAMBERT_MAX_ITERATIONS):
        eu = math.exp(u) * scale
        residual = u * eu - w * scale
        if abs(residual) <= bound:
            return u
        stepped = max(u - residual / (eu * (1.0 + u)), _LAMBERT_FLOOR)
        if abs(stepped - u) <= _LAMBERT_STEP_ULPS * math.ulp(u):
            return stepped
        u = stepped
    raise ChartDomainError(f"inversion of u * exp(u) did not converge for {w}")


@lru_cache(maxsize=None)
def lambert_chart() -> Chart:
    """One-dimensional chart with coordinate v = u * exp(u), domain u > -0.9.

    The domain stays clear of u = -1 where the coordinate map degenerates.
    Sampling keeps a margin from the image floor -1/e so that compositions of
    near-identity elements stay invertible.  The inverse looks lambert_w up
    when called, so a rebinding of ``charts.lambert_w`` (a tracer) sees it.
    """
    return Chart("lambert", (Coordinate(
        lambda u: u * math.exp(u), lambda w: lambert_w(w),
        lambda u: math.exp(u) * (1.0 + u), (-0.9, math.inf), (-0.3, 2.0)),))


@lru_cache(maxsize=None)
def diagonal_scaling_chart(n: int) -> Chart:
    """Linear chart v = diag(d) x with the distinct factors d_k = 1 + 0.5 k,
    k = 0, ..., n - 1; the inverse multiplies by 1 / d_k."""
    return Chart("diagonal-scaling", tuple(
        Coordinate(lambda x, d=d: d * x, lambda v, r=1.0 / d: r * v, lambda x, d=d: d)
        for d in (1.0 + 0.5 * k for k in range(n))))


def _build_lambert(n: int) -> Chart:
    if n != 1:
        raise ValueError("the lambert chart is one-dimensional")
    return lambert_chart()


CHART_BUILDERS: dict[str, Callable[[int], Chart]] = {
    "identity": identity_chart,
    "exponential": exponential_chart,
    "lambert": _build_lambert,
    "diagonal-scaling": diagonal_scaling_chart,
}


def get_chart(name: str, n: int) -> Chart:
    try:
        builder = CHART_BUILDERS[name]
    except KeyError:
        raise ValueError(
            f"unknown chart {name!r}; available: {sorted(CHART_BUILDERS)}"
        ) from None
    return builder(n)
