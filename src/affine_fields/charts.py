"""Registry of explicit charts: diffeomorphisms of open boxes of R^n.

Each chart carries its coordinate map (forward), its inverse, the Jacobian of
the forward map, the open domain box, and a finite sampling box well inside
the domain for probing.  Charts localize group actions: conjugating a global
action by a chart gives a local action whose fundamental fields are affine in
the chart frame but generally not in the ambient one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np


class ChartDomainError(ValueError):
    """A point fell outside a chart's domain or its coordinate image."""


@dataclass(frozen=True)
class Chart:
    name: str
    n: int
    forward: Callable[[np.ndarray], np.ndarray]
    inverse: Callable[[np.ndarray], np.ndarray]
    jacobian: Callable[[np.ndarray], np.ndarray]
    lower: np.ndarray
    upper: np.ndarray
    sample_lower: np.ndarray
    sample_upper: np.ndarray

    def __post_init__(self):
        for attr in ("lower", "upper", "sample_lower", "sample_upper"):
            arr = np.array(getattr(self, attr), dtype=float).reshape(-1)
            if arr.size != self.n:
                raise ValueError(f"{attr} must have dim {self.n}")
            arr.flags.writeable = False
            object.__setattr__(self, attr, arr)

    def contains(self, x) -> bool:
        p = np.asarray(x, dtype=float).reshape(-1)
        return bool(np.all(p > self.lower) and np.all(p < self.upper))

    def require(self, x) -> np.ndarray:
        p = np.asarray(x, dtype=float).reshape(-1)
        if p.size != self.n:
            raise ChartDomainError(
                f"point has dim {p.size}, chart {self.name!r} lives on R^{self.n}"
            )
        if not self.contains(p):
            raise ChartDomainError(f"point {p.tolist()} outside chart {self.name!r}")
        return p

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        return rng.uniform(self.sample_lower, self.sample_upper)


def identity_chart(n: int) -> Chart:
    return Chart(
        name="identity",
        n=n,
        forward=lambda x: np.asarray(x, dtype=float).copy(),
        inverse=lambda v: np.asarray(v, dtype=float).copy(),
        jacobian=lambda x: np.eye(n),
        lower=np.full(n, -np.inf),
        upper=np.full(n, np.inf),
        sample_lower=np.full(n, -2.0),
        sample_upper=np.full(n, 2.0),
    )


def exponential_chart(n: int) -> Chart:
    """First coordinate is read through a logarithm: v1 = log(x1), vk = xk.

    The inverse x1 = exp(v1) keeps the first ambient coordinate positive, so
    translation actions conjugated through this chart rescale x1.
    """

    def forward(x):
        p = np.asarray(x, dtype=float)
        out = p.copy()
        out[0] = math.log(p[0])
        return out

    def inverse(v):
        q = np.asarray(v, dtype=float)
        out = q.copy()
        out[0] = math.exp(q[0])
        return out

    def jacobian(x):
        p = np.asarray(x, dtype=float)
        jac = np.eye(n)
        jac[0, 0] = 1.0 / p[0]
        return jac

    lower = np.full(n, -np.inf)
    lower[0] = 0.0
    sample_lower = np.full(n, -2.0)
    sample_lower[0] = 0.2
    sample_upper = np.full(n, 2.0)
    sample_upper[0] = 3.0
    return Chart(
        name="exponential",
        n=n,
        forward=forward,
        inverse=inverse,
        jacobian=jacobian,
        lower=lower,
        upper=np.full(n, np.inf),
        sample_lower=sample_lower,
        sample_upper=sample_upper,
    )


# u e^u is increasing and convex for u > -1; inverting it is the principal
# branch of the Lambert W function.
_LAMBERT_FLOOR = -1.0 + 1e-12
_LAMBERT_MAX_ITERATIONS = 50
_LAMBERT_RESIDUAL = 1e-14


def lambert_w(w: float) -> float:
    """Solve u * exp(u) = w for u > -1 by Newton iteration.

    The first Newton step from any start lands at or right of the root
    because the map is convex and increasing there; subsequent steps
    converge monotonically and quadratically.
    """
    if w == 0.0:
        return 0.0
    if w < -math.exp(-1.0):
        raise ChartDomainError(f"{w} is below the image of u * exp(u) on u > -1")
    u = math.log(w) if w > math.e else min(w, 1.0)
    u = max(u, _LAMBERT_FLOOR)
    for _ in range(_LAMBERT_MAX_ITERATIONS):
        eu = math.exp(u)
        residual = u * eu - w
        if abs(residual) <= _LAMBERT_RESIDUAL * (1.0 + abs(w)):
            return u
        u = max(u - residual / (eu * (1.0 + u)), _LAMBERT_FLOOR)
    raise ChartDomainError(f"inversion of u * exp(u) did not converge for {w}")


def lambert_chart() -> Chart:
    """One-dimensional chart with coordinate v = u * exp(u), domain u > -0.9.

    The domain stays clear of u = -1 where the coordinate map degenerates.
    """

    def forward(x):
        p = np.asarray(x, dtype=float)
        return np.array([p[0] * math.exp(p[0])])

    def inverse(v):
        q = np.asarray(v, dtype=float)
        return np.array([lambert_w(q[0])])

    def jacobian(x):
        p = np.asarray(x, dtype=float)
        return np.array([[math.exp(p[0]) * (1.0 + p[0])]])

    return Chart(
        name="lambert",
        n=1,
        forward=forward,
        inverse=inverse,
        jacobian=jacobian,
        lower=np.array([-0.9]),
        upper=np.array([np.inf]),
        # Sampling keeps a margin from the image floor -1/e so that
        # compositions of near-identity elements stay invertible.
        sample_lower=np.array([-0.3]),
        sample_upper=np.array([2.0]),
    )


def diagonal_scaling_chart(n: int) -> Chart:
    """Linear chart v = diag(d) x with the distinct factors d_k = 1 + 0.5 k,
    k = 0, ..., n - 1."""
    d = 1.0 + 0.5 * np.arange(n)
    inv_d = 1.0 / d
    return Chart(
        name="diagonal-scaling",
        n=n,
        forward=lambda x: d * np.asarray(x, dtype=float),
        inverse=lambda v: inv_d * np.asarray(v, dtype=float),
        jacobian=lambda x: np.diag(d),
        lower=np.full(n, -np.inf),
        upper=np.full(n, np.inf),
        sample_lower=np.full(n, -2.0),
        sample_upper=np.full(n, 2.0),
    )


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
