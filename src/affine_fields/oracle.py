"""Fixed-step RK4 integration of integral-curve ODEs du/dt = f(u).

This is the independent check for every closed-form flow in the package: it
consumes only a right-hand-side callable, never the flow module itself.
``integrate`` evaluates the four RK4 stages at every step; for a linear
right-hand side, ``integrate_linear`` reaches the same discrete end by
squaring RK4's increment matrix, in O(log N) products for N steps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .linalg import _real

DEFAULT_STEP = 1e-3


class DivergenceError(RuntimeError):
    """Raised when the integration state stops being finite."""

    def __init__(self, time: float):
        super().__init__(f"non-finite state at t={time}")
        self.time = time


@dataclass(frozen=True)
class OdeProblem:
    """Initial value problem integrated from t = 0 to t_end.  The start keeps
    its shape (a scalar becomes a vector of one)."""

    rhs: Callable[[np.ndarray], np.ndarray]
    start: np.ndarray
    t_end: float
    step: float = DEFAULT_STEP

    def __post_init__(self):
        start = np.atleast_1d(np.array(_real(self.start, "start", finite=None)))
        object.__setattr__(self, "start", start)
        _real(self.t_end, "t_end")
        if self.step <= 0.0:
            raise ValueError("step must be positive")
        if self.t_end != 0.0 and self.step > abs(self.t_end):
            raise ValueError("step must not exceed |t_end|")


def _rk4_increment(rhs, y, h):
    k1 = rhs(y)
    k2 = rhs(y + 0.5 * h * k1)
    k3 = rhs(y + 0.5 * h * k2)
    k4 = rhs(y + h * k3)
    return (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)


def _steps(problem: OdeProblem) -> tuple[float, int, float]:
    """(h, n_full, tail): int(|t_end| / step) full steps of signed length h,
    then one shortened step of length tail (0.0 when there is none) that
    lands exactly on t_end."""
    t_end = problem.t_end
    h = (1.0 if t_end > 0.0 else -1.0) * problem.step
    n_full = int(abs(t_end) / problem.step)
    tail = t_end - n_full * h
    return h, n_full, tail if abs(tail) > 1e-15 * abs(t_end) else 0.0


def _march(problem: OdeProblem, advance) -> np.ndarray:
    """y ← advance(y, h) from the start, step by step as ``_steps`` lays
    out.  Raises DivergenceError with the time of the first non-finite state;
    overflow on the way there is that error, not a warning."""
    y = problem.start.copy()
    h, n_full, tail = _steps(problem)
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n_full):
            y = advance(y, h)
            if not np.all(np.isfinite(y)):
                raise DivergenceError((k + 1) * h)
        if tail:
            y = advance(y, tail)
            if not np.all(np.isfinite(y)):
                raise DivergenceError(problem.t_end)
    return y


def integrate(problem: OdeProblem) -> np.ndarray:
    """Classical RK4 with fixed step; the last step is shortened to land
    exactly on t_end.  Global error is O(step^4)."""
    return _march(problem, lambda y, h: y + _rk4_increment(problem.rhs, y, h))


def _power_increment(d: np.ndarray, n: int) -> np.ndarray:
    """(I + d)^n − I for n ≥ 1 by binary powering with the identity kept
    out: P_2k = P_k + P_k + P_k P_k, and acc ← acc + P + acc P for each set
    bit of n, lowest first; about 2 log2 n products."""
    acc = None
    while True:
        if n & 1:
            acc = d if acc is None else acc + d + acc @ d
        n >>= 1
        if not n:
            return acc
        d = d + d + d @ d


def integrate_linear(problem: OdeProblem) -> np.ndarray:
    """``integrate`` for a linear rhs z ↦ z @ M on row stacks, where M may be
    a stack that broadcasts against the leading axes of the start.  One RK4
    step is then y ↦ y + y D, with D = R(hM) − I the RK4 increment of the
    identity (R the stability polynomial), formed once per step length, so
    the N full steps end at y + y P_N with P_N = (I + D)^N − I, formed by
    squaring D.  The identity stays out of D and P_N: a power of I + D would
    round each step's increment against 1.  When that end is not finite the
    steps are marched one by one instead, so that a divergence reports its
    time and a march that stays finite returns its own end."""
    eye = np.eye(problem.start.shape[-1])
    increments = {}

    def increment(h):
        if h not in increments:
            increments[h] = _rk4_increment(problem.rhs, eye, h)
        return increments[h]

    h, n_full, tail = _steps(problem)
    y = problem.start.copy()
    with np.errstate(over="ignore", invalid="ignore"):
        if n_full:
            y = y + y @ _power_increment(increment(h), n_full)
        if tail:
            y = y + y @ increment(tail)
    if np.all(np.isfinite(y)):
        return y
    return _march(problem, lambda y, h: y + y @ increment(h))
