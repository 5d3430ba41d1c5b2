"""Fixed-step RK4 integration of integral-curve ODEs du/dt = f(u).

This is the independent check for every closed-form flow in the package: it
consumes only a right-hand-side callable, never the flow module itself.
``integrate`` evaluates the four RK4 stages at every step; for a linear
right-hand side, ``integrate_linear`` marches by RK4's increment matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

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
        start = np.atleast_1d(np.array(self.start, dtype=float))
        object.__setattr__(self, "start", start)
        if not np.isfinite(self.t_end):
            raise ValueError("t_end must be finite")
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


def _march(problem: OdeProblem, advance) -> np.ndarray:
    """y ← advance(y, h) from the start: int(|t_end| / step) full steps, then
    one shortened step that lands exactly on t_end.  Raises DivergenceError
    with the time of the first non-finite state."""
    y = problem.start.copy()
    t_end = problem.t_end
    if t_end == 0.0:
        return y
    direction = 1.0 if t_end > 0.0 else -1.0
    h = direction * problem.step
    n_full = int(abs(t_end) / problem.step)
    for k in range(n_full):
        y = advance(y, h)
        if not np.all(np.isfinite(y)):
            raise DivergenceError((k + 1) * h)
    tail = t_end - n_full * h
    if abs(tail) > 1e-15 * abs(t_end):
        y = advance(y, tail)
        if not np.all(np.isfinite(y)):
            raise DivergenceError(t_end)
    return y


def integrate(problem: OdeProblem) -> np.ndarray:
    """Classical RK4 with fixed step; the last step is shortened to land
    exactly on t_end.  Global error is O(step^4)."""
    return _march(problem, lambda y, h: y + _rk4_increment(problem.rhs, y, h))


def integrate_linear(problem: OdeProblem) -> np.ndarray:
    """``integrate`` for a linear rhs z ↦ z @ M on row stacks, where M may be
    a stack that broadcasts against the leading axes of the start.  One RK4
    step is then y ↦ y + y D, with D = R(hM) − I the RK4 increment of the
    identity (R the stability polynomial), formed once per step length.  The
    identity stays out of D: a march by I + D would round each step's
    increment against 1."""
    eye = np.eye(problem.start.shape[-1])
    increments = {}

    def advance(y, h):
        if h not in increments:
            increments[h] = _rk4_increment(problem.rhs, eye, h)
        return y + y @ increments[h]

    return _march(problem, advance)
