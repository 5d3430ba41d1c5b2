"""RK4 oracle tests."""

import math

import mpmath
import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.linalg import expm

from affine_fields import AffineField, evaluate
from affine_fields.oracle import (
    DivergenceError,
    OdeProblem,
    _power_increment,
    _rk4_increment,
    integrate,
    integrate_linear,
)
from conftest import random_affine_field


def field_rhs(field):
    return lambda x: evaluate(field, x)


def test_constant_rhs_is_exact():
    out = integrate(OdeProblem(lambda x: np.array([1.0, 2.0]), [0.0, 0.0], 1.0, 0.1))
    assert_allclose(out, [1.0, 2.0], atol=1e-15)


def test_rhs_returning_a_python_float():
    # The stages are then Python floats; the start's array carries the sum.
    out = integrate(OdeProblem(lambda x: 1.0, [0.0], 1.0, 0.25))
    assert out.tolist() == [1.0]


def test_planar_family_trajectory():
    # Solution coordinates are polynomials of degree <= 2 in t, which RK4
    # reproduces exactly up to rounding.
    field = AffineField([[0.0, 0.0], [2.0, 0.0]], [1.0, 0.0])
    out = integrate(OdeProblem(field_rhs(field), [0.0, 0.0], 2.0, 1e-3))
    assert_allclose(out, [2.0, 4.0], atol=1e-9)


def test_diagonal_linear_field():
    field = AffineField(np.diag([1.0, -1.0]), [0.0, 0.0])
    out = integrate(OdeProblem(field_rhs(field), [1.0, 1.0], 1.0, 1e-3))
    assert_allclose(out, [math.e, 1.0 / math.e], rtol=1e-10)


def test_backward_integration():
    field = AffineField(np.diag([1.0]), [0.0])
    out = integrate(OdeProblem(field_rhs(field), [1.0], -1.0, 1e-3))
    assert_allclose(out, [1.0 / math.e], rtol=1e-10)


def test_partial_last_step_lands_on_t_end():
    field = AffineField(np.zeros((1, 1)), [1.0])
    out = integrate(OdeProblem(field_rhs(field), [0.0], 1.0, 0.3))
    assert_allclose(out, [1.0], atol=1e-14)


def test_zero_t_end_returns_start():
    out = integrate(OdeProblem(lambda x: x, [3.0, 4.0], 0.0, 0.5))
    assert_allclose(out, [3.0, 4.0])


def test_convergence_order():
    rng = np.random.default_rng(11)
    for _ in range(5):
        n = int(rng.integers(2, 5))
        field = random_affine_field(rng, n)
        x = rng.uniform(-2.0, 2.0, size=n)
        # The exact end exp(G) (x, 1) of the generator G, from scipy.
        exact = (expm(field.matrix) @ np.append(x, 1.0))[:n]
        errors = [
            np.linalg.norm(integrate(OdeProblem(field_rhs(field), x, 1.0, h)) - exact)
            for h in (0.1, 0.05)
        ]
        assert math.log2(errors[0] / errors[1]) >= 3.7


def test_divergence_reports_time():
    problem = OdeProblem(lambda x: x**2, [10.0], 2.0, 0.05)
    with pytest.raises(DivergenceError) as info:
        integrate(problem)
    assert 0.0 < info.value.time <= 2.0


def test_step_must_not_exceed_t_end():
    with pytest.raises(ValueError, match="step"):
        OdeProblem(lambda x: x, [1.0], 0.1, 0.5)


def test_step_must_be_positive():
    with pytest.raises(ValueError, match="step"):
        OdeProblem(lambda x: x, [1.0], 1.0, 0.0)


def _linear_rhs(m):
    return lambda z: z @ m


def _exact_rk4_end(g, start, h, steps):
    """R(hG)^steps (x, 1) at 40 digits, R the RK4 stability polynomial: the
    exact end of the discrete RK4 march, rounded to floats."""
    with mpmath.workdps(40):
        m = mpmath.matrix(g.tolist()) * mpmath.mpf(h)
        r = mpmath.eye(len(start)) + m + m**2 / 2 + m**3 / 6 + m**4 / 24
        end = r**steps * mpmath.matrix(start.tolist())
        return np.array([float(v) for v in end])


def _march_by_folded_matrix(rhs, start, h, steps):
    """y <- y (I + D): the identity folded into the step matrix."""
    eye = np.eye(len(start))
    p = eye + _rk4_increment(rhs, eye, h)
    y = start
    for _ in range(steps):
        y = y @ p
    return y


def test_linear_march_matches_exact_discrete_rk4():
    # Relative to the exact discrete solution the stage form and the
    # squared increment stay near 1e-14; folding the identity into the step
    # matrix rounds each step's O(h) increment against 1 and drifts above
    # the bound.
    worst = {"stage": 0.0, "increment": 0.0, "folded": 0.0}
    for seed in range(4):
        rng = np.random.default_rng([seed, 14])
        for n in range(1, 7):
            field = random_affine_field(rng, n)
            start = np.append(rng.uniform(-2.0, 2.0, size=n), 1.0)
            rhs = _linear_rhs(field.matrix.T)
            problem = OdeProblem(rhs, start, 1.0, 1e-3)
            exact = _exact_rk4_end(field.matrix, start, 1e-3, 1000)
            ends = {
                "stage": integrate(problem),
                "increment": integrate_linear(problem),
                "folded": _march_by_folded_matrix(rhs, start, 1e-3, 1000),
            }
            for form, end in ends.items():
                error = np.linalg.norm(end - exact) / np.linalg.norm(exact)
                worst[form] = max(worst[form], error)
    assert worst["stage"] <= 5e-14
    assert worst["increment"] <= 5e-14
    assert worst["folded"] > 5e-14


@pytest.mark.parametrize(
    "t_end, step", [(1.0, 1e-3), (1.0, 0.3), (-1.0, 1e-3), (-0.7, 0.3)]
)
def test_linear_march_agrees_with_integrate(t_end, step):
    # A stack of generators, each against its own rows of starts.
    rng = np.random.default_rng(3)
    g_t = np.stack([random_affine_field(rng, 4).matrix.T for _ in range(5)])
    start = np.ones((5, 3, 5))
    start[..., :4] = rng.uniform(-2.0, 2.0, size=(5, 3, 4))
    problem = OdeProblem(_linear_rhs(g_t), start, t_end, step)
    want = integrate(problem)
    got = integrate_linear(problem)
    assert got.shape == start.shape
    assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)
    assert np.array_equal(got[..., -1], np.ones((5, 3)))


def test_linear_march_zero_t_end_returns_start():
    out = integrate_linear(OdeProblem(_linear_rhs(np.eye(2)), [[3.0, 4.0]], 0.0, 0.5))
    assert np.array_equal(out, [[3.0, 4.0]])


@pytest.mark.parametrize("rate", [0.5, 2.0 / 3.0])
def test_linear_blow_up_fails_at_the_time_integrate_does(rate):
    # At rate * step = 3 or 4 no RK4 stage exceeds the next state, so the
    # stage form cannot overflow a step before the state does.
    problem = OdeProblem(
        _linear_rhs(np.array([[rate, 0.0], [0.0, -0.1]])), [1.0, 1.0], 3000.0, 6.0
    )
    with pytest.raises(DivergenceError) as stage:
        integrate(problem)
    with pytest.raises(DivergenceError) as linear:
        integrate_linear(problem)
    assert 0.0 < linear.value.time == stage.value.time < 3000.0


@pytest.mark.parametrize("rate, step, sum_overflows", [(50.0, 0.05, True), (1e4, 1e-3, False)])
def test_blow_up_ends_at_the_first_non_finite_stage(rate, step, sum_overflows):
    # At rate * step = 2.5 or 10 the stages exceed the next state.  A step
    # whose stages are finite goes on even when their sum k1 + 2(k2 + k3) + k4
    # is not (at rate 50 one step does); the march ends at the first step
    # with a stage the rhs cannot give, and integrate_linear, which forms no
    # stage of the state, one step later, when the state itself overflows.
    rhs = _linear_rhs(np.array([[rate]]))
    problem = OdeProblem(rhs, [1.0], 1000 * step, step)
    with pytest.raises(DivergenceError) as stage:
        integrate(problem)
    with pytest.raises(DivergenceError) as linear:
        integrate_linear(problem)
    y, sums = problem.start, []
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, 1000):
            k1 = rhs(y)
            k2 = rhs(y + 0.5 * step * k1)
            k3 = rhs(y + 0.5 * step * k2)
            k4 = rhs(y + step * k3)
            if not np.all(np.isfinite([k1, k2, k3, k4])):
                break
            sums.append(np.all(np.isfinite(k1 + 2.0 * (k2 + k3) + k4)))
            y = y + _rk4_increment(rhs, y, step)
            assert np.all(np.isfinite(y))
    assert (not all(sums)) == sum_overflows
    assert stage.value.time == k * step
    assert linear.value.time == (k + 1) * step


def _march_by_increment(rhs, start, h, steps, tail):
    """y <- y + y D, step by step: the march the squared power replaces."""
    eye = np.eye(start.shape[-1])
    d = _rk4_increment(rhs, eye, h)
    y = start
    for _ in range(steps):
        y = y + y @ d
    if tail:
        y = y + y @ _rk4_increment(rhs, eye, tail)
    return y


@pytest.mark.parametrize("tail", [0.0, 0.5], ids=["whole", "shortened"])
@pytest.mark.parametrize("direction", [1.0, -1.0], ids=["forwards", "backwards"])
@pytest.mark.parametrize("steps", [1, 2, 3, 7, 8, 1000, 1023, 1024])
def test_squared_power_is_the_march(steps, direction, tail):
    # A binary step makes t_end exact: int(|t_end| / step) is steps, and
    # the shortened last step is tail * h.
    step = 2.0**-10
    rng = np.random.default_rng([steps, 19])
    g_t = np.stack([random_affine_field(rng, 3).matrix.T for _ in range(4)])
    start = np.ones((4, 2, 4))
    start[..., :3] = rng.uniform(-2.0, 2.0, size=(4, 2, 3))
    t_end = direction * (steps + tail) * step
    got = integrate_linear(OdeProblem(_linear_rhs(g_t), start, t_end, step))
    want = _march_by_increment(
        _linear_rhs(g_t), start, direction * step, steps, direction * tail * step
    )
    assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)
    assert np.array_equal(got[..., -1], np.ones((4, 2)))


def test_finite_march_whose_power_overflows_returns_the_march_end():
    # On the decaying axis of diag(a, -b) every step stays finite, but
    # R(h a)^1024 = 2.708^1024 overflows the squared power.
    m = np.diag([1024.0, -1.0])
    rhs = _linear_rhs(m)
    step = 2.0**-10
    with np.errstate(over="ignore"):
        power = _power_increment(_rk4_increment(rhs, np.eye(2), step), 1024)
    assert not np.all(np.isfinite(power))
    start = np.array([[0.0, 1.0]])
    got = integrate_linear(OdeProblem(rhs, start, 1.0, step))
    assert np.array_equal(got, _march_by_increment(rhs, start, step, 1024, 0.0))
    assert 0.0 < got[0, 1] < 1.0
