"""RK4 oracle tests."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.linalg import expm

from affine_fields import AffineField, evaluate
from affine_fields.oracle import DivergenceError, OdeProblem, integrate
from conftest import random_affine_field


def field_rhs(field):
    return lambda x: evaluate(field, x)


def test_constant_rhs_is_exact():
    out = integrate(OdeProblem(lambda x: np.array([1.0, 2.0]), [0.0, 0.0], 1.0, 0.1))
    assert_allclose(out, [1.0, 2.0], atol=1e-15)


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


@pytest.mark.filterwarnings("ignore:overflow")
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
