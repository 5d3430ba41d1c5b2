"""Chart registry: round trips, Jacobians, Newton inversion."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from affine_fields import actions as ga
from affine_fields.charts import (
    CHART_BUILDERS,
    ChartDomainError,
    diagonal_scaling_chart,
    exponential_chart,
    get_chart,
    identity_chart,
    lambert_chart,
    lambert_w,
)

ALL_CHARTS = [
    identity_chart(3),
    exponential_chart(3),
    lambert_chart(),
    diagonal_scaling_chart(3),
]


@pytest.mark.parametrize("chart", ALL_CHARTS, ids=lambda c: c.name)
def test_inverse_of_forward_is_identity(chart):
    rng = np.random.default_rng(0)
    for _ in range(50):
        x = chart.sample(rng)
        assert chart.contains(x)
        back = chart.inverse(chart.forward(x))
        assert np.linalg.norm(back - x) <= 1e-9 * (1.0 + np.linalg.norm(x))


@pytest.mark.parametrize("chart", ALL_CHARTS, ids=lambda c: c.name)
def test_jacobian_matches_finite_differences(chart):
    rng = np.random.default_rng(1)
    h = 1e-6
    for _ in range(20):
        x = chart.sample(rng)
        jac = chart.jacobian(x)
        for k in range(chart.n):
            up = x.copy()
            down = x.copy()
            up[k] += h
            down[k] -= h
            column = (chart.forward(up) - chart.forward(down)) / (2.0 * h)
            assert_allclose(jac[:, k], column, atol=1e-5)


def test_domain_membership():
    chart = exponential_chart(2)
    assert chart.contains([1.0, -3.0])
    assert not chart.contains([-1.0, 0.0])
    with pytest.raises(ChartDomainError):
        chart.require([-1.0, 0.0])


def test_lambert_domain_floor():
    chart = lambert_chart()
    assert not chart.contains([-0.95])
    assert chart.contains([5.0])


def test_lambert_newton_residuals():
    for w in (-0.36, -0.2, -0.05, 0.0, 0.3, 1.0, 4.0, 25.0, 60.0):
        u = lambert_w(w)
        assert abs(u * math.exp(u) - w) <= 1e-12
        assert u > -1.0


def test_lambert_round_trip_identity():
    for u in (-0.85, -0.5, 0.0, 0.5, 1.0, 2.0, 3.0):
        assert lambert_w(u * math.exp(u)) == pytest.approx(u, abs=1e-12)


def test_lambert_rejects_values_below_image():
    with pytest.raises(ChartDomainError):
        lambert_w(-0.5)


def test_registry_lookup():
    chart = get_chart("exponential", 4)
    assert chart.n == 4
    with pytest.raises(ValueError, match="unknown chart"):
        get_chart("missing", 2)
    with pytest.raises(ValueError, match="one-dimensional"):
        get_chart("lambert", 2)


@pytest.mark.parametrize("name", sorted(CHART_BUILDERS))
def test_equal_arguments_give_equal_charts(name):
    # Charts compare their coordinate maps by identity, so each builder
    # reuses its maps; actions with charts built apart are then equal too.
    n = 1 if name == "lambert" else 3
    chart, again = get_chart(name, n), get_chart(name, n)
    assert chart == again and hash(chart) == hash(again)
    assert chart != (identity_chart(2) if name == "identity" else identity_chart(n))
    action, same = (ga.chart_conjugated_action(ga.standard_linear_action(n), c)
                    for c in (chart, again))
    assert action == same and hash(action) == hash(same)
