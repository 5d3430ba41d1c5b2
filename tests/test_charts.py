"""Chart registry: round trips, Jacobians, Newton inversion."""

import math
import re
import sys

import mpmath
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


@pytest.mark.parametrize("chart", ALL_CHARTS, ids=lambda c: c.name)
def test_maps_of_a_stack_are_those_of_each_point(chart):
    # forward and inverse take (..., n) stacks, coordinate by coordinate,
    # and give each point bit for bit what it gives alone.
    rng = np.random.default_rng(2)
    x = np.array([[chart.sample(rng) for _ in range(7)] for _ in range(2)])
    for part in (chart.forward, chart.inverse):
        stacked = part(x)
        assert stacked.shape == x.shape
        for index in np.ndindex(x.shape[:-1]):
            assert stacked[index].tobytes() == part(x[index]).tobytes()


def test_require_names_the_first_point_outside():
    chart = exponential_chart(2)
    points = np.array([[1.0, 0.0], [2.0, -5.0], [-1.0, 0.0], [0.0, 3.0]])
    assert np.array_equal(chart.require(points[:2]), points[:2])
    with pytest.raises(ChartDomainError, match=r"^point \[-1.0, 0.0\] outside chart"):
        chart.require(points)
    with pytest.raises(ChartDomainError, match="point has dim 3"):
        chart.require(np.ones((4, 3)))


@pytest.mark.parametrize("part", ["forward", "inverse", "jacobian", "contains", "require"])
def test_point_of_another_dimension_is_refused(part):
    # A (2, 3) stack on a 2-D chart was read as three rows of two and came
    # back from forward and inverse as wrong numbers of the same shape; a
    # point of three coordinates was tested entry by entry against a 1-D
    # chart's domain by contains, which takes one point (here of dim 6).
    for chart, x in ((diagonal_scaling_chart(2), np.arange(6.0).reshape(2, 3)),
                     (lambert_chart(), [1.0, 2.0, 3.0])):
        dim = np.size(x) if part == "contains" else np.shape(x)[-1]
        message = f"point has dim {dim}, chart {chart.name!r} lives on R^{chart.n}"
        with pytest.raises(ChartDomainError, match=f"^{re.escape(message)}$"):
            getattr(chart, part)(x)


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


def _plain_newton(w):
    """lambert_w without its step test: Newton until the residual is within
    1e-14 (1 + |w|), or None after 50 steps."""
    if w == 0.0:
        return 0.0
    u = max(math.log(w) if w > math.e else min(w, 1.0), -1.0 + 1e-12)
    for _ in range(50):
        eu = math.exp(u)
        residual = u * eu - w
        if abs(residual) <= 1e-14 * (1.0 + abs(w)):
            return u
        u = max(u - residual / (eu * (1.0 + u)), -1.0 + 1e-12)
    return None


def test_lambert_w_converges_over_the_whole_float_range():
    # Once u is in the hundreds the rounding of u e^u exceeds the residual
    # bound, so the plain Newton iteration never meets it (from about 6e57);
    # lambert_w stops on a step of an ulp there and is within an ulp of the
    # root.  Wherever the plain iteration converges, lambert_w is it, bit for
    # bit.
    sweep = np.concatenate([np.logspace(-300, 308, 3000),
                            -np.logspace(-300, math.log10(math.exp(-1.0)), 1000)])
    listed = [1e100, 1e200, 1e250, 1e290, 1e300, 1.48e301, 1e305, 1.7e308,
              sys.float_info.max, -math.exp(-1.0)]
    stopped = 0
    for w in sweep.tolist() + listed:
        u = lambert_w(w)
        plain = _plain_newton(w)
        if plain is not None:
            assert u == plain, w
        else:
            stopped += 1
            root = mpmath.lambertw(mpmath.mpf(w))
            assert abs(u - root) <= math.ulp(u), w
    assert stopped > 400


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
