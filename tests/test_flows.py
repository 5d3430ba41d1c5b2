"""Closed-form flow tests, cross-validated against the RK4 oracle."""

import math

import mpmath
import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.linalg import expm

from affine_fields import (
    AffineField,
    constant_field,
    evaluate,
    linear_field,
    zero_field,
)
from affine_fields.flows import (
    AUGMENTED_EXPONENTIAL,
    TRANSLATION,
    FlowMap,
    flow_at,
    group_law_defect,
    make_flow,
    orbit,
)
from affine_fields.oracle import OdeProblem, integrate
from conftest import random_affine_field

PLANAR = AffineField([[0.0, 0.0], [2.0, 0.0]], [1.0, 0.0])


class TestMakeFlow:
    def test_constant_selects_translation(self):
        assert make_flow(constant_field([1.0, 2.0])).form == TRANSLATION

    def test_linear_selects_augmented(self):
        assert make_flow(linear_field(np.eye(2))).form == AUGMENTED_EXPONENTIAL

    def test_tiny_matrix_selects_augmented(self):
        # Only an exactly zero C translates; no absolute tolerance applies.
        field = AffineField([[1e-15]], [1e-15])
        assert make_flow(field).form == AUGMENTED_EXPONENTIAL

    def test_unsolvable_shift_selects_augmented(self):
        # C U0 = (0, 2 U0[0]) can never hit -B = (-1, 0).
        assert make_flow(PLANAR).form == AUGMENTED_EXPONENTIAL

    def test_form_follows_the_field(self):
        # The form is not an argument: a FlowMap named a translation could
        # flow 0 to (1, 1), where the true time-1 image is (e - 1, e - 1).
        flow = FlowMap(AffineField(np.eye(2), [1.0, 1.0]))
        assert flow.form == AUGMENTED_EXPONENTIAL
        image = flow_at(flow, 1.0, [0.0, 0.0])
        assert_allclose(image, [math.e - 1.0, math.e - 1.0], rtol=1e-13)
        with pytest.raises(TypeError):
            FlowMap(AffineField(np.eye(2), [1.0, 1.0]), TRANSLATION)


class TestFlowAt:
    def test_translation(self):
        flow = make_flow(constant_field([1.0, 2.0]))
        assert_allclose(flow_at(flow, 3.0, [0.0, 0.0]), [3.0, 6.0])

    def test_planar_family_value(self):
        # (b + t, c + 2 b t + t^2) at t = 2 from the origin.
        flow = make_flow(PLANAR)
        assert_allclose(flow_at(flow, 2.0, [0.0, 0.0]), [2.0, 4.0], atol=1e-12)

    def test_diagonal_exponential_vs_oracle(self):
        field = linear_field(np.diag([1.0, -1.0]))
        flow = make_flow(field)
        got = flow_at(flow, 1.0, [1.0, 1.0])
        assert_allclose(got, [math.e, 1.0 / math.e], rtol=1e-12)
        oracle = integrate(
            OdeProblem(lambda x: evaluate(field, x), [1.0, 1.0], 1.0, 1e-3)
        )
        assert_allclose(got, oracle, rtol=1e-10)

    def test_time_zero_is_identity_exactly(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            n = int(rng.integers(1, 6))
            flow = make_flow(random_affine_field(rng, n))
            x = rng.uniform(-2.0, 2.0, size=n)
            assert np.array_equal(flow_at(flow, 0.0, x), x)

    def test_derivative_at_zero_matches_field(self):
        rng = np.random.default_rng(1)
        h = 1e-6
        for _ in range(20):
            n = int(rng.integers(1, 6))
            field = random_affine_field(rng, n)
            flow = make_flow(field)
            x = rng.uniform(-2.0, 2.0, size=n)
            quotient = (flow_at(flow, h, x) - flow_at(flow, -h, x)) / (2.0 * h)
            value = evaluate(field, x)
            assert np.linalg.norm(quotient - value) <= 1e-8 * (
                1.0 + np.linalg.norm(value)
            )

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            flow_at(make_flow(constant_field([1.0])), 1.0, [1.0, 2.0])


class TestGroupLaw:
    def test_zero_times_exact(self):
        flow = make_flow(PLANAR)
        assert group_law_defect(flow, 0.0, 0.0, [1.0, -1.0]) == 0.0

    def test_translation_defect_is_rounding(self):
        flow = make_flow(constant_field([1.0, -2.0]))
        assert group_law_defect(flow, 0.7, -0.3, [4.0, 5.0]) <= 1e-14

    def test_random_ensemble(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            n = int(rng.integers(1, 6))
            flow = make_flow(random_affine_field(rng, n))
            s, t = rng.uniform(-1.0, 1.0, size=2)
            x = rng.uniform(-2.0, 2.0, size=n)
            assert group_law_defect(flow, s, t, x) <= 1e-8 * (
                1.0 + np.linalg.norm(x)
            )


class TestAgreement:
    """The augmented exponential against the paper's three closed forms."""

    def test_reduces_to_translation_and_exponential(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            n = int(rng.integers(1, 5))
            t = rng.uniform(-1.0, 1.0)
            x = rng.uniform(-2.0, 2.0, size=n)
            b = rng.uniform(-2.0, 2.0, size=n)
            c = rng.uniform(-2.0, 2.0, size=(n, n))
            got = flow_at(make_flow(constant_field(b)), t, x)
            assert np.linalg.norm(got - (x + t * b)) <= 1e-10
            got = flow_at(make_flow(linear_field(c)), t, x)
            assert np.linalg.norm(got - expm(t * c) @ x) <= 1e-10

    def test_shifted_form_at_either_fixed_point(self):
        # Rank-1 C with B in its range: many fixed points, one flow.
        c = np.array([[1.0, 1.0], [1.0, 1.0]])
        b = np.array([-2.0, -2.0])
        flow = make_flow(AffineField(c, b))
        u1 = np.array([1.0, 1.0])  # C u1 + B = 0
        u2 = np.array([3.0, -1.0])  # also a fixed point, differs by null vector
        rng = np.random.default_rng(3)
        for _ in range(10):
            t = rng.uniform(-1.0, 1.0)
            x = rng.uniform(-2.0, 2.0, size=2)
            got = flow_at(flow, t, x)
            for u in (u1, u2):
                assert np.linalg.norm(got - (expm(t * c) @ (x - u) + u)) <= 1e-10


def _relative_error(got, want) -> float:
    """Largest componentwise error relative to the mpmath values."""
    return max(float(abs((mpmath.mpf(g) - w) / w)) for g, w in zip(got, want))


class TestRegressions:
    def test_tiny_scale_field_is_not_constant(self):
        # x' = 1e-15 (x + 1) from 0: x(t) = exp(1e-15 t) - 1, e - 1 at t = 1e15.
        flow = make_flow(AffineField([[1e-15]], [1e-15]))
        with mpmath.workdps(50):
            want = [mpmath.expm1(mpmath.mpf(1e-15) * mpmath.mpf(1e15))]
            assert _relative_error(flow_at(flow, 1e15, [0.0]), want) <= 1e-12

    def test_near_singular_matrix_keeps_full_accuracy(self):
        # Componentwise x_i(1) = (exp(c_i) - 1) / c_i from 0, with B = (1, 1).
        flow = make_flow(AffineField(np.diag([1.0, 1e-9]), [1.0, 1.0]))
        with mpmath.workdps(50):
            want = [mpmath.expm1(mpmath.mpf(c)) / mpmath.mpf(c) for c in (1.0, 1e-9)]
            assert _relative_error(flow_at(flow, 1.0, [0.0, 0.0]), want) <= 1e-12

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "c, t",
        [(100.0, 10.0), (1e10, 1e300)],  # the image overflows; t C itself overflows
    )
    def test_overflow_raises_without_warning(self, c, t):
        flow = make_flow(AffineField([[c]], [0.0]))
        with pytest.raises(OverflowError):
            flow_at(flow, t, [1.0])

    @pytest.mark.parametrize("x", [[np.nan, 0.0], [np.inf, 0.0]])
    def test_non_finite_point_rejected(self, x):
        flow = make_flow(AffineField([[1.0, 0.0], [0.0, 1.0]], [0.0, 0.0]))
        with pytest.raises(ValueError, match="point must be finite"):
            flow_at(flow, 1.0, x)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_translation_overflow_raises_without_warning(self):
        flow = make_flow(constant_field([1e300]))
        with pytest.raises(OverflowError):
            flow_at(flow, 1e10, [0.0])


class TestOrbit:
    def test_constant_field_grid(self):
        flow = make_flow(constant_field([1.0, 0.0]))
        path = orbit(flow, [0.0, 0.0], [0.0, 1.0, 2.0])
        assert_allclose(path.points, [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        assert np.array_equal(path.points[0], path.start)

    def test_planar_family_formula_on_grid(self):
        # (b + t, c + 2 b t + t^2) for (alpha, beta, gamma) = (1, 1, 0).
        flow = make_flow(PLANAR)
        b, c = 0.5, -1.0
        grid = np.linspace(-1.0, 1.0, 10)
        path = orbit(flow, [b, c], grid)
        expected = np.stack([b + grid, c + 2.0 * b * grid + grid**2], axis=1)
        assert_allclose(path.points, expected, atol=1e-12)

    def test_orbit_matches_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            n = int(rng.integers(1, 5))
            field = random_affine_field(rng, n)
            flow = make_flow(field)
            x = rng.uniform(-2.0, 2.0, size=n)
            got = orbit(flow, x, [1.0]).points[0]
            ref = integrate(
                OdeProblem(lambda p, f=field: evaluate(f, p), x, 1.0, 1e-3)
            )
            assert np.linalg.norm(got - ref) <= 1e-6 * (1.0 + np.linalg.norm(ref))

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            orbit(make_flow(zero_field(2)), [0.0, 0.0], [])
