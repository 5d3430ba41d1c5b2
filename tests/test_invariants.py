"""Canonical parameters and invariants."""

import json
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

from affine_fields import (
    constant_field,
    directional_derivative,
    flow_at,
    make_flow,
    planar_affine_family,
    straightened_frame_flow,
    verify_bundle,
)
from affine_fields.invariants import (
    DegenerateFieldError,
    InvariantBundle,
    ScalarField,
    VerificationReport,
    bundle_coordinates,
    constant_field_bundle,
    sample_regular_points,
)
from affine_fields.linalg import rank


def slot(k, m):
    def grad(xi, k=k):
        g = np.zeros(m)
        g[k] = 1.0
        return g

    return ScalarField(m, lambda xi, k=k: float(xi[k]), grad=grad)


class TestScalarField:
    def test_finite_difference_fallback(self):
        f = ScalarField(2, lambda x: float(x[0] ** 2 + np.sin(x[1])))
        x = np.array([0.7, -1.2])
        assert_allclose(f.gradient(x), [2 * 0.7, np.cos(-1.2)], atol=1e-8)

    def test_analytic_gradient_agrees_with_differences(self):
        f = ScalarField(
            2,
            lambda x: float(np.exp(x[0]) * x[1]),
            grad=lambda x: np.array([np.exp(x[0]) * x[1], np.exp(x[0])]),
        )
        bare = ScalarField(2, f.fn)
        for x in ([0.0, 1.0], [0.5, -0.5], [-1.0, 2.0]):
            assert_allclose(f.gradient(x), bare.gradient(x), atol=1e-6)

    def test_dimension_check(self):
        f = ScalarField(2, lambda x: 0.0)
        with pytest.raises(ValueError):
            f.value([1.0])


class TestDirectionalDerivative:
    def test_coordinate_function_along_unit_field(self):
        field = constant_field([1.0, 0.0, 0.0])
        u1 = ScalarField(3, lambda x: float(x[0]))
        for _ in range(3):
            x = np.random.default_rng(0).uniform(-2, 2, 3)
            assert abs(directional_derivative(field, u1, x) - 1.0) <= 1e-9

    def test_planar_family_defining_equations(self):
        rng = np.random.default_rng(1)
        field, bundle = planar_affine_family(1.0, 1.0, 0.0)
        for _ in range(20):
            x = rng.uniform(-2.0, 2.0, size=2)
            assert abs(directional_derivative(field, bundle.S, x) - 1.0) <= 1e-12
            assert (
                abs(directional_derivative(field, bundle.invariants[0], x)) <= 1e-12
            )

    def test_planar_family_with_nonzero_gamma(self):
        # X(I) must vanish identically, including the gamma term.
        rng = np.random.default_rng(2)
        field, bundle = planar_affine_family(2.0, 0.5, 1.5)
        for _ in range(20):
            x = rng.uniform(-2.0, 2.0, size=2)
            assert abs(directional_derivative(field, bundle.S, x) - 1.0) <= 1e-12
            assert (
                abs(directional_derivative(field, bundle.invariants[0], x)) <= 1e-12
            )


class TestConstantFieldBundle:
    def test_straightened_unit_field(self):
        bundle = constant_field_bundle([1.0, 0.0], G=slot(0, 1))
        assert bundle.S.value([3.0, 7.0]) == 3.0
        assert bundle.invariants[0].value([3.0, 7.0]) == 7.0

    def test_two_four_family(self):
        bundle = constant_field_bundle([2.0, 4.0], G=slot(0, 1))
        x = np.array([1.0, 1.0])
        assert bundle.S.value(x) == pytest.approx(0.5)
        assert bundle.invariants[0].value(x) == pytest.approx(1.0 - 2.0 * 1.0)
        rng = np.random.default_rng(3)
        for _ in range(20):
            p = rng.uniform(-2.0, 2.0, size=2)
            assert abs(
                directional_derivative(bundle.field, bundle.S, p) - 1.0
            ) <= 1e-12
            assert (
                abs(directional_derivative(bundle.field, bundle.invariants[0], p))
                <= 1e-12
            )

    def test_nonlinear_reshapings_still_verify(self):
        # Chain rule keeps any C^1 reshaping of the invariants valid.
        F = ScalarField(
            1,
            lambda xi: float(xi[0] ** 2),
            grad=lambda xi: np.array([2.0 * xi[0]]),
        )
        G = ScalarField(
            1,
            lambda xi: float(np.sin(xi[0])),
            grad=lambda xi: np.array([np.cos(xi[0])]),
        )
        bundle = constant_field_bundle([1.0, 1.0], F=F, G=G)
        rng = np.random.default_rng(4)
        for _ in range(100):
            x = rng.uniform(-2.0, 2.0, size=2)
            assert abs(
                directional_derivative(bundle.field, bundle.S, x) - 1.0
            ) <= 1e-10
            assert (
                abs(directional_derivative(bundle.field, bundle.invariants[0], x))
                <= 1e-10
            )

    def test_pivot_permutation_when_leading_component_vanishes(self):
        # Pivot moves to the largest |B| entry; untouched coordinates pass
        # straight through to the reshaping slots.
        bundle = constant_field_bundle([0.0, 3.0], G=slot(0, 1))
        x = np.array([5.0, 6.0])
        assert bundle.S.value(x) == pytest.approx(2.0)
        assert bundle.invariants[0].value(x) == pytest.approx(5.0)
        assert abs(directional_derivative(bundle.field, bundle.S, x) - 1.0) <= 1e-12

    def test_zero_field_rejected(self):
        with pytest.raises(DegenerateFieldError):
            constant_field_bundle([0.0, 0.0])

    def test_one_dimensional_field(self):
        bundle = constant_field_bundle([2.0])
        assert bundle.invariants == ()
        assert bundle.S.value([4.0]) == pytest.approx(2.0)


class TestVerifyBundle:
    def test_planar_family_passes(self):
        _, bundle = planar_affine_family(1.0, 1.0, 0.0)
        report = verify_bundle(bundle, sample_count=100, tol=1e-9, seed=0)
        assert report.max_parameter_defect <= 1e-9
        assert report.max_invariant_defect <= 1e-9
        assert report.jacobian_ok
        assert report.passed

    def test_constant_invariant_fails_jacobian_only(self):
        field, bundle = planar_affine_family(1.0, 1.0, 0.0)
        flat = ScalarField(2, lambda x: 4.0, grad=lambda x: np.zeros(2))
        degraded = InvariantBundle(field, bundle.S, (flat,))
        report = verify_bundle(degraded, sample_count=50, tol=1e-9, seed=0)
        assert report.max_invariant_defect <= 1e-12
        assert not report.jacobian_ok
        assert not report.passed

    def test_corrupted_parameter_is_flagged(self):
        bundle = constant_field_bundle([1.0, 0.0], G=slot(0, 1))
        doubled = ScalarField(
            2,
            lambda x: 2.0 * x[0],
            grad=lambda x: np.array([2.0, 0.0]),
        )
        corrupt = InvariantBundle(bundle.field, doubled, bundle.invariants)
        report = verify_bundle(corrupt, sample_count=20, tol=1e-9, seed=0)
        assert report.max_parameter_defect == pytest.approx(1.0)
        assert not report.passed

    def test_report_is_json_serializable(self):
        _, bundle = planar_affine_family(1.0, 1.0, 0.0)
        report = verify_bundle(bundle, sample_count=10, tol=1e-8, seed=0)
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["passed"] is True
        assert payload["sample_count"] == 10


def _two_gradient_report(bundle, sample_count, tol, box, seed):
    """verify_bundle through directional_derivative, which takes each
    function's gradient once more than its Jacobian row does: the oracle of
    the one-gradient report."""
    rng = np.random.default_rng(seed)
    field = bundle.field
    points = sample_regular_points(field, sample_count, rng, box=box)
    max_s = 0.0
    max_i = [0.0] * len(bundle.invariants)
    jacobian_ok = True
    for x in points:
        max_s = max(max_s, abs(directional_derivative(field, bundle.S, x) - 1.0))
        rows = [bundle.S.gradient(x)]
        for k, f in enumerate(bundle.invariants):
            max_i[k] = max(max_i[k], abs(directional_derivative(field, f, x)))
            rows.append(f.gradient(x))
        if rank(np.stack(rows)) < field.n:
            jacobian_ok = False
    return VerificationReport(sample_count, tol, max_s, tuple(max_i), jacobian_ok)


def _wavy(m, k, amp, analytic):
    """xi -> xi_k + amp sin(xi_k) on R^m, with its gradient or, without
    ``analytic``, central differences."""
    def grad(xi):
        g = np.zeros(m)
        g[k] = 1.0 + amp * np.cos(xi[k])
        return g

    return ScalarField(m, lambda xi: float(xi[k] + amp * np.sin(xi[k])),
                       grad=grad if analytic else None)


def _bundles(rng):
    """Constant-field bundles at n = 2-5 with analytic, finite-difference
    and mixed gradients, one with fewer invariants than a full Jacobian
    needs, and the planar family."""
    bundles = []
    for m in (2, 3, 4, 5):
        b = rng.uniform(0.5, 2.0, size=m) * rng.choice([-1.0, 1.0], size=m)
        amps = rng.uniform(-0.5, 0.5, size=m)
        for analytic in (True, False, None):
            gs = [_wavy(m - 1, k, amps[k], k % 2 == 0 if analytic is None else analytic)
                  for k in range(m - 1)]
            bundles.append(constant_field_bundle(
                b, F=_wavy(m - 1, 0, 0.3, analytic is not False), G=gs))
        bundles.append(constant_field_bundle(b, G=gs[:-1]))
    bundles.append(planar_affine_family(*rng.uniform(0.5, 2.0, size=3))[1])
    return bundles


class TestVerifyBundleGradients:
    @pytest.mark.parametrize("seed", range(10))
    def test_report_is_the_two_gradient_loop(self, seed):
        rng = np.random.default_rng(70 + seed)
        for bundle in _bundles(rng):
            args = (int(rng.integers(1, 30)), 1e-8, float(rng.uniform(0.5, 3.0)), seed)
            assert repr(verify_bundle(bundle, *args)) == repr(_two_gradient_report(bundle, *args))

    def test_one_gradient_per_function_per_point(self, monkeypatch):
        gradient, calls = ScalarField.gradient, {}

        def counted(self, x):
            calls[id(self)] = calls.get(id(self), 0) + 1
            return gradient(self, x)

        monkeypatch.setattr(ScalarField, "gradient", counted)
        for bundle in _bundles(np.random.default_rng(80)):
            calls.clear()
            verify_bundle(bundle, sample_count=12, seed=3)
            for f in (bundle.S,) + bundle.invariants:
                assert calls.pop(id(f)) == 12
            # What is left are the inner functions of the constant-field
            # bundles, each called by the gradient of its outer function.
            assert all(count == 12 for count in calls.values())

    @pytest.mark.parametrize("count", [0, -1, 2.0, 2.5, True, False, "2", None])
    def test_sample_count_must_be_an_integer_of_at_least_one(self, count):
        _, bundle = planar_affine_family(1.0, 1.0, 0.0)
        with pytest.raises(ValueError, match=re.escape(
                f"sample_count must be an integer >= 1, not {count!r}")):
            verify_bundle(bundle, sample_count=count)

    def test_numpy_integer_sample_count_is_kept_as_an_int(self):
        _, bundle = planar_affine_family(1.0, 1.0, 0.0)
        report = verify_bundle(bundle, sample_count=np.int64(5))
        assert type(report.sample_count) is int
        assert report == verify_bundle(bundle, sample_count=5)


class TestStraightenedFlow:
    def test_time_zero_is_identity(self):
        _, bundle = planar_affine_family(1.0, 1.0, 0.0)
        coords = np.array([0.3, -0.7])
        assert np.array_equal(straightened_frame_flow(bundle, 0.0, coords), coords)

    def test_planar_family_translates_first_slot(self):
        _, bundle = planar_affine_family(1.0, 1.0, 0.0)
        moved = straightened_frame_flow(bundle, 1.5, [0.25, -2.0])
        assert_allclose(moved, [1.75, -2.0])

    def test_round_trip_against_flow(self):
        bundle = constant_field_bundle([2.0, 4.0], G=slot(0, 1))
        flow = make_flow(bundle.field)
        x = np.array([1.0, 1.0])
        t = 0.5
        via_flow = bundle_coordinates(bundle, flow_at(flow, t, x))
        via_frame = straightened_frame_flow(bundle, t, bundle_coordinates(bundle, x))
        assert np.linalg.norm(via_flow - via_frame) <= 1e-7

    def test_planar_round_trip_against_flow(self):
        field, bundle = planar_affine_family(1.0, 1.0, 0.0)
        flow = make_flow(field)
        rng = np.random.default_rng(5)
        for _ in range(10):
            x = rng.uniform(-2.0, 2.0, size=2)
            t = rng.uniform(-1.0, 1.0)
            via_flow = bundle_coordinates(bundle, flow_at(flow, t, x))
            via_frame = straightened_frame_flow(
                bundle, t, bundle_coordinates(bundle, x)
            )
            assert np.linalg.norm(via_flow - via_frame) <= 1e-7

    def test_coordinate_dimension_check(self):
        _, bundle = planar_affine_family(1.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            straightened_frame_flow(bundle, 1.0, [1.0, 2.0, 3.0])


class TestParameterAlgebra:
    def test_difference_of_parameters_is_invariant(self):
        # Two canonical parameters of the same field differ by an invariant,
        # and parameter plus invariant is again a parameter.
        rng = np.random.default_rng(6)
        F = ScalarField(
            1,
            lambda xi: float(np.cos(xi[0])),
            grad=lambda xi: np.array([-np.sin(xi[0])]),
        )
        b1 = constant_field_bundle([1.5, -0.5], G=slot(0, 1))
        b2 = constant_field_bundle([1.5, -0.5], F=F, G=slot(0, 1))
        field = b1.field
        for _ in range(20):
            x = rng.uniform(-2.0, 2.0, size=2)
            diff = ScalarField(
                2, lambda p: b1.S.value(p) - b2.S.value(p)
            )
            assert abs(directional_derivative(field, diff, x)) <= 1e-8
            combined = ScalarField(
                2, lambda p: b1.S.value(p) + b1.invariants[0].value(p)
            )
            assert abs(directional_derivative(field, combined, x) - 1.0) <= 1e-8

    def test_flow_constancy_and_linear_shift(self):
        rng = np.random.default_rng(7)
        field, bundle = planar_affine_family(1.0, 1.0, 0.0)
        flow = make_flow(field)
        for _ in range(20):
            x = rng.uniform(-2.0, 2.0, size=2)
            t = rng.uniform(-1.0, 1.0)
            moved = flow_at(flow, t, x)
            assert abs(
                bundle.invariants[0].value(moved) - bundle.invariants[0].value(x)
            ) <= 1e-7
            assert abs(bundle.S.value(moved) - bundle.S.value(x) - t) <= 1e-7


def test_bundle_rejects_too_many_invariants():
    field = constant_field([1.0, 2.0])
    s = ScalarField(2, lambda x: float(x[0]))
    i1 = ScalarField(2, lambda x: float(x[1]))
    with pytest.raises(ValueError, match="at most"):
        InvariantBundle(field, s, (i1, i1))
