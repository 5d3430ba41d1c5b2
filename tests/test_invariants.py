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
from affine_fields import invariants
from affine_fields.fields import AffineField, evaluate
from affine_fields.invariants import (
    FD_STEP,
    IRREGULAR_NORM,
    DegenerateFieldError,
    InvariantBundle,
    ScalarField,
    VerificationReport,
    _differences,
    _gradients,
    _values,
    _zero_scalar,
    bundle_coordinates,
    constant_field_bundle,
    sample_regular_points,
)
from affine_fields.linalg import rank
from affine_fields.validate import _random_reshaping


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

    @pytest.mark.parametrize("n", range(0, 6))
    def test_differences_are_the_per_coordinate_loop(self, n):
        # The stacked differences, and the gradient without grad that calls
        # them on one row, call fn at the loop's points in its order and
        # give its quotients bit for bit; a zero coordinate keeps its sign.
        rng = np.random.default_rng([n, 12])
        weights = rng.uniform(-2.0, 2.0, size=(3, n))
        for _ in range(10):
            points = rng.uniform(-3.0, 3.0, size=(4, n)) * 10.0 ** rng.integers(-3, 3, size=(4, n))
            points[rng.random(points.shape) < 0.2] = -0.0
            for fn in (lambda x: float(np.dot(weights[0], np.sin(x)) + np.prod(x)),
                       lambda x: float(np.dot(weights[1], np.copysign(1.0, x) * x**2)),
                       lambda x: float(np.exp(np.dot(weights[2], x) / 10.0))):
                calls, loop_calls = [], []
                stacked = _differences(lambda x: calls.append(x.copy()) or fn(x), points)
                want = [_differences_loop(lambda x: loop_calls.append(x.copy()) or fn(x), x)
                        for x in points]
                assert stacked.tobytes() == np.reshape(want, (4, n)).tobytes()
                assert np.array(calls).tobytes() == np.array(loop_calls).tobytes()
                bare = ScalarField(n, fn)
                for x, w in zip(points, want):
                    assert bare.gradient(x).tobytes() == w.tobytes()


def _differences_loop(fn, x):
    """Central differences one coordinate at a time, each with its own
    copies of x: the oracle of the stacked differences."""
    out = np.empty(len(x))
    for i in range(len(x)):
        h = FD_STEP * (1.0 + abs(x[i]))
        up = x.copy()
        down = x.copy()
        up[i] += h
        down[i] -= h
        out[i] = (fn(up) - fn(down)) / (2.0 * h)
    return out


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


def _one_at_a_time_points(field, count, rng, box):
    """sample_regular_points drawing and evaluating one point at a time: the
    oracle of its block draw."""
    points = np.empty((count, field.n))
    produced = 0
    attempts = 0
    while produced < count:
        attempts += 1
        if attempts > 1000 * count:
            raise RuntimeError("could not sample away from irregular points")
        x = rng.uniform(-box, box, size=field.n)
        if np.linalg.norm(evaluate(field, x)) < IRREGULAR_NORM:
            continue
        points[produced] = x
        produced += 1
    return points, attempts - produced


def _two_gradient_report(bundle, sample_count, tol, box, seed):
    """verify_bundle through directional_derivative, which takes each
    function's gradient once more than its Jacobian row does, and through
    one-at-a-time draws and one rank per point: the oracle of the report."""
    rng = np.random.default_rng(seed)
    field = bundle.field
    points, _ = _one_at_a_time_points(field, sample_count, rng, box)
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

    def test_one_stacked_gradient_call_per_function(self, monkeypatch):
        gradients, calls = invariants._gradients, {}

        def counted(f, points):
            calls[id(f)] = calls.get(id(f), 0) + 1
            return gradients(f, points)

        monkeypatch.setattr(invariants, "_gradients", counted)
        monkeypatch.setattr(ScalarField, "gradient", None)  # no per-point gradient
        for bundle in _bundles(np.random.default_rng(80)):
            calls.clear()
            verify_bundle(bundle, sample_count=12, seed=3)
            for f in (bundle.S,) + bundle.invariants:
                assert calls.pop(id(f)) == 1
            # What is left are the inner functions of the constant-field
            # bundles, each taken by the stack form of its outer function.
            assert all(count == 1 for count in calls.values())

    @pytest.mark.parametrize("analytic", [True, False])
    def test_inner_functions_are_called_once_per_point(self, analytic):
        calls = {}

        def counted(name, fn):
            def call(xi):
                calls[name] = calls.get(name, 0) + 1
                return fn(xi)
            return call if fn else None

        F, G = _wavy(2, 0, 0.3, analytic), _wavy(2, 1, -0.2, analytic)
        bundle = constant_field_bundle([1.0, -0.5, 2.0], F=ScalarField(
            2, counted("F", F.fn), counted("F grad", F.grad)), G=[ScalarField(
                2, counted("G", G.fn), counted("G grad", G.grad)), _wavy(2, 0, 0.1, True)])
        verify_bundle(bundle, sample_count=12, seed=3)
        # An analytic gradient once per point, or fn at the 2 m perturbed points.
        if analytic:
            assert calls == {"F grad": 12, "G grad": 12}
        else:
            assert calls == {"F": 4 * 12, "G": 4 * 12}

    def test_overflowing_dot_products_are_the_loops(self):
        # grad S = (1e308, 1e308) against X = (2, -2): the products overflow,
        # with numpy's RuntimeWarning from either loop.
        F = ScalarField(1, lambda xi: 1e308 * xi[0], grad=lambda xi: np.array([1e308]))
        bundle = constant_field_bundle([2.0, -2.0], F=F, G=slot(0, 1))
        with pytest.warns(RuntimeWarning, match="overflow"):
            report = verify_bundle(bundle, sample_count=10, seed=0)
        with np.errstate(over="ignore", invalid="ignore"):
            expected = _two_gradient_report(bundle, 10, 1e-8, 2.0, 0)
        assert not np.isfinite(report.max_parameter_defect)
        assert repr(report) == repr(expected)

    def test_jacobian_singular_at_some_points_fails(self):
        # I = max(v, 0)^2 has a zero gradient, and the Jacobian rank 1, where v <= 0.
        bundle = constant_field_bundle([1.0, 0.0], G=ScalarField(
            1, lambda xi: max(xi[0], 0.0) ** 2, grad=lambda xi: np.array([2.0 * max(xi[0], 0.0)])))
        report = verify_bundle(bundle, sample_count=20, seed=0)
        assert not report.jacobian_ok
        assert repr(report) == repr(_two_gradient_report(bundle, 20, 1e-8, 2.0, 0))
        ranks = [rank(np.stack([f.gradient(x) for f in (bundle.S,) + bundle.invariants]))
                 for x in sample_regular_points(bundle.field, 20, np.random.default_rng(0))]
        assert 1 in ranks and 2 in ranks

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


class TestSampleRegularPoints:
    @pytest.mark.parametrize("seed", range(5))
    def test_report_with_rejected_draws_is_the_two_gradient_loop(self, seed):
        field = AffineField(1e-3 * np.eye(2), [0.0, 0.0])
        bundle = InvariantBundle(field, _wavy(2, 0, 0.3, True), (_wavy(2, 1, -0.2, False),))
        args = (30, 1e-8, 2.0, seed)
        assert repr(verify_bundle(bundle, *args)) == repr(_two_gradient_report(bundle, *args))


def _failing_third_gradient(failure):
    """The planar bundle with an invariant whose gradient fails as
    ``failure`` says at its third call, and the count of each function's
    gradient calls."""
    field, planar = planar_affine_family(1.0, 1.0, 0.0)
    calls = {"S": 0, "I": 0}

    def s_grad(p):
        calls["S"] += 1
        if failure == "nan and wrong length" and calls["S"] == 3:
            return np.array([np.nan, 0.0])
        return planar.S.gradient(p)

    def i_grad(p):
        calls["I"] += 1
        if calls["I"] == 3:
            if failure == "nan":
                return np.array([np.nan, 1.0])
            if failure == "raise":
                raise KeyError("gradient failed")
            return np.zeros(3)
        return planar.invariants[0].gradient(p)

    s = ScalarField(2, planar.S.fn, grad=s_grad)
    i = ScalarField(2, planar.invariants[0].fn, grad=i_grad)
    return InvariantBundle(field, s, (i,)), calls


def _constant_bundle(rng, analytic=None, least=1):
    """A constant-field bundle at n = least-5, the pivot at 0 or at the
    largest |b_i|: without F and G, or with F and n - 1 invariants from _wavy
    functions whose gradients are analytic or central differences."""
    n = int(rng.integers(least, 6))
    b = rng.uniform(0.5, 2.0, size=n) * rng.choice([-1.0, 1.0], size=n)
    if n > 1 and rng.random() < 0.5:
        b[0] = 0.0
    if analytic is None:
        return constant_field_bundle(b)
    amps = rng.uniform(-0.5, 0.5, size=n)
    return constant_field_bundle(b, F=_wavy(n - 1, 0, 0.3, analytic) if n > 1 else None,
                                 G=[_wavy(n - 1, k, amps[k], analytic) for k in range(n - 1)])


# A row per stack form of the package: a function of random parameters.
STACK_FORMS = {
    "constant S without F": lambda rng: _constant_bundle(rng).S,
    "constant S, analytic F": lambda rng: _constant_bundle(rng, True).S,
    "constant S, differences of F": lambda rng: _constant_bundle(rng, False).S,
    "constant invariant, analytic G": lambda rng: _constant_bundle(rng, True, 2).invariants[-1],
    "constant invariant, differences of G": lambda rng: _constant_bundle(
        rng, False, 2).invariants[-1],
    "planar S": lambda rng: planar_affine_family(*rng.uniform(-2.0, 2.0, size=3))[1].S,
    "planar I": lambda rng: planar_affine_family(
        *rng.uniform(-2.0, 2.0, size=3))[1].invariants[0],
    "zero": lambda rng: _zero_scalar(int(rng.integers(0, 5))),
    "validate reshaping": lambda rng: _random_reshaping(
        rng.uniform(-1.0, 1.0, size=3 * int(rng.integers(1, 5)))),
}


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("form", STACK_FORMS)
def test_stack_form_is_the_per_point_call_bit_for_bit(form, seed, monkeypatch):
    rng = np.random.default_rng([seed, 110])
    for _ in range(20):
        f = STACK_FORMS[form](rng)
        k = int(rng.integers(1, 12))
        points = rng.uniform(-3.0, 3.0, size=(k, f.n)) * 10.0 ** rng.integers(-3, 3, size=(k, f.n))
        points[rng.random(points.shape) < 0.1] = -0.0
        values = np.array([f.value(x) for x in points])
        grads = np.array([f.gradient(x) for x in points]).reshape(k, f.n)
        with monkeypatch.context() as patched:  # no fallback to per-point calls
            patched.setattr(ScalarField, "value", None)
            patched.setattr(ScalarField, "gradient", None)
            assert _values(f, points).tobytes() == values.tobytes()
            assert _gradients(f, points).tobytes() == grads.tobytes()


class TestVerifyBundleErrors:
    # The type and text are those of the loop that took one rank per point:
    # the rank's as_matrix refuses a NaN row, np.dot (message None here) a
    # row of the wrong length, which at one point comes first.
    @pytest.mark.parametrize("failure, error, message", [
        ("nan", ValueError, "matrix has non-finite entries"),
        ("wrong length", ValueError, None),
        ("nan and wrong length", ValueError, None),
        ("raise", KeyError, "'gradient failed'"),
    ])
    def test_raises_at_the_failing_point(self, failure, error, message):
        if message is None:
            with pytest.raises(ValueError) as dot:
                np.dot(np.zeros(3), np.zeros(2))
            message = str(dot.value)
        bundle, calls = _failing_third_gradient(failure)
        with pytest.raises(error) as caught:
            verify_bundle(bundle, sample_count=6, seed=0)
        assert str(caught.value) == message
        assert calls == {"S": 3, "I": 3}


def test_planar_invariant_squares_as_a_numpy_float_does():
    # alpha v - beta u^2 - gamma u with u, v numpy floats, the per-point
    # formula: u ** 2 on a float rounds as pow(u, 2), on an array as u * u,
    # which differ in about one value in a thousand here.
    alpha, beta, gamma = 1.5, 0.7, -0.3
    inv = planar_affine_family(alpha, beta, gamma)[1].invariants[0]
    points = np.random.default_rng(3).uniform(-1e3, 1e3, size=(10_000, 2))
    formula = np.array([alpha * v - beta * u ** 2 - gamma * u for u, v in points])
    assert _values(inv, points).tobytes() == formula.tobytes()
    assert np.array([inv.value(x) for x in points]).tobytes() == formula.tobytes()


def _outcome(call):
    """What call returns, or the type and text of what it raises."""
    try:
        return call()
    except Exception as exc:  # noqa: BLE001
        return type(exc), str(exc)


@pytest.mark.parametrize("failure", ["raise", "nan", "wrong length"])
def test_failing_function_inside_a_stack_form_fails_as_per_point(failure):
    # G fails, as failure says, where its first slot is above 0.5.
    def fn(xi):
        if failure == "raise" and xi[0] > 0.5:
            raise KeyError("value failed")
        return float(xi[0])

    def grad(xi):
        if xi[0] <= 0.5:
            return np.array([1.0, 0.0])
        if failure == "raise":
            raise KeyError("gradient failed")
        return np.array([np.nan, 1.0]) if failure == "nan" else np.zeros(3)

    bundle = constant_field_bundle([1.0, 0.5, -2.0], G=[slot(1, 2), ScalarField(2, fn, grad=grad)])
    report = _outcome(lambda: verify_bundle(bundle, 20, seed=1))
    assert isinstance(report, tuple)
    assert report == _outcome(lambda: _two_gradient_report(bundle, 20, 1e-8, 2.0, 1))
    points = sample_regular_points(bundle.field, 20, np.random.default_rng(1))
    i = bundle.invariants[1]
    for stacked, per_point in ((_values, i.value), (_gradients, i.gradient)):
        got = _outcome(lambda: stacked(i, points).tobytes())
        assert got == _outcome(lambda: np.array([per_point(x) for x in points]).tobytes())


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
