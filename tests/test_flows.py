"""Closed-form flow tests, cross-validated against the RK4 oracle."""

import math
import pickle
import sys
import threading
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.linalg import expm

from affine_fields import (
    AffineField,
    constant_field,
    evaluate,
    linear_field,
    zero_field,
)
from affine_fields import flows, linalg
from affine_fields.flows import (
    AUGMENTED_EXPONENTIAL,
    ORBIT_BLOCK_ENTRIES,
    TRANSLATION,
    FlowMap,
    _exponentials,
    flow_at,
    group_law_defect,
    make_flow,
    orbit,
)
from affine_fields.linalg import mat_exp
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


class TestFlowAtTimes:
    """flow_at on a 1-D array of times: one (n,) image per time."""

    @pytest.mark.parametrize("field", [PLANAR, constant_field([2.0, 0.5])])
    def test_shapes(self, field):
        flow = make_flow(field)
        x = [1.0, -2.0]
        assert flow_at(flow, 0.5, x).shape == (2,)
        assert flow_at(flow, np.float64(0.5), x).shape == (2,)
        assert flow_at(flow, np.array(0.5), x).shape == (2,)
        assert flow_at(flow, [0.5], x).shape == (1, 2)
        assert flow_at(flow, np.linspace(-1.0, 1.0, 7), x).shape == (7, 2)

    def test_stack_of_one_is_the_scalar_bitwise(self):
        # Compared as bytes, so a zero's sign counts: start points hold -0.0
        # coordinates, and at t = 0 both paths give x, signs included.
        rng = np.random.default_rng(9)
        for n in range(1, 22):
            field = random_affine_field(rng, n)
            for field in (field, constant_field(field.B), linear_field(field.C)):
                flow = make_flow(field)
                for t in (0.0, -0.0, 1e-300, rng.uniform(-3.0, 3.0)):
                    x = rng.uniform(-2.0, 2.0, size=n)
                    x[rng.random(n) < 0.3] = -0.0
                    image = flow_at(flow, t, x)
                    assert flow_at(flow, [t], x)[0].tobytes() == image.tobytes()
                    if t == 0.0:
                        assert np.array_equal(np.signbit(image), np.signbit(x))

    def test_rows_are_the_images_at_each_time(self):
        flow = make_flow(PLANAR)
        grid = np.array([-1.0, 0.0, 0.5, 2.0])
        images = flow_at(flow, grid, [0.0, 0.0])
        assert_allclose(images, np.stack([grid, grid**2], axis=1), atol=1e-12)
        assert np.array_equal(images[1], [0.0, 0.0])

    @pytest.mark.parametrize("t", [[], np.zeros((0, 2)), [[0.5, 1.0]], np.ones((2, 2))])
    def test_empty_or_2d_times_rejected(self, t):
        with pytest.raises(ValueError, match="non-empty 1-D"):
            flow_at(make_flow(PLANAR), t, [0.0, 0.0])

    @pytest.mark.parametrize("t", [[0.0, np.nan], [np.inf]])
    def test_non_finite_time_rejected(self, t):
        with pytest.raises(ValueError, match="t must be finite"):
            flow_at(make_flow(PLANAR), t, [0.0, 0.0])


def _outcome(call):
    """The bytes of call()'s result, or the type and text of what it raised."""
    try:
        return call().tobytes()
    except (ValueError, OverflowError) as exc:
        return type(exc), str(exc)


class TestMemo:
    """A FlowMap keeps exp(t G) for its last scalar time; no result shows it."""

    @settings(derandomize=True, deadline=None, max_examples=30, database=None)
    @given(data=st.data())
    def test_calls_equal_those_of_fresh_flows(self, data):
        n = data.draw(st.integers(1, 4), label="n")
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        # At scale 100 some images overflow, so exceptions are compared too.
        scale = data.draw(st.sampled_from([1e-3, 1.0, 100.0]), label="scale")
        t1, t2 = data.draw(st.lists(st.floats(-3.0, 3.0), min_size=2, max_size=2))
        times = data.draw(
            st.lists(st.sampled_from([t1, t2, 0.0, -0.0]), max_size=8), label="times"
        )
        rng = np.random.default_rng(seed)
        c, b = rng.uniform(-2.0, 2.0, (n, n)), rng.uniform(-2.0, 2.0, n)
        field = AffineField(scale * c, b)
        flow = make_flow(field)
        for t in [t1, t1, t2, t1, 0.0, -0.0, 0.0] + times:
            x = rng.uniform(-2.0, 2.0, size=n)
            assert _outcome(lambda: flow_at(flow, t, x)) == _outcome(
                lambda: flow_at(make_flow(field), t, x)
            ), t

    def test_points_at_one_time_take_one_exponential(self, monkeypatch):
        calls = []

        def counted(a):
            calls.append(a.shape)
            return mat_exp(a)

        mat_exp = flows.mat_exp
        monkeypatch.setattr(flows, "mat_exp", counted)
        flow = make_flow(PLANAR)
        for x in ([0.0, 0.0], [1.0, 2.0], [-3.0, 0.5]):
            flow_at(flow, 0.5, x)
        assert calls == [(1, 3, 3)]
        flow_at(flow, 0.25, [0.0, 0.0])
        flow_at(flow, [0.5, 0.5], [0.0, 0.0])  # many times: no memo
        flow_at(flow, 0.25, [1.0, 0.0])
        assert calls == [(1, 3, 3), (1, 3, 3), (2, 3, 3)]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_time_leaves_no_memo(self):
        field = AffineField([[1e10]], [0.0])
        flow = make_flow(field)
        for _ in range(2):
            with pytest.raises(OverflowError, match="t G"):
                flow_at(flow, 1e300, [1.0])
        assert flow._memo is None
        want = flow_at(make_flow(field), 1e-10, [1.0])
        assert np.array_equal(flow_at(flow, 1e-10, [1.0]), want)
        with pytest.raises(OverflowError, match="t G"):
            flow_at(flow, 1e300, [1.0])
        assert np.array_equal(flow_at(flow, 1e-10, [1.0]), want)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_image_overflow_at_one_point_spares_the_others(self):
        # exp(700) is about 1e304: finite from 1, beyond the range from 1e10.
        field = AffineField([[100.0]], [0.0])
        flow = make_flow(field)
        with pytest.raises(OverflowError, match="image"):
            flow_at(flow, 7.0, [1e10])
        got = flow_at(flow, 7.0, [1.0])
        assert np.isfinite(got).all()
        assert np.array_equal(got, flow_at(make_flow(field), 7.0, [1.0]))
        with pytest.raises(OverflowError, match="image"):
            flow_at(flow, 7.0, [1e10])

    def test_memo_is_read_only(self):
        flow = make_flow(PLANAR)
        flow_at(flow, 0.5, [0.0, 0.0])
        with pytest.raises(ValueError):
            flow._memo[1][0, 0, 0] = 2.0

    def test_threads_sharing_a_flow_see_whole_memos(self):
        # Threads alternate two times on one flow, so the memo changes hands
        # all the time; a time paired with the other time's exponential
        # would show as a wrong image.
        rng = np.random.default_rng(24)
        field = random_affine_field(rng, 4)
        flow = make_flow(field)
        x = rng.uniform(-2.0, 2.0, size=4)
        want = {t: flow_at(make_flow(field), t, x) for t in (0.25, -0.5)}
        wrong = []

        def work(k):
            for j in range(200):
                t = (0.25, -0.5)[(j + k) % 2]
                if not np.array_equal(flow_at(flow, t, x), want[t]):
                    wrong.append(t)

        threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []

    def test_pickle_carries_no_memo(self):
        rng = np.random.default_rng(23)
        field = random_affine_field(rng, 3)
        used = make_flow(field)
        x = rng.uniform(-2.0, 2.0, size=3)
        want = flow_at(used, 0.75, x)
        again = pickle.loads(pickle.dumps(used))
        assert again == used and again._memo is None
        assert len(pickle.dumps(used)) == len(pickle.dumps(make_flow(field)))
        assert np.array_equal(flow_at(again, 0.75, x), want)
        assert np.array_equal(flow_at(again, -0.5, x), flow_at(make_flow(field), -0.5, x))


class TestGroupLaw:
    def test_zero_times_exact(self):
        flow = make_flow(PLANAR)
        assert group_law_defect(flow, 0.0, 0.0, [1.0, -1.0]) == 0.0

    def test_zero_times_exact_for_random_fields(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            n = int(rng.integers(1, 6))
            flow = make_flow(random_affine_field(rng, n))
            x = rng.uniform(-2.0, 2.0, size=n)
            assert group_law_defect(flow, 0.0, 0.0, x) == 0.0

    def test_translation_defect_is_rounding(self):
        flow = make_flow(constant_field([1.0, -2.0]))
        assert group_law_defect(flow, 0.7, -0.3, [4.0, 5.0]) <= 1e-14

    def test_translation_defect_is_exact_without_rounding(self):
        # Dyadic times, B and x make every sum x + t B exact, and the zero
        # field adds nothing at any time.
        flow = make_flow(constant_field([1.5, -2.25]))
        assert group_law_defect(flow, 0.75, -0.125, [4.0, 5.5]) == 0.0
        assert group_law_defect(make_flow(zero_field(2)), 0.7, -0.3, [0.1, 0.2]) == 0.0

    def test_random_ensemble(self):
        # Relative to the terms the composed flow sums, |E_s| |E_t| |(x, 1)|
        # with E_t = exp(t G); the worst of 2,000 such draws is 7.4e-16.
        rng = np.random.default_rng(2)
        for _ in range(200):
            n = int(rng.integers(1, 6))
            field = random_affine_field(rng, n)
            flow = make_flow(field)
            s, t = rng.uniform(-1.0, 1.0, size=2)
            x = rng.uniform(-2.0, 2.0, size=n)
            lifted = np.append(np.abs(x), 1.0)
            g = field.matrix
            terms = np.abs(expm(s * g)) @ (np.abs(expm(t * g)) @ lifted)
            assert group_law_defect(flow, s, t, x) <= 1e-14 * np.linalg.norm(terms)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "field, s, t, x, error",
        [
            (PLANAR, np.nan, 1.0, [0.0, 0.0], ValueError),
            (PLANAR, 1.0, 1.0, [0.0], ValueError),
            (PLANAR, 1.0, 1.0, [np.inf, 0.0], ValueError),
            (PLANAR, 1e308, 1e308, [0.0, 0.0], ValueError),  # s + t is not finite
            (AffineField([[100.0]], [0.0]), 5.0, 5.0, [1.0], OverflowError),
            (AffineField([[1e10]], [0.0]), 1e300, 0.0, [1.0], OverflowError),
            (constant_field([1e300]), 1e10, 0.0, [0.0], OverflowError),
        ],
    )
    def test_raises_what_flow_at_raises(self, field, s, t, x, error):
        flow = make_flow(field)
        with pytest.raises(error) as from_defect:
            group_law_defect(flow, s, t, x)
        with pytest.raises(error) as from_flow_at:
            flow_at(make_flow(field), s + t, x)
        assert str(from_defect.value) == str(from_flow_at.value)


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
    def test_nilpotent_flow_near_the_float_range(self):
        # The planar flow from 0 is (t, t^2): exact up to t^2 = 1e308, an
        # overflow beyond, never a wrong finite value.
        flow = make_flow(PLANAR)
        assert np.array_equal(flow_at(flow, 1e154, [0.0, 0.0]), [1e154, 1e308])
        with pytest.raises(OverflowError):
            flow_at(flow, 1e155, [0.0, 0.0])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_translation_overflow_raises_without_warning(self):
        flow = make_flow(constant_field([1e300]))
        with pytest.raises(OverflowError):
            flow_at(flow, 1e10, [0.0])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_translation_whose_norm_overflows_raises(self):
        # t B is finite, but exp(t G) is refused once its 1-norm |t B|_1 is
        # not, as for every other field.
        with pytest.raises(OverflowError):
            flow_at(make_flow(constant_field([1e308, 1e308])), 1.0, [0.0, 0.0])

    def test_translation_image_of_a_negative_zero_is_positive(self):
        # exp(t G) (x, 1) sums -0.0 with +0.0 terms, where x + t B kept -0.0.
        image = flow_at(make_flow(constant_field([0.0, 1.0])), -1.0, [-0.0, 0.0])
        assert image.tobytes() == np.array([0.0, -1.0]).tobytes()


def _random_case(n):
    """The field and start of test_points_agree_with_flow_at on a uniform grid."""
    rng = np.random.default_rng(n)
    field = random_affine_field(rng, n)
    return field, rng.uniform(-2.0, 2.0, size=n), np.linspace(-3.0, 3.0, 121)


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

    @pytest.mark.parametrize("n", [1, 2, 6, 20])
    def test_points_agree_with_flow_at(self, n):
        # n = 20 spans several mat_exp blocks (18 matrices of 21 x 21 each).
        rng = np.random.default_rng(n)
        flow = make_flow(random_affine_field(rng, n))
        x = rng.uniform(-2.0, 2.0, size=n)
        grid = np.concatenate([np.linspace(-3.0, 3.0, 121), [1e-300, 0.0, 7.5]])
        path = orbit(flow, x, grid)
        assert path.points.shape == (grid.size, n)
        lifted = np.append(x, 1.0)
        for t, point in zip(grid, path.points):
            single = flow_at(flow, t, x)
            assert np.array_equal(point, single), t
            magnitude = np.abs(expm(t * flow.field.matrix)[:n]) @ np.abs(lifted)
            diff = np.linalg.norm(point - single)
            assert diff <= 1e-14 * np.linalg.norm(magnitude), t

    @pytest.mark.parametrize("field", [PLANAR, constant_field([2.0, 0.5])])
    def test_time_zero_rows_are_the_start_bitwise(self, field):
        x = np.array([-0.0, 0.1 + 0.2])
        path = orbit(make_flow(field), x, [0.0, 1.0, -0.0, 0.0])
        for row in path.points[[0, 2, 3]]:
            assert np.array_equal(row, x)
            assert np.array_equal(np.signbit(row), np.signbit(x))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "field, t",
        [
            (AffineField([[100.0]], [0.0]), 10.0),
            (AffineField([[1e10]], [0.0]), 1e300),
            (constant_field([1e300]), 1e10),
        ],
    )
    def test_overflow_raises_without_warning(self, field, t):
        with pytest.raises(OverflowError):
            orbit(make_flow(field), [1.0], [0.0, 1.0, t])

    @pytest.mark.parametrize("x", [[np.nan, 0.0], [np.inf, 0.0], [0.0], [0, 0, 0]])
    @pytest.mark.parametrize("field", [PLANAR, constant_field([1.0, 0.0])])
    def test_bad_start_rejected_like_flow_at(self, field, x):
        flow = make_flow(field)
        with pytest.raises(ValueError) as from_flow_at:
            flow_at(flow, 1.0, x)
        with pytest.raises(ValueError) as from_orbit:
            orbit(flow, x, [0.0, 1.0])
        assert str(from_orbit.value) == str(from_flow_at.value)

    def test_long_orbit_memory_stays_small(self):
        rng = np.random.default_rng(8)
        flow = make_flow(random_affine_field(rng, 20))
        x = rng.uniform(-1.0, 1.0, size=20)
        grid = np.linspace(0.0, 0.5, 10_000)
        tracemalloc.start()
        try:
            orbit(flow, x, grid)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # The points themselves take 1.6 MB; the blocks add a bounded amount.
        assert peak < 5e6

    @pytest.mark.parametrize(
        "field, x, grid",
        [
            *(_random_case(n) for n in (1, 2, 6, 20)),
            # A hump: |exp(t C)| rises to about 250 before it decays.
            (AffineField([[-1.0, 1e3], [0.0, -2.0]], [1.0, -1.0]), np.array([0.5, 1.0]),
             np.linspace(0.0, 10.0, 2001)),
            (AffineField(np.diag([-50.0, -60.0]), [3.0, -2.0]), np.array([1.0, -1.0]),
             np.linspace(0.0, 2.0, 2001)),
            (AffineField([[0.0, 30.0], [-30.0, 0.0]], [1.0, 0.5]), np.array([1.0, 0.25]),
             np.linspace(0.0, 20.0, 10_001)),
            (constant_field(np.random.default_rng(3).uniform(-2.0, 2.0, 20)),
             np.random.default_rng(4).uniform(-2.0, 2.0, 20), np.linspace(-3.0, 3.0, 1001)),
        ],
        ids=["n1", "n2", "n6", "n20", "hump", "stiff", "rotation", "translation"],
    )
    def test_uniform_grid_is_within_conditioning_of_mpmath(self, field, x, grid):
        flow = make_flow(field)
        assert flows._grid_step(grid) != 0.0
        path = orbit(flow, x, grid).points
        g, n = field.matrix, field.n
        magnitude = np.linalg.norm(
            np.abs(expm(grid[:, None, None] * g)[:, :n]) @ np.abs(np.append(x, 1.0)),
            axis=1,
        )
        bound = 1e-14 * (1.0 + np.abs(grid) * np.abs(g).sum(axis=0).max()) * magnitude
        want = _uniform_grid_reference(g, x, grid)
        assert (np.linalg.norm(path - want, axis=1) <= bound).all()
        assert (np.linalg.norm(path - flow_at(flow, grid, x), axis=1) <= bound).all()

    @pytest.mark.parametrize("grid", [np.linspace(-1.0, 1.0, 21), np.linspace(-3.0, 7.0, 11)])
    @pytest.mark.parametrize(
        "field",
        [PLANAR, AffineField([[0.0, -1.0], [1.0, 0.1]], [0.3, 0.0]), constant_field([2.0, 0.5])],
    )
    def test_uniform_grid_keeps_the_start_at_time_zero(self, field, grid):
        # Time zero is an anchor on the first grid and a step on the second.
        x = np.array([-0.0, 0.1 + 0.2])
        assert flows._grid_step(grid) != 0.0
        row = orbit(make_flow(field), x, grid).points[grid == 0.0]
        assert row.shape == (1, 2)
        assert np.array_equal(row[0], x)
        assert np.array_equal(np.signbit(row[0]), np.signbit(x))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "field, x, grid",
        [
            (AffineField([[100.0]], [0.0]), [1.0], np.linspace(0.0, 10.0, 11)),
            (AffineField([[1e10]], [0.0]), [1.0], np.linspace(0.0, 1e300, 11)),
            # Every anchor point is finite; the step to t = 9 overflows.
            (AffineField([[1.0]], [0.0]), [3e304], np.linspace(0.0, 9.0, 10)),
        ],
    )
    def test_uniform_grid_overflow_raises_without_warning(self, field, x, grid):
        assert flows._grid_step(grid) != 0.0
        with pytest.raises(OverflowError):
            orbit(make_flow(field), x, grid)

    @pytest.mark.parametrize(
        "grid", [[0.5], [0.5, 1.0], [0.0, 0.5, 1.0], [0.7] * 5, [0.0, 0.5, 1.0, 1.5 + 1e-9]]
    )
    def test_short_flat_and_uneven_grids_are_flow_at_bitwise(self, grid):
        flow = make_flow(AffineField([[0.0, -1.0], [1.0, 0.1]], [0.3, 0.0]))
        x = np.array([-0.0, 0.1])
        assert flows._grid_step(np.array(grid)) == 0.0
        points = orbit(flow, x, grid).points
        expected = np.stack([flow_at(flow, t, x) for t in grid])
        assert np.array_equal(points, expected)
        assert np.array_equal(np.signbit(points), np.signbit(expected))

    def test_uniform_grid_takes_about_two_sqrt_k_exponentials(self, monkeypatch):
        sizes = []

        def counted(a):
            sizes.append(len(a))
            return mat_exp(a)

        mat_exp = flows.mat_exp
        monkeypatch.setattr(flows, "mat_exp", counted)
        # M = 101: 100 anchors at t_0, t_101, ..., t_9999 and 100 steps.
        orbit(make_flow(PLANAR), [1.0, 0.0], np.linspace(0.0, 1.0, 10_001))
        assert sum(sizes) == 200

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_time_between_anchors_rejected(self, bad):
        grid = np.linspace(0.0, 1.0, 10)
        grid[1] = bad
        with pytest.raises(ValueError, match="finite"):
            orbit(make_flow(PLANAR), [0.0, 0.0], grid)


class TestExponentials:
    @pytest.fixture
    def kernel_calls(self, monkeypatch):
        """The entry counts of the stacks that reach the kernel, linalg._exp."""
        entries, kernel = [], linalg._exp

        def spy(a, *args):
            entries.append(a.size)
            return kernel(a, *args)

        monkeypatch.setattr(linalg, "_exp", spy)
        return entries

    @pytest.mark.parametrize("n", [2, 6, 20])
    @pytest.mark.parametrize("shared", [False, True], ids=["per-row", "shared"])
    def test_stack_longer_than_a_block_is_each_rows_mat_exp(self, n, shared, kernel_calls):
        rng = np.random.default_rng([n, 12])
        size = ORBIT_BLOCK_ENTRIES // (n + 1) ** 2
        k = 2 * size + 5
        g = np.array([random_affine_field(rng, n).matrix for _ in range(1 if shared else k)])
        times = rng.uniform(-1.0, 1.0, size=k)
        exps = _exponentials(g, times)
        assert len(kernel_calls) == 3
        assert max(kernel_calls) <= ORBIT_BLOCK_ENTRIES
        for j, t in enumerate(times):
            assert exps[j].tobytes() == mat_exp(t * g[0 if shared else j]).tobytes(), j

    @pytest.mark.parametrize("n, k", [(2, 10_001), (9, 10_001), (20, 10_001), (20, 401)])
    def test_uniform_orbit_is_the_group_law_of_each_steps_mat_exp(self, n, k, kernel_calls):
        # At k = 10,001 there are 100 steps: one block at n = 2, two at n = 9
        # and six at n = 20.
        rng = np.random.default_rng([n, k])
        flow = make_flow(random_affine_field(rng, n))
        x = rng.uniform(-2.0, 2.0, size=n)
        grid = np.linspace(-2.0, 3.0, k)
        points = orbit(flow, x, grid).points
        assert max(kernel_calls) <= ORBIT_BLOCK_ENTRIES
        assert points.tobytes() == _uniform_orbit_step_by_step(flow, x, grid).tobytes()


def _uniform_orbit_step_by_step(flow, x, grid) -> np.ndarray:
    """``orbit`` on the uniform grid by the group law as flows._uniform_orbit
    applies it, each step exponential exp(r h G) from its own ``mat_exp``
    call: the anchor points w_q by ``flow_at`` at t_(q m), then row q m + r
    the first n entries of exp(r h G) (w_q, 1), and the start at t = 0."""
    k, n = len(grid), flow.field.n
    m = math.isqrt(k - 1) + 1
    anchors = flow_at(flow, grid[::m], x)
    steps = np.arange(1, m) * flows._grid_step(grid)
    exps = np.array([mat_exp(t * flow.field.matrix) for t in steps])
    rows, lifted = np.empty((len(anchors), m, n)), np.ones((len(anchors), n + 1))
    rows[:, 0] = lifted[:, :n] = anchors
    np.matmul(lifted, exps[:, :n].transpose(0, 2, 1), out=rows[:, 1:].transpose(1, 0, 2))
    points = rows.reshape(-1, n)[:k]
    points[grid == 0.0] = x
    return points


def _uniform_grid_reference(g, x, grid) -> np.ndarray:
    """exp(t_k G) (x, 1) at 40 digits, cut to the first n entries.

    Propagated from t_0 by exp(h G) at h = (t_(K-1) - t_0) / (K - 1); each
    row is then moved to its float time t_k by the first-order term of
    exp(d_k G), with d_k = t_k - (t_0 + k h) a few ulps of max |t|.
    """
    m = len(g)
    with mpmath.workdps(40):
        gen = mpmath.matrix(g.tolist())
        t0 = mpmath.mpf(grid[0])
        h = (mpmath.mpf(grid[-1]) - t0) / (len(grid) - 1)
        step = mpmath.expm(h * gen).tolist()
        z = (mpmath.expm(t0 * gen) * mpmath.matrix([*x.tolist(), 1.0])).T.tolist()[0]
        rows = gen.tolist()
        out = []
        for k, t in enumerate(grid.tolist()):
            if k:
                z = [mpmath.fdot(row, z) for row in step]
            d = mpmath.mpf(t) - (t0 + k * h)
            out.append([float(z[i] + d * mpmath.fdot(rows[i], z)) for i in range(m - 1)])
    return np.array(out)
