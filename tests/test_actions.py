"""Group elements, actions, fundamental fields, chart conjugation."""

import copy
import dataclasses
import math
import pickle
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.linalg import expm

from affine_fields import actions as ga
from affine_fields.charts import (
    ChartDomainError,
    diagonal_scaling_chart,
    exponential_chart,
    identity_chart,
    lambert_chart,
)
from affine_fields.fields import (
    AffineField,
    constant_field,
    evaluate,
    linear_field,
    zero_field,
)
from affine_fields.flows import Orbit, flow_at, make_flow, orbit
from affine_fields.invariants import FD_STEP
from affine_fields.oracle import OdeProblem, integrate


def _catalog_action(variant, n, s, q):
    """Catalog action ``variant`` on R^n; ``s()`` or ``q()`` makes the
    parameter of a variant that takes one, so that the draws of a random
    parameter happen only for that variant."""
    param = ga.VARIANTS[variant].param
    if param is None:
        return ga.GroupAction(variant, n)
    return ga.GroupAction(variant, n, **{param: (s if param == "s" else q)()})


def _random_tangent(rng, kind, n):
    """Generator with entries drawn from [-1, 1] on the coordinates of ``kind``."""
    mat = rng.uniform(-1, 1, (n, n))
    vec = rng.uniform(-1, 1, n)
    if kind == ga.TRANSLATION_GROUP:
        mat[:] = 0.0
    if kind == ga.GENERAL_LINEAR:
        vec[:] = 0.0
    return AffineField(mat, vec)


KIND_ACTIONS = [
    (ga.TRANSLATION_GROUP, ga.standard_translation_action),
    (ga.GENERAL_LINEAR, ga.standard_linear_action),
    (ga.GENERAL_AFFINE, ga.standard_affine_action),
]


class TestGroupElements:
    def test_semidirect_multiplication(self):
        g = ga.affine_element([[2.0, 0.0], [0.0, 1.0]], [1.0, 0.0])
        h = ga.affine_element([[1.0, 1.0], [0.0, 1.0]], [0.0, 3.0])
        product = ga.multiply(g, h)
        assert_allclose(product.a, g.a @ h.a)
        assert_allclose(product.t, g.a @ h.t + g.t)

    def test_identity_and_inverse(self):
        rng = np.random.default_rng(0)
        e = ga.identity_element(2)
        assert ga.multiply(e, e) == e == ga.inverse(e)
        for kind in (ga.TRANSLATION_GROUP, ga.GENERAL_LINEAR, ga.GENERAL_AFFINE):
            for _ in range(5):
                g = ga.GroupElement(ga._random_matrix(ga.GroupAction(ga.STANDARD_AFFINE, 2), rng))
                if kind == ga.TRANSLATION_GROUP:
                    g = ga.translation_element(g.t)
                elif kind == ga.GENERAL_LINEAR:
                    g = ga.linear_element(g.a)
                gg = ga.multiply(g, ga.inverse(g))
                assert_allclose(gg.matrix, np.eye(3), atol=1e-12)

    def test_singular_matrix_rejected(self):
        # The last case has det 1.1e-3 but is singular to working precision.
        for a in (
            np.zeros((2, 2)),
            [[1.0, 0.0], [2.0, 0.0]],
            1e6 * np.array([[1.0, 1.0], [1.0, 1.0 + 1e-15]]),
        ):
            with pytest.raises(ValueError, match="singular"):
                ga.linear_element(a)

    def test_invertibility_test_is_scale_free(self):
        # det(0.2 I_20) = 1e-14, yet the matrix is perfectly conditioned.
        x = np.linspace(-1.0, 1.0, 20)
        g = ga.linear_element(0.2 * np.eye(20))
        assert np.array_equal(ga.act(ga.standard_linear_action(20), g, x), 0.2 * x)
        ga.affine_element(1e-200 * np.eye(2), [1.0, 2.0])

    def test_kind_shape_validation(self):
        bad_bottom = np.eye(3)
        bad_bottom[2, 0] = 1.0
        not_one = np.eye(3)
        not_one[2, 2] = 2.0
        sheared = np.eye(3)
        sheared[0, 1] = 0.5
        shifted = np.eye(3)
        shifted[0, 2] = 0.5
        for matrix in [
            bad_bottom, not_one, np.eye(3)[:, :2], np.eye(1), [[1.0, np.nan], [0.0, 1.0]],
        ]:
            with pytest.raises(ValueError):
                ga.GroupElement(matrix)
        # Both are elements of GA(2), but a sheared one is no translation and
        # a shifted one is not in GL(2), so those actions refuse them.
        for action, matrix, match in [
            (ga.standard_translation_action(2), sheared, "matrix part I"),
            (ga.exp_translation_action([1.0, 2.0]), sheared, "matrix part I"),
            (ga.standard_linear_action(2), shifted, "translation part 0"),
            (ga.det_weighted_action(2, 1), shifted, "translation part 0"),
        ]:
            with pytest.raises(ValueError, match=match):
                ga.act(action, ga.GroupElement(matrix), [1.0, 2.0])
        with pytest.raises(ValueError):
            ga.affine_element(np.eye(2), np.zeros(3))
        with pytest.raises(ValueError):
            ga.linear_element(np.ones(2))
        with pytest.raises(ValueError):
            ga.multiply(ga.identity_element(2), ga.identity_element(3))

    def test_elements_are_read_only(self):
        g = ga.affine_element(np.eye(2), [1.0, 2.0])
        for part in (g.matrix, g.a, g.t):
            with pytest.raises(ValueError):
                part[0] = 5.0

    @pytest.mark.parametrize("kind, make_action", KIND_ACTIONS)
    def test_subgroups_are_closed_exactly(self, kind, make_action):
        # Products, inverses and exponentials keep a = I exactly for
        # translations and t = 0 exactly for general-linear elements, so the
        # action, which takes only elements of its group, takes them.
        rng = np.random.default_rng(11)
        action = make_action(3)
        x = np.array([0.5, -1.0, 2.0])
        for _ in range(20):
            g = ga.GroupElement(ga._random_matrix(action, rng))
            h = ga.GroupElement(ga._random_matrix(action, rng))
            tangent = _random_tangent(rng, kind, 3)
            for out in (
                ga.multiply(g, h),
                ga.inverse(g),
                ga.one_parameter_subgroup(action, tangent, float(rng.uniform(-3, 3))),
            ):
                ga.act(action, out, x)
                if kind == ga.TRANSLATION_GROUP:
                    assert np.array_equal(out.a, np.eye(3))
                if kind == ga.GENERAL_LINEAR:
                    assert np.array_equal(out.t, np.zeros(3))

    @pytest.mark.parametrize("kind, make_action", KIND_ACTIONS)
    def test_one_parameter_subgroup_matches_expm(self, kind, make_action):
        rng = np.random.default_rng(12)
        for n in (1, 2, 4):
            action = make_action(n)
            tangent = _random_tangent(rng, kind, n)
            for t in (-2.0, 0.3, 1.5):
                got = ga.one_parameter_subgroup(action, tangent, t).matrix
                assert_allclose(got, expm(t * tangent.matrix), rtol=1e-12, atol=1e-13)

    @pytest.mark.parametrize("t", [1e308, 1e3])
    def test_one_parameter_subgroup_overflow_raises(self, t):
        # 1e308 overflows t X itself, 1e3 only its exponential e^2000.
        action = ga.standard_linear_action(1)
        with pytest.raises(OverflowError):
            ga.one_parameter_subgroup(action, linear_field([[2.0]]), t)

    def test_one_parameter_subgroup_rejects_non_finite_time(self):
        action = ga.standard_translation_action(1)
        with pytest.raises(ValueError, match="finite"):
            ga.one_parameter_subgroup(action, constant_field([1.0]), math.nan)


class TestTangents:
    def test_kind_constraints(self):
        with pytest.raises(ValueError):
            ga.TangentAtIdentity(ga.TRANSLATION_GROUP, np.eye(2), np.zeros(2))
        with pytest.raises(ValueError):
            ga.TangentAtIdentity(ga.GENERAL_LINEAR, np.zeros((2, 2)), np.ones(2))
        with pytest.raises(ValueError, match="unknown group kind"):
            ga.TangentAtIdentity("rotation", np.eye(2), np.zeros(2))


class TestAct:
    @pytest.mark.parametrize("n", [0, -1, 2.5, 2.0, True, "2", None])
    def test_dimension_must_be_an_integer_of_at_least_one(self, n):
        with pytest.raises(ValueError, match="integer >= 1"):
            ga.GroupAction(ga.STANDARD_LINEAR, n)

    @pytest.mark.parametrize(
        "q", [-1, 2.0, 1.5, True, False, "2", math.inf, math.nan, None, np.float64(1.0)]
    )
    def test_power_must_be_an_integer_of_at_least_zero(self, q):
        with pytest.raises(ValueError, match=re.escape(f"q must be an integer >= 0, not {q!r}")):
            ga.det_weighted_action(2, q)

    def test_numpy_integer_power_is_kept_as_an_int(self):
        action = ga.det_weighted_action(2, np.uint8(2))
        assert type(action.q) is int
        assert action == ga.det_weighted_action(2, 2)
        assert ga.det_weighted_action(2, 0).q == 0

    def test_numpy_integer_dimension_is_kept_as_an_int(self):
        action = ga.GroupAction(ga.STANDARD_LINEAR, np.int64(3))
        assert type(action.n) is int
        assert action == ga.standard_linear_action(3)

    def test_standard_affine(self):
        action = ga.standard_affine_action(2)
        g = ga.affine_element(np.eye(2), [1.0, 2.0])
        assert_allclose(ga.act(action, g, [0.0, 0.0]), [1.0, 2.0])

    def test_standard_linear(self):
        action = ga.standard_linear_action(2)
        g = ga.linear_element([[0.0, -1.0], [2.0, 0.5]])
        assert ga.act(action, g, [3.0, 4.0]).tolist() == [-4.0, 8.0]

    def test_standard_translation(self):
        action = ga.standard_translation_action(3)
        g = ga.translation_element([0.5, -1.0, 2.0])
        assert ga.act(action, g, [1.0, 2.0, -3.0]).tolist() == [1.5, 1.0, -1.0]

    def test_one_standard_act_is_exact_on_each_subgroup(self):
        # a x + t with t = 0 is a x, and with a = I it is x + t, bit for bit
        # (np.array_equal ignores only the sign of a zero).
        rng = np.random.default_rng(11)
        linear = ga.standard_linear_action(3)
        translation = ga.standard_translation_action(3)
        for _ in range(20):
            a = rng.uniform(-2, 2, (3, 3)) + 4.0 * np.eye(3)
            t, x = rng.uniform(-2, 2, (2, 3))
            assert np.array_equal(ga.act(linear, ga.linear_element(a), x), a @ x)
            assert np.array_equal(
                ga.act(translation, ga.translation_element(t), x), x + t)

    def test_exp_translation(self):
        # s . t = log 2 rescales every coordinate by 2.
        action = ga.exp_translation_action([1.0, 0.0])
        g = ga.translation_element([math.log(2.0), 5.0])
        assert_allclose(ga.act(action, g, [3.0, 4.0]), [6.0, 8.0])

    def test_det_weighted(self):
        action = ga.det_weighted_action(2, 1)
        g = ga.linear_element(np.diag([2.0, 1.0]))
        assert_allclose(ga.act(action, g, [1.0, 1.0]), [4.0, 2.0])

    def test_kind_mismatch(self):
        # An action takes the elements of its group and dimension only.
        x = [0.0, 0.0]
        for action, g, match in [
            (ga.standard_linear_action(2), ga.translation_element([1.0, 2.0]),
             "general-linear elements have translation part 0"),
            (ga.standard_translation_action(2), ga.linear_element([[1.0, 0.5], [0.0, 1.0]]),
             "translation elements have matrix part I"),
            (ga.standard_affine_action(2), ga.identity_element(3), "dimension"),
        ]:
            with pytest.raises(ValueError, match=match):
                ga.act(action, g, x)

    def test_subgroup_elements_act_under_the_affine_action(self):
        # GL(n) and the translations sit inside GA(n): standard-affine takes
        # their elements and acts as their own standard action, bit for bit.
        rng = np.random.default_rng(13)
        affine = ga.standard_affine_action(3)
        for _ in range(10):
            a = rng.uniform(-2, 2, (3, 3)) + 4.0 * np.eye(3)
            t, x = rng.uniform(-2, 2, (2, 3))
            for action, g in [
                (ga.standard_linear_action(3), ga.linear_element(a)),
                (ga.standard_translation_action(3), ga.translation_element(t)),
            ]:
                assert ga.act(affine, g, x).tobytes() == ga.act(action, g, x).tobytes()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("point", [[np.inf, 0.0], [0.0, np.nan], [-np.inf, 1.0]])
    def test_non_finite_point_rejected(self, point):
        # a x + t would return NaN components (inf * 0) with a RuntimeWarning.
        cases = [
            (ga.standard_linear_action(2), ga.linear_element(np.diag([1.1, 1.1]))),
            (ga.standard_translation_action(2), ga.translation_element([1.0, 2.0])),
        ]
        for action, g in cases:
            with pytest.raises(ValueError, match="point must be finite"):
                ga.act(action, g, point)
        tangent = AffineField(np.eye(2), [1.0, 0.0])
        with pytest.raises(ValueError, match="point must be finite"):
            ga.fundamental_field_numeric(ga.standard_affine_action(2), tangent, point)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "action, g, x",
        [
            (ga.exp_translation_action([1.0]), ga.translation_element([1000.0]), [2.0]),
            (ga.exp_translation_action([1.0]), ga.translation_element([1000.0]), [0.0]),
            (ga.det_weighted_action(2, 2), ga.linear_element(1e75 * np.eye(2)), [1e10, 1.0]),
            (ga.standard_linear_action(1), ga.linear_element([[1e300]]), [1e10]),
            (ga.chart_conjugated_action(ga.standard_linear_action(1), lambert_chart()),
             ga.linear_element([[1e308]]), [2.0]),
        ],
        ids=["exp-overflow", "exp-zero-times-inf", "det-weighted", "linear", "lambert"],
    )
    def test_non_finite_image_raises_overflow(self, action, g, x):
        # The image is checked before the chart's inverse, which would
        # otherwise be handed inf.
        with pytest.raises(OverflowError, match="overflows the float range"):
            ga.act(action, g, x)


class TestAxioms:
    @pytest.mark.parametrize("variant", ga.CATALOG_VARIANTS)
    def test_catalog_actions_pass(self, variant):
        action = _catalog_action(variant, 2, lambda: [0.7, -0.3], lambda: 2)
        report = ga.check_action_axioms(action, samples=200, seed=0)
        assert report.passed, report.to_dict()

    def test_chart_conjugated_action_passes(self):
        action = ga.chart_conjugated_action(
            ga.standard_affine_action(1), lambert_chart()
        )
        report = ga.check_action_axioms(action, samples=100, seed=0)
        assert report.passed, report.to_dict()

    def test_broken_variant_fails_composition(self, monkeypatch):
        # Negative control: (a, x) -> a x + x is not an action.
        monkeypatch.setitem(ga.VARIANTS, "broken-linear", dataclasses.replace(
            ga.VARIANTS[ga.STANDARD_LINEAR],
            act=lambda action, m, p: (m[..., :-1, :-1] @ p[..., None])[..., 0] + p))
        action = ga.GroupAction("broken-linear", 2)
        report = ga.check_action_axioms(action, samples=50, seed=0)
        assert not report.passed
        assert report.max_composition_defect > 1e-3


def _axiom_loop(action, samples, seed):
    """check_action_axioms one sample at a time through the public act and
    multiply, drawing x, g1 and g2 in the same order: the oracle of the
    stacked report."""
    rng = np.random.default_rng(seed)
    e = ga.identity_element(action.n)
    max_id = max_comp = 0.0
    for _ in range(samples):
        if action.chart is None:
            x = rng.uniform(-2.0, 2.0, size=action.n)
        else:
            x = action.chart.sample(rng)
        g1 = ga.GroupElement(ga._random_matrix(action, rng))
        g2 = ga.GroupElement(ga._random_matrix(action, rng))
        scale = 1.0 + float(np.linalg.norm(x))
        max_id = max(max_id, float(np.linalg.norm(ga.act(action, e, x) - x)) / scale)
        direct = ga.act(action, ga.multiply(g1, g2), x)
        chained = ga.act(action, g1, ga.act(action, g2, x))
        max_comp = max(max_comp, float(np.linalg.norm(direct - chained)) / scale)
    return max_id, max_comp


def _every_action(rng, n):
    """The five catalog actions on R^n, det-weighted with each q in 0..3,
    and the standard-affine, exp-translation and det-weighted ones on each
    registry chart that lives on R^n."""
    s = rng.uniform(-1.5, 1.5, n)
    actions = [ga.standard_linear_action(n), ga.standard_translation_action(n),
               ga.standard_affine_action(n), ga.exp_translation_action(s)]
    actions += [ga.det_weighted_action(n, q) for q in range(4)]
    charts = [identity_chart(n), exponential_chart(n), diagonal_scaling_chart(n)]
    for chart in charts + ([lambert_chart()] if n == 1 else []):
        actions += [ga.chart_conjugated_action(base, chart) for base in (
            ga.standard_affine_action(n), ga.exp_translation_action(s),
            ga.det_weighted_action(n, 3))]
    return actions


class TestStackedAct:
    # A variant's act takes a stack of elements and of points; each row must
    # be bit for bit the act of that row alone, the act that the public act
    # and every single-element caller make.
    @pytest.mark.parametrize("n", [1, 2, 3, 6])
    def test_each_row_is_the_act_of_that_row(self, n):
        rng = np.random.default_rng(30 + n)
        for action in _every_action(rng, n):
            k = 40
            m = np.array([ga._random_matrix(action, rng) for _ in range(k)])
            x = np.array([rng.uniform(-2.0, 2.0, n) if action.chart is None
                          else action.chart.sample(rng) for _ in range(k)])
            if action.chart is None:
                variant_act = ga.VARIANTS[action.variant].act
                stacked = variant_act(action, m, x)
                shared = variant_act(action, m, x[0])
                for i in range(k):
                    assert stacked[i].tobytes() == variant_act(action, m[i], x[i]).tobytes()
                    assert shared[i].tobytes() == variant_act(action, m[i], x[0]).tobytes()
            stacked = ga._act(action, m, x)
            for i in range(k):
                one = ga.act(action, ga.GroupElement(m[i]), x[i])
                assert stacked[i].tobytes() == one.tobytes(), (action.describe(), i)

    @pytest.mark.parametrize("n, samples", [(1, 90), (2, 60), (3, 40), (3, 600)])
    def test_report_is_the_per_sample_loop(self, n, samples):
        # 600 samples at n = 3 span two blocks of ORBIT_BLOCK_ENTRIES entries.
        rng = np.random.default_rng(50 + samples)
        for action in _every_action(rng, n)[:: 1 if samples < 100 else 5]:
            seed = int(rng.integers(0, 2**31))
            report = ga.check_action_axioms(action, samples, seed)
            got = (report.max_identity_defect, report.max_composition_defect)
            assert got == _axiom_loop(action, samples, seed), action.describe()

    @staticmethod
    def _sample(action, seed, j):
        """x, g1 and g2 of sample j, drawn as check_action_axioms draws them."""
        rng = np.random.default_rng(seed)
        for _ in range(j + 1):
            x = (rng.uniform(-2.0, 2.0, size=action.n) if action.chart is None
                 else action.chart.sample(rng))
            g1, g2 = (ga._random_matrix(action, rng) for _ in range(2))
        return x, g1, g2

    @staticmethod
    def _overflow_at(monkeypatch, base, poison):
        """The action on R^2 of a variant that acts as ``base`` but overflows
        at each point equal to ``poison[0]``."""
        def act(action, m, p):
            at = np.all(p == poison[0], axis=-1, keepdims=True)
            return np.where(at, np.inf, ga.VARIANTS[base].act(action, m, p))

        monkeypatch.setitem(ga.VARIANTS, "overflow-once",
                            dataclasses.replace(ga.VARIANTS[base], act=act))
        return ga.GroupAction("overflow-once", 2)

    @pytest.mark.parametrize("role", ["identity", "chained"])
    def test_one_overflowing_sample_raises_as_act_does(self, monkeypatch, role):
        # The act overflows at one point of sample 13: at x itself, so the
        # act of e meets it first, or at the image of x under g2, which only
        # the act of g1 in act(g1, act(g2, x)) sees.
        poison = [None]
        action = self._overflow_at(monkeypatch, ga.STANDARD_AFFINE, poison)
        x, _, g2 = self._sample(action, 7, 13)
        poison[0] = x if role == "identity" else ga.VARIANTS[ga.STANDARD_AFFINE].act(
            action, g2, x)
        assert ga.check_action_axioms(action, 13, seed=7).passed
        message = "^image under overflow-once overflows the float range$"
        with pytest.raises(OverflowError, match=message):
            ga.check_action_axioms(action, 40, seed=7)
        # The public act raises the same on that sample's point.
        with pytest.raises(OverflowError, match=message):
            ga.act(action, ga.identity_element(2), poison[0])

    # Columns (1, 0) and (1, 1e-7) are an element (scaled determinant 1e-7),
    # but its square has scaled determinant 1e-14.
    SHEARED = np.array([[1.0, 1.0, 0.0], [0.0, 1e-7, 0.0], [0.0, 0.0, 1.0]])

    @classmethod
    def _shear_sample(cls, monkeypatch, j, matrix=None):
        """Makes the block draw of check_action_axioms give sample j the
        sheared g1 and g2, or ``matrix`` as both; samples are counted from
        the returned counter, which the caller sets back to [0] before a
        new check."""
        draw, drawn = ga._random_samples, [0]

        def shear(action, rng, k):
            x, g = draw(action, rng, k)
            if 0 <= j - drawn[0] < k:
                g[:, j - drawn[0]] = cls.SHEARED if matrix is None else matrix
            drawn[0] += k
            return x, g

        monkeypatch.setattr(ga, "_random_samples", shear)
        return drawn

    def test_near_singular_product_raises_as_multiply_does(self, monkeypatch):
        g = ga.GroupElement(self.SHEARED)
        with pytest.raises(ValueError, match="^matrix part is singular$"):
            ga.multiply(g, g)
        drawn = self._shear_sample(monkeypatch, 9)
        action = ga.standard_linear_action(2)
        with pytest.raises(ValueError, match="^matrix part is singular$"):
            ga.check_action_axioms(action, 30, seed=3)
        drawn[0] = 0
        assert ga.check_action_axioms(action, 9, seed=3).passed

    @pytest.mark.filterwarnings("error")
    def test_overflowing_product_raises_as_multiply_does(self, monkeypatch):
        g = ga.linear_element([[1e200, 0.0], [0.0, 1.0]])
        message = "^group product overflows the float range$"
        with pytest.raises(OverflowError, match=message):
            ga.multiply(g, g)
        self._shear_sample(monkeypatch, 4, g.matrix)
        with pytest.raises(OverflowError, match=message):
            ga.check_action_axioms(ga.standard_linear_action(2), 10, seed=3)

    def test_several_failures_raise_in_role_order(self, monkeypatch):
        # Sample 2 has a singular product, sample 5 overflows under e: the
        # act of e comes before the product's test, so its error is raised.
        poison = [None]
        action = self._overflow_at(monkeypatch, ga.STANDARD_LINEAR, poison)
        poison[0] = self._sample(action, 11, 5)[0]
        drawn = self._shear_sample(monkeypatch, 2)
        with pytest.raises(OverflowError, match="overflows the float range"):
            ga.check_action_axioms(action, 10, seed=11)
        # Without the overflow, sample 2's product is what raises.
        poison[0] = np.full(2, np.nan)
        drawn[0] = 0
        with pytest.raises(ValueError, match="^matrix part is singular$"):
            ga.check_action_axioms(action, 10, seed=11)

    def test_rejected_draw_falls_back_to_the_per_sample_loop(self, monkeypatch):
        # Under a rejection threshold of 0.5 about one matrix part I + U in
        # 20 is redrawn at n = 3, so some blocks go back to their start and
        # draw one sample at a time and some do not; the report and the
        # generator's end state are those of the per-sample loop either way.
        monkeypatch.setattr(ga, "MIN_SAMPLE_DET", 0.5)
        draw, per_sample = ga._random_matrix, [0]

        def counted(action, rng):
            per_sample[0] += 1
            return draw(action, rng)

        monkeypatch.setattr(ga, "_random_matrix", counted)
        rng = np.random.default_rng(63)
        fell_back = set()
        for action in _every_action(rng, 3):
            seed = int(rng.integers(0, 2**31))
            for samples in (1, 7, 40, 600):
                before = per_sample[0]
                report = ga.check_action_axioms(action, samples, seed)
                fell_back.add(per_sample[0] > before)
                got = (report.max_identity_defect, report.max_composition_defect)
                assert got == _axiom_loop(action, samples, seed), action.describe()
            block, loop = np.random.default_rng(seed), np.random.default_rng(seed)
            x, g = ga._random_samples(action, block, 40)
            for i in range(40):
                xi = (loop.uniform(-2.0, 2.0, size=3) if action.chart is None
                      else action.chart.sample(loop))
                assert x[i].tobytes() == xi.tobytes()
                for role in (0, 1):
                    assert g[role, i].tobytes() == ga._random_matrix(action, loop).tobytes()
            assert block.bit_generator.state == loop.bit_generator.state
        assert fell_back == {False, True}

    @pytest.mark.parametrize("samples", [0, -1, 2.0, 2.5, True, False, "2", None,
                                         np.float64(3.0)])
    def test_samples_must_be_an_integer_of_at_least_one(self, samples):
        with pytest.raises(ValueError, match=re.escape(
                f"samples must be an integer >= 1, not {samples!r}")):
            ga.check_action_axioms(ga.standard_affine_action(2), samples)

    def test_numpy_integer_samples_are_kept_as_an_int(self):
        report = ga.check_action_axioms(ga.standard_affine_action(2), np.int32(7), seed=4)
        assert type(report.samples) is int
        assert report == ga.check_action_axioms(ga.standard_affine_action(2), 7, seed=4)


def _fundamental_loop(action, tangent, x):
    """fundamental_field_numeric one perturbed element at a time: the
    oracle of the stacked differences."""
    p = np.asarray(x, dtype=float)
    chart = action.chart
    if chart is not None:
        p = chart.forward(p)
    out = np.zeros(action.n)
    for r, c in zip(*np.nonzero(tangent.matrix)):
        images = []
        for step in (FD_STEP, -FD_STEP):
            g = np.eye(action.n + 1)
            g[r, c] += step
            image = ga.VARIANTS[action.variant].act(action, g, p)
            images.append(image if chart is None else chart.inverse(image))
        out += tangent.matrix[r, c] * (images[0] - images[1]) / (2.0 * FD_STEP)
    return out


class TestFundamentalNumeric:
    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_is_the_per_entry_loop(self, n):
        rng = np.random.default_rng(70 + n)
        for action in _every_action(rng, n):
            for _ in range(5):
                # About a third of the entries zero, so nnz varies.
                X = _random_tangent(rng, action.group_kind, n).matrix
                X = X * (rng.uniform(size=X.shape) > 0.3)
                tangent = AffineField(X[:-1, :-1], X[:-1, -1])
                x = rng.uniform(-2.0, 2.0, n) if action.chart is None else action.chart.sample(rng)
                got = ga.fundamental_field_numeric(action, tangent, x)
                assert got.tobytes() == _fundamental_loop(action, tangent, x).tobytes()

    def test_overflowing_difference_raises(self):
        # exp(s . t) overflows at t = +FD_STEP e_1 once s_1 FD_STEP > 710.
        action = ga.exp_translation_action([1e12, 0.0])
        with pytest.raises(OverflowError, match="overflows the float range"):
            ga.fundamental_field_numeric(action, constant_field([1.0, 0.0]), [1.0, 1.0])

    def test_translation_gives_constant_components(self):
        action = ga.standard_translation_action(3)
        tangent = constant_field([1.0, 0.0, 0.0])
        rng = np.random.default_rng(2)
        for _ in range(5):
            x = rng.uniform(-2, 2, 3)
            assert_allclose(
                ga.fundamental_field_numeric(action, tangent, x),
                [1.0, 0.0, 0.0],
                atol=1e-9,
            )

    def test_single_matrix_entry_reads_coordinate(self):
        # Tangent along entry (i, j) produces x[j] in slot i.
        action = ga.standard_linear_action(3)
        x = np.array([1.5, -2.0, 0.5])
        for i in range(3):
            for j in range(3):
                mat = np.zeros((3, 3))
                mat[i, j] = 1.0
                out = ga.fundamental_field_numeric(
                    action, linear_field(mat), x
                )
                expected = np.zeros(3)
                expected[i] = x[j]
                assert_allclose(out, expected, atol=1e-9)

    def test_exp_translation_scales_the_point(self):
        s = np.array([0.5, -1.0])
        action = ga.exp_translation_action(s)
        tangent = constant_field([2.0, 1.0])
        x = np.array([3.0, -1.0])
        rate = float(np.dot(tangent.B, s))
        assert_allclose(
            ga.fundamental_field_numeric(action, tangent, x), rate * x, atol=1e-8
        )


class TestFundamentalRows:
    # The kernel behind validation check 5: one act of the identities
    # perturbed along the union of a stack's generator entries on all its
    # points.  Each row must be bit for bit fundamental_field_numeric of
    # that generator and point alone, the entries zero in a row included.
    @staticmethod
    def _alone(action, g, x):
        return ga.fundamental_field_numeric(action, AffineField(g[:-1, :-1], g[:-1, -1]), x)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_each_row_is_the_one_case_call(self, n):
        rng = np.random.default_rng(90 + n)
        for action in _every_action(rng, n):
            k = 8
            g = np.stack([_random_tangent(rng, action.group_kind, n).matrix for _ in range(k)])
            # About a third of the entries exactly zero (some -0.0), so the
            # rows' supports differ and the union pads them; row 0 is zero.
            g *= rng.uniform(size=g.shape) > 0.3
            g[0] = 0.0
            if action.chart is None:
                x = rng.uniform(-2.0, 2.0, (k, n))
            else:
                x = np.array([action.chart.sample(rng) for _ in range(k)])
            x[:2, -1] = -0.0
            if action.chart is not None and not action.chart.contains(x[0]):
                x[:2, -1] = 0.5
            rows = ga._fundamental_rows(action, g, x)
            assert rows.shape == (k, n)
            for gi, xi, row in zip(g, x, rows):
                assert row.tobytes() == self._alone(action, gi, xi).tobytes()
                tangent = AffineField(gi[:-1, :-1], gi[:-1, -1])
                assert row.tobytes() == _fundamental_loop(action, tangent, xi).tobytes()

    def test_rows_with_disjoint_supports(self):
        # Row i has only entry i of the union, so every other term is padded.
        action = ga.standard_affine_action(2)
        g = np.zeros((6, 3, 3))
        g[np.arange(6), [0, 0, 0, 1, 1, 1], [0, 1, 2, 0, 1, 2]] = [1.5, -0.5, 2.0, -1.0, 0.25, 3.0]
        x = np.array([[-0.0, 1.0], [2.0, -0.0], [0.5, -1.5], [-0.0, -0.0], [3.0, 1.0], [1.0, 2.0]])
        rows = ga._fundamental_rows(action, g, x)
        for gi, xi, row in zip(g, x, rows):
            assert row.tobytes() == self._alone(action, gi, xi).tobytes()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "action", [ga.standard_linear_action(2), ga.det_weighted_action(2, 1)]
    )
    def test_an_overflowing_row_raises_as_the_one_case_call(self, action):
        # (1 + FD_STEP) times the largest float is not finite.
        g = np.zeros((3, 3, 3))
        g[:, 0, 0] = 1.0
        x = np.array([[1.0, 2.0], [np.finfo(float).max, 1.0], [-1.0, 0.5]])
        with pytest.raises(OverflowError, match="overflows the float range"):
            self._alone(action, g[1], x[1])
        with pytest.raises(OverflowError, match="overflows the float range"):
            ga._fundamental_rows(action, g, x)


class TestFundamentalAnalytic:
    def test_planar_field_from_affine_tangent(self):
        action = ga.standard_affine_action(2)
        tangent = AffineField([[0.0, 0.0], [2.0, 0.0]], [1.0, 0.0])
        field = ga.fundamental_field_analytic(action, tangent)
        assert_allclose(field.C, [[0.0, 0.0], [2.0, 0.0]])
        assert_allclose(field.B, [1.0, 0.0])

    def test_det_weighted_trace_feedback(self):
        action = ga.det_weighted_action(2, 1)
        field = ga.fundamental_field_analytic(action, linear_field(np.eye(2)))
        assert_allclose(field.C, 3.0 * np.eye(2))

    def test_chart_conjugated_has_no_ambient_closed_form(self):
        action = ga.chart_conjugated_action(
            ga.standard_linear_action(1), lambert_chart()
        )
        with pytest.raises(ValueError, match="closed form"):
            ga.fundamental_field_analytic(action, linear_field([[1.0]]))

    def test_numeric_agreement_random(self):
        rng = np.random.default_rng(3)
        for variant in ga.CATALOG_VARIANTS:
            for _ in range(20):
                n = int(rng.integers(1, 4))
                action = _catalog_action(
                    variant,
                    n,
                    lambda: rng.uniform(-1.5, 1.5, n),
                    lambda: int(rng.integers(0, 4)),
                )
                tangent = _random_tangent(rng, action.group_kind, n)
                x = rng.uniform(-2, 2, n)
                numeric = ga.fundamental_field_numeric(action, tangent, x)
                analytic = evaluate(ga.fundamental_field_analytic(action, tangent), x)
                assert np.linalg.norm(numeric - analytic) <= 1e-5 * (
                    1.0 + np.linalg.norm(x)
                )


class TestTangentRecovery:
    def test_linear_constant_affine_bijections(self):
        # For the standard actions both maps are the identity, exactly.
        rng = np.random.default_rng(4)
        n = 3
        c = rng.uniform(-2, 2, (n, n))
        b = rng.uniform(-2, 2, n)
        for action, field in [
            (ga.standard_linear_action(n), linear_field(c)),
            (ga.standard_translation_action(n), constant_field(b)),
            (ga.standard_affine_action(n), AffineField(c, b)),
        ]:
            assert ga.fundamental_field_analytic(action, field) == field
            assert ga.tangent_for_field(action, field) == field

    def test_subgroup_generators_lie_in_the_affine_algebra(self):
        # gl(n) and the translations sit inside aff(n): standard-affine takes
        # their generators and agrees with their own standard action.
        rng = np.random.default_rng(9)
        affine = ga.standard_affine_action(3)
        for _ in range(5):
            t = float(rng.uniform(-2, 2))
            mat, vec = rng.uniform(-1, 1, (3, 3)), rng.uniform(-1, 1, 3)
            for action, X in [
                (ga.standard_linear_action(3), linear_field(mat)),
                (ga.standard_translation_action(3), constant_field(vec)),
            ]:
                assert (ga.fundamental_field_analytic(affine, X)
                        == ga.fundamental_field_analytic(action, X))
                assert (ga.one_parameter_subgroup(affine, X, t).matrix.tobytes()
                        == ga.one_parameter_subgroup(action, X, t).matrix.tobytes())

    def test_generator_outside_the_algebra_rejected(self):
        affine = AffineField([[1.0, 0.0], [0.0, 2.0]], [0.0, 1.0])
        for action, X, match in [
            (ga.standard_translation_action(2), linear_field(np.eye(2)), "constant"),
            (ga.exp_translation_action([1.0, 2.0]), affine, "constant"),
            (ga.standard_linear_action(2), constant_field([1.0, 0.0]), "linear"),
            (ga.det_weighted_action(2, 1), affine, "linear"),
            (ga.standard_affine_action(3), affine, "dimension"),
        ]:
            for call in (
                lambda: ga.fundamental_field_analytic(action, X),
                lambda: ga.fundamental_field_numeric(action, X, np.zeros(action.n)),
                lambda: ga.one_parameter_subgroup(action, X, 1.0),
            ):
                with pytest.raises(ValueError, match=match):
                    call()

    def test_det_weighted_inverse_formula(self):
        rng = np.random.default_rng(5)
        for n in (1, 2, 3, 4):
            for q in (0, 1, 2, 3):
                action = ga.det_weighted_action(n, q)
                field = AffineField(rng.uniform(-2, 2, (n, n)), np.zeros(n))
                tangent = ga.tangent_for_field(action, field)
                expected = field.C - (q / (1.0 + q * n)) * np.trace(
                    field.C
                ) * np.eye(n)
                assert_allclose(tangent.C, expected, atol=1e-14)
                back = ga.fundamental_field_analytic(action, tangent)
                assert np.max(np.abs(back.C - field.C)) <= 1e-12

    def test_exp_translation_needs_isotropic_scaling(self):
        action = ga.exp_translation_action([1.0, 2.0])
        iso = AffineField(0.75 * np.eye(2), np.zeros(2))
        tangent = ga.tangent_for_field(action, iso)
        back = ga.fundamental_field_analytic(action, tangent)
        assert_allclose(back.C, iso.C, atol=1e-14)
        skew = AffineField(np.array([[1.0, 1.0], [0.0, 1.0]]), np.zeros(2))
        with pytest.raises(ValueError, match="isotropic"):
            ga.tangent_for_field(action, skew)

    @pytest.mark.parametrize("scale", [1.0, 1e12])
    def test_exp_translation_isotropy_is_scale_free(self, scale):
        # A non-isotropic field is rejected however small its entries are.
        action = ga.exp_translation_action([1.0, 2.0])
        c = scale * np.array([[1e-12, 5e-11], [0.0, 1e-12]])
        with pytest.raises(ValueError, match="isotropic"):
            ga.tangent_for_field(action, AffineField(c, np.zeros(2)))

    @pytest.mark.parametrize("scale", [0.0, 1e-300, 1e-12, 1e12, 1e300])
    def test_exp_translation_round_trips_at_every_scale(self, scale):
        action = ga.exp_translation_action([1.0, 2.0])
        field = AffineField(scale * np.eye(2), np.zeros(2))
        tangent = ga.tangent_for_field(action, field)
        back = ga.fundamental_field_analytic(action, tangent)
        assert_allclose(back.matrix, field.matrix, rtol=1e-15, atol=0.0)

    def test_exp_translation_with_zero_weight_reaches_the_zero_field(self):
        action = ga.exp_translation_action([0.0, 0.0])
        assert ga.tangent_for_field(action, zero_field(2)) == zero_field(2)
        with pytest.raises(ValueError, match="weight vector is zero"):
            ga.tangent_for_field(action, linear_field(np.eye(2)))

    def test_wrong_field_class_rejected(self):
        field = AffineField(np.eye(2), [1.0, 0.0])
        with pytest.raises(ValueError):
            ga.tangent_for_field(ga.standard_linear_action(2), field)
        with pytest.raises(ValueError):
            ga.tangent_for_field(ga.standard_translation_action(2), field)
        # Zero parts are tested exactly: a tiny B is not dropped.
        tiny = AffineField(np.eye(2), [1e-13, 0.0])
        for action in (ga.standard_linear_action(2), ga.det_weighted_action(2, 1)):
            with pytest.raises(ValueError, match="linear"):
                ga.tangent_for_field(action, tiny)


def _field(m):
    """The AffineField of the generator m."""
    return AffineField(m[:-1, :-1], m[:-1, -1])


def _variant_actions(rng, variant, n):
    """Actions of ``variant`` on R^n: det-weighted for q = 0..3,
    exp-translation for a random weight and the zero one."""
    param = ga.VARIANTS[variant].param
    values = {"s": [rng.uniform(-1.5, 1.5, n), np.zeros(n)], "q": range(4)}.get(param, [None])
    return [ga.GroupAction(variant, n, **({param: v} if param else {})) for v in values]


class TestStackedVariantMaps:
    """The field and tangent maps of VARIANTS on a stack of generators
    against fundamental_field_analytic and tangent_for_field on each row
    alone, by bytes."""

    @pytest.mark.parametrize("n", range(1, 7))
    @pytest.mark.parametrize("variant", ga.CATALOG_VARIANTS)
    def test_each_row_is_the_public_function_of_that_row(self, variant, n):
        rng = np.random.default_rng([n, len(variant), 34])
        record = ga.VARIANTS[variant]
        for action in _variant_actions(rng, variant, n):
            g = np.stack([_random_tangent(rng, record.kind, n).matrix for _ in range(12)])
            g[3] = 0.0  # the zero generator, a zero rate for exp-translation
            g[5, :n, :n] *= 1e-300
            top = g[:, :n]  # signed zeros in any entry above the zero bottom row
            top[rng.random(top.shape) < 0.05] *= -0.0
            fields = record.field(action, g)
            assert fields.shape == g.shape
            for row, got in zip(g, fields):
                want = ga.fundamental_field_analytic(action, _field(row)).matrix
                assert got.tobytes() == want.tobytes()
            # The images are fields the tangent map takes: isotropic
            # scalings for exp-translation.
            tangents = record.tangent(action, fields)
            for field, got in zip(fields, tangents):
                assert got.tobytes() == ga.tangent_for_field(action, _field(field)).matrix.tobytes()

    @pytest.mark.parametrize("variant, s, bad", [
        (ga.EXP_TRANSLATION, [1.0, -2.0, 0.5], np.diag([1.0, 1.0, 1.5])),
        (ga.EXP_TRANSLATION, [0.0, 0.0, 0.0], 0.5 * np.eye(3)),
        (ga.EXP_TRANSLATION, [1.0, -2.0, 0.5], AffineField(np.eye(3), [0.0, 1e-13, 0.0]).matrix),
        (ga.DET_WEIGHTED, None, AffineField(np.eye(3), [0.0, 0.0, 1.0]).matrix),
        (ga.STANDARD_LINEAR, None, AffineField(np.eye(3), [1.0, 0.0, 0.0]).matrix),
        (ga.STANDARD_TRANSLATION, None, AffineField(np.eye(3), [1.0, 0.0, 0.0]).matrix),
    ])
    def test_a_failing_row_raises_as_that_row_alone(self, variant, s, bad):
        # A stack of zero fields, which every variant takes, and one that is not.
        param = {ga.EXP_TRANSLATION: {"s": s}, ga.DET_WEIGHTED: {"q": 2}}.get(variant, {})
        action = ga.GroupAction(variant, 3, **param)
        stack = np.zeros((6, 4, 4))
        stack[4, : bad.shape[0], : bad.shape[1]] = bad
        with pytest.raises(ValueError) as alone:
            ga.tangent_for_field(action, _field(stack[4]))
        with pytest.raises(ValueError, match=re.escape(str(alone.value))):
            ga.VARIANTS[variant].tangent(action, stack)


class TestOrbitTangency:
    """t -> act(exp(t X), x) is the flow of the fundamental field of X."""

    def test_flow_of_fundamental_field_follows_the_subgroup(self):
        # Relative to the sizes of the image and the start; over 200 seeds at
        # each n the worst is 7.8e-16 (det-weighted), and the three standard
        # actions agree exactly.
        rng = np.random.default_rng(6)
        for variant in ga.CATALOG_VARIANTS:
            for n in range(1, 5):
                for _ in range(10):
                    action = _catalog_action(
                        variant, n, lambda: rng.uniform(-1, 1, n),
                        lambda: int(rng.integers(0, 3)),
                    )
                    tangent = _random_tangent(rng, action.group_kind, n)
                    flow = make_flow(ga.fundamental_field_analytic(action, tangent))
                    x = rng.uniform(-2, 2, n)
                    t = rng.uniform(-1, 1)
                    g = ga.one_parameter_subgroup(action, tangent, t)
                    along_flow = flow_at(flow, t, x)
                    defect = np.linalg.norm(ga.act(action, g, x) - along_flow)
                    bound = 1e-13 * (np.linalg.norm(along_flow) + np.linalg.norm(x))
                    assert defect <= bound, variant

    @pytest.mark.parametrize(
        "base, chart",
        [
            (ga.standard_translation_action(2), exponential_chart(2)),
            (ga.standard_linear_action(1), lambert_chart()),
            (ga.standard_affine_action(3), diagonal_scaling_chart(3)),
        ],
        ids=["exponential", "lambert", "diagonal-scaling"],
    )
    def test_chart_orbit_is_the_integral_curve(self, base, chart):
        # The fundamental field of a chart action has no closed-form flow, so
        # the reference is RK4 at step 1e-2; the worst of 100 draws per chart
        # is 1.8e-11 (diagonal-scaling).  Halved tangents keep the lambert
        # orbits inside the chart's image.
        action = ga.chart_conjugated_action(base, chart)
        rng = np.random.default_rng(16)
        for _ in range(5):
            drawn = _random_tangent(rng, base.group_kind, base.n)
            tangent = AffineField(drawn.C / 2, drawn.B / 2)
            x = chart.sample(rng)
            t = rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 1.0)
            along_orbit = ga.act(action, ga.one_parameter_subgroup(action, tangent, t), x)
            along_field = integrate(OdeProblem(
                lambda y: ga.fundamental_field_chart(action, tangent, y), x, t, 1e-2
            ))
            defect = np.linalg.norm(along_orbit - along_field)
            assert defect <= 1e-9 * (np.linalg.norm(along_field) + np.linalg.norm(x))


class TestChartConjugation:
    def test_identity_chart_reduces_to_analytic(self):
        base = ga.standard_affine_action(2)
        action = ga.chart_conjugated_action(base, identity_chart(2))
        tangent = AffineField([[0.2, -0.4], [0.1, 0.3]], [0.5, -0.5])
        x = np.array([0.7, -1.1])
        via_chart = ga.fundamental_field_chart(action, tangent, x)
        analytic = evaluate(ga.fundamental_field_analytic(base, tangent), x)
        assert_allclose(via_chart, analytic, atol=1e-12)

    @pytest.mark.parametrize("u", [-0.5, 0.5, 1.0, 2.0])
    def test_lambert_chart_scaling_field(self, u):
        # The scaling field in chart coordinates pulls back to u / (1 + u).
        action = ga.chart_conjugated_action(
            ga.standard_linear_action(1), lambert_chart()
        )
        tangent = linear_field([[1.0]])
        want = u / (1.0 + u)
        via_chart = ga.fundamental_field_chart(action, tangent, [u])[0]
        via_numeric = ga.fundamental_field_numeric(action, tangent, [u])[0]
        assert via_chart == pytest.approx(want, abs=1e-6)
        assert via_numeric == pytest.approx(want, abs=1e-6)

    def test_exponential_chart_translation_field(self):
        # Translating the log coordinate scales the first ambient slot.
        action = ga.chart_conjugated_action(
            ga.standard_translation_action(2), exponential_chart(2)
        )
        tangent = constant_field([1.0, 0.0])
        rng = np.random.default_rng(7)
        for _ in range(5):
            x = np.array([rng.uniform(0.3, 3.0), rng.uniform(-2.0, 2.0)])
            want = np.array([x[0], 0.0])
            assert_allclose(
                ga.fundamental_field_chart(action, tangent, x), want, atol=1e-10
            )
            assert_allclose(
                ga.fundamental_field_numeric(action, tangent, x), want, atol=1e-6
            )

    def test_chart_and_numeric_routes_agree(self):
        rng = np.random.default_rng(8)
        action = ga.chart_conjugated_action(
            ga.standard_affine_action(1), lambert_chart()
        )
        for _ in range(20):
            tangent = AffineField(
                rng.uniform(-1, 1, (1, 1)), rng.uniform(-1, 1, 1)
            )
            x = np.array([rng.uniform(-0.6, 2.0)])
            via_chart = ga.fundamental_field_chart(action, tangent, x)
            via_numeric = ga.fundamental_field_numeric(action, tangent, x)
            assert np.linalg.norm(via_chart - via_numeric) <= 1e-5 * (
                1.0 + np.linalg.norm(x)
            )

    def test_domain_violation(self):
        action = ga.chart_conjugated_action(
            ga.standard_linear_action(1), lambert_chart()
        )
        tangent = linear_field([[1.0]])
        with pytest.raises(Exception, match="outside"):
            ga.fundamental_field_chart(action, tangent, [-0.95])
        # The numeric route checks the point once, before any perturbation,
        # so a zero tangent is refused there too.
        for x_mat in ([[1.0]], [[0.0]]):
            with pytest.raises(ChartDomainError, match="outside"):
                ga.fundamental_field_numeric(action, linear_field(x_mat), [-0.95])

    def test_chart_is_an_attribute_of_the_action(self):
        base = ga.det_weighted_action(2, 2)
        chart = exponential_chart(2)
        action = ga.chart_conjugated_action(base, chart)
        assert (action.variant, action.n, action.q) == (base.variant, 2, 2)
        assert base.chart is None and action.chart is chart
        assert action.describe() == "det-weighted(q=2) via chart 'exponential'"
        g = ga.linear_element([[1.1, 0.2], [-0.1, 0.9]])
        x = np.array([0.7, -0.4])
        want = chart.inverse(ga.act(base, g, chart.forward(x)))
        assert np.array_equal(ga.act(action, g, x), want)

    def test_chart_refusals(self):
        base = ga.standard_affine_action(2)
        action = ga.chart_conjugated_action(base, identity_chart(2))
        with pytest.raises(ValueError, match="itself"):
            ga.chart_conjugated_action(action, identity_chart(2))
        with pytest.raises(ValueError, match="dimensions differ"):
            ga.chart_conjugated_action(base, identity_chart(3))
        with pytest.raises(ValueError, match="needs an action with a chart"):
            ga.fundamental_field_chart(base, constant_field([1.0, 0.0]), [0, 0])
        with pytest.raises(ValueError, match="tangent recovery"):
            ga.tangent_for_field(action, linear_field(np.eye(2)))


COPIES = {"pickle": lambda value: pickle.loads(pickle.dumps(value)),
          "copy": copy.copy, "deepcopy": copy.deepcopy}


def _arrays(value):
    """The ndarray fields of a value, and of the values among its fields."""
    for field in dataclasses.fields(value):
        part = getattr(value, field.name)
        if isinstance(part, np.ndarray):
            yield part
        elif dataclasses.is_dataclass(part):
            yield from _arrays(part)


@pytest.mark.parametrize("how", COPIES)
@pytest.mark.parametrize(
    "value",
    [
        pytest.param(AffineField([[1.0, 2.0], [0.0, -1.0]], [2.0, 0.5]), id="AffineField"),
        pytest.param(ga.affine_element([[1.0, 2.0], [0.0, 1.0]], [3.0, 4.0]), id="GroupElement"),
        pytest.param(make_flow(AffineField([[0.5]], [1.0])), id="FlowMap"),
        pytest.param(orbit(make_flow(AffineField([[0.5]], [1.0])), [1.0], [0.0, 0.5, 1.0]),
                     id="Orbit"),
        pytest.param(ga.exp_translation_action([1.0, 2.0]), id="GroupAction-weighted"),
        pytest.param(ga.det_weighted_action(2, 3), id="GroupAction-powered"),
        pytest.param(ga.standard_affine_action(2), id="GroupAction-plain"),
    ],
)
def test_copies_and_pickles_are_equal_and_frozen(value, how):
    again = COPIES[how](value)
    assert type(again) is type(value) and again == value
    assert not any(arr.flags.writeable for arr in _arrays(again))


def _matrix_values(entry):
    """One value of each matrix-backed type, with ``entry`` at one place."""
    field = AffineField([[1.0, entry], [0.0, -1.0]], [2.0, 0.5])
    return {
        "AffineField": field,
        "GroupElement": ga.affine_element([[1.0, entry], [0.0, 1.0]], [3.0, 4.0]),
        "FlowMap": make_flow(field),
        "GroupAction": ga.exp_translation_action([1.0, entry]),
        "Orbit": Orbit([1.0, 2.0], [0.0, 0.5], [[1.0, 2.0], [entry, 3.0]]),
    }


@pytest.mark.parametrize("name", list(_matrix_values(0.0)))
def test_equality_is_exact_and_agrees_with_the_hash(name):
    value, same, signed = (_matrix_values(z)[name] for z in (0.0, 0.0, -0.0))
    assert value == same and value == signed and not value != signed
    assert hash(value) == hash(same) == hash(signed)
    assert len({value, same, signed}) == 1
    assert value == pickle.loads(pickle.dumps(value))
    # One ulp apart is another value.
    other = _matrix_values(np.nextafter(0.0, 1.0))[name]
    assert value != other and len({value, other}) == 2


def test_equality_needs_the_same_type():
    # A tangent is its generator and an element its matrix, so a
    # general-linear tangent or element equals the general-affine one with
    # the same matrix (gl(n) inside aff(n), GL(n) inside GA(n)).
    field = AffineField([[1.0]], [0.0])
    for kind in (ga.GENERAL_LINEAR, ga.GENERAL_AFFINE):
        assert ga.TangentAtIdentity(kind, [[1.0]], [0.0]) == field == linear_field([[1.0]])
    a = np.array([[2.0, 1.0], [0.5, 3.0]])
    t = np.array([1.0, -2.0])
    for g, h in [
        (ga.linear_element(a), ga.affine_element(a, np.zeros(2))),
        (ga.translation_element(t), ga.affine_element(np.eye(2), t)),
        (ga.multiply(ga.translation_element(t), ga.linear_element(a)), ga.affine_element(a, t)),
    ]:
        assert g == h and hash(g) == hash(h)
    assert ga.identity_element(1) != ga.identity_element(1).matrix.tolist()
    assert ga.standard_linear_action(1) != ga.standard_affine_action(1)
    assert make_flow(field) != field and field != field.matrix.tolist()
