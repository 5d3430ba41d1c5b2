"""Field algebra: evaluation, brackets, generators, coordinate changes."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from affine_fields import (
    AffineField,
    GeneratorIndex,
    all_generators,
    bracket,
    constant_field,
    constant_generator,
    evaluate,
    evaluate_many,
    generator,
    linear_change,
    linear_field,
    linear_generator,
    zero_field,
)
from affine_fields.validate import expected_generator_bracket
from conftest import random_affine_field


def fields_equal(x, y, atol=0.0):
    return np.allclose(x.C, y.C, atol=atol, rtol=0) and np.allclose(
        x.B, y.B, atol=atol, rtol=0
    )


class TestAffineField:
    def test_classify(self):
        assert constant_field([1.0, 2.0]).classify() == "constant"
        assert linear_field(np.eye(2)).classify() == "linear"
        assert AffineField(np.eye(2), [1.0, 0.0]).classify() == "affine"
        # The zero field counts as constant.
        assert zero_field(3).classify() == "constant"
        # Zero parts are tested exactly, however small the other entries.
        assert AffineField([[1e-15]], [1.0]).classify() == "affine"
        assert AffineField([[1e-300]], [0.0]).classify() == "linear"
        assert not AffineField([[0.0]], [1e-300]).is_zero()

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            AffineField(np.zeros((2, 3)), np.zeros(2))
        with pytest.raises(ValueError):
            AffineField(np.zeros((2, 2)), np.zeros(3))
        with pytest.raises(ValueError):
            AffineField([[np.nan, 0.0], [0.0, 0.0]], [0.0, 0.0])

    def test_value_semantics(self):
        c = np.eye(2)
        f = AffineField(c, [0.0, 0.0])
        c[0, 0] = 7.0
        assert f.C[0, 0] == 1.0
        with pytest.raises(ValueError):
            f.C[0, 0] = 9.0

    def test_json_round_trip(self):
        f = AffineField([[0.0, 1.0], [2.0, 3.0]], [4.0, 5.0])
        again = AffineField.from_dict(f.to_dict())
        assert fields_equal(f, again)
        assert f.to_dict()["n"] == 2

    def test_from_dict_rejects_wrong_n(self):
        with pytest.raises(ValueError, match="dimension"):
            AffineField.from_dict({"n": 3, "C": [[0.0]], "B": [1.0]})


class TestEvaluate:
    def test_constant(self):
        f = constant_field([1.0, 2.0])
        for x in ([0.0, 0.0], [5.0, -3.0]):
            assert_allclose(evaluate(f, x), [1.0, 2.0])

    def test_identity_linear(self):
        f = linear_field(np.eye(2))
        assert_allclose(evaluate(f, [3.0, 4.0]), [3.0, 4.0])

    def test_planar_family_components(self):
        # alpha d/du + (2 beta u + gamma) d/dv at u = 5 with (1, 1, 0).
        f = AffineField([[0.0, 0.0], [2.0, 0.0]], [1.0, 0.0])
        assert_allclose(evaluate(f, [5.0, 7.0]), [1.0, 10.0])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            evaluate(constant_field([1.0]), [1.0, 2.0])

    def test_evaluate_many_matches_evaluate(self):
        rng = np.random.default_rng(0)
        f = random_affine_field(rng, 3)
        pts = rng.uniform(-2.0, 2.0, size=(5, 3))
        out = evaluate_many(f, pts)
        for k in range(5):
            assert_allclose(out[k], evaluate(f, pts[k]))


class TestBracket:
    def test_constant_generators_commute(self):
        e1 = constant_generator(1, 2)
        e2 = constant_generator(2, 2)
        assert bracket(e1, e2).is_zero()

    def test_constant_against_linear(self):
        # [d/du^1, u^1 d/du^2] = d/du^2
        e1 = constant_generator(1, 2)
        e21 = linear_generator(2, 1, 2)
        assert fields_equal(bracket(e1, e21), constant_generator(2, 2))

    def test_linear_pair_hand_expanded(self):
        # [u^1 d/du^2, u^2 d/du^3] = u^1 d/du^3 by expanding the derivations.
        lhs = bracket(linear_generator(2, 1, 3), linear_generator(3, 2, 3))
        assert fields_equal(lhs, linear_generator(3, 1, 3))

    def test_full_table_size_for_dimension_four(self):
        from affine_fields.validate import check_structure_constants

        # 20 generators (4 constant + 16 linear) give 210 unordered pairs
        # counting repetition; with n = 1..3, 312.
        assert check_structure_constants().detail == (
            "312 unordered pairs exact (n=4 table: 210 pairs)"
        )

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_structure_constants_exact(self, n):
        gens = all_generators(n)
        for g1, f1 in gens:
            for g2, f2 in gens:
                got = bracket(f1, f2)
                want = expected_generator_bracket(g1, g2, n)
                assert np.array_equal(got.C, want.C), f"[{g1}, {g2}]"
                assert np.array_equal(got.B, want.B), f"[{g1}, {g2}]"

    def test_antisymmetry_and_bilinearity(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            n = int(rng.integers(1, 5))
            x = random_affine_field(rng, n)
            y = random_affine_field(rng, n)
            z = random_affine_field(rng, n)
            xy = bracket(x, y)
            yx = bracket(y, x)
            assert_allclose(xy.C, -yx.C, atol=1e-12)
            assert_allclose(xy.B, -yx.B, atol=1e-12)
            a, b = rng.uniform(-2.0, 2.0, size=2)
            combo = AffineField(a * x.C + b * y.C, a * x.B + b * y.B)
            lhs = bracket(combo, z)
            rhs_c = a * bracket(x, z).C + b * bracket(y, z).C
            rhs_b = a * bracket(x, z).B + b * bracket(y, z).B
            assert_allclose(lhs.C, rhs_c, atol=1e-12)
            assert_allclose(lhs.B, rhs_b, atol=1e-12)

    def test_jacobi_identity(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            n = int(rng.integers(1, 5))
            x = random_affine_field(rng, n)
            y = random_affine_field(rng, n)
            z = random_affine_field(rng, n)
            total_c = np.zeros((n, n))
            total_b = np.zeros(n)
            for a, b, c in ((x, y, z), (y, z, x), (z, x, y)):
                nested = bracket(a, bracket(b, c))
                total_c += nested.C
                total_b += nested.B
            scale = max(np.max(np.abs(x.C)), np.max(np.abs(y.C)), 1.0) ** 3
            assert np.max(np.abs(total_c)) <= 1e-12 * scale
            assert np.max(np.abs(total_b)) <= 1e-12 * scale

    def test_closure(self):
        rng = np.random.default_rng(3)
        x = random_affine_field(rng, 3)
        y = random_affine_field(rng, 3)
        assert isinstance(bracket(x, y), AffineField)
        # Constant fields span an Abelian algebra.
        assert bracket(constant_field([1.0, 2.0]), constant_field([3.0, 4.0])).is_zero()

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            bracket(zero_field(2), zero_field(3))


class TestGenerators:
    def test_constant_generator(self):
        f = generator(GeneratorIndex(1), 2)
        assert_allclose(f.B, [1.0, 0.0])
        assert np.all(f.C == 0.0)

    def test_linear_generator(self):
        f = generator(GeneratorIndex(2, 1), 2)
        assert_allclose(f.C, [[0.0, 0.0], [1.0, 0.0]])
        assert np.all(f.B == 0.0)

    def test_index_out_of_range(self):
        with pytest.raises(ValueError):
            generator(GeneratorIndex(0), 2)
        with pytest.raises(ValueError):
            generator(GeneratorIndex(1, 3), 2)

    def test_decomposition_round_trip(self):
        rng = np.random.default_rng(4)
        for n in (1, 2, 4):
            x = random_affine_field(rng, n)
            c = np.zeros((n, n))
            b = np.zeros(n)
            for i in range(1, n + 1):
                b += x.B[i - 1] * generator(GeneratorIndex(i), n).B
                for j in range(1, n + 1):
                    c += x.C[i - 1, j - 1] * generator(GeneratorIndex(i, j), n).C
            assert_allclose(c, x.C)
            assert_allclose(b, x.B)

    def test_pointwise_dependence_of_linear_generators(self):
        # At a single point the n^2 linear generators span at most n
        # directions, so at least n^2 - n independent relations hold.
        rng = np.random.default_rng(5)
        for n in (2, 3, 4):
            x = rng.uniform(0.5, 2.0, size=n)
            rows = np.stack(
                [
                    evaluate(generator(GeneratorIndex(i, j), n), x)
                    for i in range(1, n + 1)
                    for j in range(1, n + 1)
                ]
            )
            from affine_fields import rank

            r = rank(rows)
            assert r == n
            assert rows.shape[0] - r >= n * n - n


class TestLinearChange:
    def test_identity(self):
        rng = np.random.default_rng(6)
        x = random_affine_field(rng, 3)
        assert fields_equal(linear_change(x, np.eye(3)), x, atol=1e-14)

    def test_permutation_conjugates_diagonal(self):
        x = linear_field(np.diag([1.0, 2.0]))
        swap = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert_allclose(linear_change(x, swap).C, np.diag([2.0, 1.0]))

    def test_pushforward_consistency(self):
        # evaluate(changed, a x) = a evaluate(original, x)
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = int(rng.integers(1, 5))
            x = random_affine_field(rng, n)
            a = np.eye(n) + rng.uniform(-0.4, 0.4, size=(n, n))
            changed = linear_change(x, a)
            p = rng.uniform(-2.0, 2.0, size=n)
            assert_allclose(
                evaluate(changed, a @ p), a @ evaluate(x, p), atol=1e-10
            )

    def test_composition_is_group_action(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            n = int(rng.integers(1, 5))
            x = random_affine_field(rng, n)
            a = np.eye(n) + rng.uniform(-0.4, 0.4, size=(n, n))
            b = np.eye(n) + rng.uniform(-0.4, 0.4, size=(n, n))
            twice = linear_change(linear_change(x, a), b)
            once = linear_change(x, b @ a)
            assert np.max(np.abs(twice.C - once.C)) <= 1e-10
            assert np.max(np.abs(twice.B - once.B)) <= 1e-10

    def test_singular_change_rejected(self):
        x = zero_field(2)
        with pytest.raises(ValueError, match="singular"):
            linear_change(x, np.zeros((2, 2)))
