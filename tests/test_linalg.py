"""Unit tests for the linear algebra kernels."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from affine_fields.linalg import (
    DEFAULT_EXP_TOL,
    augment_affine,
    mat_exp,
    rank,
    solve_linear,
)


def taylor_exp(a, terms=60):
    """Brute-force series oracle: sum a^k / k! with many terms."""
    a = np.asarray(a, dtype=float)
    total = np.eye(a.shape[0])
    term = np.eye(a.shape[0])
    for k in range(1, terms + 1):
        term = term @ a / k
        total = total + term
    return total


def test_mat_exp_zero_is_exact_identity():
    out = mat_exp(np.zeros((3, 3)))
    assert np.array_equal(out, np.eye(3))


@pytest.mark.parametrize("diag", [(1.0,), (0.5, -2.0), (1.0, 2.0, -0.25)])
def test_mat_exp_diagonal(diag):
    out = mat_exp(np.diag(diag))
    assert_allclose(out, np.diag([math.exp(d) for d in diag]), rtol=1e-13)


def test_mat_exp_nilpotent():
    # The series for [[0, 1], [0, 0]] terminates: I + A.
    out = mat_exp(np.array([[0.0, 1.0], [0.0, 0.0]]))
    assert_allclose(out, [[1.0, 1.0], [0.0, 1.0]], atol=1e-15)


def test_mat_exp_matches_series_oracle():
    rng = np.random.default_rng(0)
    for n in (1, 2, 4):
        a = rng.uniform(-1.0, 1.0, size=(n, n))
        assert_allclose(mat_exp(a), taylor_exp(a), rtol=1e-12, atol=1e-14)


def test_mat_exp_inverse_pairing():
    # exp(A) exp(-A) = I within 10x the tolerance contract.
    rng = np.random.default_rng(1)
    for n in (2, 4, 8):
        for _ in range(10):
            a = rng.standard_normal((n, n))
            a *= rng.uniform(0.5, 5.0) / np.linalg.norm(a, 2)
            product = mat_exp(a) @ mat_exp(-a)
            assert np.linalg.norm(product - np.eye(n), 1) <= 10 * DEFAULT_EXP_TOL


def test_mat_exp_one_parameter_property():
    rng = np.random.default_rng(2)
    for _ in range(20):
        n = int(rng.integers(1, 6))
        a = rng.standard_normal((n, n))
        a *= rng.uniform(0.5, 5.0) / np.linalg.norm(a, 2)
        s, t = rng.uniform(-1.0, 1.0, size=2)
        lhs = mat_exp((s + t) * a)
        rhs = mat_exp(s * a) @ mat_exp(t * a)
        assert np.linalg.norm(lhs - rhs, 1) <= 10 * DEFAULT_EXP_TOL * np.linalg.norm(
            lhs, 1
        )


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_mat_exp_overflow_raises_without_warning():
    with pytest.raises(OverflowError, match="overflows"):
        mat_exp([[1000.0]])


def test_mat_exp_rejects_non_square():
    with pytest.raises(ValueError, match="square"):
        mat_exp(np.zeros((2, 3)))


def test_solve_identity():
    solution, r = solve_linear(np.eye(2), [1.0, 2.0])
    assert r == 2
    assert_allclose(solution, [1.0, 2.0])


def test_solve_rank_deficient_consistent():
    c = np.array([[1.0, 0.0], [0.0, 0.0]])
    rhs = np.array([3.0, 0.0])
    solution, r = solve_linear(c, rhs)
    assert r == 1
    # Any particular solution qualifies; verify by substitution.
    assert_allclose(c @ solution, rhs, atol=1e-12)


def test_solve_inconsistent():
    solution, r = solve_linear([[1.0, 0.0], [0.0, 0.0]], [0.0, 1.0])
    assert solution is None
    assert r == 1


@pytest.mark.parametrize("scale", [1e-12, 1.0, 1e12])
def test_solve_consistency_test_is_scale_free(scale):
    # The verdict on c x = b must not change when c and b are scaled together.
    c = scale * np.array([[1.0, 0.0], [0.0, 0.0]])
    solution, r = solve_linear(c, scale * np.array([0.0, 1.0]))
    assert solution is None
    assert r == 1
    solution, r = solve_linear(c, scale * np.array([3.0, 0.0]))
    assert r == 1
    assert_allclose(solution, [3.0, 0.0], rtol=1e-15)


def test_solve_residual_contract_on_random_singular_systems():
    rng = np.random.default_rng(3)
    for _ in range(50):
        n = int(rng.integers(2, 6))
        a = rng.uniform(-2.0, 2.0, size=(n, n))
        u, sigma, vt = np.linalg.svd(a)
        sigma[-1] = 0.0
        c = (u * sigma) @ vt
        rhs = c @ rng.uniform(-2.0, 2.0, size=n)
        solution, _ = solve_linear(c, rhs)
        assert solution is not None
        assert np.linalg.norm(c @ solution - rhs) <= 1e-10 * (
            1.0 + np.linalg.norm(rhs)
        )


def test_solve_dimension_mismatch():
    with pytest.raises(ValueError, match="dim"):
        solve_linear(np.eye(2), [1.0, 2.0, 3.0])


@pytest.mark.parametrize("n", [1, 3, 5])
def test_rank_identity_and_zero(n):
    assert rank(np.eye(n)) == n
    assert rank(np.zeros((n, n))) == 0


def test_rank_of_generator_value_matrix():
    # Rows are the values x[j] * e_i of every field u^j d/du^i at the point
    # x = (1, ..., n): n^2 rows spanning exactly the n coordinate directions.
    for n in (2, 3, 4):
        x = np.arange(1.0, n + 1.0)
        rows = []
        for i in range(n):
            for j in range(n):
                row = np.zeros(n)
                row[i] = x[j]
                rows.append(row)
        assert rank(np.stack(rows)) == n


def test_augment_affine_layout():
    c = np.array([[1.0, 2.0], [3.0, 4.0]])
    b = np.array([5.0, 6.0])
    out = augment_affine(c, b)
    assert_allclose(out, [[1.0, 2.0, 5.0], [3.0, 4.0, 6.0], [0.0, 0.0, 0.0]])


def test_augment_affine_dimension_check():
    with pytest.raises(ValueError):
        augment_affine(np.eye(2), [1.0, 2.0, 3.0])


def test_inputs_are_not_mutated():
    a = np.array([[0.0, 1.0], [0.0, 0.0]])
    before = a.copy()
    mat_exp(a)
    solve_linear(a, [1.0, 0.0])
    rank(a)
    assert np.array_equal(a, before)
