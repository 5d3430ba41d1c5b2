"""Unit tests for the linear algebra kernels."""

import math
import re

import mpmath
import numpy as np
import pytest
from numpy.testing import assert_allclose

from affine_fields.linalg import (
    _TAYLOR,
    _affine,
    _dots,
    _generator,
    _norms,
    _plan,
    _plans,
    _squarings,
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
    # exp(A) exp(-A) = I within 10x the accuracy contract of 1e-12.
    rng = np.random.default_rng(1)
    for n in (2, 4, 8):
        for _ in range(10):
            a = rng.standard_normal((n, n))
            a *= rng.uniform(0.5, 5.0) / np.linalg.norm(a, 2)
            product = mat_exp(a) @ mat_exp(-a)
            assert np.linalg.norm(product - np.eye(n), 1) <= 10 * 1e-12


def test_mat_exp_one_parameter_property():
    rng = np.random.default_rng(2)
    for _ in range(20):
        n = int(rng.integers(1, 6))
        a = rng.standard_normal((n, n))
        a *= rng.uniform(0.5, 5.0) / np.linalg.norm(a, 2)
        s, t = rng.uniform(-1.0, 1.0, size=2)
        lhs = mat_exp((s + t) * a)
        rhs = mat_exp(s * a) @ mat_exp(t * a)
        assert np.linalg.norm(lhs - rhs, 1) <= 10 * 1e-12 * np.linalg.norm(
            lhs, 1
        )


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_mat_exp_overflow_raises_without_warning():
    with pytest.raises(OverflowError, match="overflows"):
        mat_exp([[1000.0]])


def _mp_expm(a) -> np.ndarray:
    """exp(a) from mpmath at 50 significant digits, rounded to floats."""
    with mpmath.workdps(50):
        return np.array(mpmath.expm(mpmath.matrix(a.tolist())).tolist(), dtype=float)


def _thousand_powers():
    """Upper triangular with a_ij = 1000^(j - i) and a small diagonal."""
    a = np.diag([0.5, -0.3, 0.2, -0.6, 0.1])
    for i in range(5):
        for j in range(i + 1, 5):
            a[i, j] = 1000.0 ** (j - i)
    return a


def test_mat_exp_non_normal_accuracy():
    # The 1-norm of the 1000^(j - i) matrix (about 1e12) overstates the
    # growth of its powers, and scaling by it alone lost 11 digits in the
    # squarings.
    a = _thousand_powers()
    ref = _mp_expm(a)
    err = np.linalg.norm(mat_exp(a) - ref, 1) / np.linalg.norm(ref, 1)
    assert err <= 1e-12


def _squarings_and_cap(a):
    """(s, k) for one matrix of the top degree: the kernel's squarings and
    the 1-norm choice."""
    _, b, theta = _TAYLOR[-1]
    k = max(0, math.ceil(math.log2(np.linalg.norm(a, 1) / theta)))
    a0 = np.ldexp(a, -k)
    powers = np.array([np.linalg.matrix_power(a0, j) for j in range(b, 0, -1)])
    return int(_squarings(powers[:, None], np.array([k]), theta)[0]), k


def test_mat_exp_squarings_follow_the_powers():
    # The 1000^(j - i) matrix: its 1-norm asks for 39 squarings, the norms
    # of A^5 and A^6 for 7.  b N + eps I with N^2 = 0: the powers of A stay
    # small, and so does s, although the 1-norm is large.
    n = np.array([[1.0, 1.0], [-1.0, -1.0]])
    cases = [
        (_thousand_powers(), (7, 39)),
        (30.0 * n + 0.1 * np.eye(2), (0, 5)),
        (1e3 * n + 1e-3 * np.eye(2), (0, 10)),
    ]
    for a, squarings in cases:
        assert _squarings_and_cap(a) == squarings
        ref = _mp_expm(a)
        err = np.linalg.norm(mat_exp(a) - ref, 1) / np.linalg.norm(ref, 1)
        assert err <= 1e-11


def _theta(m: int) -> mpmath.mpf:
    """The largest theta with sum_(k > m) |c_k| theta^(k-1) <= 2^-53, where
    c_k are the coefficients of log(e^-x T_m(x)) (Al-Mohy and Higham 2011,
    section 3), by bisection in log theta on 60 terms of the series."""
    with mpmath.workdps(30):
        terms = m + 60
        t = [1 / mpmath.factorial(j) for j in range(m + 1)] + [0] * (terms - m)
        # log T_m by the recurrence of (log t)' = t' / t; for k > m its
        # coefficients are those of log(e^-x T_m(x)).
        c = [mpmath.mpf(0)] * (terms + 1)
        for k in range(1, terms + 1):
            c[k] = t[k] - mpmath.fsum(j * c[j] * t[k - j] for j in range(1, k)) / k
        tail = [abs(ck) for ck in c[: m : -1]]
        lo, hi = mpmath.mpf(1e-10), mpmath.mpf(10)
        for _ in range(60):
            mid = mpmath.sqrt(lo * hi)
            if mpmath.polyval(tail, mid) * mid**m <= mpmath.mpf(2) ** -53:
                lo = mid
            else:
                hi = mid
        return lo


@pytest.mark.parametrize("m,b,theta", _TAYLOR)
def test_taylor_thetas_are_the_backward_error_bounds(m, b, theta):
    assert m % b == 0
    assert float(_theta(m)) == pytest.approx(theta, rel=1e-10)


def test_plan_is_the_threshold_table():
    # Plan i is the number of thresholds below a 1-norm, in theta_4, ...,
    # theta_30, then 2^j theta_30 for j = 1, ..., 1022: row min(i, 7) of
    # _TAYLOR with k = i - row.  That table is gone from the kernel, so it
    # is built here and checked at every threshold, at both of its float
    # neighbours, at the largest float, at infinity and over random norms.
    thetas = [theta for _, _, theta in _TAYLOR]
    table = np.append(thetas, np.ldexp(thetas[-1], np.arange(1, 1023)))
    norms = np.concatenate([
        table,
        np.nextafter(table, 0.0),
        np.nextafter(table, np.inf),
        [0.0, np.finfo(float).tiny, np.finfo(float).max, np.inf],
        10.0 ** np.random.default_rng(26).uniform(-6.0, 308.0, 200_000),
    ])
    index = table.searchsorted(norms)
    row = np.minimum(index, len(thetas) - 1)
    want = np.stack([row, index - row], axis=1)
    assert [_plan(x) for x in norms.tolist()] == list(map(tuple, want.tolist()))
    assert _plan(np.nan) == (len(thetas) - 1, 1023)
    # A stack takes the same plans, as two ints when they agree: stacks of
    # one, of two equal norms, and of 1 to 400 norms with many plans.
    cuts = np.cumsum(np.random.default_rng(27).integers(1, 400, len(norms) // 100))
    parts = np.split(np.arange(len(norms)), cuts[cuts < len(norms)])
    parts += [[i] for i in range(0, len(norms), 997)] + [[i, i] for i in range(0, len(norms), 991)]
    for part in parts:
        got = np.stack([np.broadcast_to(p, len(part)) for p in _plans(norms[part])], axis=1)
        assert np.array_equal(got, want[part])


def test_mat_exp_square_zero_is_identity_plus_a_bitwise():
    rng = np.random.default_rng(4)
    for _ in range(20):
        n = int(rng.integers(2, 8))
        # u v^T with disjoint supports: (u v^T)^2 = u (v . u) v^T is zero.
        rows = rng.permutation(n) < n // 2
        u = np.where(rows, rng.normal(size=n), 0.0)
        v = np.where(rows, 0.0, rng.normal(size=n))
        a = np.outer(u, v) * 10.0 ** rng.uniform(-3.0, 3.0)
        assert not (a @ a).any()
        assert np.array_equal(mat_exp(a), np.eye(n) + a)
    # Translation generators [[0, t], [0, 0]] at any scale.
    for t in ([1e-300, 0.0], [3.0, -7.5], [1e150, 1e150]):
        a = np.zeros((3, 3))
        a[:2, 2] = t
        assert np.array_equal(mat_exp(a), np.eye(3) + a)


def test_mat_exp_homogeneous_rows_and_columns_exact():
    # [[C, B], [0, 0]] keeps the bottom row (0, ..., 0, 1) and [[C, 0],
    # [0, 0]] the last column, bit for bit, up to 1-norm 1e3.  C is skew
    # minus a nonnegative shift so that exp(C) stays in range.
    rng = np.random.default_rng(6)
    for norm in np.logspace(-3.0, 3.0, 25):
        n = int(rng.integers(1, 7))
        k = rng.normal(size=(n, n))
        c = k - k.T - rng.uniform(0.0, 1.0) * np.eye(n)
        g = augment_affine(c, rng.normal(size=n))
        g *= norm / np.linalg.norm(g, 1)
        e = np.eye(n + 1)
        assert np.array_equal(mat_exp(g)[n], e[n])
        g[:n, n] = 0.0
        out = mat_exp(g)
        assert np.array_equal(out[n], e[n])
        assert np.array_equal(out[:, n], e[:, n])


def test_mat_exp_powers_stay_in_range():
    # A^2 overflows, but exp(A) = I + A + A^2 / 2 does not.
    a = np.zeros((3, 3))
    a[0, 1] = a[1, 2] = 1.5e154
    with np.errstate(over="ignore"):
        assert not np.isfinite(a @ a).all()
    out = mat_exp(a)
    expected = [[1.0, 1.5e154, 1.125e308], [0.0, 1.0, 1.5e154], [0.0, 0.0, 1.0]]
    assert_allclose(out, expected, rtol=1e-15)
    a[0, 2] = 1e308
    with pytest.raises(OverflowError, match="overflows"):
        mat_exp(a)


def test_mat_exp_stack_shapes():
    rng = np.random.default_rng(7)
    stack = rng.normal(size=(2, 3, 4, 4))
    out = mat_exp(stack)
    assert out.shape == (2, 3, 4, 4)
    for i in range(2):
        for j in range(3):
            assert np.array_equal(out[i, j], mat_exp(stack[i, j]))
    assert mat_exp(np.zeros((0, 3, 3))).shape == (0, 3, 3)


def _rule_stack(general):
    """The zero matrix, a square-zero matrix, then ``general``: n x n
    matrices whose last row and column are zero."""
    n = general.shape[-1]
    square_zero = np.zeros((n, n))
    square_zero[0, n - 1] = 5.0
    return np.concatenate([[np.zeros((n, n)), square_zero], general])


def _every_class():
    # 1-norms from 1e-3 to 30 take the Taylor degrees 6, 9, 12, 16, 25 and
    # 30, the last with 0, 1 and 2 squarings; the 5 x 5 shift with
    # A^4 != 0 = A^5 takes the finite Taylor sum at degree 25 (blocks of
    # A^5).
    rng = np.random.default_rng(8)
    general = np.zeros((13, 6, 6))
    general[:12, :5, :5] = rng.normal(size=(12, 5, 5))
    norms = np.abs(general[:12]).sum(axis=-2).max(axis=-1)
    general[:12] *= (np.logspace(-3.0, math.log10(30.0), 12) / norms)[:, None, None]
    general[12, :5, :5] = np.diag(np.full(4, 1.5), 1)
    return general


def _every_path(n):
    """n x n matrices that take every path of mat_exp between them: each
    Taylor degree (1-norms 1e-3 to 30, then 300); degree 30 with s = k (a
    multiple of the all-ones J, whose powers have d_p equal to its 1-norm,
    100) and with s < k (c N + 1e-3 I with N^2 = 0, c from 1e3 to 1e9); the
    shift (mean eigenvalue below -theta_30), alone and with a shifted square
    of zero; rule 3 at A^2 (squares that underflow to zero, N itself) and
    at A^6 with k > 0 (1e3 times the ceil(n / 6)-th superdiagonal)."""
    rng = np.random.default_rng(n)
    general = rng.normal(size=(7, n, n))
    norms = np.abs(general).sum(axis=-2).max(axis=-1)
    general *= (np.append(np.logspace(-3.0, math.log10(30.0), 6), 300.0) / norms)[:, None, None]
    square_zero = np.zeros((n, n))
    square_zero[:2, :2] = [[1.0, 1.0], [-1.0, -1.0]] if n > 1 else 0.0
    eye = np.eye(n)
    paths = [
        *general,
        100.0 / n * np.ones((n, n)),
        *(c * square_zero + 1e-3 * eye for c in (1e3, 1e6, 1e9)),
        -50.0 * eye + 0.3 * general[3],
        -10.0 * eye + square_zero,
        1e-170 * general[4],
        square_zero,
        1e3 * np.eye(n, k=-(-n // 6)),
    ]
    return np.array(paths)


def _assert_close_to_row_and_column(got, want, rtol):
    """|got - want| <= rtol * (the largest modulus of want in the entry's row
    and column), entry by entry: the error an entry can carry after products
    that mix it with the large entries of its row and column."""
    scale = np.maximum(
        np.abs(want).max(axis=1, keepdims=True), np.abs(want).max(axis=0, keepdims=True)
    )
    assert np.all(np.abs(got - want) <= rtol * scale)


def test_mat_exp_mixed_stack_keeps_the_exact_rules():
    # Zero, square-zero and general matrices in one stack each keep their
    # rule, and each gets the result it gets alone.  The matrices of
    # _every_class reach entries near 285 beside entries near 1, which no
    # kernel computes to a fraction of an ulp of 285, so they are held to
    # the size of each entry's row and column.
    general = np.array([[[0.3, 2.0, 0.0], [-1.0, 0.1, 0.0], [0.0, 0.0, 0.0]]])
    for stack, elementwise in (
        (_rule_stack(general), True),
        (_rule_stack(_every_class()), False),
    ):
        n = stack.shape[-1]
        e = np.eye(n)
        out = mat_exp(stack)
        for a, got in zip(stack, out):
            assert got.tobytes() == mat_exp(a).tobytes()
        assert np.array_equal(out[0], e)
        assert np.array_equal(out[1], e + stack[1])
        for a, got in zip(stack[2:], out[2:]):
            assert np.array_equal(got[n - 1], e[n - 1])
            assert np.array_equal(got[:, n - 1], e[:, n - 1])
            if elementwise:
                assert_allclose(got, _mp_expm(a), rtol=1e-14, atol=1e-15)
            else:
                _assert_close_to_row_and_column(got, _mp_expm(a), 1e-14)
    # A stack of one takes its decisions in Python scalars, a longer stack
    # in arrays; on every path each matrix still gets the same bits, and a
    # matrix that fails makes its stack fail with its own error.
    for n in (1, 2, 3, 6, 21):
        stack = _every_path(n)
        for a, got in zip(stack, mat_exp(stack)):
            assert got.tobytes() == mat_exp(a).tobytes()
        bad = [np.full((n, n), np.nan), 1e3 * np.eye(n)]
        if n > 1:
            bad.append(np.full((n, n), 1e308))
        for a in bad:
            with pytest.raises((ValueError, OverflowError)) as alone:
                mat_exp(a)
            with pytest.raises(alone.type, match=f"^{re.escape(str(alone.value))}$"):
                mat_exp(np.concatenate([stack, [a]]))


def test_mat_exp_overflowing_shift_raises_overflow_error():
    # The shift by the mean eigenvalue can itself overflow: to -inf for
    # -max I at n = 3 (NaN off the diagonal of A - mu I), and to +inf on the
    # diagonal of diag(max, -max, -max).  Alone or in a stack, the matrix
    # raises the OverflowError of any exponential beyond the float range
    # (a stack of one used to raise "cannot convert float NaN to integer").
    big = np.finfo(float).max
    message = r"^exp of a matrix with 1-norm 1\.798e\+308 overflows$"
    others = np.random.default_rng(9).normal(size=(3, 3, 3))
    for a in (-big * np.eye(3), np.diag([big, -big, -big])):
        for stack in (a, [a], np.concatenate([others, [a]])):
            with pytest.raises(OverflowError, match=message):
                mat_exp(stack)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_mat_exp_rejects_non_finite():
    with pytest.raises(ValueError, match="non-finite"):
        mat_exp([[1.0, np.nan], [0.0, 1.0]])
    with pytest.raises(ValueError, match="non-finite"):
        mat_exp([[0.0, np.inf], [0.0, 0.0]])


def test_mat_exp_rejects_non_square():
    with pytest.raises(ValueError, match="square"):
        mat_exp(np.zeros((2, 3)))
    with pytest.raises(ValueError, match="square"):
        mat_exp(np.zeros(3))


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


@pytest.mark.parametrize("n", range(1, 22))
def test_row_norms_are_each_rows_norm_bit_for_bit(n):
    rng = np.random.default_rng(n)
    scales = 10.0 ** np.arange(-30, 31, 2)
    d = rng.uniform(-1.0, 1.0, size=(len(scales), 8, n)) * scales[:, None, None]
    d = d.reshape(-1, n)
    want = np.array([np.linalg.norm(row) for row in d])
    assert np.array_equal(_norms(d), want)


def _scaled_rows(rng, n, count, shape=()):
    """count rows of shape + (n,), each with its own scale 10^-5 to 10^5."""
    scales = 10.0 ** rng.uniform(-5.0, 5.0, size=(count,) + (1,) * (len(shape) + 1))
    return rng.uniform(-1.0, 1.0, size=(count,) + shape + (n,)) * scales


@pytest.mark.parametrize("n", range(1, 22))
def test_affine_image_is_each_rows_matrix_vector_product(n):
    # The homogeneous image of a stack, and of one matrix shared by a stack
    # of points, is A @ x + b of each row alone, bit for bit.
    rng = np.random.default_rng([n, 7])
    m = np.zeros((60, n + 1, n + 1))
    m[:, :n] = _scaled_rows(rng, n + 1, 60, (n,))
    x = _scaled_rows(rng, n, 60)
    stacked, shared = _affine(m, x), _affine(m[0], x)
    for i in range(60):
        a, b = m[i, :n, :n], m[i, :n, n]
        assert stacked[i].tobytes() == (a @ x[i] + b).tobytes()
        assert shared[i].tobytes() == (m[0, :n, :n] @ x[i] + m[0, :n, n]).tobytes()
    assert _affine(m[0], x[0]).tobytes() == stacked[0].tobytes()


@pytest.mark.parametrize("n", [1, 2, 3, 7, 21, 80])
def test_row_dots_are_each_rows_np_dot(n):
    rng = np.random.default_rng([n, 8])
    a, b = _scaled_rows(rng, n, 200), _scaled_rows(rng, n, 200)
    want = np.array([np.dot(u, v) for u, v in zip(a, b)])
    assert want.all()  # no zero sum, whose sign np.dot may take otherwise
    assert _dots(a, b).tobytes() == want.tobytes()
    assert _dots(a, b[0]).tobytes() == np.array([np.dot(u, b[0]) for u in a]).tobytes()


def test_row_dot_of_one_negative_zero_product_is_positive_zero():
    a, b = np.array([[0.7]]), np.array([[-0.0]])
    assert np.signbit(np.dot(a[0], b[0]))
    assert _dots(a, b).tobytes() == np.array([0.0]).tobytes()


@pytest.mark.parametrize("n", range(1, 8))
def test_generator_stack_is_each_rows_augment_affine(n):
    rng = np.random.default_rng([n, 9])
    c, b = rng.uniform(-2.0, 2.0, size=(3, 5, n, n)), rng.uniform(-2.0, 2.0, size=(3, 5, n))
    g = _generator(c, b)
    assert g.shape == (3, 5, n + 1, n + 1)
    for i in np.ndindex(3, 5):
        want = np.block([[c[i], b[i][:, None]], [np.zeros((1, n + 1))]])
        assert g[i].tobytes() == want.tobytes()
        assert augment_affine(c[i], b[i]).tobytes() == want.tobytes()


def test_inputs_are_not_mutated():
    a = np.array([[0.0, 1.0], [0.0, 0.0]])
    before = a.copy()
    mat_exp(a)
    solve_linear(a, [1.0, 0.0])
    rank(a)
    assert np.array_equal(a, before)
