"""Dense real linear algebra kernels.

Provides the matrix exponential, rank-revealing linear solves, the
homogeneous (augmented) embedding of an affine map, and row norms.
Everything operates on plain float ndarrays with value semantics: inputs are
never mutated.  The tolerances are the module constants below; no caller
tunes them.

The matrix exponential is one kernel over stacks of square matrices:
Taylor scaling and squaring (Al-Mohy and Higham 2011, SIAM J. Sci. Comput.
33(2)), with matrix products only.  A Pade approximant of the same accuracy
needs a linear solve, which for the small matrices here costs as much as 30
products.  A single matrix is a stack of one.
"""

from __future__ import annotations

import math

import numpy as np

DEFAULT_RANK_TOL = 1e-10

# (m, b, theta_m): T_m is evaluated in blocks of A^b, with b - 1 products
# for the powers A^2, ..., A^b and m / b - 1 for Horner's rule in A^b, and
# theta_m is the largest norm at which its backward error is at most the
# unit roundoff 2^-53 (Al-Mohy and Higham 2011, Table 3.1).  Each m is the
# highest degree that its number of products reaches.
_TAYLOR = (
    (4, 2, 3.397168839976962e-4),
    (6, 3, 9.065656407595102e-3),
    (9, 3, 8.957760203223343e-2),
    (12, 4, 2.996158913811580e-1),
    (16, 4, 7.802874256626574e-1),
    (20, 5, 1.438252596804337e0),
    (25, 5, 2.428582524442827e0),
    (30, 6, 3.539666348743689e0),
)


def _block_rows(m: int, b: int) -> np.ndarray:
    """Row i takes the powers [A^b, ..., A, I] (highest first, so that the
    smallest terms add first) to B_i = sum_(j<b) A^j / (b i + j)!, and
    T_m = sum_i B_i (A^b)^i; the last row also takes A^b / m!."""
    c = [1 / math.factorial(j) for j in range(m + 1)]
    rows = np.array([c[i + b : i - 1 if i else None : -1] for i in range(0, m, b)])
    rows[:-1, 0] = 0.0
    return rows


_BLOCKS = {m: _block_rows(m, b) for m, b, _ in _TAYLOR}
_MAX_BLOCKS = max(len(rows) for rows in _BLOCKS.values())
# A 1-norm above i of _THRESHOLDS (each theta_m, then theta_30 2^k for
# k >= 1) takes row _DEGREE[i] of _TAYLOR, blocks of _BLOCK_SIZE[i], and
# at most k = _K[i] squarings, with the scale _SCALE[i] = 2^-k.
_THETA_TOP = _TAYLOR[-1][2]
_THRESHOLDS = np.append(
    [t for _, _, t in _TAYLOR], np.ldexp(_THETA_TOP, np.arange(1, 1023))
)
_DEGREE = np.minimum(np.arange(len(_THRESHOLDS) + 1), len(_TAYLOR) - 1)
_K = np.arange(len(_DEGREE)) - _DEGREE
_SCALE = np.ldexp(1.0, -_K)
_BLOCK_SIZE = np.array([b for _, b, _ in _TAYLOR])[_DEGREE]


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce to a finite 2-D float array (C order, fresh copy)."""
    m = np.array(a, dtype=float, order="C")
    if m.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got ndim={m.ndim}")
    if not np.isfinite(m).all():
        raise ValueError(f"{name} has non-finite entries")
    return m


def as_vector(b, name: str = "vector") -> np.ndarray:
    """Coerce to a finite 1-D float array (fresh copy)."""
    v = np.array(b, dtype=float).reshape(-1)
    if not np.isfinite(v).all():
        raise ValueError(f"{name} has non-finite entries")
    return v


def as_integer(value, name: str, least: int) -> int:
    """``value`` as an int, once it is an int or numpy integer, not a bool,
    and at least ``least``; else a ValueError names it."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, not {value!r}")
    return int(value)


def _require_square(m: np.ndarray, name: str) -> int:
    rows, cols = m.shape
    if rows != cols:
        raise ValueError(f"{name} must be square, got shape {m.shape}")
    return rows


def _times_pow2(x: np.ndarray, e: np.ndarray) -> np.ndarray:
    """x 2^e in place, for integers e >= 0 broadcast against x: a product
    with the exact power of two while every 2^e is a float, ldexp beyond."""
    if e.max() < 1024:
        return np.multiply(x, np.ldexp(1.0, e), out=x)
    return np.ldexp(x, e, out=x)


def _squarings(powers: np.ndarray, k: np.ndarray, theta: float) -> np.ndarray:
    """Squarings s <= k per matrix for T_m of A = 2^k a0, given the powers
    [a0^b, ..., a0] of its degree: the least s with 2^-s alpha <= theta_m,
    where alpha = max(d_p, d_(p+1)), d_p = |A^p|_1^(1/p) and p = b - 1, so
    that p (p - 1) <= m + 1 (Al-Mohy and Higham 2011, Theorem 4.2).  For a
    non-normal A, alpha is far below the 1-norm, the choice k.
    """
    b = len(powers)
    # d_p of a0; those of A are 2^k times larger.
    d = np.abs(powers[:2]).sum(axis=-2).max(axis=-1) ** (1.0 / np.array([[b], [b - 1]]))
    return np.clip(k + np.ceil(np.log2(d.max(axis=0) / theta)), 0, k).astype(int)


def _exp_class(
    c: int, a: np.ndarray, k: np.ndarray, powers: np.ndarray, work: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(X, s) for a stack of class ``c``, each A = a = 2^k a0, given the
    powers [..., a0^2, a0] that mat_exp formed and ``work``, room for the
    blocks: exp(A) is X squared s times.  Class -1 is the Taylor sum
    I + A + A^2 / 2! + ... with s = 0, exact when the powers it stops at are
    zero, each term scaled back from a0 by 2^(jk) after its division by j!,
    so that it is in range whenever its value is.  Class c >= 0 is row c of
    _TAYLOR: X = T_m(2^-s A).
    """
    if c < 0:
        x = np.eye(a.shape[-1]) + a
        for j in range(2, len(powers) + 1):
            x += _times_pow2(powers[-j] / math.factorial(j), j * k[:, None, None])
        return x, 0 * k
    m, b, theta = _TAYLOR[c]
    powers, s = powers[-b:], k
    if c == len(_TAYLOR) - 1 and k.any():
        s = _squarings(powers, k, theta)
        if (s < k).any():
            # The powers of 2^-s A = 2^(k-s) a0.
            up = np.outer(np.arange(b, 0, -1), k - s)
            powers = _times_pow2(powers, up[:, :, None, None])
    # One product per matrix, or a 1 x 1 matrix rounds apart from its stack;
    # the identity's coefficients go on the diagonals after it.
    rows = _BLOCKS[m]
    blocks = work[: len(rows), : len(a)]
    flat = blocks.reshape(len(rows), len(a), -1)
    stacked = powers.reshape(b, len(a), -1).swapaxes(0, 1)
    np.matmul(rows[:, :-1], stacked, out=flat.swapaxes(0, 1))
    flat[:, :, :: a.shape[-1] + 1] += rows[:, -1:, None]
    # Horner's rule in A^b, each product into a power's slot no longer used.
    x = blocks[-1]
    for block in blocks[-2::-1]:
        x = block + np.matmul(x, powers[0], out=powers[1])
    return x, s


def mat_exp(a) -> np.ndarray:
    """Matrix exponential of a square matrix or of a stack of them.

    ``a`` has shape (..., n, n); the result has the same shape and holds the
    exponential of each matrix.  Every choice below is made per matrix: the
    result for each matrix does not depend on the rest of its stack, bit for
    bit.  The matrices of one choice (a Taylor degree, or the finite sum of
    rule 3) share one set of numpy calls, so many cost little more than one.

    A matrix A takes the least degree m of _TAYLOR (4 to 30) whose theta_m
    is at least its 1-norm, else 30, and T_m is evaluated by the
    Paterson-Stockmeyer scheme in blocks of A^b.  For degree 30, A is scaled
    by 2^-s, with s from the norms of A^5 and A^6, so strongly non-normal
    matrices are not over-scaled, and T_30 is squared s times.  Powers are
    formed from A divided by the power of two that brings its 1-norm to
    theta_30 or below, so none leaves the float range on the way.  A matrix
    whose mean eigenvalue mu = tr(A) / n is below -theta_30 is shifted,
    exp(A) = e^mu exp(A - mu I), or T_m would cancel at its large negative
    argument (exp(-450.9) had a relative error of 6e-12 without the shift).
    Three rules keep results exact where the exponential is exact:

    1. The zero matrix maps to exactly I.
    2. A row or column of A that is exactly zero maps to exactly that row or
       column of I; so a homogeneous generator [[C, B], [0, 0]] keeps the
       bottom row (0, ..., 0, 1) and [[C, 0], [0, 0]] keeps t = 0.
    3. When the highest power that A's degree forms (A^b, b from 2 to 6) is
       exactly zero, A takes the finite Taylor sum unscaled instead, so
       exp(A) is bitwise I + A whenever A^2 = 0.

    Raises ValueError for a non-square or non-finite argument and
    OverflowError if an exponential has entries beyond the float range.
    """
    m = np.asarray(a, dtype=float)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError(
            f"mat_exp argument must be a square matrix or a stack of them, "
            f"got shape {m.shape}"
        )
    if not m.size:
        return m.copy()
    shape, n = m.shape, m.shape[-1]
    a = m.reshape(-1, n, n)
    eye = np.eye(n)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        magnitude = np.abs(a)
        columns = magnitude.sum(axis=-2)
        zero_rows, zero_columns = magnitude.sum(axis=-1) == 0, columns == 0
        norm = columns.max(axis=-1)
        top = norm.max()
        if not math.isfinite(top):
            if not np.isfinite(m).all():
                raise ValueError("matrix has non-finite entries")
            raise OverflowError("matrix 1-norm is beyond the float range")
        # Only a 1-norm above theta_30 admits a shift or a squaring.
        scaled = top > _THETA_TOP
        if scaled:
            mu = (a.diagonal(axis1=-2, axis2=-1) / n).sum(axis=-1)
            mu[mu >= -_THETA_TOP] = 0.0
        if shift := scaled and mu.any():
            a = a - mu[:, None, None] * eye
        i = _THRESHOLDS.searchsorted(
            np.abs(a).sum(axis=-2).max(axis=-1) if shift else norm
        )
        degree, k, b = _DEGREE[i], _K[i], _BLOCK_SIZE[i]
        # Powers of a0 = 2^-k A (exact), highest first, after room for the
        # blocks.  One allocation holds most of a call's memory, so glibc's
        # malloc keeps it mapped for the next call; in two, a call on 2^13
        # entries at n = 20 faulted about 140 pages in anew.
        work = np.empty((_MAX_BLOCKS + b.max(), len(a), n, n))
        powers = work[_MAX_BLOCKS:]
        a0 = np.multiply(a, _SCALE[i][:, None, None], out=powers[-1])
        np.matmul(a0, a0, out=powers[-2])
        if not powers[-2].any():
            x = eye + a
            return (x * np.exp(mu)[:, None, None] if shift else x).reshape(shape)
        for j in range(3, len(powers) + 1):
            np.matmul(powers[1 - j], a0, out=powers[-j])
        # Class -1 takes the Taylor sum (rule 3), any other class its degree.
        nonzero = powers.reshape(len(powers), len(a), -1).any(axis=-1)
        label = degree
        if not nonzero.all():
            label = np.where(nonzero[len(powers) - b, np.arange(len(a))], degree, -1)
        classes = set(label.tolist())
        x, s = np.empty_like(a), np.empty_like(k)
        for c in classes:
            rows = label == c if len(classes) > 1 else slice(None)
            x[rows], s[rows] = _exp_class(c, a[rows], k[rows], powers[:, rows], work)
        if shift:
            x *= np.exp(np.ldexp(mu, -s))[:, None, None]
        always = s.min() if scaled else 0
        for j in range(s.max() if scaled else 0):
            if j < always:
                x = x @ x
            else:
                square = s > j
                x[square] = x[square] @ x[square]
        np.copyto(x, eye, where=zero_rows[:, :, None])
        np.copyto(x, eye, where=zero_columns[:, None, :])
    if not np.isfinite(x).all():
        top = norm[~np.isfinite(x).all(axis=(-2, -1))].max()
        raise OverflowError(f"exp of a matrix with 1-norm {top:.3e} overflows")
    return x.reshape(shape)


def _rank_of(sigma: np.ndarray) -> int:
    """Singular values above DEFAULT_RANK_TOL times the largest one."""
    if sigma.size == 0 or sigma[0] == 0.0:
        return 0
    return int(np.count_nonzero(sigma > DEFAULT_RANK_TOL * sigma[0]))


def rank(a) -> int:
    """Numerical rank: singular values above DEFAULT_RANK_TOL times the
    largest one."""
    return _rank_of(np.linalg.svd(as_matrix(a), compute_uv=False))


def solve_linear(c, rhs) -> tuple[np.ndarray | None, int]:
    """Solve c @ x = rhs, tolerating rank deficiency.

    The rank is decided as in ``rank``.  The system counts as consistent
    when the residual of the minimum-norm least-squares solution x is at
    most DEFAULT_RANK_TOL (|c|_2 |x| + |rhs|), a test that does not change
    when c and rhs are scaled together.

    Returns ``(solution, rank)``: ``solution`` is the minimum-norm
    particular solution when ``rhs`` lies in the range of ``c`` (the unique
    solution when ``c`` is invertible), otherwise None; ``rank`` is the
    numerical rank of ``c`` in either case.
    """
    m = as_matrix(c, "coefficient matrix")
    n = _require_square(m, "coefficient matrix")
    b = as_vector(rhs, "right-hand side")
    if b.size != n:
        raise ValueError(f"right-hand side has dim {b.size}, expected {n}")

    u, sigma, vt = np.linalg.svd(m)
    r = _rank_of(sigma)
    # With r = 0 the sum over singular triplets is empty: the solution is 0.
    solution = vt[:r].T @ ((u[:, :r].T @ b) / sigma[:r])
    residual = np.linalg.norm(m @ solution - b)
    scale = sigma[0] * np.linalg.norm(solution) if r else 0.0
    if residual <= DEFAULT_RANK_TOL * (scale + np.linalg.norm(b)):
        return solution, r
    return None, r


def augment_affine(c, b) -> np.ndarray:
    """Homogeneous embedding [[C, B], [0, 0]] of the affine map x -> Cx + B.

    The exponential of t times this (n+1) x (n+1) matrix carries exp(tC) in
    the upper-left block and the inhomogeneous response in the last column;
    fields, tangents and group elements are stored in this form.
    """
    m = as_matrix(c, "matrix part")
    n = _require_square(m, "matrix part")
    v = as_vector(b, "vector part")
    if v.size != n:
        raise ValueError(f"vector part has dim {v.size}, expected {n}")
    out = np.zeros((n + 1, n + 1))
    out[:n, :n] = m
    out[:n, n] = v
    return out


def _norms(d: np.ndarray) -> np.ndarray:
    """2-norms of the rows of the (k, n) array d, each rounded as
    np.linalg.norm rounds one row."""
    return np.sqrt((d[:, None, :] @ d[:, :, None])[:, 0, 0])
