"""Dense real linear algebra kernels.

Provides the matrix exponential, rank-revealing linear solves, and the
homogeneous (augmented) embedding of an affine map.  Everything operates on
plain float ndarrays with value semantics: inputs are never mutated.  The
tolerances are the module constants below; no caller tunes them.

The matrix exponential is one kernel over stacks of square matrices: Pade
scaling and squaring (Higham 2005, SIAM J. Matrix Anal. Appl. 26(4)) with
the number of squarings chosen per matrix from the norms of its powers (Al-Mohy
and Higham 2009, SIAM J. Matrix Anal. Appl. 31(3)).  A single matrix is a
stack of one.
"""

from __future__ import annotations

import math

import numpy as np

DEFAULT_RANK_TOL = 1e-10

# Coefficients b_0, ..., b_m of the degree-m Pade approximant p(A) / p(-A) to
# exp(A), and theta_m, the largest 1-norm at which its backward error is at
# most the unit roundoff (Higham 2005, Table 2.3).
_PADE = {
    3: (120.0, 60.0, 12.0, 1.0),
    5: (30240.0, 15120.0, 3360.0, 420.0, 30.0, 1.0),
    7: (17297280.0, 8648640.0, 1995840.0, 277200.0, 25200.0, 1512.0, 56.0, 1.0),
    9: (17643225600.0, 8821612800.0, 2075673600.0, 302702400.0, 30270240.0,
        2162160.0, 110880.0, 3960.0, 90.0, 1.0),
    13: (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
         1187353796428800.0, 129060195264000.0, 10559470521600.0,
         670442572800.0, 33522128640.0, 1323241920.0, 40840800.0, 960960.0,
         16380.0, 182.0, 1.0),
}
_THETA = {3: 1.495585217958292e-2, 5: 2.539398330063230e-1,
          7: 9.504178996162932e-1, 9: 2.097847961257068e0,
          13: 5.371920351148152e0}
# 1 / |c_27|, where c_27 leads the series of the degree-13 backward error;
# the squaring correction ell of Al-Mohy and Higham 2009 uses it.
_ELL_13 = 113250775606021113483283660800000000.0
_UNIT_ROUNDOFF = 2.0**-53
# Exponents 1/p taking ||A^p|| for p = 6, 8, 10 to d_p = ||A^p||^(1/p).
_INVERSE_POWERS = 1.0 / np.array([[6.0], [8.0], [10.0]])

# Rows combining the even powers [I, A^2, A^4, ...] into the odd part U and
# the even part V of p(A), so that the approximant is (V - U)^-1 (V + U): for
# degrees 3 to 9, U = A row0 and V = row1; for degree 13, U = A (A^6 row0 +
# row1) and V = A^6 row2 + row3 (Higham 2005).
_PADE_ROWS = {m: np.array([b[1::2], b[0::2]]) for m, b in _PADE.items() if m < 13}
_PADE_ROWS[13] = np.array([
    (0.0, *_PADE[13][9::2]),
    _PADE[13][1:9:2],
    (0.0, *_PADE[13][8::2]),
    _PADE[13][0:8:2],
])
# A 1-norm above i of _THRESHOLDS (theta_3, theta_5, theta_7, theta_9, then
# theta_13 2^j for j >= 0) takes degree _DEGREE[i] and scale 2^-k = _SCALE[i]
# for the least k = _K[i] with |2^-k A|_1 <= theta_13.  Degree m combines
# _POWERS[m] of the powers [I, A^2, ...]; rule 3 tests the one at _TESTED[m].
_THRESHOLDS = np.append([_THETA[m] for m in (3, 5, 7, 9)],
                        np.ldexp(_THETA[13], np.arange(1022)))
_DEGREE = np.array([3, 5, 7, 9] + [13] * (len(_THRESHOLDS) - 3))
_K = np.maximum(np.arange(len(_DEGREE)) - 4, 0)
_SCALE = np.ldexp(1.0, -_K)
_POWERS = np.zeros(14, dtype=int)
_POWERS[list(_PADE_ROWS)] = [rows.shape[1] for rows in _PADE_ROWS.values()]
_TESTED = np.minimum(_POWERS - 1, 3)


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


def _require_square(m: np.ndarray, name: str) -> int:
    rows, cols = m.shape
    if rows != cols:
        raise ValueError(f"{name} must be square, got shape {m.shape}")
    return rows


def _squarings(
    a0: np.ndarray, k: np.ndarray, a4: np.ndarray, a6: np.ndarray
) -> np.ndarray:
    """Squarings s <= k per matrix for the degree-13 approximant of A = 2^k a0.

    ``a4`` and ``a6`` are the powers of a0.  With d_p = |A^p|_1^(1/p), s is
    the least with 2^-s eta <= theta_13 for eta = min(max(d_6, d_8),
    max(d_8, d_10)), raised by the correction ell that keeps the approximant
    of |2^-s A| accurate (Al-Mohy and Higham 2009).  s never exceeds k, the
    1-norm choice of Higham 2005, which alone guarantees the backward error;
    that cap also covers |A| products that overflow.
    """
    # d_p of a0; those of A are 2^k times larger.
    d = np.abs(np.stack([a6, a4 @ a4, a4 @ a6])).sum(axis=-2).max(axis=-1)
    d **= _INVERSE_POWERS
    eta = np.maximum(d[1], np.minimum(d[0], d[2]))  # min(max(d6, d8), max(d8, d10))
    s = np.minimum(np.maximum(k + np.ceil(np.log2(eta / _THETA[13])), 0.0), k)
    # Where 2^-s |A|_1 <= theta_13, below (u / |c_27|)^(1/26), ell is zero;
    # that is where s = k, and the cap below keeps those s as they are.
    if (s < k).any():
        w = np.abs(np.ldexp(a0, (k - s).astype(int)[:, None, None]))
        v = w.sum(axis=-2, keepdims=True)
        scaled_norm = v.max(axis=(-2, -1))
        # 1^T |2^-s A|^27 by binary powering: 27 = 1 + 2 + 8 + 16.
        for bit in (1, 0, 1, 1):
            w = w @ w
            if bit:
                v = v @ w
        alpha = v.max(axis=(-2, -1)) / (_ELL_13 * scaled_norm)
        ell = np.ceil(np.log2(alpha / _UNIT_ROUNDOFF) / 26.0)
        s = np.fmin(s + np.maximum(ell, 0.0), k)
    return s.astype(int)


def _exp_class(
    c: int, a: np.ndarray, a0: np.ndarray, k: np.ndarray, powers: np.ndarray
) -> np.ndarray:
    """exp(A) for a stack of class ``c``, each A = a = 2^k a0, given the
    powers [I, a0^2, a0^4, ...] that mat_exp formed (a0^4 only where a0^2 may
    be nonzero).  Class 0 is I + A + ... + A^5 / 5!, exact if A^6 = 0, each
    term scaled back from a0 by 2^(jk) so that it is in range whenever its
    value is.  Any other class is a Pade degree: 2^-s A by that approximant,
    squared s times.
    """
    if not c:
        x = np.eye(a.shape[-1]) + a
        terms = [t for p in powers[1:3] for t in (p, p @ a0)]
        for j, t in enumerate(terms, 2):
            x += np.ldexp(t / math.factorial(j), j * k[:, None, None])
        return x
    rows = _PADE_ROWS[c]
    powers = powers[: rows.shape[1]]
    scaled, s = a0, None
    if c == 13 and k.any():
        s = _squarings(a0, k, powers[2], powers[3])
        up = k - s
        scaled = np.ldexp(a0, up[:, None, None])
        np.ldexp(powers[1:], np.outer((2, 4, 6), up)[:, :, None, None], out=powers[1:])
        if not np.isfinite(powers).all():
            # Only a matrix far from normal gets here: form its powers anew.
            far = ~np.isfinite(powers).all(axis=(0, 2, 3))
            a2 = scaled[far] @ scaled[far]
            a4 = a2 @ a2
            powers[1:, far] = a2, a4, a2 @ a4
    # One product per matrix, or a 1 x 1 matrix rounds apart from its stack.
    parts = rows @ powers.reshape(len(powers), len(a), -1).swapaxes(0, 1)
    parts = parts.reshape(len(a), len(rows), *a.shape[1:]).swapaxes(0, 1)
    if c == 13:
        u = scaled @ (powers[3] @ parts[0] + parts[1])
        v = powers[3] @ parts[2] + parts[3]
    else:
        u = scaled @ parts[0]
        v = parts[1]
    x = np.linalg.solve(v - u, v + u)
    if s is not None:
        always = s.min()
        for j in range(s.max()):
            if j < always:
                x = x @ x
            else:
                square = s > j
                x[square] = x[square] @ x[square]
    return x


def mat_exp(a) -> np.ndarray:
    """Matrix exponential of a square matrix or of a stack of them.

    ``a`` has shape (..., n, n); the result has the same shape and holds the
    exponential of each matrix.  Every choice below is made per matrix: the
    result for each matrix does not depend on the rest of the stack, bit for
    bit.  The matrices of one choice (a Pade degree, or the Taylor sum of
    rule 3) share one set of numpy calls, so many cost little more than one.

    The kernel is Pade scaling and squaring.  A matrix A takes degree 3, 5,
    7 or 9 when its 1-norm is at most that degree's theta_m (Higham 2005),
    else 13.  For degree 13, A is scaled by 2^-s, with s from the norms of
    A^6, A^8 and A^10 (Al-Mohy and Higham 2009), so strongly non-normal
    matrices are not over-scaled, and the approximant is squared s times.
    Powers are formed from A divided by the power of two that brings its
    1-norm to theta_13 or below, so none leaves the float range on the way.
    Three rules keep results exact where the exponential is exact:

    1. The zero matrix maps to exactly I.
    2. A row or column of A that is exactly zero maps to exactly that row or
       column of I; so a homogeneous generator [[C, B], [0, 0]] keeps the
       bottom row (0, ..., 0, 1) and [[C, 0], [0, 0]] keeps t = 0.
    3. When the highest power that A's degree forms (A^2 for degree 3, A^4
       for 5, else A^6) is exactly zero, A takes the finite Taylor sum
       instead of its degree, so exp(A) is bitwise I + A whenever A^2 = 0.

    Raises ValueError for a non-square or non-finite argument and
    OverflowError if an exponential has entries beyond the float range.
    """
    m = np.array(a, dtype=float)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError(
            f"mat_exp argument must be a square matrix or a stack of them, "
            f"got shape {m.shape}"
        )
    shape, n = m.shape, m.shape[-1]
    a = m.reshape(-1, n, n)
    eye = np.eye(n)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        a2 = a @ a
        # A non-finite entry makes its whole row of A^2 non-finite, so an
        # exactly zero A^2 also certifies a finite argument.
        if not a2.any():
            return (eye + a).reshape(shape)
        magnitude = np.abs(a)
        columns = magnitude.sum(axis=-2)
        norm = columns.max(axis=-1)
        if not math.isfinite(norm.max()):
            if not np.isfinite(m).all():
                raise ValueError("matrix has non-finite entries")
            raise OverflowError("matrix 1-norm is beyond the float range")
        i = _THRESHOLDS.searchsorted(norm)
        degree, k = _DEGREE[i], _K[i]
        # a0 = 2^-k A exactly (a power of two); only degree 13 has k > 0.
        a0 = a * _SCALE[i][:, None, None]
        powers = np.empty((max(_POWERS[degree].tolist()), len(a), n, n))
        powers[0] = eye
        powers[1] = a0 @ a0 if k.any() else a2
        for j in range(2, len(powers)):
            np.matmul(powers[1], powers[j - 1], out=powers[j])
        # Class 0 takes the Taylor sum (rule 3), any other class is a degree.
        nonzero = powers.reshape(len(powers), len(a), -1).any(axis=-1)
        label = np.where(nonzero[_TESTED[degree], np.arange(len(a))], degree, 0)
        classes = set(label.tolist())
        x = np.empty_like(a)
        for c in classes:
            rows = label == c if len(classes) > 1 else slice(None)
            x[rows] = _exp_class(c, a[rows], a0[rows], k[rows], powers[:, rows])
        exact = np.minimum(magnitude.sum(axis=-1)[:, :, None], columns[:, None, :]) == 0
        x = np.where(exact, eye, x)
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
