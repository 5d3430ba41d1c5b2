"""Dense real linear algebra kernels.

Provides the matrix exponential, rank-revealing linear solves, and the one
copy of each primitive of the homogeneous form [[C, B], [0, 0]]: its build,
its image x -> C x + B, and row dots and norms, a stack's row bit for bit.
Everything operates on plain float ndarrays with value semantics: inputs are
never mutated.  ``_real`` is the package's one input rule, which every
public entry point applies to the arrays it is given: real, of the
caller's dimension and, where the caller asks, finite.  The tolerances are
the module constants below; no caller tunes them.

The matrix exponential is one kernel over stacks of square matrices:
Taylor scaling and squaring (Al-Mohy and Higham 2011, SIAM J. Sci. Comput.
33(2)), with matrix products only.  A Pade approximant of the same accuracy
needs a linear solve, which for the small matrices here costs as much as 30
products.  One driver makes each decision once per matrix, as a Python
scalar where a stack's matrices agree (a single matrix always) and as an
array where they differ; the matrices of one class share one set of numpy
calls, the same steps on arrays of the same shapes per matrix (numpy picks
gemm, gemv or its own loop by shape), so a result is its row of any stack.
"""

from __future__ import annotations

import bisect
import math
from functools import lru_cache

import numpy as np

DEFAULT_RANK_TOL = 1e-10

_FLOAT = np.dtype(float)

# (m, b, theta_m): T_m is evaluated in blocks of A^b, with b - 1 products
# for the powers A^2, ..., A^b and m / b - 1 for Horner's rule in A^b, and
# theta_m is the largest norm at which its backward error is at most the
# unit roundoff 2^-53 (Al-Mohy and Higham 2011, Table 3.1).  Each m is the
# highest degree that its number of products reaches.  A 1-norm up to
# theta_30 takes the first row whose theta_m is at least the norm; a larger
# one takes the last row after k halvings, the least k with 1-norm at most
# 2^k theta_30, up to k = 1023, since 2^1023 theta_30 is beyond the float
# range.  Powers are formed from 2^-k A.
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
_TOP = len(_TAYLOR) - 1
_THETAS = [theta for _, _, theta in _TAYLOR]
_THETA_EXPONENT = math.frexp(_THETAS[-1])[1]


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
_BLOCK_SIZES = np.array([b for _, b, _ in _TAYLOR])
# The exponents 1/b and 1/(b - 1) of _squarings.
_ROOTS = {b: np.array([[1.0 / b], [1.0 / (b - 1)]]) for b in _BLOCK_SIZES.tolist()}


@lru_cache(maxsize=None)
def _eye(n: int) -> np.ndarray:
    """The read-only n x n identity."""
    e = np.eye(n)
    e.flags.writeable = False
    return e


def _real(a, name: str, n: int | None = None, owner: str | None = None,
          finite: str | None = "must be finite", stack: bool = False,
          error: type = ValueError) -> np.ndarray:
    """``a`` as a float array, not copied when it is one: the package's one
    rule for what a caller passes in.

    A complex dtype raises TypeError naming it, before any cast, which
    would drop the imaginary part with only a ComplexWarning.  Given ``n``,
    ``a`` is one point of R^n, flattened, or with ``stack`` also an array of
    points along its last axis; another dimension d raises ``error``
    "{name} has dim d, {owner} lives on R^n", or "expected n" without an
    owner.  Unless ``finite`` is None, a NaN or infinite entry raises
    ValueError "{name} {finite}" (``_finite``).
    """
    m = np.asarray(a)
    if m.dtype is not _FLOAT:
        if m.dtype.kind == "c":
            raise TypeError(f"{name} must be real, not of dtype {m.dtype}")
        m = m.astype(float)
    if n is not None:
        if m.ndim != 1 and (m.ndim == 0 or not stack):
            m = m.reshape(-1)
        if m.shape[-1] != n:
            where = f"{owner} lives on R^{n}" if owner else f"expected {n}"
            raise error(f"{name} has dim {m.shape[-1]}, {where}")
    if finite and not _finite(m):
        raise ValueError(f"{name} {finite}")
    return m


def _finite(m: np.ndarray):
    """Whether every entry is finite; below 64 entries math.isfinite over a
    list is faster than numpy's isfinite and all, about a microsecond."""
    return all(map(math.isfinite, m.ravel().tolist())) if m.size < 64 else np.isfinite(m).all()


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce to a finite 2-D float array (C order, fresh copy)."""
    m = np.array(_real(a, name, finite="has non-finite entries"), order="C")
    if m.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got ndim={m.ndim}")
    return m


def as_vector(b, name: str = "vector") -> np.ndarray:
    """Coerce to a finite 1-D float array (fresh copy)."""
    return np.array(_real(b, name, finite="has non-finite entries")).reshape(-1)


def as_integer(value, name: str, least: int) -> int:
    """``value`` as an int, once it is an int or numpy integer, not a bool,
    and at least ``least``; else a ValueError names it."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, not {value!r}")
    return int(value)


def _require_square(m: np.ndarray, name: str) -> int:
    if m.ndim != 2 or len(m) != m.shape[1]:
        raise ValueError(f"{name} must be square, got shape {m.shape}")
    return len(m)


def _times_pow2(x: np.ndarray, e: np.ndarray) -> np.ndarray:
    """x 2^e in place, for integers e >= 0 broadcast against x: a product
    with the exact power of two while every 2^e is a float, ldexp beyond."""
    if e.max() < 1024:
        return np.multiply(x, np.ldexp(1.0, e), out=x)
    return np.ldexp(x, e, out=x)


def _threshold(i: int) -> float:
    """The largest 1-norm of plan i: theta_m of row i for i <= 7, then
    2^(i-7) theta_30 up to i = 1029; plan 1030 takes every larger norm."""
    if i < len(_TAYLOR):
        return _THETAS[i]
    return math.ldexp(_THETAS[-1], i - _TOP) if i < 1030 else math.inf


def _plan(norm: float) -> tuple[int, int]:
    """(row, k) for a matrix of 1-norm ``norm``: plan i, the number of
    thresholds below the norm (1030 for an infinite or NaN one), takes row
    min(i, 7) of _TAYLOR and k = i - row halvings."""
    if norm <= _THETAS[-1]:
        return bisect.bisect_left(_THETAS, norm), 0
    # 2^(e-1) <= norm < 2^e and theta_30 is in [2^(h-1), 2^h), so k is e - h
    # or one more; frexp gives an infinite or NaN norm e = 0.
    k = math.frexp(norm)[1] - _THETA_EXPONENT
    return _TOP, k + (norm > _threshold(_TOP + k)) if k >= 0 else 1023


def _plans(norm: np.ndarray):
    """(row, k) of _plan for each 1-norm of ``norm``: two ints when all
    agree, else two arrays, by a search of the thresholds between the least
    and the largest plan."""
    low, high = _plan(float(norm.min())), _plan(float(norm.max()))
    if low == high:
        return low
    plan = np.searchsorted(list(map(_threshold, range(sum(low), sum(high)))), norm) + sum(low)
    row = np.minimum(plan, _TOP)
    return row, plan - row


def _uniform(v: np.ndarray):
    """v's one value as a Python scalar when all its entries agree, else v."""
    first = v.item(0)
    return first if len(v) == 1 or (v == first).all() else v


def _squarings(powers: np.ndarray, k, theta: float):
    """Squarings s <= k per matrix, an int when the matrices agree, for T_m
    of A = 2^k a0, given the powers [a0^b, ..., a0] of its degree: the least
    s with 2^-s alpha <= theta_m, where alpha = max(d_p, d_(p+1)),
    d_p = |A^p|_1^(1/p) and p = b - 1, so that p (p - 1) <= m + 1 (Al-Mohy
    and Higham 2011, Theorem 4.2).  For a non-normal A, alpha is far below
    the 1-norm, the choice k.
    """
    b = len(powers)
    # d_p of a0; those of A are 2^k times larger.
    d = np.abs(powers[:2]).sum(axis=-2).max(axis=-1) ** _ROOTS[b]
    log2 = _uniform(np.ceil(np.log2(d.max(axis=0) / theta)).astype(int))
    # s = clip(k + log2, 0, k), in operators that take an int (one matrix,
    # or matrices that agree) and an array alike.
    s = k + log2 * (log2 < 0)
    return s * (s > 0)


def _taylor(m: int, powers: np.ndarray, work: np.ndarray) -> np.ndarray:
    """T_m(A) for the stack whose powers [A^b, ..., A] are given, by the
    blocks of _BLOCKS[m] formed in ``work`` and Horner's rule in A^b, which
    overwrites the powers below A^b."""
    rows, (b, count, n) = _BLOCKS[m], powers.shape[:3]
    # One product per matrix, or a 1 x 1 matrix rounds apart from its stack;
    # the identity's coefficients go on the diagonals after it.
    blocks = work[: len(rows), :count]
    flat = blocks.reshape(len(rows), count, -1)
    stacked = powers.reshape(b, count, -1).swapaxes(0, 1)
    np.matmul(rows[:, :-1], stacked, out=flat.swapaxes(0, 1))
    flat[:, :, :: n + 1] += rows[:, -1:, None]
    # Horner's rule in A^b, each product into a power's slot no longer used.
    x = blocks[-1]
    for block in blocks[-2::-1]:
        x = block + np.matmul(x, powers[0], out=powers[1])
    return x


def _exp_class(c: int, k, a: np.ndarray, powers: np.ndarray, work: np.ndarray):
    """(X, s) for the stack ``a`` of class ``c``, each A = a = 2^k a0, given
    the powers [..., a0^2, a0] and ``work``, room for the blocks: exp(A) is
    X squared s times, s an int when the matrices agree.  Class -1 is the
    Taylor sum I + A + A^2 / 2! + ... with s = 0, exact when the powers it
    stops at are zero, each term scaled back from a0 by 2^(jk) after its
    division by j!, so that it is in range whenever its value is.  Class
    c >= 0 is row c of _TAYLOR: X = T_m(2^-s A), s = k, or for k > 0 (degree
    30) the squarings of _squarings.
    """
    if c < 0:
        x = _eye(a.shape[-1]) + a
        for j in range(2, len(powers) + 1):
            x += _times_pow2(powers[-j] / math.factorial(j), np.reshape(j * k, (-1, 1, 1)))
        return x, 0
    m, b, theta = _TAYLOR[c]
    powers, s = powers[-b:] if len(powers) > b else powers, k
    # k and s are ints, or arrays where the matrices differ.
    if k if isinstance(k, int) else k.any():
        s = _squarings(powers, k, theta)
        lower = k - s
        if lower if isinstance(lower, int) else lower.any():
            # The powers of 2^-s A = 2^(k-s) a0.
            _times_pow2(powers, (np.arange(b, 0, -1)[:, None] * lower)[:, :, None, None])
    return _taylor(m, powers, work), s


def _exact_rows(x: np.ndarray, a: np.ndarray, columns: np.ndarray, norm: np.ndarray):
    """x with rule 2 of mat_exp applied, ``columns`` the sums of moduli of
    the columns of ``a``.  Raises OverflowError if some exponential is not
    finite, naming the largest 1-norm in ``norm`` of those matrices."""
    exact = ~a.any(axis=-1)[:, :, None] | (columns == 0)[:, None, :]
    np.copyto(x, _eye(a.shape[-1]), where=exact)
    if not np.isfinite(x).all():
        top = norm[~np.isfinite(x).all(axis=(-2, -1))].max()
        raise OverflowError(f"exp of a matrix with 1-norm {top:.3e} overflows")
    return x


def _exp(a: np.ndarray, columns: np.ndarray, norm: np.ndarray, top: float) -> np.ndarray:
    """exp of each matrix of the (count, n, n) stack ``a``, given the sums of
    moduli of its columns, its 1-norms and the largest of those, ``top``."""
    n = a.shape[-1]
    mu, shifted, plan_norm = None, a, norm
    # Only a 1-norm above theta_30 admits a shift or a squaring.
    if top > _THETAS[-1]:
        mu = (a.diagonal(axis1=-2, axis2=-1) / n).sum(axis=-1)
        if min(mu.tolist()) < -_THETAS[-1]:
            mu = np.where(mu < -_THETAS[-1], mu, 0.0)
            shifted = a - mu[:, None, None] * _eye(n)
            plan_norm = np.abs(shifted).sum(axis=-2).max(axis=-1)
        else:
            mu = None
    row, k = _plan(plan_norm.item()) if len(a) == 1 else _plans(plan_norm)
    one = isinstance(row, int)
    # Powers of a0 = 2^-k A (exact), highest first, after room for the
    # blocks.  One allocation holds most of a call's memory, so glibc's
    # malloc keeps it mapped for the next call; in two, a call on 2^13
    # entries at n = 20 faulted about 140 pages in anew.
    b = _TAYLOR[row if one else row.max()][1]
    work = np.empty((_MAX_BLOCKS + b, len(a), n, n))
    powers = work[_MAX_BLOCKS:]
    scale = math.ldexp(1.0, -k) if one else np.ldexp(1.0, -k)[:, None, None]
    a0 = np.multiply(shifted, scale, out=powers[-1])
    np.matmul(a0, a0, out=powers[-2])
    if not np.count_nonzero(powers[-2]):
        x = _eye(n) + shifted
        return x if mu is None else x * np.exp(mu)[:, None, None]
    for j in range(3, b + 1):
        np.matmul(powers[1 - j], a0, out=powers[-j])
    # Class -1 takes the finite Taylor sum (rule 3), any other its row.
    if len(a) == 1:
        label = row if np.count_nonzero(powers[0]) else -1
    elif (nonzero := powers.reshape(b, len(a), -1).any(axis=-1)).all():
        label = row
    else:
        label = np.where(nonzero[b - _BLOCK_SIZES[row], np.arange(len(a))], row, -1)
    if not isinstance(label, int) and len(classes := set(label.tolist())) == 1:
        label = classes.pop()
    if isinstance(label, int):
        x, s = _exp_class(label, k, shifted, powers, work)
    else:
        x, s = np.empty_like(a), np.zeros(len(a), dtype=int)
        for c in classes:
            rows = label == c
            k_rows = k if one else k[rows]
            x[rows], s[rows] = _exp_class(c, k_rows, shifted[rows], powers[:, rows], work)
    if mu is not None:
        x *= np.exp(np.ldexp(mu, -s))[:, None, None]
    always, most = (s, s) if isinstance(s, int) else (s.min(), s.max())
    for _ in range(always):
        x = x @ x
    for j in range(always, most):
        square = s > j
        x[square] = x[square] @ x[square]
    return _exact_rows(x, a, columns, norm)


def mat_exp(a) -> np.ndarray:
    """Matrix exponential of a square matrix or of a stack of them.

    ``a`` has shape (..., n, n); the result has the same shape and holds the
    exponential of each matrix.  Every choice below is made per matrix, and
    a result does not depend on the rest of its stack, bit for bit; a
    single matrix makes them in Python scalars, and the matrices of one
    Taylor degree, or of rule 3, share one set of numpy calls.

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

    Raises TypeError for a complex argument, ValueError for a non-square or
    non-finite one and OverflowError if an exponential has entries beyond
    the float range.
    """
    m = _real(a, "mat_exp argument", finite=None)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError(
            f"mat_exp argument must be a square matrix or a stack of them, "
            f"got shape {m.shape}"
        )
    if not m.size:
        return m.copy()
    shape, n = m.shape, m.shape[-1]
    a = m.reshape(-1, n, n)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        columns = np.abs(a).sum(axis=-2)
        norm = columns.max(axis=-1)
        top = norm.max()
        if not math.isfinite(top):
            if not np.isfinite(m).all():
                raise ValueError("matrix has non-finite entries")
            raise OverflowError("matrix 1-norm is beyond the float range")
        return _exp(a, columns, norm, float(top)).reshape(shape)


def _rank_of(sigma: np.ndarray):
    """Singular values above DEFAULT_RANK_TOL times the largest one: an int
    for one descending row of them, an array for the rows of a (k, m) stack."""
    if sigma.size == 0:
        return 0
    over = sigma.T > DEFAULT_RANK_TOL * sigma[..., 0]
    return int(np.count_nonzero(over)) if over.ndim == 1 else over.sum(axis=0)


def rank(a) -> int:
    """Numerical rank: singular values above DEFAULT_RANK_TOL times the
    largest one, the rule verify_bundle applies to a stacked SVD."""
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
    b = _real(rhs, "right-hand side", n, finite="has non-finite entries")

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
    m = _real(c, "matrix part", finite="has non-finite entries")
    n = _require_square(m, "matrix part")
    return _generator(m, _real(b, "vector part", n, finite="has non-finite entries"))


def _generator(c, b) -> np.ndarray:
    """[[C, B], [0, 0]] of x -> Cx + B, or of each row of stacks of C and B,
    without the input checks of ``augment_affine``."""
    n = b.shape[-1]
    g = np.zeros(b.shape[:-1] + (n + 1, n + 1))
    g[..., :n, :n] = c
    g[..., :n, n] = b
    return g


def _affine(m: np.ndarray, p: np.ndarray) -> np.ndarray:
    """A x + b for the homogeneous matrix m = [[A, b], [., .]] and the point
    p = x, or row by row of stacks of them, broadcast against each other:
    each row a matrix-vector product, which rounds as A @ x of that row."""
    return (m[..., :-1, :-1] @ p[..., None])[..., 0] + m[..., :-1, -1]


def _image(m: np.ndarray, p: np.ndarray, what: str) -> np.ndarray:
    """``_affine(m, p)``, else OverflowError "{what} overflows the float range"."""
    with np.errstate(over="ignore", invalid="ignore"):
        v = _affine(m, p)
    if not _finite(v):
        raise OverflowError(f"{what} overflows the float range")
    return v


def _dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-by-row dot products of (..., m) stacks, as 1 x m by m x 1
    products, which round as np.dot does (a matrix-vector product does not),
    save the sign of one zero: a one-entry row whose product is -0.0 gives
    +0.0, where np.dot gives -0.0, because matmul's sum starts from +0.0."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _norms(d: np.ndarray) -> np.ndarray:
    """2-norms of the rows of d, each np.linalg.norm of its row, bit for bit."""
    return np.sqrt(_dots(d, d))
