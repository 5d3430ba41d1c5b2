"""Dense real linear algebra kernels.

Provides the matrix exponential, rank-revealing linear solves, and the
homogeneous (augmented) embedding of an affine map.  Everything operates on
plain float ndarrays with value semantics: inputs are never mutated.  The
tolerances are the module constants below; no caller tunes them.
"""

from __future__ import annotations

import numpy as np

DEFAULT_EXP_TOL = 1e-12
DEFAULT_RANK_TOL = 1e-10

# Scaling target for the Taylor core of mat_exp.  With the scaled norm at or
# below this value the series gains roughly one bit per term.
_SCALING_TARGET = 0.5
_MAX_TAYLOR_TERMS = 64


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


def mat_exp(a) -> np.ndarray:
    """Matrix exponential by scaling and squaring with a Taylor core.

    The argument is scaled by a power of two until its 1-norm is at most
    0.5, the series sum(A^k / k!) is accumulated until the next term falls
    below DEFAULT_EXP_TOL relative to the sum (tightened by 2^-s for the s
    squarings), and the result is squared back up.  The squaring phase can
    still lose accuracy on strongly non-normal arguments: on a 5 x 5
    upper-triangular matrix with entries 1000^(j - i) the relative error is
    about 4e-5, whatever the series cutoff.

    Returns exp(a); the zero matrix maps to the exact identity.  Raises
    OverflowError if exp(a) has entries beyond the float range.
    """
    m = as_matrix(a)
    n = _require_square(m, "mat_exp argument")
    norm = np.linalg.norm(m, 1)
    if norm == 0.0:
        return np.eye(n)

    squarings = max(0, int(np.ceil(np.log2(norm / _SCALING_TARGET))))
    scaled = m / 2.0**squarings
    # Each squaring can roughly double the relative error, hence the 2**-s
    # tightening; the floor keeps the cutoff meaningful in double precision.
    cutoff = max(DEFAULT_EXP_TOL * 2.0 ** -(squarings + 2), 1e-17)

    total = np.eye(n)
    term = np.eye(n)
    for k in range(1, _MAX_TAYLOR_TERMS + 1):
        term = term @ scaled / k
        total = total + term
        if np.linalg.norm(term, 1) <= cutoff * np.linalg.norm(total, 1):
            break
    else:  # pragma: no cover - term norms decay at least like 0.5^k / k!
        raise RuntimeError("matrix exponential series failed to converge")

    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(squarings):
            total = total @ total
    if not np.isfinite(total).all():
        raise OverflowError(f"exp of a matrix with 1-norm {norm:.3e} overflows")
    return total


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
    the upper-left block and the inhomogeneous response in the last column,
    which is how the flow module evaluates every field with nonzero C.
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
