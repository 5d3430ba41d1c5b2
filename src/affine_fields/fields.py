"""Constant, linear, and affine vector fields on R^n.

A field is stored by the pair (C, B) of its components X(x) = C x + B in the
chart's natural frame.  Constant fields have C = 0, linear fields have B = 0.
Indices in the public generator API are 1-based.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import as_matrix, as_vector, rank

CONSTANT = "constant"
LINEAR = "linear"
AFFINE = "affine"


@dataclass(frozen=True)
class AffineField:
    """Vector field x -> C x + B with an n x n matrix C and n-vector B."""

    C: np.ndarray
    B: np.ndarray

    def __post_init__(self):
        c = as_matrix(self.C, "C")
        b = as_vector(self.B, "B")
        if c.shape[0] != c.shape[1]:
            raise ValueError(f"C must be square, got shape {c.shape}")
        if b.size != c.shape[0]:
            raise ValueError(
                f"B has dim {b.size} but C is {c.shape[0]} x {c.shape[1]}"
            )
        if b.size == 0:
            raise ValueError("field dimension must be at least 1")
        c.flags.writeable = False
        b.flags.writeable = False
        object.__setattr__(self, "C", c)
        object.__setattr__(self, "B", b)

    @property
    def n(self) -> int:
        return self.B.size

    def classify(self) -> str:
        """One of "constant", "linear", "affine"; the zero field is constant.

        Parts are compared with zero exactly, as make_flow does: a field
        with C = [[1e-15]] is not constant, and it does not flow like one.
        """
        if not self.C.any():
            return CONSTANT
        return AFFINE if self.B.any() else LINEAR

    def is_zero(self) -> bool:
        return not (self.C.any() or self.B.any())

    def to_dict(self) -> dict:
        return {"n": self.n, "C": self.C.tolist(), "B": self.B.tolist()}

    @staticmethod
    def from_dict(data: dict) -> "AffineField":
        field = AffineField(np.asarray(data["C"]), np.asarray(data["B"]))
        if "n" in data and int(data["n"]) != field.n:
            raise ValueError(
                f"declared dimension {data['n']} does not match shapes ({field.n})"
            )
        return field


def constant_field(b) -> AffineField:
    v = as_vector(b)
    return AffineField(np.zeros((v.size, v.size)), v)


def linear_field(c) -> AffineField:
    m = as_matrix(c)
    return AffineField(m, np.zeros(m.shape[0]))


def zero_field(n: int) -> AffineField:
    return AffineField(np.zeros((n, n)), np.zeros(n))


def evaluate(field: AffineField, x) -> np.ndarray:
    """Component vector C x + B of the field at the point x."""
    p = np.asarray(x, dtype=float).reshape(-1)
    if p.size != field.n:
        raise ValueError(f"point has dim {p.size}, field lives on R^{field.n}")
    return field.C @ p + field.B


def evaluate_many(field: AffineField, points) -> np.ndarray:
    """Row-wise evaluate: points of shape (k, n) map to (k, n) components."""
    p = np.asarray(points, dtype=float)
    if p.ndim != 2 or p.shape[1] != field.n:
        raise ValueError(f"points must have shape (k, {field.n})")
    return p @ field.C.T + field.B


def bracket(x: AffineField, y: AffineField) -> AffineField:
    """Lie bracket [X, Y] with the convention [X, Y](f) = X(Y(f)) - Y(X(f)).

    For affine fields the bracket is again affine, with matrix part
    C_Y C_X - C_X C_Y and vector part C_Y B_X - C_X B_Y.
    """
    if x.n != y.n:
        raise ValueError(f"dimension mismatch: {x.n} vs {y.n}")
    return AffineField(
        y.C @ x.C - x.C @ y.C,
        y.C @ x.B - x.C @ y.B,
    )


@dataclass(frozen=True)
class GeneratorIndex:
    """Basis-field label: i alone names d/du^i, (i, j) names u^j d/du^i."""

    i: int
    j: int | None = None

    @property
    def is_constant(self) -> bool:
        return self.j is None

    def __str__(self) -> str:
        return f"E_{self.i}" if self.j is None else f"E_{self.i}^{self.j}"


def generator(g: GeneratorIndex, n: int) -> AffineField:
    """Realize a generator label as a field on R^n (1-based indices)."""
    if not 1 <= g.i <= n:
        raise ValueError(f"index i={g.i} out of range 1..{n}")
    if g.is_constant:
        b = np.zeros(n)
        b[g.i - 1] = 1.0
        return AffineField(np.zeros((n, n)), b)
    if not 1 <= g.j <= n:
        raise ValueError(f"index j={g.j} out of range 1..{n}")
    c = np.zeros((n, n))
    c[g.i - 1, g.j - 1] = 1.0
    return AffineField(c, np.zeros(n))


def constant_generator(i: int, n: int) -> AffineField:
    return generator(GeneratorIndex(i), n)


def linear_generator(i: int, j: int, n: int) -> AffineField:
    return generator(GeneratorIndex(i, j), n)


def all_generators(n: int) -> list[tuple[GeneratorIndex, AffineField]]:
    """The n constant generators followed by the n^2 linear ones (row-major)."""
    out = [(GeneratorIndex(i), generator(GeneratorIndex(i), n)) for i in range(1, n + 1)]
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            out.append((GeneratorIndex(i, j), generator(GeneratorIndex(i, j), n)))
    return out


def linear_change(field: AffineField, a) -> AffineField:
    """Rewrite the field in linearly changed coordinates v = a u.

    The matrix part transforms by conjugation a C a^-1 and the vector part
    by a B, so that evaluating the new field at a x equals a times the old
    field at x.
    """
    m = as_matrix(a, "change matrix")
    if m.shape != (field.n, field.n):
        raise ValueError(f"change matrix must be {field.n} x {field.n}, got {m.shape}")
    if rank(m) < field.n:
        raise ValueError("change matrix is singular")
    inv = np.linalg.inv(m)
    return AffineField(m @ field.C @ inv, m @ field.B)
