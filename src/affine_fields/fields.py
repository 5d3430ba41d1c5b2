"""Constant, linear, and affine vector fields on R^n.

A field X(x) = C x + B is stored as its homogeneous generator [[C, B], [0, 0]],
so brackets are commutators and linear coordinate changes are conjugations.
Constant fields have C = 0, linear fields have B = 0, and each basis field is
a matrix unit of the generator (generator_unit).  Indices in the public
generator API are 1-based.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import _real, augment_affine, as_matrix, as_vector, rank

CONSTANT = "constant"
LINEAR = "linear"
AFFINE = "affine"


class MatrixValue:
    """Exact value equality for the frozen array-backed values of this
    package: equal when of the same type with equal ``_parts``, arrays of
    the same shape and entries, and hashed alike (-0.0 hashes as 0.0, as it
    compares).  A subclass is a dataclass with eq=False, so that these
    methods hold."""

    def _parts(self) -> tuple:
        return (self.matrix,)

    def _key(self) -> tuple:
        # a + 0.0 turns -0.0 into 0.0, so equal entries have equal bytes.
        return tuple((p.shape, (p + 0.0).tobytes()) if isinstance(p, np.ndarray)
                     else p for p in self._parts())

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash((type(self), self._key()))


@dataclass(frozen=True, init=False, eq=False)
class AffineField(MatrixValue):
    """Vector field x -> C x + B, stored as the matrix [[C, B], [0, 0]]."""

    matrix: np.ndarray

    def __init__(self, C, B):
        m = augment_affine(C, B)
        if len(m) == 1:
            raise ValueError("field dimension must be at least 1")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    def __reduce__(self):
        # Rebuilt by the constructor, so an unpickled matrix is frozen too.
        return AffineField, (self.C, self.B)

    @property
    def n(self) -> int:
        return self.matrix.shape[0] - 1

    @property
    def C(self) -> np.ndarray:
        """Matrix part, a read-only view."""
        return self.matrix[:-1, :-1]

    @property
    def B(self) -> np.ndarray:
        """Vector part, a read-only view."""
        return self.matrix[:-1, -1]

    def classify(self) -> str:
        """One of "constant", "linear", "affine"; the zero field is constant.

        Parts are compared with zero exactly, as make_flow does: a field
        with C = [[1e-15]] is not constant, and it does not flow like one.
        """
        if not self.C.any():
            return CONSTANT
        return AFFINE if self.B.any() else LINEAR

    def is_zero(self) -> bool:
        return not self.matrix.any()

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


def _of_generator(m: np.ndarray) -> AffineField:
    """The field whose generator is m (bottom row zero)."""
    return AffineField(m[:-1, :-1], m[:-1, -1])


def constant_field(b) -> AffineField:
    v = as_vector(b)
    return AffineField(np.zeros((v.size, v.size)), v)


def linear_field(c) -> AffineField:
    m = as_matrix(c)
    return AffineField(m, np.zeros(m.shape[0]))


def zero_field(n: int) -> AffineField:
    return AffineField(np.zeros((n, n)), np.zeros(n))


def evaluate(field: AffineField, x) -> np.ndarray:
    """Component vector C x + B of the field at the finite point x."""
    return field.C @ _real(x, "point", field.n, "field") + field.B


def evaluate_many(field: AffineField, points) -> np.ndarray:
    """Row-wise evaluate: finite points of shape (k, n) map to (k, n)
    components."""
    p = _real(points, "point", field.n, "field", stack=True)
    if p.ndim != 2:
        raise ValueError(f"points must have shape (k, {field.n})")
    return p @ field.C.T + field.B


def bracket(x: AffineField, y: AffineField) -> AffineField:
    """Lie bracket [X, Y] with the convention [X, Y](f) = X(Y(f)) - Y(X(f)).

    For affine fields the bracket is again affine: its generator is the
    commutator G_Y G_X - G_X G_Y, with matrix part C_Y C_X - C_X C_Y and
    vector part C_Y B_X - C_X B_Y.
    """
    if x.n != y.n:
        raise ValueError(f"dimension mismatch: {x.n} vs {y.n}")
    return _of_generator(_commutator(x.matrix, y.matrix))


def _commutator(gx, gy) -> np.ndarray:
    """G_Y G_X - G_X G_Y of two generators, or row by row of two stacks."""
    return gy @ gx - gx @ gy


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


def generator_unit(g: GeneratorIndex, n: int) -> tuple[int, int]:
    """0-based (row, column) of a label's matrix unit on R^n: (i, j) for
    u^j d/du^i, and (i, n + 1), the column of B, for d/du^i."""
    if not 1 <= g.i <= n:
        raise ValueError(f"index i={g.i} out of range 1..{n}")
    if not (g.is_constant or 1 <= g.j <= n):
        raise ValueError(f"index j={g.j} out of range 1..{n}")
    return g.i - 1, n if g.is_constant else g.j - 1


def generator(g: GeneratorIndex, n: int) -> AffineField:
    """Realize a generator label as a field on R^n: its matrix unit."""
    m = np.zeros((n + 1, n + 1))
    m[generator_unit(g, n)] = 1.0
    return _of_generator(m)


def constant_generator(i: int, n: int) -> AffineField:
    return generator(GeneratorIndex(i), n)


def linear_generator(i: int, j: int, n: int) -> AffineField:
    return generator(GeneratorIndex(i, j), n)


def all_generators(n: int) -> list[tuple[GeneratorIndex, AffineField]]:
    """The n constant generators followed by the n^2 linear ones (row-major)."""
    labels = [GeneratorIndex(i) for i in range(1, n + 1)]
    labels += [GeneratorIndex(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
    return [(g, generator(g, n)) for g in labels]


def linear_change(field: AffineField, a) -> AffineField:
    """Rewrite the field in linearly changed coordinates v = a u.

    The generator transforms by conjugation with A = [[a, 0], [0, 1]]: the
    matrix part becomes a C a^-1 and the vector part a B, so that evaluating
    the new field at a x equals a times the old field at x.
    """
    m = as_matrix(a, "change matrix")
    if m.shape != (field.n, field.n):
        raise ValueError(f"change matrix must be {field.n} x {field.n}, got {m.shape}")
    if rank(m) < field.n:
        raise ValueError("change matrix is singular")
    lift = np.eye(field.n + 1)
    lift[:-1, :-1] = m
    return _of_generator(lift @ field.matrix @ np.linalg.inv(lift))
