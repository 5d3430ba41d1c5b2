"""Canonical parameters and invariants of vector fields.

A canonical parameter S satisfies X(S) = 1 and an invariant I satisfies
X(I) = 0, where X(f) is the directional derivative of f along the field.
The module constructs these functions for constant fields and for a worked
planar affine family, and numerically verifies user-supplied candidates.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from typing import Callable, Sequence

import numpy as np

from .fields import AffineField, evaluate
from .linalg import _affine, _dots, _norms, _rank_of, _real, as_integer, as_vector, rank

# Step of the central differences here and in fundamental_field_numeric.
FD_STEP = 1e-6

# Sample points where the field's norm is below this count as irregular.
IRREGULAR_NORM = 1e-3


class DegenerateFieldError(ValueError):
    """The zero field admits no canonical parameter: X(S) = 1 is unsatisfiable."""


@dataclass(frozen=True)
class ScalarField:
    """Smooth function R^n -> R with an optional analytic gradient.

    When ``grad`` is omitted, gradients fall back to central finite
    differences with per-coordinate step FD_STEP * (1 + |x_i|).

    The fn and grad of the package's own functions (constant_field_bundle's
    and planar_affine_family's) also take a (k, n) stack of points, bit for
    bit row by row, and verify_bundle and validation call them so.  An F or
    G of constant_field_bundle is then called once per row (or perturbed
    row) and its results stacked after the calls, so it must return a fresh
    value on each call.
    """

    n: int
    fn: Callable[[np.ndarray], float]
    grad: Callable[[np.ndarray], np.ndarray] | None = None
    _stack: bool = dataclass_field(default=False, init=False, repr=False, compare=False)

    def value(self, x) -> float:
        p = _real(x, "point", self.n, finite=None)
        return _real(self.fn(p), "value", finite=None).item()

    def gradient(self, x) -> np.ndarray:
        p = _real(x, "point", self.n, finite=None)
        if self.grad is not None:
            return _real(self.grad(p), "gradient", finite=None).reshape(-1)
        return _differences(self.fn, p[None])[0]


def _stacked(n: int, fn, grad) -> ScalarField:
    """A ScalarField whose fn and grad also take a (k, n) stack of points."""
    f = ScalarField(n, fn, grad)
    object.__setattr__(f, "_stack", True)
    return f


def _differences(fn, points: np.ndarray) -> np.ndarray:
    """Central differences (fn(x + h_i e_i) - fn(x - h_i e_i)) / 2 h_i, h_i =
    FD_STEP (1 + |x_i|), at each row x of the (k, n) ``points``, fn called
    at x + h_1 e_1, x - h_1 e_1, x + h_2 e_2, ..., row after row."""
    k, n = points.shape
    h = FD_STEP * (1.0 + np.abs(points))
    # Each point 2n times, x + h_i e_i at flat offset i (2n + 1) of its rows.
    moved = np.repeat(points, 2 * n, axis=0)
    moved.reshape(k, 2 * n * n)[:, :: 2 * n + 1] += h
    moved.reshape(k, 2 * n * n)[:, n :: 2 * n + 1] -= h
    f = np.asarray([fn(x) for x in moved]).reshape(k, n, 2)
    return (f[..., 0] - f[..., 1]) / (2.0 * h)


def _values(f: ScalarField, points: np.ndarray) -> np.ndarray:
    """f at each row of the (k, n) stack ``points`` (at a 1-D point,
    ``f.value`` itself), bit for bit ``f.value`` row by row: one fn call for
    the package's functions, else one per row, coerced once.  An exception
    or a result of the wrong size redoes the ``f.value`` calls, which raise
    the first failing row's error."""
    if points.ndim == 1:
        return f.value(points)
    try:
        out = f.fn(points) if f._stack else _real([f.fn(x) for x in points], "value", finite=None)
        return out.reshape(len(points))
    except Exception:
        return np.array([f.value(x) for x in points])


def _gradients(f: ScalarField, points: np.ndarray) -> np.ndarray:
    """``_values`` for ``f.gradient``; without grad, the central differences
    of the whole stack."""
    if points.ndim == 1:
        return f.gradient(points)
    try:
        if f._stack:
            out = f.grad(points)
        elif f.grad is not None:
            out = [f.grad(x) for x in points]
        else:
            out = _differences(f.fn, points)
        return _real(out, "gradient", finite=None).reshape(len(points), f.n)
    except Exception:
        return np.array([f.gradient(x) for x in points])


def directional_derivative(field: AffineField, f: ScalarField, x) -> float:
    """X(f) at x: the gradient of f contracted with the field's components."""
    if f.n != field.n:
        raise ValueError(f"scalar field on R^{f.n}, vector field on R^{field.n}")
    return float(np.dot(f.gradient(x), evaluate(field, x)))


@dataclass(frozen=True)
class InvariantBundle:
    """A field with a canonical parameter and up to n - 1 invariants."""

    field: AffineField
    S: ScalarField
    invariants: tuple[ScalarField, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "invariants", tuple(self.invariants))
        n = self.field.n
        if self.S.n != n or any(f.n != n for f in self.invariants):
            raise ValueError("bundle functions must live on the field's space")
        if len(self.invariants) > max(n - 1, 0):
            raise ValueError(f"at most {n - 1} invariants for dimension {n}")


def _zero_scalar(n: int) -> ScalarField:
    return _stacked(n, lambda p: np.zeros(p.shape[:-1]), lambda p: np.zeros(p.shape))


def constant_field_bundle(
    b, F: ScalarField | None = None, G: ScalarField | Sequence[ScalarField] | None = None
) -> InvariantBundle:
    """Canonical parameter and invariants of the constant field with components b.

    With pivot component b_p (the first coordinate, or the largest |b_i|
    when the first vanishes), the combinations xi_k = x_k - x_p b_k / b_p
    for k != p are invariants and x_p / b_p is a canonical parameter.  Any
    C^1 reshaping F of the xi's may be added to the parameter, and each
    supplied G composes with the xi's to give an invariant.  Coordinates
    whose b_k vanishes enter the xi's untouched.
    """
    vec = as_vector(b, "vector part")
    n = vec.size
    if n == 0:
        raise DegenerateFieldError("constant field is zero; no canonical parameter")
    pivot = 0 if vec[0] != 0.0 else int(np.argmax(np.abs(vec)))
    if abs(vec[pivot]) == 0.0:
        raise DegenerateFieldError("constant field is zero; no canonical parameter")
    others = np.array([k for k in range(n) if k != pivot], dtype=np.intp)
    if F is None:
        F = _zero_scalar(n - 1)
    if G is None:
        gs: tuple[ScalarField, ...] = ()
    elif isinstance(G, ScalarField):
        gs = (G,)
    else:
        gs = tuple(G)
    if F.n != n - 1 or any(g.n != n - 1 for g in gs):
        raise ValueError(f"F and G must live on R^{n - 1}")

    bp = vec[pivot]
    ratios = vec[others] / bp

    def xi(p: np.ndarray) -> np.ndarray:
        return p[..., others] - p[..., pivot, None] * ratios

    def lift_grad(inner_grad: np.ndarray, pivot_term: float) -> np.ndarray:
        g = np.zeros(inner_grad.shape[:-1] + (n,))
        g[..., others] = inner_grad
        g[..., pivot] = pivot_term - _dots(inner_grad, ratios)
        return g

    def make_invariant(g: ScalarField) -> ScalarField:
        return _stacked(n, lambda p: _values(g, xi(p)),
                        lambda p: lift_grad(_gradients(g, xi(p)), 0.0))

    field = AffineField(np.zeros((n, n)), vec)
    s = _stacked(n, lambda p: p[..., pivot] / bp + _values(F, xi(p)),
                 lambda p: lift_grad(_gradients(F, xi(p)), 1.0 / bp))
    return InvariantBundle(field, s, tuple(make_invariant(g) for g in gs))


def planar_affine_family(alpha: float, beta: float, gamma: float):
    """Worked planar family X = alpha d/du + (2 beta u + gamma) d/dv.

    Returns the field together with a verified bundle: canonical parameter
    S = u / alpha and invariant I = alpha v - beta u^2 - gamma u.  Requires
    alpha != 0.  In the (S, I) coordinates the flow is the unit translation
    of the first slot.
    """
    if alpha == 0.0:
        raise ValueError("alpha must be nonzero")
    field = AffineField(
        np.array([[0.0, 0.0], [2.0 * beta, 0.0]]),
        np.array([alpha, gamma]),
    )
    # np.float_power rounds as ** on a numpy float; ** on an array may not.
    s = _stacked(2, lambda p: p[..., 0] / alpha, lambda p: np.full(p.shape, [1.0 / alpha, 0.0]))
    inv = _stacked(
        2,
        lambda p: alpha * p[..., 1] - beta * np.float_power(p[..., 0], 2) - gamma * p[..., 0],
        lambda p: np.stack([-2.0 * beta * p[..., 0] - gamma, np.full(p.shape[:-1], alpha)], -1),
    )
    return field, InvariantBundle(field, s, (inv,))


def bundle_coordinates(bundle: InvariantBundle, x) -> np.ndarray:
    """The point x expressed as (S(x), I_1(x), ..., I_k(x))."""
    return np.array(
        [bundle.S.value(x)] + [f.value(x) for f in bundle.invariants]
    )


def straightened_frame_flow(bundle: InvariantBundle, t: float, coords) -> np.ndarray:
    """Flow in bundle coordinates: the parameter slot shifts by the finite
    t, the invariant slots stay put.  Assumes the bundle passed verification
    with jacobian_ok, i.e. its functions form a local coordinate system."""
    out = _real(coords, "coords", 1 + len(bundle.invariants), finite=None).copy()
    out[0] += _real(t, "t")
    return out


@dataclass(frozen=True)
class VerificationReport:
    """Defect maxima from sampling a bundle against its defining equations."""

    sample_count: int
    tol: float
    max_parameter_defect: float
    invariant_defects: tuple[float, ...]
    jacobian_ok: bool

    @property
    def max_invariant_defect(self) -> float:
        return max(self.invariant_defects, default=0.0)

    @property
    def passed(self) -> bool:
        return (
            self.max_parameter_defect <= self.tol
            and self.max_invariant_defect <= self.tol
            and self.jacobian_ok
        )

    def to_dict(self) -> dict:
        return {
            "sample_count": self.sample_count,
            "tol": self.tol,
            "max_parameter_defect": self.max_parameter_defect,
            "invariant_defects": list(self.invariant_defects),
            "max_invariant_defect": self.max_invariant_defect,
            "jacobian_ok": self.jacobian_ok,
            "passed": self.passed,
        }


def sample_regular_points(
    field: AffineField,
    count: int,
    rng: np.random.Generator,
    box: float = 2.0,
) -> np.ndarray:
    """Uniform samples from [-box, box]^n, skipping points where the field's
    norm is below IRREGULAR_NORM (verification is meaningless at irregular
    points).  The count x n uniforms are one rng.uniform call, the doubles of
    count draws of n; a norm there below IRREGULAR_NORM, the test each point
    of the loop takes, resets the generator and draws one point at a time,
    so the points and the generator's state after are always those of
    one-at-a-time draws."""
    return _regular_points(field, count, rng, box)[0]


def _regular_points(field, count, rng, box):
    """The points and the field's values there, by ``_affine`` as evaluate
    takes them, each point tested alike in the block and in the loop."""
    state = rng.bit_generator.state
    points = rng.uniform(-box, box, size=(count, field.n))
    values = _affine(field.matrix, points)
    if (_norms(values) < IRREGULAR_NORM).any():
        rng.bit_generator.state = state
        produced = attempts = 0
        while produced < count:
            attempts += 1
            if attempts > 1000 * count:
                raise RuntimeError("could not sample away from irregular points")
            x = rng.uniform(-box, box, size=field.n)
            v = _affine(field.matrix, x)
            if not _norms(v) < IRREGULAR_NORM:
                points[produced], values[produced] = x, v
                produced += 1
    return points, values


def verify_bundle(
    bundle: InvariantBundle,
    sample_count: int = 100,
    tol: float = 1e-8,
    box: float = 2.0,
    seed: int = 0,
) -> VerificationReport:
    """Sample the defining equations X(S) = 1 and X(I) = 0 and test that the
    bundle functions have a full-rank Jacobian (a genuine local coordinate
    system needs n independent functions, so bundles with fewer than n - 1
    invariants report jacobian_ok = False).  ``sample_count`` is an int or
    numpy integer >= 1, and ``seed`` one >= 0, neither a bool.

    The package's own functions (see ScalarField) take their gradients at
    all the points in one call, any other one per point, in the per-point
    order and with its errors.  A gradient gives both the defect
    |grad . X(x) - c|, its dot product rounded as np.dot's, and a Jacobian
    row.  One stacked SVD ranks all the Jacobians; a non-finite row is
    refused at its point, as ``rank`` refuses it."""
    sample_count = as_integer(sample_count, "sample_count", 1)
    rng = np.random.default_rng(as_integer(seed, "seed", 0))
    field = bundle.field
    points, values = _regular_points(field, sample_count, rng, box)

    functions = (bundle.S,) + bundle.invariants
    targets = np.array((1.0,) + (0.0,) * len(bundle.invariants))
    jacobians = np.empty((sample_count, len(functions), field.n))
    for j, f in enumerate(functions):
        if f._stack:
            jacobians[:, j] = _gradients(f, points)
    plain = [j for j, f in enumerate(functions) if not f._stack]
    if plain:
        for x, v, rows in zip(points, values, jacobians):
            grads = [functions[j].gradient(x) for j in plain]
            for g in grads:
                np.dot(g, v)  # refuses a wrong length, as the defect's dot product
            rows[plain] = grads
            if not np.isfinite(rows).all():
                rank(rows)
    finite = np.isfinite(jacobians).all(axis=(1, 2))
    if not finite.all():
        rank(jacobians[np.argmin(finite)])
    defects = np.abs(_dots(jacobians, values[:, None]) - targets)
    # fmax skips a NaN defect, as Python's max over the points would.
    worst = np.fmax.reduce(defects, axis=0, initial=0.0).tolist()
    ranks = _rank_of(np.linalg.svd(jacobians, compute_uv=False))
    return VerificationReport(
        sample_count=sample_count,
        tol=tol,
        max_parameter_defect=worst[0],
        invariant_defects=tuple(worst[1:]),
        jacobian_ok=bool((ranks >= field.n).all()),
    )
