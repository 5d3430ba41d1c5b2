"""Lie group elements, actions on R^n, and fundamental vector fields.

Three groups are covered, all in the homogeneous embedding of the general
affine group GA(n): an element is the (n+1) x (n+1) matrix [[a, t], [0, 1]],
so multiplication, inversion and the exponential are those of matrices
((a1, t1)(a2, t2) = (a1 a2, a1 t2 + t1)), and an element is only its matrix.
A tangent vector X at the identity is its generator [[X_mat, X_vec], [0, 0]],
stored as the AffineField of that matrix.  The translation group and the
general linear group are subgroups of GA(n), and one table, _SUBGROUPS,
decides membership in them and in their Lie algebras: the block that the
algebra holds at exactly zero, X_mat for translations and X_vec for
general-linear, must be zero in X for a generator and in g - I for an
element.  So the groups and algebras are nested, and an action takes every
element and generator of its group, whatever built it.

A fixed catalog of left actions is implemented, one record per variant in
VARIANTS; the three standard ones share the act a x + t and differ in group:

* standard-linear        (a, x)      -> a x       (t = 0)
* standard-translation   (t, x)      -> x + t     (a = I)
* standard-affine        ((a, t), x) -> a x + t
* exp-translation        (t, x)      -> x * exp(s . t)   for a fixed weight s
* det-weighted           (a, x)      -> a x (det a)^q    for a fixed power q

Any of these can carry a chart, which makes it local: it then acts by
chart.inverse o act o chart.forward.  Each variant has one act, on a stack
of element matrices and a stack of points, and each row of its result is bit
for bit the act of that row alone: ``act`` applies it to one element,
check_action_axioms to a block of samples at a time, and the difference
quotients below to every perturbed identity and point at once.  The
fundamental field of X at x, the derivative of g -> act(g, x) at the
identity contracted with X, is computed both by central differences along
the nonzero entries of X, with the fixed step FD_STEP, for a stack of
generators at once, and from the per-variant closed forms; the two must
agree.  For the three standard actions it is the field X itself.  Every
action here is a left action, and nothing in the module takes a tolerance
or a step as an argument.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable

import numpy as np

from .charts import Chart
from .fields import AffineField, MatrixValue, _of_generator, evaluate
from .flows import ORBIT_BLOCK_ENTRIES
from .invariants import FD_STEP
from .linalg import (_affine, _dots, _eye, _generator, _norms, _real, as_integer, as_vector,
                     augment_affine, mat_exp)

TRANSLATION_GROUP = "translation"
GENERAL_LINEAR = "general-linear"
GENERAL_AFFINE = "general-affine"

_KINDS = (TRANSLATION_GROUP, GENERAL_LINEAR, GENERAL_AFFINE)

STANDARD_LINEAR = "standard-linear"
STANDARD_TRANSLATION = "standard-translation"
STANDARD_AFFINE = "standard-affine"
EXP_TRANSLATION = "exp-translation"
DET_WEIGHTED = "det-weighted"

# A matrix part is rejected as singular when its determinant, with every
# column scaled to unit 2-norm, is at most this: |det a| <= 1e-12 prod |a_j|.
# The test does not depend on the scale of the entries.
MIN_SCALED_DET = 1e-12

# Bound on the relative identity and composition defects of an action.
AXIOM_TOL = 1e-9

# An axiom sample's matrix part is redrawn while its |det| is at most this.
MIN_SAMPLE_DET = 1e-6


# Each proper subgroup of GA(n) by the block of the homogeneous matrix that
# its Lie algebra holds at exactly zero, and what that says of a generator
# and of an element: X lies in the algebra when that block of X is zero, g in
# the group when that block of g - I is.  General-affine has no such block.
_SUBGROUPS = {
    TRANSLATION_GROUP: ((..., slice(-1), slice(-1)),
                        "are constant fields (X_mat = 0)", "have matrix part I"),
    GENERAL_LINEAR: ((..., slice(-1), -1),
                     "are linear fields (X_vec = 0)", "have translation part 0"),
}


@dataclass(frozen=True, eq=False)
class GroupElement(MatrixValue):
    """Element [[a, t], [0, 1]] of GA(n); of its translation subgroup when
    a = I, of its general linear one when t = 0 (see _SUBGROUPS)."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.array(_real(self.matrix, "group element", finite="has non-finite entries"),
                      order="C")
        if m.ndim != 2 or m.shape[0] < 2 or m.shape[1] != m.shape[0]:
            raise ValueError(f"group element must be (n+1) x (n+1), got {m.shape}")
        _check_elements(m)
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    @property
    def n(self) -> int:
        return self.matrix.shape[0] - 1

    @property
    def a(self) -> np.ndarray:
        """Matrix part, a read-only view."""
        return self.matrix[:-1, :-1]

    @property
    def t(self) -> np.ndarray:
        """Translation part, a read-only view."""
        return self.matrix[:-1, -1]

    def __reduce__(self):
        # Rebuilt by the constructor, so an unpickled matrix is frozen too.
        return GroupElement, (self.matrix,)


def _check_elements(m: np.ndarray) -> np.ndarray:
    """The finite (..., n+1, n+1) stack m, once it passes GroupElement's
    tests: each bottom row (0, ..., 0, 1) and each matrix part invertible,
    with every column scaled to unit 2-norm (MIN_SCALED_DET)."""
    n = m.shape[-1] - 1
    # count_nonzero is the cheapest exact zero test on small arrays.
    if np.count_nonzero(m[..., n, :] != _eye(n + 1)[n]):
        raise ValueError("group element's bottom row must be (0, ..., 0, 1)")
    a = m[..., :n, :n]
    norms = np.hypot.reduce(a, axis=-2)
    if (np.count_nonzero(norms) < norms.size
            or np.count_nonzero(abs(np.linalg.det(a / norms[..., None, :])) <= MIN_SCALED_DET)):
        raise ValueError("matrix part is singular")
    return m


def affine_element(a, t) -> GroupElement:
    """The element [[a, t], [0, 1]]."""
    m = augment_affine(a, t)
    m[-1, -1] = 1.0
    return GroupElement(m)


def translation_element(t) -> GroupElement:
    return affine_element(np.eye(np.size(t)), t)


def linear_element(a) -> GroupElement:
    return affine_element(a, np.zeros(np.shape(a)[:1]))


def identity_element(n: int) -> GroupElement:
    return GroupElement(np.eye(n + 1))


def multiply(g: GroupElement, h: GroupElement) -> GroupElement:
    """Group product g h (for the affine group: (a1 a2, a1 t2 + t1)); the
    product of matrices raises ValueError when the dimensions differ."""
    return GroupElement(g.matrix @ h.matrix)


def inverse(g: GroupElement) -> GroupElement:
    return GroupElement(np.linalg.inv(g.matrix))


def _member(kind: str, m: np.ndarray, n: int, element: bool = False) -> np.ndarray:
    """The generator matrix m, or with ``element`` the element matrix m, or a
    (..., n+1, n+1) stack of either, once it acts on R^n and lies in the Lie
    algebra, or the group, of the ``kind`` group (_SUBGROUPS)."""
    what = "element" if element else "generator"
    if m.shape[-1] != n + 1:
        raise ValueError(f"{what} dimension {m.shape[-1] - 1} differs from action's {n}")
    if kind in _SUBGROUPS:
        block, of_generators, of_elements = _SUBGROUPS[kind]
        if np.count_nonzero((m - _eye(n + 1) if element else m)[block]):
            raise ValueError(f"{kind} {what}s {of_elements if element else of_generators}")
    return m


def TangentAtIdentity(kind: str, X_mat, X_vec) -> AffineField:
    """The tangent at the identity of the ``kind`` group with matrix
    components X_mat and translation components X_vec: its generator
    [[X_mat, X_vec], [0, 0]], the AffineField(X_mat, X_vec)."""
    if kind not in _KINDS:
        raise ValueError(f"unknown group kind {kind!r}")
    X = AffineField(X_mat, X_vec)
    _member(kind, X.matrix, X.n)
    return X


# The acts of VARIANTS take a (..., n+1, n+1) stack of homogeneous matrices
# and (..., n) points, and round as a lone element's would: a x + t by
# _affine, s . t by _dots, a x as a stack of matrix-vector products, and
# (det a)^q by np.float_power (numpy's ** on an array may differ from it).
def _exp_translation_act(action, m, p) -> np.ndarray:
    return p * np.exp(_dots(m[..., :-1, -1], action.s))[..., None]


def _det_weighted_act(action, m, p) -> np.ndarray:
    a = m[..., :-1, :-1]
    weight = np.float_power(np.linalg.det(a), action.q)
    return (a @ p[..., None])[..., 0] * weight[..., None]


# The field and tangent maps of VARIANTS round each row of a stack as that
# generator alone: X_vec . s by _dots, each trace as np.trace of one matrix.
def _linear(c: np.ndarray) -> np.ndarray:
    """Generators [[C, 0], [0, 0]] of a (..., n, n) stack of matrix parts."""
    return _generator(c, np.zeros(c.shape[:-1]))


def _trace_shifted(g, w, n: int) -> np.ndarray:
    c = g[..., :-1, :-1]  # C + w trace(C) I
    return _linear(c + (w * np.trace(c, axis1=-2, axis2=-1))[..., None, None] * _eye(n))


def _exp_translation_field(action, g) -> np.ndarray:
    return _linear(_dots(g[..., :-1, -1], action.s)[..., None, None] * _eye(action.n))


def _exp_translation_tangent(action, g) -> np.ndarray:
    # Each field must be an isotropic scaling c I, to 1e-10 of its largest entry;
    # any X_vec with X_vec . s = c works, and the returned one is c s / (s . s).
    n = action.n
    c = _member(GENERAL_LINEAR, g, n)[..., :-1, :-1]
    rate = np.trace(c, axis1=-2, axis2=-1) / n
    spread = np.abs(c - rate[..., None, None] * _eye(n)).max(axis=(-2, -1))
    if (spread > 1e-10 * np.abs(c).max(axis=(-2, -1))).any():
        raise ValueError("exp-translation fundamental fields are isotropic scalings")
    ss = float(np.dot(action.s, action.s))
    if ss == 0.0 and rate.any():
        raise ValueError("weight vector is zero; only the zero field is reachable")
    b = (rate / (ss or 1.0))[..., None] * action.s  # with s = 0 every rate is 0
    return _generator(0.0, np.where(rate[..., None] == 0.0, 0.0, b))


def _det_weighted_tangent(action, g) -> np.ndarray:
    # Removes the trace feedback: X_mat = C - q / (1 + q n) trace(C) I, as
    # C + (-(q / (1 + q n)) trace(C)) I, which rounds alike.
    n, q = action.n, action.q
    return _trace_shifted(_member(GENERAL_LINEAR, g, n), -(q / (1.0 + q * n)), n)


@dataclass(frozen=True)
class VariantRecord:
    """One action variant: its group, its act, the closed-form fundamental
    field of a generator X in the group's algebra, the generator recovered
    from a field, and the parameter the variant takes ("s", "q" or None).
    The act takes the homogeneous matrices [[a, t], [0, 1]] of elements as a
    (..., n+1, n+1) stack and points of R^n as (..., n), broadcast against
    each other, and returns the (..., n) images without checking either.
    The field and tangent maps take a (..., n+1, n+1) stack of generators
    and return the generators [[C, B], [0, 0]] of their images; only the
    tangent map checks its stack, as tangent_for_field does.  For the three
    standard actions both return their stack itself: the fundamental field
    of X is the field X."""

    kind: str
    act: Callable[["GroupAction", np.ndarray, np.ndarray], np.ndarray]
    field: Callable[["GroupAction", np.ndarray], np.ndarray]
    tangent: Callable[["GroupAction", np.ndarray], np.ndarray]
    param: str | None = None


def _standard_record(kind: str) -> VariantRecord:
    return VariantRecord(
        kind,
        lambda action, m, p: _affine(m, p),
        field=lambda action, g: g,
        tangent=lambda action, g: _member(action.group_kind, g, action.n),
    )


VARIANTS = {
    STANDARD_LINEAR: _standard_record(GENERAL_LINEAR),
    STANDARD_TRANSLATION: _standard_record(TRANSLATION_GROUP),
    STANDARD_AFFINE: _standard_record(GENERAL_AFFINE),
    EXP_TRANSLATION: VariantRecord(
        TRANSLATION_GROUP,
        act=_exp_translation_act,
        field=_exp_translation_field,
        tangent=_exp_translation_tangent,
        param="s",
    ),
    DET_WEIGHTED: VariantRecord(
        GENERAL_LINEAR,
        act=_det_weighted_act,
        field=lambda action, g: _trace_shifted(g, action.q, action.n),
        tangent=_det_weighted_tangent,
        param="q",
    ),
}

CATALOG_VARIANTS = tuple(VARIANTS)


@dataclass(frozen=True, eq=False)
class GroupAction(MatrixValue):
    """A named left action from the catalog; with a chart it is local and
    acts by chart.inverse o act o chart.forward.  Two actions are equal when
    their variant, n, s, q and chart are."""

    variant: str
    n: int
    s: np.ndarray | None = None
    q: int | None = None
    chart: Chart | None = None

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown action variant {self.variant!r}")
        object.__setattr__(self, "n", as_integer(self.n, "action dimension n", 1))
        if self.chart is not None and self.chart.n != self.n:
            raise ValueError("chart and action dimensions differ")
        param = VARIANTS[self.variant].param
        if param == "s":
            s = np.array(_real(self.s, "weight vector", self.n,
                               finite="has non-finite entries"))
            s.flags.writeable = False
            object.__setattr__(self, "s", s)
        elif self.s is not None:
            raise ValueError(f"variant {self.variant!r} takes no weight vector")
        if param == "q":
            object.__setattr__(self, "q", as_integer(self.q, "det-weighted power q", 0))
        elif self.q is not None:
            raise ValueError(f"variant {self.variant!r} takes no power q")

    def _parts(self) -> tuple:
        return self.variant, self.n, self.s, self.q, self.chart

    @property
    def group_kind(self) -> str:
        return VARIANTS[self.variant].kind

    def describe(self) -> str:
        param = VARIANTS[self.variant].param
        name = self.variant
        if param is not None:
            name += f"({param}={np.asarray(getattr(self, param)).tolist()})"
        return name if self.chart is None else f"{name} via chart {self.chart.name!r}"


def standard_linear_action(n: int) -> GroupAction:
    return GroupAction(STANDARD_LINEAR, n)


def standard_translation_action(n: int) -> GroupAction:
    return GroupAction(STANDARD_TRANSLATION, n)


def standard_affine_action(n: int) -> GroupAction:
    return GroupAction(STANDARD_AFFINE, n)


def exp_translation_action(s) -> GroupAction:
    s = as_vector(s)
    return GroupAction(EXP_TRANSLATION, s.size, s=s)


def det_weighted_action(n: int, q: int) -> GroupAction:
    return GroupAction(DET_WEIGHTED, n, q=q)


def chart_conjugated_action(base: GroupAction, chart: Chart) -> GroupAction:
    """The catalog action ``base`` made local by ``chart``."""
    if base.chart is not None:
        raise ValueError("base action must not itself be chart-conjugated")
    return replace(base, chart=chart)


def _act(action: GroupAction, m: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The variant's act of the element matrices m, (..., n+1, n+1), on the
    points x, (..., n), through the action's chart, with act's checks of
    the points and of the images.  A message that names a point or value
    names the first failing one."""
    chart = action.chart
    if chart is not None:
        x = chart.forward(chart.require(x))
    with np.errstate(over="ignore", invalid="ignore"):
        image = VARIANTS[action.variant].act(
            action, m, _real(x, "point", action.n, "action", stack=True))
    if not np.isfinite(image).all():
        raise OverflowError(f"image under {action.describe()} is not finite")
    return image if chart is None else chart.inverse(image)


def act(action: GroupAction, g: GroupElement, x) -> np.ndarray:
    """Apply the left action of g, any element of the action's group, to
    the point x (in chart coordinates when the action has a chart): the
    variant's act on one element and one point.

    Raises OverflowError when the image, before any chart, is not finite.
    """
    _member(action.group_kind, g.matrix, action.n, element=True)
    return _act(action, g.matrix, np.ravel(x))


@lru_cache(maxsize=16)
def _perturbed_identities(n: int, support: bytes) -> tuple:
    """(rows, cols, m): the row-major positions of the P entries flagged in
    the (n+1) x (n+1) boolean mask ``support``, and the read-only
    (2, P, 1, n+1, n+1) identities plus, then minus, FD_STEP at each."""
    rows, cols = np.nonzero(np.frombuffer(support, dtype=bool).reshape(n + 1, n + 1))
    m = np.tile(_eye(n + 1), (2, len(rows), 1, 1, 1))
    m[:, np.arange(len(rows)), 0, rows, cols] += [[FD_STEP], [-FD_STEP]]
    for a in (rows, cols, m):
        a.flags.writeable = False
    return rows, cols, m


def _fundamental_rows(action: GroupAction, g: np.ndarray, x: np.ndarray) -> np.ndarray:
    """fundamental_field_numeric of each generator of the (k, n+1, n+1) stack
    g, in the algebra of the action's group, at its row of the (k, n) points
    x: the identities perturbed along the P entries nonzero in any generator
    act on all k points in one call, and each row sums, from +0.0 and in
    row-major order, its entries times the difference quotients.  An entry
    zero in a row adds +-0.0, which leaves the sum as it is, so every row is
    bit for bit its generator's alone.  Raises OverflowError when an image
    is not finite, that of an entry padded into a row included."""
    rows, cols, m = _perturbed_identities(action.n, g.any(axis=0).tobytes())
    images = _act(action, m, x)
    terms = np.zeros((len(rows) + 1,) + x.shape)  # terms[0]: the +0.0 each sum starts from
    terms[1:] = g[:, rows, cols].T[..., None] * (images[0] - images[1]) / (2.0 * FD_STEP)
    return np.add.accumulate(terms)[-1]


def fundamental_field_numeric(
    action: GroupAction, tangent: AffineField, x
) -> np.ndarray:
    """Fundamental vector at x by central differences along group coordinates.

    Differentiates g -> act(g, x) at the identity along each nonzero entry
    of the generator [[X_mat, X_vec], [0, 0]] (row-major: matrix entries,
    then the translation entry, row by row) with step FD_STEP and contracts
    with those entries, summed in that order.  The generator must lie in the
    algebra of the action's group, so perturbing the identity by FD_STEP
    along one of its entries cannot leave the group, and the stack of the
    2 nnz perturbed matrices is acted on in one call, without the checks of
    GroupElement's constructor; the point is checked, and taken through the
    chart, once, as act does.  It is _fundamental_rows on a stack of one.
    Raises OverflowError when an image is not finite.
    """
    _member(action.group_kind, tangent.matrix, action.n)
    return _fundamental_rows(action, tangent.matrix[None], np.ravel(x)[None])[0]


def fundamental_field_analytic(
    action: GroupAction, tangent: AffineField
) -> AffineField:
    """Closed-form fundamental field of a catalog action for the generator
    X = [[X_mat, X_vec], [0, 0]] in the algebra of its group.

    The three standard actions return X itself: a constant field for
    standard-translation, a linear one for standard-linear and any affine
    one for standard-affine.  exp-translation gives C = (X_vec . s) I and
    det-weighted C = X_mat + q trace(X_mat) I.  An action with a chart
    has no ambient closed form; see fundamental_field_chart.
    """
    m = _member(action.group_kind, tangent.matrix, action.n)
    if action.chart is not None:
        raise ValueError(f"no ambient closed form for {action.describe()}")
    field = VARIANTS[action.variant].field(action, m)
    return tangent if field is m else _of_generator(field)


def fundamental_field_chart(
    action: GroupAction, tangent: AffineField, x
) -> np.ndarray:
    """Fundamental vector of an action with a chart, in ambient components.

    In the chart frame the field is the closed form of the action without
    its chart, evaluated at the chart coordinates of x; the ambient
    components follow by solving against the chart's forward Jacobian.
    """
    chart = action.chart
    if chart is None:
        raise ValueError("fundamental_field_chart needs an action with a chart")
    p = chart.require(x)
    base_field = fundamental_field_analytic(replace(action, chart=None), tangent)
    chart_components = evaluate(base_field, chart.forward(p))
    return np.linalg.solve(chart.jacobian(p), chart_components)


def tangent_for_field(action: GroupAction, field: AffineField) -> AffineField:
    """Generator whose fundamental field under the action is the field.

    This is the constructive direction of the bijections between field
    classes and fundamental fields: for standard-linear, -translation and
    -affine the generator is the field itself, once it is linear, constant
    or affine.  Zero parts are tested exactly.  For the det-weighted action
    the matrix part is recovered by removing the trace feedback,
    X_mat = C - q / (1 + q n) trace(C) I; for exp-translation the field
    must be an isotropic scaling c I and any X_vec with X_vec . s = c works
    (the returned one is c s / (s . s)).
    """
    if action.chart is not None:
        raise ValueError(f"no tangent recovery for {action.describe()}")
    m = VARIANTS[action.variant].tangent(action, field.matrix)
    return field if m is field.matrix else _of_generator(m)


def one_parameter_subgroup(
    action: GroupAction, tangent: AffineField, t: float
) -> GroupElement:
    """exp(t X) in the action's group; the orbit map t -> act(exp(t X), x)
    is the flow of the fundamental field through x.

    Raises OverflowError when t X or exp(t X) is not representable in
    floats, and ValueError for a non-finite t.
    """
    _member(action.group_kind, tangent.matrix, action.n)
    t = _real(t, "t").item()
    with np.errstate(over="ignore"):
        scaled = t * tangent.matrix
    if not np.isfinite(scaled).all():
        raise OverflowError(f"time-{t!r} generator overflows")
    return GroupElement(mat_exp(scaled))


def _sample_scale(action: GroupAction) -> float:
    """Half-width of the entries drawn for an axiom sample's element: actions
    with a chart are only local, so their elements stay close to the
    identity; global actions use a wider spread."""
    return 0.35 if action.chart is None else 0.05


def _random_matrix(action: GroupAction, rng: np.random.Generator) -> np.ndarray:
    """Matrix of a random element for axiom sampling.

    The translation part is drawn before the matrix part, each entry from
    +-_sample_scale, and the matrix part I + U is redrawn while its |det| is
    at most MIN_SAMPLE_DET.
    """
    scale = _sample_scale(action)
    kind = action.group_kind
    n = action.n
    m = np.eye(n + 1)
    if kind != GENERAL_LINEAR:
        m[:n, n] = rng.uniform(-scale, scale, size=n)
    if kind != TRANSLATION_GROUP:
        for _ in range(100):
            a = m[:n, :n] + rng.uniform(-scale, scale, size=(n, n))
            if abs(np.linalg.det(a)) > MIN_SAMPLE_DET:
                break
        else:  # pragma: no cover - a tiny perturbation of I is invertible
            raise RuntimeError("failed to sample an invertible matrix")
        m[:n, :n] = a
    return m


def _random_samples(action: GroupAction, rng: np.random.Generator, k: int) -> tuple:
    """(x, g) of k axiom samples, the (k, n) points and the (2, k, n+1, n+1)
    matrices of g1 and g2, bit for bit as k rounds of the point (+-2, or the
    chart's box as Chart.sample draws it), then _random_matrix twice.

    One rng.uniform call with per-position bounds draws the block, each row
    laid out in that order, the doubles of the per-sample calls.  When some
    matrix part would have been redrawn, the generator goes back to the
    block's start and the block is drawn one sample at a time.
    """
    n, kind, chart = action.n, action.group_kind, action.chart
    # Flat positions in an element matrix, in _random_matrix's order: the
    # translation part, then the matrix part row by row.
    drawn = [i * (n + 1) + n for i in range(n)] if kind != GENERAL_LINEAR else []
    if kind != TRANSLATION_GROUP:
        drawn += [i * (n + 1) + j for i in range(n) for j in range(n)]
    scale = np.full(2 * len(drawn), _sample_scale(action))
    low, high = (np.full(n, -2.0), np.full(n, 2.0)) if chart is None else chart.box
    low, high = np.concatenate([low, -scale]), np.concatenate([high, scale])
    state = rng.bit_generator.state
    u = rng.uniform(low, high, size=(k, low.size))
    x, g = u[:, :n], np.tile(_eye(n + 1), (2, k, 1, 1))
    g.reshape(2, k, -1)[..., drawn] += u[:, n:].reshape(k, 2, -1).swapaxes(0, 1)
    if (kind != TRANSLATION_GROUP
            and np.count_nonzero(abs(np.linalg.det(g[..., :n, :n])) <= MIN_SAMPLE_DET)):
        rng.bit_generator.state = state
        for i in range(k):
            x[i] = rng.uniform(-2.0, 2.0, size=n) if chart is None else chart.sample(rng)
            g[:, i] = _random_matrix(action, rng), _random_matrix(action, rng)
    return x, g


@dataclass(frozen=True)
class ActionAxiomReport:
    """Maximum identity and composition defects over sampled triples."""

    action: str
    samples: int
    max_identity_defect: float
    max_composition_defect: float

    @property
    def passed(self) -> bool:
        return (
            self.max_identity_defect <= AXIOM_TOL
            and self.max_composition_defect <= AXIOM_TOL
        )

    def to_dict(self) -> dict:
        return {
            "action": self.action,
            "samples": self.samples,
            "max_identity_defect": self.max_identity_defect,
            "max_composition_defect": self.max_composition_defect,
            "tol": AXIOM_TOL,
            "passed": self.passed,
        }


def check_action_axioms(
    action: GroupAction, samples: int, seed: int = 0
) -> ActionAxiomReport:
    """Sample (g1, g2, x) triples and measure the defects of act(e, x) = x
    and act(g1 g2, x) = act(g1, act(g2, x)), relative to 1 + |x|; both must
    be at most AXIOM_TOL.

    ``samples`` is an int or numpy integer >= 1, not a bool.  Each sample
    draws x, then g1, then g2.  The samples go in blocks of at most
    ORBIT_BLOCK_ENTRIES matrix entries per element stack.  A block is drawn
    in one rng.uniform call, with the same doubles in the same order as one
    sample at a time (_random_samples); only when some matrix part of the
    block has |det| <= MIN_SAMPLE_DET, which one sample at a time would
    redraw, is the block drawn again from its start by _random_matrix.  In
    a block each act is one call on the stack: e, then g1 g2, then g2, then
    g1.  A failure raises what act, multiply or GroupElement would raise on
    the failing sample.  When several samples fail, the first block with a
    failure raises, and in it the first failing check in this order: g1 and
    g2 as elements, the act of e, g1 g2 as an element, the acts of g1 g2,
    g2 and g1, each with the first failing sample where the message names a
    point or value.  ``seed`` is an int or numpy integer >= 0, not a bool.
    """
    samples = as_integer(samples, "samples", 1)
    rng = np.random.default_rng(as_integer(seed, "seed", 0))
    kind, n = action.group_kind, action.n
    size = max(1, ORBIT_BLOCK_ENTRIES // (n + 1) ** 2)
    max_id = 0.0
    max_comp = 0.0
    for lo in range(0, samples, size):
        k = min(size, samples - lo)
        x, g = _random_samples(action, rng, k)
        g1, g2 = _member(kind, _check_elements(g), n, element=True)
        scale = 1.0 + _norms(x)
        max_id = max(max_id, float(np.max(_norms(_act(action, _eye(n + 1), x) - x) / scale)))
        with np.errstate(over="ignore", invalid="ignore"):
            product = _member(kind, _check_elements(
                _real(g1 @ g2, "group element", finite="has non-finite entries")), n, element=True)
        direct = _act(action, product, x)
        chained = _act(action, g1, _act(action, g2, x))
        max_comp = max(max_comp, float(np.max(_norms(direct - chained) / scale)))
    return ActionAxiomReport(
        action=action.describe(),
        samples=samples,
        max_identity_defect=max_id,
        max_composition_defect=max_comp,
    )
