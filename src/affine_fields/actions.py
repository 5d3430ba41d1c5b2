"""Lie group elements, actions on R^n, and fundamental vector fields.

Three groups are covered, all in the homogeneous embedding of the general
affine group GA(n): an element is the (n+1) x (n+1) matrix [[a, t], [0, 1]],
so multiplication, inversion and the exponential are those of matrices
((a1, t1)(a2, t2) = (a1 a2, a1 t2 + t1)).  The translation group and the
general linear group are subgroups of GA(n), and an element's kind is a
constraint its constructor checks: a = I exactly for translations, t = 0
exactly for general-linear elements.  A tangent vector X at the identity is
its generator [[X_mat, X_vec], [0, 0]], stored as the AffineField of that
matrix.  The Lie algebras are nested as the groups are: translations have
X_mat = 0, general-linear tangents X_vec = 0, and general-affine ones are any
affine field, so a generator serves every action whose algebra holds it.

A fixed catalog of left actions is implemented, one record per variant in
VARIANTS; the three standard ones share the act a x + t and differ in group:

* standard-linear        (a, x)      -> a x       (t = 0)
* standard-translation   (t, x)      -> x + t     (a = I)
* standard-affine        ((a, t), x) -> a x + t
* exp-translation        (t, x)      -> x * exp(s . t)   for a fixed weight s
* det-weighted           (a, x)      -> a x (det a)^q    for a fixed power q

Any of these can carry a chart, which makes it local: it then acts by
chart.inverse o act o chart.forward.  The fundamental field of X at x is the
derivative of g -> act(g, x) at the identity contracted with X; it is
computed both by central differences along the nonzero entries of X, with
the fixed step FD_STEP, and from the per-variant closed forms, and the two
must agree.  For the three standard actions it is the field X itself.
Every action here is a left action, and nothing in the module takes a
tolerance or a step as an argument.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .charts import Chart
from .fields import AffineField, MatrixValue, constant_field, evaluate, linear_field
from .invariants import FD_STEP
from .linalg import as_matrix, as_vector, augment_affine, mat_exp

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


@dataclass(frozen=True, eq=False)
class GroupElement(MatrixValue):
    """Element [[a, t], [0, 1]] of GA(n), of its translation subgroup
    (a = I) or of its general linear subgroup (t = 0), as ``kind`` says."""

    kind: str
    matrix: np.ndarray

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown group kind {self.kind!r}")
        m = as_matrix(self.matrix, "group element")
        n = m.shape[0] - 1
        if n < 1 or m.shape[1] != n + 1:
            raise ValueError(f"group element must be (n+1) x (n+1), got {m.shape}")
        # count_nonzero is the cheapest exact zero test on small arrays.
        if m[n, n] != 1.0 or np.count_nonzero(m[n, :n]):
            raise ValueError("group element's bottom row must be (0, ..., 0, 1)")
        a = m[:n, :n]
        if self.kind == TRANSLATION_GROUP:
            # a = I: n nonzero entries, and the n diagonal ones equal 1.
            if np.count_nonzero(a) != n or np.count_nonzero(a.diagonal() - 1.0):
                raise ValueError("translation elements have matrix part I")
        else:
            if self.kind == GENERAL_LINEAR and np.count_nonzero(m[:n, n]):
                raise ValueError("general-linear elements have translation part 0")
            norms = np.hypot.reduce(a, axis=0)
            if (np.count_nonzero(norms) < n
                    or abs(np.linalg.det(a / norms)) <= MIN_SCALED_DET):
                raise ValueError("matrix part is singular")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    @property
    def n(self) -> int:
        return self.matrix.shape[0] - 1

    @property
    def a(self) -> np.ndarray:
        """Matrix part, a read-only view (I for translations)."""
        return self.matrix[:-1, :-1]

    @property
    def t(self) -> np.ndarray:
        """Translation part, a read-only view (0 for general-linear)."""
        return self.matrix[:-1, -1]

    def __reduce__(self):
        # Rebuilt by the constructor, so an unpickled matrix is frozen too.
        return GroupElement, (self.kind, self.matrix)


def _element(kind: str, a, t=None) -> GroupElement:
    """The ``kind`` element [[a, t], [0, 1]], with t = 0 when None."""
    a = np.asarray(a, dtype=float)
    m = augment_affine(a, np.zeros(a.shape[:1]) if t is None else t)
    m[-1, -1] = 1.0
    return GroupElement(kind, m)


def translation_element(t) -> GroupElement:
    t = np.asarray(t, dtype=float).reshape(-1)
    return _element(TRANSLATION_GROUP, np.eye(t.size), t)


def linear_element(a) -> GroupElement:
    return _element(GENERAL_LINEAR, a)


def affine_element(a, t) -> GroupElement:
    return _element(GENERAL_AFFINE, a, t)


def identity_element(kind: str, n: int) -> GroupElement:
    return GroupElement(kind, np.eye(n + 1))


def multiply(g: GroupElement, h: GroupElement) -> GroupElement:
    """Group product g h (for the affine group: (a1 a2, a1 t2 + t1))."""
    if g.kind != h.kind:
        raise ValueError(f"cannot multiply {g.kind!r} by {h.kind!r}")
    if g.n != h.n:
        raise ValueError("dimension mismatch")
    return GroupElement(g.kind, g.matrix @ h.matrix)


def inverse(g: GroupElement) -> GroupElement:
    return GroupElement(g.kind, np.linalg.inv(g.matrix))


def _in_algebra(kind: str, X: AffineField) -> AffineField:
    """The generator X, once it lies in the Lie algebra of the ``kind``
    group: C = 0 exactly for translations, B = 0 exactly for general-linear."""
    if kind == TRANSLATION_GROUP and X.C.any():
        raise ValueError("translation generators are constant fields (X_mat = 0)")
    if kind == GENERAL_LINEAR and X.B.any():
        raise ValueError("general-linear generators are linear fields (X_vec = 0)")
    return X


def TangentAtIdentity(kind: str, X_mat, X_vec) -> AffineField:
    """The tangent at the identity of the ``kind`` group with matrix
    components X_mat and translation components X_vec: its generator
    [[X_mat, X_vec], [0, 0]], the AffineField(X_mat, X_vec)."""
    if kind not in _KINDS:
        raise ValueError(f"unknown group kind {kind!r}")
    return _in_algebra(kind, AffineField(X_mat, X_vec))


def _standard_act(action, m, p) -> np.ndarray:
    return m[:-1, :-1] @ p + m[:-1, -1]


def _exp_translation_field(action, X) -> AffineField:
    return linear_field(float(np.dot(X.B, action.s)) * np.eye(action.n))


def _exp_translation_tangent(action, field) -> AffineField:
    # The field must be an isotropic scaling c I, to 1e-10 of its largest entry;
    # any X_vec with X_vec . s = c works, and the returned one is c s / (s . s).
    n = action.n
    c = _in_algebra(GENERAL_LINEAR, field).C
    rate = float(np.trace(c)) / n
    if np.max(np.abs(c - rate * np.eye(n))) > 1e-10 * np.max(np.abs(c)):
        raise ValueError("exp-translation fundamental fields are isotropic scalings")
    s = action.s
    ss = float(np.dot(s, s))
    if ss == 0.0:
        raise ValueError("weight vector is zero; only the zero field is reachable")
    return constant_field((rate / ss) * s)


def _det_weighted_field(action, X) -> AffineField:
    return linear_field(X.C + action.q * np.trace(X.C) * np.eye(action.n))


def _det_weighted_tangent(action, field) -> AffineField:
    # Removes the trace feedback: X_mat = C - q / (1 + q n) trace(C) I.
    n, q = action.n, action.q
    c = _in_algebra(GENERAL_LINEAR, field).C
    return linear_field(c - (q / (1.0 + q * n)) * np.trace(c) * np.eye(n))


@dataclass(frozen=True)
class VariantRecord:
    """One action variant: its group, the action of an element's
    homogeneous matrix [[a, t], [0, 1]] on a point p of R^n, the
    closed-form fundamental field of a generator X in the group's algebra,
    the generator recovered from a field, and the parameter the variant
    takes ("s", "q" or None).  For the three standard actions both maps are
    the identity: the fundamental field of X is the field X."""

    kind: str
    act: Callable[["GroupAction", np.ndarray, np.ndarray], np.ndarray]
    field: Callable[["GroupAction", AffineField], AffineField]
    tangent: Callable[["GroupAction", AffineField], AffineField]
    param: str | None = None


def _standard_record(kind: str) -> VariantRecord:
    return VariantRecord(
        kind,
        _standard_act,
        field=lambda action, X: X,
        tangent=lambda action, field: _in_algebra(action.group_kind, field),
    )


VARIANTS = {
    STANDARD_LINEAR: _standard_record(GENERAL_LINEAR),
    STANDARD_TRANSLATION: _standard_record(TRANSLATION_GROUP),
    STANDARD_AFFINE: _standard_record(GENERAL_AFFINE),
    EXP_TRANSLATION: VariantRecord(
        TRANSLATION_GROUP,
        act=lambda action, m, p: p * float(np.exp(np.dot(action.s, m[:-1, -1]))),
        field=_exp_translation_field,
        tangent=_exp_translation_tangent,
        param="s",
    ),
    DET_WEIGHTED: VariantRecord(
        GENERAL_LINEAR,
        act=lambda action, m, p: (
            (m[:-1, :-1] @ p) * float(np.linalg.det(m[:-1, :-1])) ** action.q
        ),
        field=_det_weighted_field,
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
        if self.chart is not None and self.chart.n != self.n:
            raise ValueError("chart and action dimensions differ")
        param = VARIANTS[self.variant].param
        if param == "s":
            s = as_vector(self.s, "weight vector")
            if s.size != self.n:
                raise ValueError(f"weight vector s has dim {s.size}, expected {self.n}")
            s.flags.writeable = False
            object.__setattr__(self, "s", s)
        elif self.s is not None:
            raise ValueError(f"variant {self.variant!r} takes no weight vector")
        if param == "q":
            if self.q is None or self.q < 0 or int(self.q) != self.q:
                raise ValueError("det-weighted actions need a nonnegative integer q")
            object.__setattr__(self, "q", int(self.q))
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


def _require_kind(action: GroupAction, g: GroupElement):
    """An element ``g`` must be of the action's group and dimension."""
    if g.kind != action.group_kind:
        raise ValueError(
            f"element of kind {g.kind!r} fed to a {action.group_kind!r} action"
        )
    if g.n != action.n:
        raise ValueError(f"element dimension {g.n} differs from action's {action.n}")


def _generator(action: GroupAction, X: AffineField):
    """A generator X must lie in the algebra of the action's group and have
    its dimension."""
    if X.n != action.n:
        raise ValueError(f"generator dimension {X.n} differs from action's {action.n}")
    _in_algebra(action.group_kind, X)


def _point(action: GroupAction, x) -> np.ndarray:
    p = np.asarray(x, dtype=float).reshape(-1)
    if p.size != action.n:
        raise ValueError(f"point has dim {p.size}, action lives on R^{action.n}")
    if not all(map(math.isfinite, p.tolist())):
        raise ValueError("point must be finite")
    return p


def act(action: GroupAction, g: GroupElement, x) -> np.ndarray:
    """Apply the left action of g to the point x (in chart coordinates when
    the action has a chart)."""
    _require_kind(action, g)
    chart = action.chart
    if chart is not None:
        x = chart.forward(chart.require(x))
    image = VARIANTS[action.variant].act(action, g.matrix, _point(action, x))
    return image if chart is None else chart.inverse(image)


def fundamental_field_numeric(
    action: GroupAction, tangent: AffineField, x
) -> np.ndarray:
    """Fundamental vector at x by central differences along group coordinates.

    Differentiates g -> act(g, x) at the identity along each nonzero entry
    of the generator [[X_mat, X_vec], [0, 0]] (row-major: matrix entries,
    then the translation entry, row by row) with step FD_STEP and contracts
    with those entries.  The generator must lie in the algebra of the
    action's group, so perturbing the identity by FD_STEP along one of its
    entries cannot leave the group, and each perturbed matrix goes to the
    variant's act without the checks of GroupElement's constructor.  This
    is ``act`` on each perturbed element, with the point checked and taken
    through the chart once.
    """
    _generator(action, tangent)
    p = _point(action, x)
    chart = action.chart
    if chart is not None:
        p = _point(action, chart.forward(chart.require(p)))
    variant_act = VARIANTS[action.variant].act
    identity = np.eye(action.n + 1)
    out = np.zeros(action.n)
    for r, c in zip(*np.nonzero(tangent.matrix)):
        images = []
        for step in (FD_STEP, -FD_STEP):
            g = identity.copy()
            g[r, c] += step
            image = variant_act(action, g, p)
            images.append(image if chart is None else chart.inverse(image))
        out += tangent.matrix[r, c] * (images[0] - images[1]) / (2.0 * FD_STEP)
    return out


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
    _generator(action, tangent)
    if action.chart is not None:
        raise ValueError(f"no ambient closed form for {action.describe()}")
    return VARIANTS[action.variant].field(action, tangent)


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
    if field.n != action.n:
        raise ValueError("field and action dimensions differ")
    if action.chart is not None:
        raise ValueError(f"no tangent recovery for {action.describe()}")
    return VARIANTS[action.variant].tangent(action, field)


def one_parameter_subgroup(
    action: GroupAction, tangent: AffineField, t: float
) -> GroupElement:
    """exp(t X) in the action's group; the orbit map t -> act(exp(t X), x)
    is the flow of the fundamental field through x.

    Raises OverflowError when t X or exp(t X) is not representable in
    floats, and ValueError for a non-finite t.
    """
    _generator(action, tangent)
    if not np.isfinite(t):
        raise ValueError("t must be finite")
    with np.errstate(over="ignore"):
        scaled = t * tangent.matrix
    if not np.isfinite(scaled).all():
        raise OverflowError(f"time-{t!r} generator overflows")
    return GroupElement(action.group_kind, mat_exp(scaled))


def random_element(action: GroupAction, rng: np.random.Generator) -> GroupElement:
    """Random element for axiom sampling.

    Actions with a chart are only local, so their elements stay close to
    the identity; global actions use a wider spread.  Matrix parts are
    resampled until comfortably invertible.  The translation part is drawn
    before the matrix part.
    """
    scale = 0.35 if action.chart is None else 0.05
    kind = action.group_kind
    n = action.n
    m = np.eye(n + 1)
    if kind != GENERAL_LINEAR:
        m[:n, n] = rng.uniform(-scale, scale, size=n)
    if kind != TRANSLATION_GROUP:
        for _ in range(100):
            a = m[:n, :n] + rng.uniform(-scale, scale, size=(n, n))
            if abs(np.linalg.det(a)) > 1e-6:
                break
        else:  # pragma: no cover - a tiny perturbation of I is invertible
            raise RuntimeError("failed to sample an invertible matrix")
        m[:n, :n] = a
    return GroupElement(kind, m)


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
    be at most AXIOM_TOL."""
    if samples < 1:
        raise ValueError("samples must be at least 1")
    rng = np.random.default_rng(seed)
    e = identity_element(action.group_kind, action.n)
    max_id = 0.0
    max_comp = 0.0
    for _ in range(samples):
        if action.chart is None:
            x = rng.uniform(-2.0, 2.0, size=action.n)
        else:
            x = action.chart.sample(rng)
        g1 = random_element(action, rng)
        g2 = random_element(action, rng)
        scale = 1.0 + float(np.linalg.norm(x))
        max_id = max(max_id, float(np.linalg.norm(act(action, e, x) - x)) / scale)
        direct = act(action, multiply(g1, g2), x)
        chained = act(action, g1, act(action, g2, x))
        max_comp = max(max_comp, float(np.linalg.norm(direct - chained)) / scale)
    return ActionAxiomReport(
        action=action.describe(),
        samples=samples,
        max_identity_defect=max_id,
        max_composition_defect=max_comp,
    )
