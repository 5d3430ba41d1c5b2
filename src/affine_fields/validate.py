"""Cross-module validation suite.

Each check pits one computational route against an independent one (closed
forms against RK4 integration, matrix brackets against the matrix-unit
relation of the generators, difference quotients against analytic fields)
at a fixed tolerance.  The CLI ``validate`` command and the acceptance tests
both run these.

Every randomized ensemble but check 4's points is drawn by one helper,
``_draw_blocks``: a case draws its dimension, then its doubles, most in one
``rng.random`` call mapped to their bounds a block at a time (``_uniform``),
and the cases of one dimension form a stack, a row per case.  So the
ensembles are those of one ``rng.uniform`` call per value, bit for bit, with
the generator left in the same state.  The stacks' generators, images, dots
and norms are linalg's, each row bit for bit the lone case's.  Each
exponential is formed once, in as few kernel calls as the blocks of
``flows._exponentials`` allow, and the RK4 oracle integrates a dimension's
fields as one homogeneous state (``_rk4_ends``).  Checks 5 and 6 take the
cases of an action and n as one stack, a weight or power per row
(``_ParamRows``), check 3 the brackets of all generator pairs of a
dimension in one commutator call, and check 8 the constant-field
coordinates of a dimension's cases in one call.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement

import numpy as np

from . import actions as ga
from .charts import lambert_chart, lambert_w
from .fields import (
    AffineField,
    GeneratorIndex,
    _commutator,
    _of_generator,
    all_generators,
    evaluate,  # noqa: F401  (unused; instrumentation looks it up here)
    evaluate_many,  # noqa: F401  (unused; instrumentation looks it up here)
    generator_unit,
)
from .flows import _exponentials, flow_at, flow_images, make_flow
from .invariants import (
    _constant_coordinates,
    _gradients,
    planar_affine_family,
    straightened_frame_flow,
)
from .linalg import _affine, _dots, _generator, _norms, _solve, as_integer, mat_exp
from .linalg import solve_linear  # noqa: F401  (unused; instrumentation looks it up here)
from .oracle import OdeProblem, integrate, integrate_linear


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _bounded(name: str, *measures) -> CheckResult:
    """Check ``name`` from (label, worst, bound) triples: it passes when
    every worst is at most its bound."""
    return CheckResult(
        name,
        all(worst <= bound for _, worst, bound in measures),
        ", ".join(f"{label} {worst:.3e} (bound {bound:.0e})"
                  for label, worst, bound in measures),
    )


def _rng(seed: int, salt: int) -> np.random.Generator:
    return np.random.default_rng([as_integer(seed, "seed", 0), salt])


def _uniform(u, low: float, high: float) -> np.ndarray:
    """``rng.random`` doubles u mapped as ``rng.uniform(low, high)`` maps them,
    bit for bit: for the bounds used here (high - low) u is exact."""
    return low + (high - low) * u


def _draw_blocks(rng, count: int, dims: tuple, draw) -> list[tuple]:
    """``count`` cases, each ``rng.integers(*dims)`` for its n, then
    ``draw(n)``: the case's tuple of arrays, or None to draw the case, its n
    included, again.  Returns (n, *stacks) per dimension in increasing n,
    each stack one slot of the cases in draw order, a row per case."""
    drawn = {}
    while count:
        n = int(rng.integers(*dims))
        case = draw(n)
        if case is not None:
            drawn.setdefault(n, []).append(case)
            count -= 1
    return [(n, *map(np.array, zip(*drawn[n]))) for n in sorted(drawn)]


def _block_generators(u, n: int, low: float, high: float) -> np.ndarray:
    """Generators of a block's rows: C row by row, then B, in [low, high)."""
    v = _uniform(u[:, : n * n + n], low, high)
    return _generator(v[:, : n * n].reshape(-1, n, n), v[:, n * n :])


def _field_blocks(rng, count: int, dims: tuple, starts: int) -> list[tuple]:
    """``_draw_blocks`` of fields and their starts, all in [-2, 2], each
    case one ``rng.random`` call: (generators, starts (k, starts, n)) per
    dimension n."""
    return [
        (_block_generators(u, n, -2.0, 2.0),
         _uniform(u[:, n * n + n :], -2.0, 2.0).reshape(-1, starts, n))
        for n, u in _draw_blocks(rng, count, dims,
                                 lambda n: (rng.random(n * n + n + starts * n),))
    ]


def _rk4_ends(g, x, integrate, step: float) -> np.ndarray:
    """RK4 ends at t=1 of the fields of the generator stack g, (k, n+1, n+1),
    from their starts x, (k, s, n), by ``integrate`` with ``step`` on the
    homogeneous state (x, 1) under z ↦ z @ Gᵀ, every field at once.  The last
    column of Gᵀ is zero, so the homogeneous coordinate stays exactly 1."""
    g_t = g.transpose(0, 2, 1)
    state = np.concatenate([x, np.ones(x.shape[:-1] + (1,))], axis=-1)
    return integrate(OdeProblem(lambda z: z @ g_t, state, 1.0, step))[..., :-1]


def _rk4_defects(blocks):
    """(starts, defects) per block: the starts as (k s, n) rows, and the
    norms of closed form at t=1 minus RK4 end (step 1e-3, by a batched power
    of the increment matrices of ``integrate_linear``) from each.  The closed
    forms take one exp(G) per field, by one ``_exponentials`` call per block,
    applied to each of the field's starts: the rows of ``flow_images`` at
    t=1, bit for bit."""
    for g, x in blocks:
        images = _affine(_exponentials(g, np.ones(len(g)))[:, None], x)
        defects = _norms(images - _rk4_ends(g, x, integrate_linear, 1e-3))
        yield x.reshape(-1, x.shape[-1]), defects.reshape(-1)


def check_flow_vs_oracle(seed: int = 42) -> CheckResult:
    """500 random affine fields, closed-form flow at t=1 against RK4 with
    step 1e-3 from 3 random starts each; bound 1e-6 * (1 + |x|).  The fields
    and starts are drawn into per-dimension stacks (``_field_blocks``), and
    each stack takes one RK4 pass and one exponential per field
    (``_rk4_defects``)."""
    worst = max(
        np.max(defects / (1.0 + _norms(x)))
        for x, defects in _rk4_defects(_field_blocks(_rng(seed, 1), 500, (1, 7), 3))
    )
    return _bounded("closed-form-vs-rk4", ("worst relative defect", worst, 1e-6))


def _group_law_draws(rng) -> list[tuple]:
    """Check 2's ``_draw_blocks`` of fields (in [-2, 2]) with 3 cases each, s
    and t in [-1, 1], x in [-2, 2], a field one ``rng.random`` call:
    (generators, s, t, x), a row per case."""
    draws = []
    for n, u in _draw_blocks(rng, 500, (1, 7), lambda n: (rng.random(n * n + 4 * n + 6),)):
        cases = u[:, n * n + n :].reshape(-1, 2 + n)
        s, t = _uniform(cases[:, :2], -1.0, 1.0).T
        g = np.repeat(_block_generators(u, n, -2.0, 2.0), 3, axis=0)
        draws.append((g, s, t, _uniform(cases[:, 2:], -2.0, 2.0)))
    return draws


def check_group_law(seed: int = 42) -> CheckResult:
    """Flow composition flow(s+t) = flow(s) o flow(t) on 500 random fields,
    3 cases each, s, t in [-1, 1]; bound 1e-8 * (1 + |x|).  The cases are
    drawn into per-dimension stacks (``_group_law_draws``).  The exp(tG),
    exp(sG) and exp((s+t)G) of a dimension form one ``_exponentials``
    stack, in blocks of at most ORBIT_BLOCK_ENTRIES entries, and the inner,
    outer and direct images are taken from it, each row bit for bit that of
    ``flow_images``."""
    worst = 0.0
    for g, s, t, x in _group_law_draws(_rng(seed, 2)):
        exps = _exponentials(np.tile(g, (3, 1, 1)), np.concatenate([t, s, s + t]))
        e_t, e_s, e_st = np.split(exps, 3)
        defects = _norms(_affine(e_st, x) - _affine(e_s, _affine(e_t, x))) / (1.0 + _norms(x))
        worst = max(worst, np.max(defects))
    return _bounded("flow-group-law", ("worst relative defect", worst, 1e-8))


def _unit_brackets(ab, cd, n: int) -> np.ndarray:
    """Generators of the brackets [e_ab, e_cd] of the matrix units (a, b) and
    (c, d) (generator_unit), row by row of two (k, 2) stacks of units:
    [e_ab, e_cd] = delta(d, a) e_cb - delta(b, c) e_ad, which is
    G_Y G_X - G_X G_Y for matrix units.  This route never multiplies
    matrices, so it is an independent oracle for the bracket implementation.
    """
    (a, b), (c, d) = np.transpose(ab), np.transpose(cd)
    rows = np.arange(len(a))
    m = np.zeros((len(a), n + 1, n + 1))
    m[rows, c, b] += d == a
    m[rows, a, d] -= b == c
    return m


def expected_generator_bracket(g1: GeneratorIndex, g2: GeneratorIndex, n: int) -> AffineField:
    """Bracket of two generators by ``_unit_brackets``, as a field."""
    return _of_generator(_unit_brackets([generator_unit(g1, n)], [generator_unit(g2, n)], n)[0])


def check_structure_constants() -> CheckResult:
    """All generator bracket pairs for n <= 4 match the matrix-unit relation
    exactly, with entries in {0, +-1}.  The unordered pairs of one n
    (repetition included, in ``combinations_with_replacement`` order) take
    one ``_commutator`` call on stacks and one ``_unit_brackets`` call, and
    both tests are whole-stack reductions.  A failure names the first
    failing pair in table order, a non-unit entry before a mismatch."""
    checked = 0
    for n in range(1, 5):
        labels, fields = zip(*all_generators(n))
        i, j = np.array(list(combinations_with_replacement(range(len(labels)), 2))).T
        g = np.array([f.matrix for f in fields])
        units = np.array([generator_unit(label, n) for label in labels])
        got = _commutator(g[i], g[j])
        non_unit = ~np.all((got == 0.0) | (np.abs(got) == 1.0), axis=(1, 2))
        failing = non_unit | ~np.all(got == _unit_brackets(units[i], units[j], n), axis=(1, 2))
        if failing.any():
            k = int(np.argmax(failing))
            pair = f"[{labels[i[k]]}, {labels[j[k]]}]"
            detail = f"non-unit entry in {pair}" if non_unit[k] else f"{pair} mismatch"
            return CheckResult("bracket-structure-constants", False, f"{detail} for n={n}")
        checked += len(got)
    return CheckResult(
        "bracket-structure-constants",
        True,
        f"{checked} unordered pairs exact (n=4 table: {len(got)} pairs)",
    )


def check_planar_family(seed: int = 42) -> CheckResult:
    """End-to-end run of the worked planar family with (alpha, beta, gamma)
    = (1, 1, 0): flow value, defining equations and Jacobian determinant at
    100 points, as one stack, and the straightened flow."""
    rng = _rng(seed, 4)
    field, bundle = planar_affine_family(1.0, 1.0, 0.0)
    flow = make_flow(field)
    problems = []

    image = flow_at(flow, 2.0, np.zeros(2))
    if np.max(np.abs(image - np.array([2.0, 4.0]))) > 1e-9:
        problems.append(f"flow(2, origin) = {image.tolist()} not (2, 4)")

    x = rng.uniform(-2.0, 2.0, size=(100, 2))
    v = _affine(field.matrix, x)
    jac = np.stack([_gradients(f, x) for f in (bundle.S,) + bundle.invariants], axis=1)
    worst_s = np.max(np.abs(_dots(jac[:, 0], v) - 1.0))
    worst_i = np.max(np.abs(_dots(jac[:, 1], v)))
    worst_jac = np.max(np.abs(np.linalg.det(jac) - 1.0))
    if worst_s > 1e-9:
        problems.append(f"max |X(S)-1| = {worst_s:.3e}")
    if worst_i > 1e-9:
        problems.append(f"max |X(I)| = {worst_i:.3e}")
    if worst_jac > 1e-9:
        problems.append(f"max |det J - 1| = {worst_jac:.3e}")

    for _ in range(10):
        b, c, t = rng.uniform(-2.0, 2.0, size=3)
        moved = straightened_frame_flow(bundle, t, np.array([b, c]))
        if moved[0] != b + t or moved[1] != c:
            problems.append("straightened flow is not (b + t, c)")
            break

    if problems:
        return CheckResult("planar-family-end-to-end", False, "; ".join(problems))
    return CheckResult(
        "planar-family-end-to-end",
        True,
        f"defects: S {worst_s:.2e}, I {worst_i:.2e}, det {worst_jac:.2e} (bound 1e-09)",
    )


@dataclass(frozen=True, eq=False)
class _ParamRows:
    """The catalog action ``variant`` on R^n for a stack of cases, a weight
    per row of the (k, n) ``s`` or a power per entry of the (k,) ``q``: the
    variant's act, field and tangent maps read only these attributes and
    broadcast them row by row, so each row is its case's own action's."""

    variant: str
    n: int
    s: np.ndarray | None = None
    q: np.ndarray | None = None
    chart = None

    @property
    def group_kind(self) -> str:
        return ga.VARIANTS[self.variant].kind

    def describe(self) -> str:
        return f"{self.variant} with a parameter per row"


def _fundamental_draws(rng) -> list[tuple]:
    """Check 5's stacks (action, generators, x), per variant ``_draw_blocks``
    of 100 cases: a case draws n, then its weight s (in [-1.5, 1.5]) or power
    q (in 0..3) when the variant takes one, then one ``rng.random`` for its
    generator (in [-1, 1], outside the algebra zeroed) and x (in [-2, 2]).
    The action is a ``_ParamRows`` with the parameters a row per case."""
    draws = []
    for variant, record in ga.VARIANTS.items():
        param = {"s": lambda n: (rng.uniform(-1.5, 1.5, size=n),),
                 "q": lambda n: (int(rng.integers(0, 4)),)}.get(record.param, lambda n: ())
        for n, *values, u in _draw_blocks(rng, 100, (1, 4),
                                          lambda n: (*param(n), rng.random(n * n + 2 * n))):
            g = _block_generators(u, n, -1.0, 1.0)
            if record.kind in ga._SUBGROUPS:  # zero the block outside the algebra
                g[ga._SUBGROUPS[record.kind][0]] = 0.0
            action = _ParamRows(variant, n, **({record.param: values[0]} if values else {}))
            draws.append((action, g, _uniform(u[:, n * n + n :], -2.0, 2.0)))
    return draws


def check_fundamental_agreement(seed: int = 42) -> CheckResult:
    """Difference-quotient fundamental fields against the closed forms for
    all five catalog actions, 100 random (X, x) pairs each; bound
    1e-5 * (1 + |x|).  The cases of one action and n form a stack, a weight
    or power per row (``_fundamental_draws``, ``_ParamRows``): one
    ``actions._fundamental_rows`` call, one call of the variant's field map
    for the closed forms X, (X_vec . s) I or X_mat + q trace(X_mat) I, and
    one ``_affine`` call for their values; 15 stacks a round."""
    worst = 0.0
    for action, g, x in _fundamental_draws(_rng(seed, 5)):
        closed = ga.VARIANTS[action.variant].field(action, g)
        defects = ga._fundamental_rows(action, g, x) - _affine(closed, x)
        worst = max(worst, np.max(_norms(defects) / (1.0 + _norms(x))))
    return _bounded(
        "fundamental-field-agreement", ("worst relative defect", worst, 1e-5)
    )


def _round_trip_draws(rng) -> list[tuple]:
    """Check 6's stacks (action, generators): ``_draw_blocks`` of 50 fields
    in [-2, 2], each as its linear part, its constant part and itself
    (standard-linear, -translation and -affine), then for n in 1..4 five
    linear fields (det-weighted) for each q in 0..3, in one ``rng.random``
    call, as one ``_ParamRows`` stack with a power per row."""
    draws = []
    for n, u in _draw_blocks(rng, 50, (1, 5), lambda n: (rng.random(n * n + n),)):
        g = _block_generators(u, n, -2.0, 2.0)
        linear = _generator(g[:, :n, :n], np.zeros((len(g), n)))
        draws += [(_ParamRows(ga.STANDARD_LINEAR, n), linear),
                  (_ParamRows(ga.STANDARD_TRANSLATION, n), _generator(0.0, g[:, :n, n])),
                  (_ParamRows(ga.STANDARD_AFFINE, n), g)]
    for n in range(1, 5):
        c = _uniform(rng.random((20, n * n)), -2.0, 2.0).reshape(20, n, n)
        draws.append((_ParamRows(ga.DET_WEIGHTED, n, q=np.repeat(np.arange(4), 5)),
                      _generator(c, np.zeros((20, n)))))
    return draws


def check_field_tangent_roundtrip(seed: int = 42) -> CheckResult:
    """Field -> tangent -> fundamental field is the identity for the linear,
    constant, and affine bijections, and the det-weighted trace-removal
    inverse round-trips for q in 0..3, n in 1..4; bound 1e-12.  The fields
    are drawn into per-action stacks (``_round_trip_draws``), and each stack
    takes the variant's tangent map, the membership test of
    ``fundamental_field_analytic`` and the field map once, on the whole
    stack of generators."""
    worst = 0.0
    for action, g in _round_trip_draws(_rng(seed, 6)):
        record = ga.VARIANTS[action.variant]
        tangent = ga._member(record.kind, record.tangent(action, g), action.n)
        worst = max(worst, np.max(np.abs(record.field(action, tangent) - g)))
    return _bounded(
        "field-tangent-round-trip", ("worst round-trip defect", worst, 1e-12)
    )


def check_chart_conjugation() -> CheckResult:
    """The scaling field in the lambert chart pulls back to u / (1 + u) in
    ambient coordinates; both the analytic-chart and difference-quotient
    routes must land within 1e-6, and the Newton inversion residual must
    stay at or below 1e-12."""
    chart = lambert_chart()
    action = ga.chart_conjugated_action(ga.standard_linear_action(1), chart)
    tangent = AffineField([[1.0]], [0.0])
    worst_field = 0.0
    for u in (-0.5, 0.5, 1.0, 2.0):
        want = u / (1.0 + u)
        via_chart = ga.fundamental_field_chart(action, tangent, np.array([u]))[0]
        via_numeric = ga.fundamental_field_numeric(action, tangent, np.array([u]))[0]
        worst_field = max(
            worst_field, abs(via_chart - want), abs(via_numeric - want)
        )
    worst_residual = 0.0
    for w in (-0.36, -0.2, 0.0, 0.5, 1.0, 5.0, 20.0, 60.0):
        u = lambert_w(w)
        worst_residual = max(worst_residual, abs(u * np.exp(u) - w))
    return _bounded(
        "chart-conjugation",
        ("worst field defect", worst_field, 1e-6),
        ("worst Newton residual", worst_residual, 1e-12),
    )


def _random_reshaping(amps, xi) -> np.ndarray:
    """Nontrivial C^1 functions of m slots, a row of the (k, 3m) amplitudes
    each, of sin(xi), then xi^2, then xi: their values at the (k, j, m)
    stack xi, each term's sum rounded as np.dot's."""
    amp_sin, amp_sq, amp_lin = np.split(amps[:, None], 3, axis=-1)
    return _dots(np.sin(xi), amp_sin) + _dots(xi**2, amp_sq) + _dots(xi, amp_lin)


def _invariant_draws(rng) -> list[tuple]:
    """Check 8's stacks (b, amplitudes, starts), a row per case, per
    dimension n in increasing n (``_draw_blocks``).  A case draws n, then
    b's magnitudes in [0.3, 2) and its signs, then one ``rng.random`` for
    F's and G's 3(n - 1) amplitudes each (sin and linear terms in [-1, 1),
    square terms in [-0.5, 0.5)) and the start in [-2, 2)."""
    draws = []
    for n, magnitudes, signs, u in _draw_blocks(
            rng, 100, (2, 5),
            lambda n: (rng.random(n), rng.integers(0, 2, size=n), rng.random(7 * n - 6))):
        bound = np.tile(np.repeat([1.0, 0.5, 1.0], n - 1), 2)
        draws.append((_uniform(magnitudes, 0.3, 2.0) * (2.0 * signs - 1.0),
                      _uniform(u[:, : 6 * n - 6], -bound, bound),
                      _uniform(u[:, 6 * n - 6 :], -2.0, 2.0)))
    return draws


def check_invariant_flow_constancy(seed: int = 42) -> CheckResult:
    """100 random constant-field bundles with nontrivial reshapings: along
    the flow, invariants stay fixed and the canonical parameter advances by
    exactly t, to 1e-7, for t in {-1, -0.5, 0.5, 1}.  The cases are drawn
    into per-dimension stacks (``_invariant_draws``), and the images at all
    four times take one ``flow_images`` call per dimension.  The bundle's S
    = x_p / b_p + F(xi) and invariant G(xi) are taken on the (cases, 5, n)
    stack of the starts and their images, by one
    ``invariants._constant_coordinates`` call and one ``_random_reshaping``
    call for F and for G, bit for bit constant_field_bundle's values."""
    times = np.array([-1.0, -0.5, 0.5, 1.0])
    worst, k = 0.0, len(times)
    for b, amps, starts in _invariant_draws(_rng(seed, 8)):
        n = b.shape[1]
        g = np.repeat(_generator(0.0, b), k, axis=0)
        images = flow_images(g, np.tile(times, len(b)), np.repeat(starts, k, axis=0))
        stacks = np.concatenate([starts[:, None], images.reshape(-1, k, n)], axis=1)
        _, _, coordinates = _constant_coordinates(b[:, None])
        s, xi = coordinates(stacks)
        s = s + _random_reshaping(amps[:, : 3 * n - 3], xi)
        i = _random_reshaping(amps[:, 3 * n - 3 :], xi)
        worst = max(worst, np.abs([s[:, 1:] - s[:, :1] - times, i[:, 1:] - i[:, :1]]).max())
    return _bounded("invariant-flow-constancy", ("worst defect", worst, 1e-7))


def check_rk4_order(seed: int = 42) -> CheckResult:
    """Halving the RK4 step from 0.05 to 0.025 against the closed-form flow
    must show fourth order: measured exponent >= 3.7 on 20 random affine
    fields, each field and its start one ``rng.random`` call, into
    per-dimension stacks (``_field_blocks``).  With |C|_1 up to about 7, a
    step of 0.1 puts h |lambda| near 0.5, outside RK4's asymptotic range.
    The references take one ``flow_images`` call per dimension, and each
    step length one four-stage ``integrate`` of a dimension's fields
    (``_rk4_ends``)."""
    blocks = _field_blocks(_rng(seed, 9), 20, (2, 5), 1)
    references = [flow_images(g, np.ones(len(g)), x[:, 0]) for g, x in blocks]
    coarse, fine = (
        np.concatenate([_norms(_rk4_ends(g, x, integrate, step)[:, 0] - reference)
                        for (g, x), reference in zip(blocks, references)])
        for step in (0.05, 0.025)
    )
    ratios = coarse[fine != 0.0] / fine[fine != 0.0]
    worst_exponent = float(np.min(np.log2(ratios), initial=np.inf))
    return CheckResult(
        "rk4-convergence-order",
        worst_exponent >= 3.7,
        f"smallest measured exponent {worst_exponent:.3f} (bound 3.7)",
    )


def _singular_matrix(a) -> tuple[np.ndarray, np.ndarray]:
    """The rank n-1 matrix of ``a`` with its least singular value zeroed,
    plus a unit vector spanning its null space; of a stack, row by row, bit
    for bit each matrix alone."""
    u, sigma, vt = np.linalg.svd(a)
    sigma[..., -1] = 0.0
    return (u * sigma[..., None, :]) @ vt, vt[..., -1, :]


def _degenerate_draws(rng) -> tuple[list, list]:
    """Check 10's two ensembles, each ``_draw_blocks`` of 50 fields.  First
    the stacks (generator, t, x, U, U + null vector), 3 cases for each field
    whose B = -C anchor has an entry of at least 0.1, a field with a smaller
    one drawn again (C and anchor one ``rng.random`` call, the cases one
    more), U from one stacked ``solve_linear`` per dimension after the
    draws; then the blocks (generators, starts (k, 1, n)) of fields with no
    fixed point, each with its start one ``rng.random`` call."""
    def fixed_point_field(n):
        v = _uniform(rng.random(n * n + n), -2.0, 2.0)
        c, null_vec = _singular_matrix(v[: n * n].reshape(n, n))
        b = -(c @ v[n * n :])
        if np.max(np.abs(b)) < 0.1:
            return None
        return c, b, null_vec, rng.random((3, n + 1))

    cases = []
    for n, c, b, null_vec, u in _draw_blocks(rng, 50, (2, 5), fixed_point_field):
        u0 = _solve(c, -b)[0]  # solvable: -b = C anchor
        u = u.reshape(-1, n + 1)
        cases.append((np.repeat(_generator(c, b), 3, axis=0), _uniform(u[:, 0], -1.0, 1.0),
                      _uniform(u[:, 1:], -2.0, 2.0), *np.repeat([u0, u0 + null_vec], 3, axis=1)))
    blocks = []
    for n, u in _draw_blocks(rng, 50, (2, 5), lambda n: (rng.random(n * n + 2 * n + 1),)):
        c, _ = _singular_matrix(_uniform(u[:, : n * n], -2.0, 2.0).reshape(-1, n, n))
        # b has a component along the left null vector, so C U + B = 0 has
        # no solution.
        left_null = np.linalg.svd(c)[0][..., -1]
        b = _uniform(u[:, n * n : -n - 1], -1.0, 1.0) + left_null * _uniform(u[:, -n - 1 : -n], 0.5, 1.5)
        blocks.append((_generator(c, b), _uniform(u[:, -n:], -2.0, 2.0)[:, None]))
    return cases, blocks


def check_degenerate_flows(seed: int = 42) -> CheckResult:
    """Singular-matrix fields: when a fixed point exists but is not unique,
    the flow must equal exp(tC)(x - U) + U for two fixed points U that differ
    by a null vector (1e-10); when none exists, it must match RK4 (1e-6,
    ``_rk4_defects``).  Both ensembles are drawn into per-dimension stacks
    (``_degenerate_draws``), the fixed points U by one stacked solve per
    dimension; their flows take one ``flow_images`` call per dimension, the
    exp(tC) one ``mat_exp`` call per dimension, and the norms one call per
    dimension and term."""
    cases, blocks = _degenerate_draws(_rng(seed, 10))
    worst_pair = 0.0
    for g, t, x, *fixed in cases:
        n = x.shape[1]
        images = flow_images(g, t, x)
        e = mat_exp(t[:, None, None] * g[:, :n, :n])
        for u in fixed:
            paper = _affine(_generator(e, u), x - u)
            worst_pair = max(worst_pair, np.max(_norms(images - paper)))
    worst_oracle = max(np.max(defects) for _, defects in _rk4_defects(blocks))

    return _bounded(
        "degenerate-flow-consistency",
        ("worst fixed-point-choice defect", worst_pair, 1e-10),
        ("worst oracle defect", worst_oracle, 1e-6),
    )


ALL_CHECKS = (
    check_flow_vs_oracle,
    check_group_law,
    check_structure_constants,
    check_planar_family,
    check_fundamental_agreement,
    check_field_tangent_roundtrip,
    check_chart_conjugation,
    check_invariant_flow_constancy,
    check_rk4_order,
    check_degenerate_flows,
)


def run_all(seed: int = 42) -> list[CheckResult]:
    results = []
    for fn in ALL_CHECKS:
        if "seed" in fn.__code__.co_varnames[: fn.__code__.co_argcount]:
            results.append(fn(seed=seed))
        else:
            results.append(fn())
    return results
