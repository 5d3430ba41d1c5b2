"""Cross-module validation suite.

Each check pits one computational route against an independent one (closed
forms against RK4 integration, matrix brackets against the matrix-unit
relation of the generators, difference quotients against analytic fields)
at a fixed tolerance.  The CLI ``validate`` command and the acceptance tests
both run these.
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
    all_generators,
    bracket,
    evaluate,
    evaluate_many,  # noqa: F401  (unused; instrumentation looks it up here)
    generator_unit,
)
from .flows import flow_at, flow_images, make_flow
from .invariants import (
    ScalarField,
    constant_field_bundle,
    directional_derivative,
    planar_affine_family,
    straightened_frame_flow,
)
from .linalg import mat_exp, solve_linear
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


def _random_affine_field(rng, n) -> AffineField:
    """C and B with entries uniform in [-2, 2], C drawn first."""
    return AffineField(
        rng.uniform(-2.0, 2.0, size=(n, n)),
        rng.uniform(-2.0, 2.0, size=n),
    )


def _rng(seed: int, salt: int) -> np.random.Generator:
    return np.random.default_rng([seed, salt])


def _by_dimension(fn, *columns) -> list:
    """fn on every row, one call per row shape.  Each column is a list of k
    arrays (or scalars); the rows whose first entry has one shape are stacked
    column by column, in row order, and fn maps those stacks to a stack of
    results.  Returns the k results in row order.  With ``mat_exp`` or
    ``flow_images`` as fn, each result is bit for bit that of the row alone,
    because both decide per matrix, and no row is padded to another shape."""
    groups = {}
    for j, row in enumerate(columns[0]):
        groups.setdefault(np.shape(row), []).append(j)
    out = [None] * len(columns[0])
    for rows in groups.values():
        stacks = (np.stack([column[j] for j in rows]) for column in columns)
        for j, result in zip(rows, fn(*stacks)):
            out[j] = result
    return out


def _ensemble_images(fields, times, points) -> list:
    """flow_at(make_flow(fields[j]), times[j], points[j]) for every j, by one
    ``flow_images`` call per dimension; bit for bit that value for every
    field whose C is not zero."""
    return _by_dimension(flow_images, [field.matrix for field in fields], times, points)


def _stacked_rk4_ends(fields, starts) -> np.ndarray:
    """RK4 ends at t=1, step 1e-3, of each field from its rows of starts
    (equal row counts), by one ``integrate_linear`` of the homogeneous
    (fields, starts, n_max + 1) state (x, 1) under the per-field Gᵀ =
    [[Cᵀ, 0], [B, 0]]: one batched product with the RK4 increment matrix per
    step.  Padded coordinates have zero rows and columns in Gᵀ and its last
    column is zero, so they stay exactly 0 and the homogeneous coordinate
    exactly 1: field k ends at ``ends[k, :, :n_k]``."""
    n_max = max(field.n for field in fields)
    g_t = np.zeros((len(fields), n_max + 1, n_max + 1))
    state = np.zeros((len(fields), len(starts[0]), n_max + 1))
    state[..., n_max] = 1.0
    for k, (field, x) in enumerate(zip(fields, starts)):
        g_t[k, : field.n, : field.n] = field.C.T
        g_t[k, n_max, : field.n] = field.B
        state[k, :, : field.n] = x
    ends = integrate_linear(OdeProblem(lambda z: z @ g_t, state, 1.0, 1e-3))
    return ends[..., :n_max]


def check_flow_vs_oracle(seed: int = 42) -> CheckResult:
    """500 random affine fields, closed-form flow at t=1 against RK4 with
    step 1e-3 from 3 random starts each; bound 1e-6 * (1 + |x|).  Once the
    ensemble is drawn, RK4 marches it as one stacked homogeneous state, one
    batched product with its increment matrices per step, and the closed
    forms take one ``flow_images`` call per dimension."""
    rng = _rng(seed, 1)
    fields, starts = [], []
    for _ in range(500):
        n = int(rng.integers(1, 7))
        fields.append(_random_affine_field(rng, n))
        starts.append(rng.uniform(-2.0, 2.0, size=(3, n)))
    ends = [
        end[: field.n]
        for field, field_ends in zip(fields, _stacked_rk4_ends(fields, starts))
        for end in field_ends
    ]
    points = [x for xs in starts for x in xs]
    repeated = [field for field, xs in zip(fields, starts) for _ in xs]
    images = _ensemble_images(repeated, [1.0] * len(points), points)
    worst = 0.0
    for x, image, end in zip(points, images, ends):
        defect = np.linalg.norm(image - end)
        worst = max(worst, defect / (1.0 + np.linalg.norm(x)))
    return _bounded("closed-form-vs-rk4", ("worst relative defect", worst, 1e-6))


def check_group_law(seed: int = 42) -> CheckResult:
    """Flow composition flow(s+t) = flow(s) o flow(t) on 500 random fields,
    3 cases each, s, t in [-1, 1]; bound 1e-8 * (1 + |x|).  Once the cases
    are drawn, the direct, inner and outer flows each take one
    ``flow_images`` call per dimension."""
    rng = _rng(seed, 2)
    fields, s_times, t_times, points = [], [], [], []
    for _ in range(500):
        n = int(rng.integers(1, 7))
        field = _random_affine_field(rng, n)
        for _ in range(3):
            s, t = rng.uniform(-1.0, 1.0, size=2)
            fields.append(field)
            s_times.append(s)
            t_times.append(t)
            points.append(rng.uniform(-2.0, 2.0, size=n))
    direct = _ensemble_images(fields, [s + t for s, t in zip(s_times, t_times)], points)
    inner = _ensemble_images(fields, t_times, points)
    composed = _ensemble_images(fields, s_times, inner)
    worst = 0.0
    for x, d, c in zip(points, direct, composed):
        worst = max(worst, np.linalg.norm(d - c) / (1.0 + np.linalg.norm(x)))
    return _bounded("flow-group-law", ("worst relative defect", worst, 1e-8))


def expected_generator_bracket(
    g1: GeneratorIndex, g2: GeneratorIndex, n: int
) -> AffineField:
    """Bracket of two generators from their matrix units (a, b) and (c, d)
    (generator_unit): [e_ab, e_cd] = delta(d, a) e_cb - delta(b, c) e_ad,
    which is G_Y G_X - G_X G_Y for matrix units.  This route never multiplies
    matrices, so it is an independent oracle for the bracket implementation.
    """
    a, b = generator_unit(g1, n)
    c, d = generator_unit(g2, n)
    m = np.zeros((n + 1, n + 1))
    if d == a:
        m[c, b] += 1.0
    if b == c:
        m[a, d] -= 1.0
    return AffineField(m[:-1, :-1], m[:-1, -1])


def generator_bracket_table(n: int):
    """Brackets of all unordered generator pairs (repetition included).

    Entries are (label1, label2, bracket field) over the n constant and n^2
    linear generators, so dimension 4 yields the full 210-pair table.
    """
    return [
        (g1, g2, bracket(f1, f2))
        for (g1, f1), (g2, f2) in combinations_with_replacement(all_generators(n), 2)
    ]


def check_structure_constants() -> CheckResult:
    """All generator bracket pairs for n <= 4 match the matrix-unit relation
    exactly, with entries in {0, +-1}."""
    checked = 0
    for n in range(1, 5):
        table = generator_bracket_table(n)
        for g1, g2, got in table:
            want = expected_generator_bracket(g1, g2, n)
            if not np.all(np.isin(got.matrix, (-1.0, 0.0, 1.0))):
                return CheckResult(
                    "bracket-structure-constants",
                    False,
                    f"non-unit entry in [{g1}, {g2}] for n={n}",
                )
            if not np.array_equal(got.matrix, want.matrix):
                return CheckResult(
                    "bracket-structure-constants",
                    False,
                    f"[{g1}, {g2}] mismatch for n={n}",
                )
        checked += len(table)
    return CheckResult(
        "bracket-structure-constants",
        True,
        f"{checked} unordered pairs exact (n=4 table: {len(table)} pairs)",
    )


def check_planar_family(seed: int = 42) -> CheckResult:
    """End-to-end run of the worked planar family with (alpha, beta, gamma)
    = (1, 1, 0): flow value, defining equations, Jacobian determinant, and
    the straightened flow."""
    rng = _rng(seed, 4)
    field, bundle = planar_affine_family(1.0, 1.0, 0.0)
    flow = make_flow(field)
    problems = []

    image = flow_at(flow, 2.0, np.zeros(2))
    if np.max(np.abs(image - np.array([2.0, 4.0]))) > 1e-9:
        problems.append(f"flow(2, origin) = {image.tolist()} not (2, 4)")

    worst_s = 0.0
    worst_i = 0.0
    worst_jac = 0.0
    for _ in range(100):
        x = rng.uniform(-2.0, 2.0, size=2)
        worst_s = max(worst_s, abs(directional_derivative(field, bundle.S, x) - 1.0))
        worst_i = max(
            worst_i, abs(directional_derivative(field, bundle.invariants[0], x))
        )
        jac = np.stack([bundle.S.gradient(x), bundle.invariants[0].gradient(x)])
        worst_jac = max(worst_jac, abs(np.linalg.det(jac) - 1.0))
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


def _random_tangent(rng, kind: str, n: int) -> ga.TangentAtIdentity:
    mat = rng.uniform(-1.0, 1.0, size=(n, n))
    vec = rng.uniform(-1.0, 1.0, size=n)
    if kind == ga.TRANSLATION_GROUP:
        return ga.translation_tangent(vec)
    if kind == ga.GENERAL_LINEAR:
        return ga.linear_tangent(mat)
    return ga.affine_tangent(mat, vec)


def check_fundamental_agreement(seed: int = 42) -> CheckResult:
    """Difference-quotient fundamental fields against the closed forms for
    all five catalog actions, 100 random (X, x) pairs each; bound
    1e-5 * (1 + |x|)."""
    rng = _rng(seed, 5)
    worst = 0.0
    for variant in ga.CATALOG_VARIANTS:
        for _ in range(100):
            n = int(rng.integers(1, 4))
            if variant == ga.EXP_TRANSLATION:
                action = ga.exp_translation_action(rng.uniform(-1.5, 1.5, size=n))
            elif variant == ga.DET_WEIGHTED:
                action = ga.det_weighted_action(n, int(rng.integers(0, 4)))
            else:
                action = ga.GroupAction(variant, n)
            tangent = _random_tangent(rng, action.group_kind, n)
            x = rng.uniform(-2.0, 2.0, size=n)
            numeric = ga.fundamental_field_numeric(action, tangent, x)
            analytic = evaluate(ga.fundamental_field_analytic(action, tangent), x)
            rel = np.linalg.norm(numeric - analytic) / (1.0 + np.linalg.norm(x))
            worst = max(worst, rel)
    return _bounded(
        "fundamental-field-agreement", ("worst relative defect", worst, 1e-5)
    )


def check_field_tangent_roundtrip(seed: int = 42) -> CheckResult:
    """Field -> tangent -> fundamental field is the identity for the linear,
    constant, and affine bijections, and the det-weighted trace-removal
    inverse round-trips for q in 0..3, n in 1..4; bound 1e-12."""
    rng = _rng(seed, 6)
    cases = []
    for _ in range(50):
        n = int(rng.integers(1, 5))
        c = rng.uniform(-2.0, 2.0, size=(n, n))
        b = rng.uniform(-2.0, 2.0, size=n)
        cases += [
            (ga.standard_linear_action(n), AffineField(c, np.zeros(n))),
            (ga.standard_translation_action(n), AffineField(np.zeros((n, n)), b)),
            (ga.standard_affine_action(n), AffineField(c, b)),
        ]
    for n in range(1, 5):
        for q in range(4):
            action = ga.det_weighted_action(n, q)
            cases += [
                (action, AffineField(rng.uniform(-2.0, 2.0, size=(n, n)), np.zeros(n)))
                for _ in range(5)
            ]
    worst = 0.0
    for action, field in cases:
        tangent = ga.tangent_for_field(action, field)
        back = ga.fundamental_field_analytic(action, tangent)
        worst = max(worst, float(np.max(np.abs(back.matrix - field.matrix))))
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
    tangent = ga.linear_tangent(np.array([[1.0]]))
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


def _random_reshaping(rng, m: int) -> ScalarField:
    """Nontrivial C^1 function of m slots with an analytic gradient."""
    amp_sin = rng.uniform(-1.0, 1.0, size=m)
    amp_sq = rng.uniform(-0.5, 0.5, size=m)
    amp_lin = rng.uniform(-1.0, 1.0, size=m)

    def fn(xi):
        return float(
            np.dot(amp_sin, np.sin(xi))
            + np.dot(amp_sq, xi**2)
            + np.dot(amp_lin, xi)
        )

    def grad(xi):
        return amp_sin * np.cos(xi) + 2.0 * amp_sq * xi + amp_lin

    return ScalarField(m, fn, grad=grad)


def check_invariant_flow_constancy(seed: int = 42) -> CheckResult:
    """100 random constant-field bundles with nontrivial reshapings: along
    the flow, invariants stay fixed and the canonical parameter advances by
    exactly t, to 1e-7, for t in {-1, -0.5, 0.5, 1}, all four images from
    one ``flow_at`` call."""
    rng = _rng(seed, 8)
    times = np.array([-1.0, -0.5, 0.5, 1.0])
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 5))
        b = rng.uniform(0.3, 2.0, size=n) * rng.choice([-1.0, 1.0], size=n)
        bundle = constant_field_bundle(
            b, F=_random_reshaping(rng, n - 1), G=_random_reshaping(rng, n - 1)
        )
        flow = make_flow(bundle.field)
        x = rng.uniform(-2.0, 2.0, size=n)
        s0 = bundle.S.value(x)
        i0 = bundle.invariants[0].value(x)
        for t, moved in zip(times, flow_at(flow, times, x)):
            worst = max(
                worst,
                abs(bundle.S.value(moved) - s0 - t),
                abs(bundle.invariants[0].value(moved) - i0),
            )
    return _bounded("invariant-flow-constancy", ("worst defect", worst, 1e-7))


def check_rk4_order(seed: int = 42) -> CheckResult:
    """Halving the RK4 step against the closed-form flow must show fourth
    order: measured exponent >= 3.7 on 20 random affine fields."""
    rng = _rng(seed, 9)
    worst_exponent = np.inf
    for _ in range(20):
        n = int(rng.integers(2, 5))
        field = _random_affine_field(rng, n)
        x = rng.uniform(-2.0, 2.0, size=n)
        reference = flow_at(make_flow(field), 1.0, x)
        errors = []
        for step in (0.1, 0.05):
            end = integrate(OdeProblem(lambda z: evaluate(field, z), x, 1.0, step))
            errors.append(np.linalg.norm(end - reference))
        if errors[1] == 0.0:
            continue
        exponent = float(np.log2(errors[0] / errors[1]))
        worst_exponent = min(worst_exponent, exponent)
    return CheckResult(
        "rk4-convergence-order",
        worst_exponent >= 3.7,
        f"smallest measured exponent {worst_exponent:.3f} (bound 3.7)",
    )


def _singular_matrix(rng, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Random rank n-1 matrix plus a unit vector spanning its null space."""
    a = rng.uniform(-2.0, 2.0, size=(n, n))
    u, sigma, vt = np.linalg.svd(a)
    sigma[-1] = 0.0
    return (u * sigma) @ vt, vt[-1]


def check_degenerate_flows(seed: int = 42) -> CheckResult:
    """Singular-matrix fields: when a fixed point exists but is not unique,
    the flow must equal exp(tC)(x - U) + U for two fixed points U that differ
    by a null vector (1e-10); when none exists, it must match RK4 (1e-6),
    marched on those 50 fields as one stacked homogeneous state by the RK4
    increment matrices.  Once both ensembles are drawn, their flows take one
    ``flow_images`` call per dimension and the exp(tC) one ``mat_exp`` call
    per dimension."""
    rng = _rng(seed, 10)
    worst_pair = 0.0
    worst_oracle = 0.0

    cases = []  # (field, t, x, fixed points U) of the first part
    while len(cases) < 150:  # 50 fields, 3 cases each
        n = int(rng.integers(2, 5))
        c, null_vec = _singular_matrix(rng, n)
        anchor = rng.uniform(-2.0, 2.0, size=n)
        b = -(c @ anchor)
        if np.max(np.abs(b)) < 0.1:
            continue
        field = AffineField(c, b)
        u0, _ = solve_linear(c, -b)  # solvable: -b = C anchor
        for _ in range(3):
            t = rng.uniform(-1.0, 1.0)
            x = rng.uniform(-2.0, 2.0, size=n)
            cases.append((field, t, x, (u0, u0 + null_vec)))
    fields, times, points, fixed = zip(*cases)
    images = _ensemble_images(fields, times, points)
    exps = _by_dimension(mat_exp, [t * f.C for f, t in zip(fields, times)])
    for image, e, x, us in zip(images, exps, points, fixed):
        for u in us:
            worst_pair = max(
                worst_pair, float(np.linalg.norm(image - (e @ (x - u) + u)))
            )

    fields, starts = [], []
    for _ in range(50):
        n = int(rng.integers(2, 5))
        c, _ = _singular_matrix(rng, n)
        left_null = np.linalg.svd(c)[0][:, -1]
        # b has a component along the left null vector, so C U + B = 0 has
        # no solution.
        b = rng.uniform(-1.0, 1.0, size=n) + left_null * rng.uniform(0.5, 1.5)
        fields.append(AffineField(c, b))
        starts.append(rng.uniform(-2.0, 2.0, size=(1, n)))
    images = _ensemble_images(fields, [1.0] * len(fields), [x[0] for x in starts])
    ends = _stacked_rk4_ends(fields, starts)
    for field, image, end in zip(fields, images, ends):
        defect = float(np.linalg.norm(image - end[0, : field.n]))
        worst_oracle = max(worst_oracle, defect)

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
