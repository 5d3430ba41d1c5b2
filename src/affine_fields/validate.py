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
    evaluate,  # noqa: F401  (unused; instrumentation looks it up here)
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
from .linalg import _norms, mat_exp, solve_linear
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


def _generator(c, b) -> np.ndarray:
    """[[C, B], [0, 0]] of the field x -> Cx + B, without the input checks
    of ``augment_affine``: the callers' C and B are finite draws."""
    n = len(b)
    g = np.zeros((n + 1, n + 1))
    g[:n, :n] = c
    g[:n, n] = b
    return g


def _random_generator(rng, n) -> np.ndarray:
    """C and B with entries uniform in [-2, 2], C drawn first."""
    return _generator(
        rng.uniform(-2.0, 2.0, size=(n, n)), rng.uniform(-2.0, 2.0, size=n)
    )


def _rng(seed: int, salt: int) -> np.random.Generator:
    return np.random.default_rng([seed, salt])


def _stacks(cases: dict) -> list[tuple]:
    """Cases drawn as {n: [(value, ...), ...]}, one tuple of stacks per
    dimension n, in increasing n: each value column stacked in draw order.
    With ``flow_images``, ``mat_exp`` or ``_norms`` on them, each row is bit
    for bit that of the case alone, because all three decide per row."""
    return [tuple(map(np.array, zip(*cases[n]))) for n in sorted(cases)]


def _homogeneous_stack(blocks) -> tuple[np.ndarray, np.ndarray]:
    """(Gᵀ, state) for stacked integration of per-dimension blocks
    (generators (k, n+1, n+1), starts (k, s, n)), all with s starts:
    the per-field Gᵀ = [[Cᵀ, 0], [B, 0]] and the homogeneous
    (fields, s, n_max + 1) state (x, 1), block after block, so that
    z ↦ z @ Gᵀ is every field at once.  Padded coordinates have zero rows
    and columns in Gᵀ and its last column is zero, so under RK4 they stay
    exactly 0 and the homogeneous coordinate exactly 1."""
    n_max = max(x.shape[-1] for _, x in blocks)
    k = sum(len(g) for g, _ in blocks)
    g_t = np.zeros((k, n_max + 1, n_max + 1))
    state = np.zeros((k, blocks[0][1].shape[1], n_max + 1))
    state[..., n_max] = 1.0
    lo = 0
    for g, x in blocks:
        rows, n = slice(lo, lo + len(g)), x.shape[-1]
        g_t[rows, :n, :n] = g[:, :n, :n].transpose(0, 2, 1)
        g_t[rows, n_max, :n] = g[:, :n, n]
        state[rows, :, :n] = x
        lo += len(g)
    return g_t, state


def _by_block(ends, blocks) -> list:
    """Stacked ends cut back into the blocks of ``_homogeneous_stack``, each
    (k, s, n_max), its own coordinates first."""
    return np.split(ends[..., :-1], np.cumsum([len(g) for g, _ in blocks])[:-1])


def _stacked_rk4_ends(blocks) -> list:
    """RK4 ends at t=1, step 1e-3, of each field of the blocks from its
    starts, by one ``integrate_linear`` of the ``_homogeneous_stack``: one
    batched power of the RK4 increment matrices for the 1,000 steps, in
    about 20 products.  Returns one (k, s, n_max) array per block; a block
    of dimension n ends at ``[..., :n]``."""
    g_t, state = _homogeneous_stack(blocks)
    ends = integrate_linear(OdeProblem(lambda z: z @ g_t, state, 1.0, 1e-3))
    return _by_block(ends, blocks)


def _rk4_defects(blocks):
    """(starts, defects) per block: the starts as (k s, n) rows, and the
    norms of closed form at t=1 minus RK4 end from each, the closed forms by
    one ``flow_images`` call per block."""
    for (g, x), ends in zip(blocks, _stacked_rk4_ends(blocks)):
        k, s, n = x.shape
        x = x.reshape(-1, n)
        images = flow_images(np.repeat(g, s, axis=0), np.ones(k * s), x)
        yield x, _norms(images - ends[..., :n].reshape(-1, n))


def check_flow_vs_oracle(seed: int = 42) -> CheckResult:
    """500 random affine fields, closed-form flow at t=1 against RK4 with
    step 1e-3 from 3 random starts each; bound 1e-6 * (1 + |x|).  The fields
    and starts are drawn into per-dimension stacks; RK4 runs them as one
    stacked homogeneous state by a batched power of its increment matrices,
    and the closed forms and norms take one call per dimension."""
    rng = _rng(seed, 1)
    cases = {}
    for _ in range(500):
        n = int(rng.integers(1, 7))
        g = _random_generator(rng, n)
        cases.setdefault(n, []).append((g, rng.uniform(-2.0, 2.0, size=(3, n))))
    worst = max(
        np.max(defects / (1.0 + _norms(x)))
        for x, defects in _rk4_defects(_stacks(cases))
    )
    return _bounded("closed-form-vs-rk4", ("worst relative defect", worst, 1e-6))


def check_group_law(seed: int = 42) -> CheckResult:
    """Flow composition flow(s+t) = flow(s) o flow(t) on 500 random fields,
    3 cases each, s, t in [-1, 1]; bound 1e-8 * (1 + |x|).  The cases are
    drawn into per-dimension stacks, and the direct, inner and outer flows
    each take one ``flow_images`` call per dimension on one generator
    stack."""
    rng = _rng(seed, 2)
    cases = {}  # n: ([generator per field], [(s, t) per case], [x per case])
    for _ in range(500):
        n = int(rng.integers(1, 7))
        generators, times, starts = cases.setdefault(n, ([], [], []))
        generators.append(_random_generator(rng, n))
        for _ in range(3):
            times.append(rng.uniform(-1.0, 1.0, size=2))
            starts.append(rng.uniform(-2.0, 2.0, size=n))
    worst = 0.0
    for generators, times, starts in cases.values():
        g, (s, t), x = np.repeat(generators, 3, axis=0), np.array(times).T, np.array(starts)
        composed = flow_images(g, s, flow_images(g, t, x))
        defects = _norms(flow_images(g, s + t, x) - composed) / (1.0 + _norms(x))
        worst = max(worst, np.max(defects))
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
            if not np.all((got.matrix == 0.0) | (np.abs(got.matrix) == 1.0)):
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


def check_fundamental_agreement(seed: int = 42) -> CheckResult:
    """Difference-quotient fundamental fields against the closed forms for
    all five catalog actions, 100 random (X, x) pairs each; bound
    1e-5 * (1 + |x|).  The cases of one action (a standard one by n,
    det-weighted by (n, q)) form a stack: one ``actions._fundamental_rows``
    call, and one row product for the closed forms X x, (X_vec . s) x or
    (X_mat + q trace(X_mat) I) x."""
    rng = _rng(seed, 5)
    cases = {}  # (variant, n, "s" or "q" or None, its value): [(generator, x), ...]
    for variant, record in ga.VARIANTS.items():
        for _ in range(100):
            n = int(rng.integers(1, 4))
            value = (tuple(rng.uniform(-1.5, 1.5, size=n)) if record.param == "s"
                     else int(rng.integers(0, 4)) if record.param == "q" else None)
            g = _generator(rng.uniform(-1.0, 1.0, size=(n, n)), rng.uniform(-1.0, 1.0, size=n))
            if record.kind in ga._SUBGROUPS:  # zero the block outside the algebra
                g[ga._SUBGROUPS[record.kind][0]] = 0.0
            key = (variant, n, record.param, value)
            cases.setdefault(key, []).append((g, rng.uniform(-2.0, 2.0, size=n)))
    worst = 0.0
    for (variant, n, param, value), drawn in cases.items():
        g, x = map(np.array, zip(*drawn))
        action = ga.GroupAction(variant, n, **({param: value} if param else {}))
        c, b = g[:, :n, :n], g[:, :n, n]
        if param == "s":
            c, b = (b @ action.s)[:, None, None] * np.eye(n), np.zeros(n)
        elif param == "q":
            c = c + (value * np.trace(c, axis1=1, axis2=2))[:, None, None] * np.eye(n)
        defects = ga._fundamental_rows(action, g, x) - ((c @ x[..., None])[..., 0] + b)
        worst = max(worst, np.max(_norms(defects) / (1.0 + _norms(x))))
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
    exactly t, to 1e-7, for t in {-1, -0.5, 0.5, 1}.  The bundles and starts
    are drawn into per-dimension lists, and the images at all four times
    take one ``flow_images`` call per dimension."""
    rng = _rng(seed, 8)
    times = np.array([-1.0, -0.5, 0.5, 1.0])
    cases = {}
    for _ in range(100):
        n = int(rng.integers(2, 5))
        b = rng.uniform(0.3, 2.0, size=n) * rng.choice([-1.0, 1.0], size=n)
        bundle = constant_field_bundle(
            b, F=_random_reshaping(rng, n - 1), G=_random_reshaping(rng, n - 1)
        )
        cases.setdefault(n, []).append((bundle, rng.uniform(-2.0, 2.0, size=n)))
    worst, k = 0.0, len(times)
    for n, drawn in cases.items():
        bundles, starts = zip(*drawn)
        g = np.repeat([bundle.field.matrix for bundle in bundles], k, axis=0)
        images = flow_images(g, np.tile(times, len(starts)), np.repeat(starts, k, axis=0))
        for bundle, x, moved in zip(bundles, starts, images.reshape(-1, k, n)):
            s0, i0 = bundle.S.value(x), bundle.invariants[0].value(x)
            for t, image in zip(times, moved):
                worst = max(worst, abs(bundle.S.value(image) - s0 - t),
                            abs(bundle.invariants[0].value(image) - i0))
    return _bounded("invariant-flow-constancy", ("worst defect", worst, 1e-7))


def check_rk4_order(seed: int = 42) -> CheckResult:
    """Halving the RK4 step against the closed-form flow must show fourth
    order: measured exponent >= 3.7 on 20 random affine fields, drawn into
    per-dimension stacks.  The references take one ``flow_images`` call per
    dimension, and each step length one four-stage ``integrate`` of all 20
    fields as one stacked homogeneous state."""
    rng = _rng(seed, 9)
    cases = {}
    for _ in range(20):
        n = int(rng.integers(2, 5))
        g = _random_generator(rng, n)
        cases.setdefault(n, []).append((g, rng.uniform(-2.0, 2.0, size=(1, n))))
    blocks = _stacks(cases)
    references = [flow_images(g, np.ones(len(g)), x[:, 0]) for g, x in blocks]
    g_t, state = _homogeneous_stack(blocks)
    errors = []
    for step in (0.1, 0.05):
        ends = integrate(OdeProblem(lambda z: z @ g_t, state, 1.0, step))
        errors.append(np.concatenate([
            _norms(end[:, 0, : x.shape[-1]] - reference)
            for end, (_, x), reference in zip(_by_block(ends, blocks), blocks, references)
        ]))
    coarse, fine = errors
    ratios = coarse[fine != 0.0] / fine[fine != 0.0]
    worst_exponent = float(np.min(np.log2(ratios), initial=np.inf))
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
    run on those 50 fields as one stacked homogeneous state by a batched
    power of the RK4 increment matrices.  Both ensembles are drawn into
    per-dimension stacks; their flows take one ``flow_images`` call per
    dimension, the exp(tC) one ``mat_exp`` call per dimension, and the
    norms one call per dimension and term."""
    rng = _rng(seed, 10)
    cases = {}  # n: [(generator, t, x, U, U + null vector)], 3 for each of 50 fields
    fields = 0
    while fields < 50:
        n = int(rng.integers(2, 5))
        c, null_vec = _singular_matrix(rng, n)
        anchor = rng.uniform(-2.0, 2.0, size=n)
        b = -(c @ anchor)
        if np.max(np.abs(b)) < 0.1:
            continue
        fields += 1
        g = _generator(c, b)
        u0, _ = solve_linear(c, -b)  # solvable: -b = C anchor
        for _ in range(3):
            t = rng.uniform(-1.0, 1.0)
            x = rng.uniform(-2.0, 2.0, size=n)
            cases.setdefault(n, []).append((g, t, x, u0, u0 + null_vec))
    worst_pair = 0.0
    for g, t, x, *fixed in _stacks(cases):
        n = x.shape[1]
        images = flow_images(g, t, x)
        e = mat_exp(t[:, None, None] * g[:, :n, :n])
        for u in fixed:
            paper = (e @ (x - u)[..., None])[..., 0] + u
            worst_pair = max(worst_pair, np.max(_norms(images - paper)))

    cases = {}
    for _ in range(50):
        n = int(rng.integers(2, 5))
        c, _ = _singular_matrix(rng, n)
        left_null = np.linalg.svd(c)[0][:, -1]
        # b has a component along the left null vector, so C U + B = 0 has
        # no solution.
        b = rng.uniform(-1.0, 1.0, size=n) + left_null * rng.uniform(0.5, 1.5)
        cases.setdefault(n, []).append((_generator(c, b), rng.uniform(-2.0, 2.0, size=(1, n))))
    worst_oracle = max(np.max(defects) for _, defects in _rk4_defects(_stacks(cases)))

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
