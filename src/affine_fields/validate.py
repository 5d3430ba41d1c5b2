"""Cross-module validation suite.

Each check pits one computational route against an independent one (closed
forms against RK4 integration, matrix brackets against the matrix-unit
relation of the generators, difference quotients against analytic fields)
at a fixed tolerance.  The CLI ``validate`` command and the acceptance tests
both run these.

Checks 1, 2, 5, 9 and 10 draw all the doubles of a case in one
``rng.random`` call, and check 8 in two and one ``rng.integers`` for the
signs, and map each dimension's block to its bounds at once (``_uniform``):
the ensembles of one ``rng.uniform`` call per value, bit for bit, with the
generator left in the same state.  The stacks' generators, images, dots and
norms are linalg's, each row bit for bit the lone case's.  Check 3 takes
the brackets of all generator pairs of a dimension in one commutator call
on stacks, and the SVDs of check 10's no-fixed-point block one call each.
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
from .flows import flow_at, flow_images, make_flow
from .invariants import (
    ScalarField,
    _gradients,
    _stacked,
    _values,
    constant_field_bundle,
    planar_affine_family,
    straightened_frame_flow,
)
from .linalg import _affine, _dots, _generator, _norms, as_integer, mat_exp, solve_linear
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


def _draw_blocks(rng, count: int, dims: tuple, width) -> list[tuple]:
    """``count`` cases, each ``rng.integers(*dims)`` for its n, then one
    ``rng.random(width(n))``: (n, block of the cases' rows) in increasing n."""
    drawn = {}
    for _ in range(count):
        n = int(rng.integers(*dims))
        drawn.setdefault(n, []).append(rng.random(width(n)))
    return [(n, np.array(drawn[n])) for n in sorted(drawn)]


def _block_generators(u, n: int, low: float, high: float) -> np.ndarray:
    """Generators of a block's rows: C row by row, then B, in [low, high)."""
    v = _uniform(u[:, : n * n + n], low, high)
    return _generator(v[:, : n * n].reshape(-1, n, n), v[:, n * n :])


def _field_blocks(rng, count: int, dims: tuple, starts: int) -> list[tuple]:
    """``_draw_blocks`` of fields and their starts, all in [-2, 2]:
    (generators, starts (k, starts, n)) per dimension n."""
    return [
        (_block_generators(u, n, -2.0, 2.0),
         _uniform(u[:, n * n + n :], -2.0, 2.0).reshape(-1, starts, n))
        for n, u in _draw_blocks(rng, count, dims, lambda n: n * n + n + starts * n)
    ]


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
    step 1e-3 from 3 random starts each; bound 1e-6 * (1 + |x|).  Each field
    and its starts take one ``rng.random`` call, into per-dimension stacks
    (``_field_blocks``); RK4 runs them as one stacked homogeneous state by a
    batched power of its increment matrices, and the closed forms and norms
    take one call per dimension."""
    worst = max(
        np.max(defects / (1.0 + _norms(x)))
        for x, defects in _rk4_defects(_field_blocks(_rng(seed, 1), 500, (1, 7), 3))
    )
    return _bounded("closed-form-vs-rk4", ("worst relative defect", worst, 1e-6))


def _group_law_draws(rng) -> list[tuple]:
    """Check 2's ``_draw_blocks`` of fields (in [-2, 2]) with 3 cases each, s
    and t in [-1, 1], x in [-2, 2]: (generators, s, t, x), a row per case."""
    draws = []
    for n, u in _draw_blocks(rng, 500, (1, 7), lambda n: n * n + 4 * n + 6):
        cases = u[:, n * n + n :].reshape(-1, 2 + n)
        s, t = _uniform(cases[:, :2], -1.0, 1.0).T
        g = np.repeat(_block_generators(u, n, -2.0, 2.0), 3, axis=0)
        draws.append((g, s, t, _uniform(cases[:, 2:], -2.0, 2.0)))
    return draws


def check_group_law(seed: int = 42) -> CheckResult:
    """Flow composition flow(s+t) = flow(s) o flow(t) on 500 random fields,
    3 cases each, s, t in [-1, 1]; bound 1e-8 * (1 + |x|).  The cases are
    drawn into per-dimension stacks (``_group_law_draws``), and the direct,
    inner and outer flows each take one ``flow_images`` call per dimension
    on one generator stack."""
    worst = 0.0
    for g, s, t, x in _group_law_draws(_rng(seed, 2)):
        composed = flow_images(g, s, flow_images(g, t, x))
        defects = _norms(flow_images(g, s + t, x) - composed) / (1.0 + _norms(x))
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


def _fundamental_draws(rng) -> dict:
    """Check 5's stacks {(variant, n, "s" or "q" or None, its value):
    (generators, x)}: a case draws n, s or q, then one ``rng.random`` for its
    generator (in [-1, 1], outside the algebra zeroed) and x (in [-2, 2])."""
    cases = {}
    for variant, record in ga.VARIANTS.items():
        for _ in range(100):
            n = int(rng.integers(1, 4))
            value = (tuple(rng.uniform(-1.5, 1.5, size=n)) if record.param == "s"
                     else int(rng.integers(0, 4)) if record.param == "q" else None)
            key = (variant, n, record.param, value)
            cases.setdefault(key, []).append(rng.random(n * n + 2 * n))
    draws = {}
    for (variant, n, param, value), drawn in cases.items():
        u = np.array(drawn)
        g, kind = _block_generators(u, n, -1.0, 1.0), ga.VARIANTS[variant].kind
        if kind in ga._SUBGROUPS:  # zero the block outside the algebra
            g[ga._SUBGROUPS[kind][0]] = 0.0
        draws[variant, n, param, value] = (g, _uniform(u[:, n * n + n :], -2.0, 2.0))
    return draws


def check_fundamental_agreement(seed: int = 42) -> CheckResult:
    """Difference-quotient fundamental fields against the closed forms for
    all five catalog actions, 100 random (X, x) pairs each; bound
    1e-5 * (1 + |x|).  The cases of one action (a standard one by n,
    det-weighted by (n, q)) form a stack (``_fundamental_draws``): one
    ``actions._fundamental_rows`` call, and one ``_affine`` call for the
    closed forms X x, (X_vec . s) x or (X_mat + q trace(X_mat) I) x."""
    worst = 0.0
    for (variant, n, param, value), (g, x) in _fundamental_draws(_rng(seed, 5)).items():
        action = ga.GroupAction(variant, n, **({param: value} if param else {}))
        c, b = g[:, :n, :n], g[:, :n, n]
        if param == "s":
            c, b = (b @ action.s)[:, None, None] * np.eye(n), np.zeros(b.shape)
        elif param == "q":
            c = c + (value * np.trace(c, axis1=1, axis2=2))[:, None, None] * np.eye(n)
        defects = ga._fundamental_rows(action, g, x) - _affine(_generator(c, b), x)
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


def _random_reshaping(amps) -> ScalarField:
    """Nontrivial C^1 function of m slots with an analytic gradient, from its
    3m amplitudes: of sin(xi), then xi^2, then xi.  Its fn and grad also
    take stacks, each term's sum rounded as np.dot's."""
    amp_sin, amp_sq, amp_lin = amps.reshape(3, -1)

    def fn(xi):
        return _dots(np.sin(xi), amp_sin) + _dots(xi**2, amp_sq) + _dots(xi, amp_lin)

    def grad(xi):
        return amp_sin * np.cos(xi) + 2.0 * amp_sq * xi + amp_lin

    return _stacked(len(amp_sin), fn, grad)


def _invariant_draws(rng) -> list[tuple]:
    """Check 8's stacks (b, amplitudes, starts), a row per case, per
    dimension n in increasing n.  A case draws n, then b's magnitudes in
    [0.3, 2) and its signs, then one ``rng.random`` for F's and G's 3(n - 1)
    amplitudes each (sin and linear terms in [-1, 1), square terms in
    [-0.5, 0.5)) and the start in [-2, 2)."""
    cases = {}
    for _ in range(100):
        n = int(rng.integers(2, 5))
        cases.setdefault(n, []).append(
            (rng.random(n), rng.integers(0, 2, size=n), rng.random(7 * n - 6)))
    draws = []
    for magnitudes, signs, u in _stacks(cases):
        m = signs.shape[1] - 1
        bound = np.tile(np.repeat([1.0, 0.5, 1.0], m), 2)
        draws.append((_uniform(magnitudes, 0.3, 2.0) * (2.0 * signs - 1.0),
                      _uniform(u[:, : 6 * m], -bound, bound), _uniform(u[:, 6 * m :], -2.0, 2.0)))
    return draws


def check_invariant_flow_constancy(seed: int = 42) -> CheckResult:
    """100 random constant-field bundles with nontrivial reshapings: along
    the flow, invariants stay fixed and the canonical parameter advances by
    exactly t, to 1e-7, for t in {-1, -0.5, 0.5, 1}.  The cases are drawn
    into per-dimension stacks (``_invariant_draws``), and the images at all
    four times take one ``flow_images`` call per dimension.  S and the
    invariant of a bundle each take one stack-form call (``_values``) on the
    (5, n) stack of the start and its images, bit for bit their per-point
    values."""
    times = np.array([-1.0, -0.5, 0.5, 1.0])
    worst, k = 0.0, len(times)
    for b, amps, starts in _invariant_draws(_rng(seed, 8)):
        n = b.shape[1]
        g = np.repeat(_generator(0.0, b), k, axis=0)
        images = flow_images(g, np.tile(times, len(b)), np.repeat(starts, k, axis=0))
        stacks = np.concatenate([starts[:, None], images.reshape(-1, k, n)], axis=1)
        defects = np.empty((len(b), 2, k))
        for row, a, stack, out in zip(b, amps, stacks, defects):
            bundle = constant_field_bundle(row, F=_random_reshaping(a[: 3 * n - 3]),
                                           G=_random_reshaping(a[3 * n - 3 :]))
            s, i = _values(bundle.S, stack), _values(bundle.invariants[0], stack)
            out[0], out[1] = s[1:] - s[0] - times, i[1:] - i[0]
        worst = max(worst, np.abs(defects).max())
    return _bounded("invariant-flow-constancy", ("worst defect", worst, 1e-7))


def check_rk4_order(seed: int = 42) -> CheckResult:
    """Halving the RK4 step against the closed-form flow must show fourth
    order: measured exponent >= 3.7 on 20 random affine fields, each field
    and its start one ``rng.random`` call, into per-dimension stacks
    (``_field_blocks``).  The references take one ``flow_images`` call per
    dimension, and each step length one four-stage ``integrate`` of all 20
    fields as one stacked homogeneous state."""
    blocks = _field_blocks(_rng(seed, 9), 20, (2, 5), 1)
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


def _singular_matrix(a) -> tuple[np.ndarray, np.ndarray]:
    """The rank n-1 matrix of ``a`` with its least singular value zeroed,
    plus a unit vector spanning its null space; of a stack, row by row, bit
    for bit each matrix alone."""
    u, sigma, vt = np.linalg.svd(a)
    sigma[..., -1] = 0.0
    return (u * sigma[..., None, :]) @ vt, vt[..., -1, :]


def _degenerate_draws(rng) -> tuple[list, list]:
    """Check 10's stacks of (generator, t, x, U, U + null vector), 3 cases for
    each of 50 fields whose B = -C anchor has an entry of at least 0.1 (C and
    anchor one ``rng.random`` call, the cases one more), then the blocks of
    ``_draw_blocks`` of 50 fields with no fixed point and their starts."""
    cases = {}
    fields = 0
    while fields < 50:
        n = int(rng.integers(2, 5))
        v = _uniform(rng.random(n * n + n), -2.0, 2.0)
        c, null_vec = _singular_matrix(v[: n * n].reshape(n, n))
        b = -(c @ v[n * n :])
        if np.max(np.abs(b)) < 0.1:
            continue
        fields += 1
        g = _generator(c, b)
        u0, _ = solve_linear(c, -b)  # solvable: -b = C anchor
        u = rng.random((3, n + 1))
        for t, x in zip(_uniform(u[:, 0], -1.0, 1.0), _uniform(u[:, 1:], -2.0, 2.0)):
            cases.setdefault(n, []).append((g, t, x, u0, u0 + null_vec))
    blocks = []
    for n, u in _draw_blocks(rng, 50, (2, 5), lambda n: n * n + 2 * n + 1):
        c, _ = _singular_matrix(_uniform(u[:, : n * n], -2.0, 2.0).reshape(-1, n, n))
        # b has a component along the left null vector, so C U + B = 0 has
        # no solution.
        left_null = np.linalg.svd(c)[0][..., -1]
        b = _uniform(u[:, n * n : -n - 1], -1.0, 1.0) + left_null * _uniform(u[:, -n - 1 : -n], 0.5, 1.5)
        blocks.append((_generator(c, b), _uniform(u[:, -n:], -2.0, 2.0)[:, None]))
    return _stacks(cases), blocks


def check_degenerate_flows(seed: int = 42) -> CheckResult:
    """Singular-matrix fields: when a fixed point exists but is not unique,
    the flow must equal exp(tC)(x - U) + U for two fixed points U that differ
    by a null vector (1e-10); when none exists, it must match RK4 (1e-6),
    run on those 50 fields as one stacked homogeneous state by a batched
    power of the RK4 increment matrices.  Both ensembles are drawn into
    per-dimension stacks, each field's doubles in one or two ``rng.random``
    calls (``_degenerate_draws``); their flows take one ``flow_images`` call
    per dimension, the exp(tC) one ``mat_exp`` call per dimension, and the
    norms one call per dimension and term."""
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
