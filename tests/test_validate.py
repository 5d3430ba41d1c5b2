"""The per-dimension stacks and the per-dimension RK4 passes behind
validation checks 1, 2, 8, 9 and 10, the point stack of check 4, the
per-action stacks of checks 5 and 6 (a parameter per row) and the pair
stacks of check 3, against one case at a time, the kernel calls of checks 1
and 2 and the stacks of check 5, check 9 against a third-order stepper, and
check 3's failure reports under a wrong commutator.  The block draws of
checks 1, 2, 5, 6, 8, 9 and 10 are rows of the draw table in
test_draws.py."""

from itertools import combinations_with_replacement

import numpy as np
import pytest

from affine_fields import AffineField, all_generators, bracket, evaluate, linalg, oracle, validate
from affine_fields import actions as ga
from affine_fields.fields import _commutator
from affine_fields.flows import flow_at, make_flow
from affine_fields.invariants import (
    ScalarField,
    constant_field_bundle,
    planar_affine_family,
    straightened_frame_flow,
)
from affine_fields.linalg import _generator, mat_exp, solve_linear
from affine_fields.oracle import DivergenceError, OdeProblem, integrate, integrate_linear
from affine_fields.validate import (
    _ParamRows,
    _rk4_ends,
    _singular_matrix,
    _random_reshaping,
    check_degenerate_flows,
    check_field_tangent_roundtrip,
    check_flow_vs_oracle,
    check_fundamental_agreement,
    check_group_law,
    check_invariant_flow_constancy,
    check_planar_family,
    check_rk4_order,
    check_structure_constants,
)

from conftest import random_affine_field


def _block(n, k=3):
    """k random fields on R^n, each with two starts: (fields, generator
    stack, (k, 2, n) starts)."""
    rng = np.random.default_rng([6, n])
    fields = [random_affine_field(rng, n) for _ in range(k)]
    starts = rng.uniform(-2.0, 2.0, size=(k, 2, n))
    return fields, np.array([field.matrix for field in fields]), starts


@pytest.mark.parametrize("n", range(1, 7))
@pytest.mark.parametrize("integrator, step", [(integrate_linear, 1e-3), (integrate, 0.05)])
def test_block_matches_one_integration_per_field_and_start(n, integrator, step):
    fields, g, starts = _block(n)
    ends = _rk4_ends(g, starts, integrator, step)
    assert ends.shape == (3, 2, n)
    for field, xs, stacked in zip(fields, starts, ends):
        for x, end in zip(xs, stacked):
            want = integrate(
                OdeProblem(lambda z: evaluate(field, z), x, 1.0, step)
            )
            assert np.linalg.norm(end - want) <= 1e-13 * np.linalg.norm(want)


def test_one_diverging_field_fails_the_block():
    fields, g, starts = _block(1)
    g[1, 0, 0] = 1e4
    with pytest.raises(DivergenceError):
        _rk4_ends(g, starts, integrate_linear, 1e-3)


def _rk4_order_detail_field_by_field(seed):
    """Check 9 as one integration per field and step, from ``evaluate``,
    against one ``flow_at`` reference per field, in the same draw order."""
    rng = np.random.default_rng([seed, 9])
    worst_exponent = np.inf
    for _ in range(20):
        n = int(rng.integers(2, 5))
        field = random_affine_field(rng, n)
        x = rng.uniform(-2.0, 2.0, size=n)
        reference = flow_at(make_flow(field), 1.0, x)
        errors = []
        for step in (0.05, 0.025):
            end = integrate(OdeProblem(lambda z: evaluate(field, z), x, 1.0, step))
            errors.append(np.linalg.norm(end - reference))
        if errors[1] == 0.0:
            continue
        exponent = float(np.log2(errors[0] / errors[1]))
        worst_exponent = min(worst_exponent, exponent)
    return f"smallest measured exponent {worst_exponent:.3f} (bound 3.7)"


@pytest.mark.parametrize("seed", [42, 2006, 7])
def test_stacked_rk4_order_is_the_field_by_field_check(seed):
    assert check_rk4_order(seed).detail == _rk4_order_detail_field_by_field(seed)


def test_rk4_order_passes_where_a_step_of_0_1_is_outside_the_asymptotic_range():
    # Seed 2247 draws a field with an eigenvalue of 5.06: from h = 0.1 to
    # 0.05 its exponent measured 3.698.
    result = check_rk4_order(2247)
    assert result.passed, result.detail


def _third_order_increment(rhs, y, h):
    """Kutta's third-order stepper in place of RK4's increment."""
    k1 = rhs(y)
    k2 = rhs(y + 0.5 * h * k1)
    k3 = rhs(y - h * k1 + 2.0 * h * k2)
    return (h / 6.0) * (k1 + 4.0 * k2 + k3)


@pytest.mark.parametrize("seed", [42, 2006, 7])
def test_rk4_order_fails_a_third_order_stepper(monkeypatch, seed):
    monkeypatch.setattr(oracle, "_rk4_increment", _third_order_increment)
    result = check_rk4_order(seed)
    exponent = float(result.detail.split()[3])
    assert not result.passed and 2.5 < exponent < 3.5, result.detail


def _rk4_ends_in_draw_order(fields, starts):
    """RK4 ends at t=1, step 1e-3, from one ``integrate_linear`` of the
    zero-padded homogeneous state laid out field by field in draw order."""
    n_max = max(field.n for field in fields)
    g_t = np.zeros((len(fields), n_max + 1, n_max + 1))
    state = np.zeros((len(fields), len(starts[0]), n_max + 1))
    state[..., n_max] = 1.0
    for k, (field, xs) in enumerate(zip(fields, starts)):
        g_t[k, : field.n, : field.n] = field.C.T
        g_t[k, n_max, : field.n] = field.B
        state[k, :, : field.n] = xs
    return integrate_linear(OdeProblem(lambda z: z @ g_t, state, 1.0, 1e-3))


def _oracle_detail_case_by_case(seed):
    """Check 1 with one flow per field, one ``flow_at`` and two
    ``np.linalg.norm`` calls per start, in the same draw order."""
    rng = np.random.default_rng([seed, 1])
    fields, starts = [], []
    for _ in range(500):
        n = int(rng.integers(1, 7))
        fields.append(random_affine_field(rng, n))
        starts.append(rng.uniform(-2.0, 2.0, size=(3, n)))
    worst = 0.0
    for field, xs, ends in zip(fields, starts, _rk4_ends_in_draw_order(fields, starts)):
        flow = make_flow(field)
        for x, end in zip(xs, ends):
            defect = np.linalg.norm(flow_at(flow, 1.0, x) - end[: field.n])
            worst = max(worst, defect / (1.0 + np.linalg.norm(x)))
    return f"worst relative defect {worst:.3e} (bound 1e-06)"


def _group_law_detail_case_by_case(seed):
    """Check 2 with one flow per field, three ``flow_at`` calls and two
    ``np.linalg.norm`` calls per case, in the same draw order."""
    rng = np.random.default_rng([seed, 2])
    worst = 0.0
    for _ in range(500):
        n = int(rng.integers(1, 7))
        flow = make_flow(random_affine_field(rng, n))
        for _ in range(3):
            s, t = rng.uniform(-1.0, 1.0, size=2)
            x = rng.uniform(-2.0, 2.0, size=n)
            direct = flow_at(flow, s + t, x)
            composed = flow_at(flow, s, flow_at(flow, t, x))
            worst = max(worst, np.linalg.norm(direct - composed) / (1.0 + np.linalg.norm(x)))
    return f"worst relative defect {worst:.3e} (bound 1e-08)"


def _degenerate_detail_case_by_case(seed):
    """Check 10 with one flow per field, one ``flow_at`` and one ``mat_exp``
    per case and one ``np.linalg.norm`` per case and fixed point, in the
    same draw order."""
    rng = np.random.default_rng([seed, 10])
    worst_pair = 0.0
    fields = 0
    while fields < 50:
        n = int(rng.integers(2, 5))
        c, null_vec = _singular_matrix(rng.uniform(-2.0, 2.0, size=(n, n)))
        anchor = rng.uniform(-2.0, 2.0, size=n)
        b = -(c @ anchor)
        if np.max(np.abs(b)) < 0.1:
            continue
        fields += 1
        field = AffineField(c, b)
        flow = make_flow(field)
        u0, _ = solve_linear(c, -b)
        for _ in range(3):
            t = rng.uniform(-1.0, 1.0)
            x = rng.uniform(-2.0, 2.0, size=n)
            image = flow_at(flow, t, x)
            e = mat_exp(t * field.C)
            for u in (u0, u0 + null_vec):
                worst_pair = max(worst_pair, float(np.linalg.norm(image - (e @ (x - u) + u))))
    fields, starts = [], []
    for _ in range(50):
        n = int(rng.integers(2, 5))
        c, _ = _singular_matrix(rng.uniform(-2.0, 2.0, size=(n, n)))
        left_null = np.linalg.svd(c)[0][:, -1]
        b = rng.uniform(-1.0, 1.0, size=n) + left_null * rng.uniform(0.5, 1.5)
        fields.append(AffineField(c, b))
        starts.append(rng.uniform(-2.0, 2.0, size=(1, n)))
    worst_oracle = 0.0
    for field, xs, ends in zip(fields, starts, _rk4_ends_in_draw_order(fields, starts)):
        image = flow_at(make_flow(field), 1.0, xs[0])
        worst_oracle = max(worst_oracle, float(np.linalg.norm(image - ends[0, : field.n])))
    return (
        f"worst fixed-point-choice defect {worst_pair:.3e} (bound 1e-10), "
        f"worst oracle defect {worst_oracle:.3e} (bound 1e-06)"
    )


def _amplitudes_per_call(rng, m):
    """A reshaping's amplitudes, one ``rng.uniform`` call per term: sin,
    square, linear."""
    return np.concatenate([rng.uniform(-1.0, 1.0, size=m), rng.uniform(-0.5, 0.5, size=m),
                           rng.uniform(-1.0, 1.0, size=m)])


def _reshaping_per_call(rng, m):
    """Check 8's reshaping as a plain ScalarField, with no stack form."""
    amp_sin, amp_sq, amp_lin = np.split(_amplitudes_per_call(rng, m), 3)
    return ScalarField(m, lambda xi: float(
        np.dot(amp_sin, np.sin(xi)) + np.dot(amp_sq, xi**2) + np.dot(amp_lin, xi)))


def _invariant_detail_case_by_case(seed):
    """Check 8 with one flow and one ``flow_at`` call per bundle and one
    ``value`` call per function and point, in the same draw order."""
    rng = np.random.default_rng([seed, 8])
    times = np.array([-1.0, -0.5, 0.5, 1.0])
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 5))
        b = rng.uniform(0.3, 2.0, size=n) * rng.choice([-1.0, 1.0], size=n)
        bundle = constant_field_bundle(
            b, F=_reshaping_per_call(rng, n - 1), G=_reshaping_per_call(rng, n - 1)
        )
        flow = make_flow(bundle.field)
        x = rng.uniform(-2.0, 2.0, size=n)
        s0, i0 = bundle.S.value(x), bundle.invariants[0].value(x)
        for t, moved in zip(times, flow_at(flow, times, x)):
            worst = max(
                worst,
                abs(bundle.S.value(moved) - s0 - t),
                abs(bundle.invariants[0].value(moved) - i0),
            )
    return f"worst defect {worst:.3e} (bound 1e-07)"


@pytest.mark.parametrize("m", [1, 2, 3, 5])
def test_reshapings_of_a_stack_are_each_cases_per_point_values(m):
    rng = np.random.default_rng([m, 8])
    amps = rng.uniform(-1.0, 1.0, size=(30, 3 * m))
    xi = rng.uniform(-3.0, 3.0, size=(30, 5, m))
    for a, points, got in zip(amps, xi, _random_reshaping(amps, xi)):
        amp_sin, amp_sq, amp_lin = np.split(a, 3)
        want = [float(np.dot(amp_sin, np.sin(p)) + np.dot(amp_sq, p**2) + np.dot(amp_lin, p))
                for p in points]
        assert got.tobytes() == np.array(want).tobytes()


def _planar_detail_case_by_case(seed):
    """Check 4 with one ``evaluate``, two ``gradient`` calls, two ``np.dot``
    and one ``np.linalg.det`` per point, in the same draw order."""
    rng = np.random.default_rng([seed, 4])
    field, bundle = planar_affine_family(1.0, 1.0, 0.0)
    assert np.array_equal(flow_at(make_flow(field), 2.0, np.zeros(2)), [2.0, 4.0])
    worst_s = worst_i = worst_jac = 0.0
    for _ in range(100):
        x = rng.uniform(-2.0, 2.0, size=2)
        v = evaluate(field, x)
        jac = np.stack([bundle.S.gradient(x), bundle.invariants[0].gradient(x)])
        worst_s = max(worst_s, abs(float(np.dot(jac[0], v)) - 1.0))
        worst_i = max(worst_i, abs(float(np.dot(jac[1], v))))
        worst_jac = max(worst_jac, abs(np.linalg.det(jac) - 1.0))
    for _ in range(10):
        b, c, t = rng.uniform(-2.0, 2.0, size=3)
        assert list(straightened_frame_flow(bundle, t, [b, c])) == [b + t, c]
    return f"defects: S {worst_s:.2e}, I {worst_i:.2e}, det {worst_jac:.2e} (bound 1e-09)"


def _random_tangent(rng, kind, n):
    """A generator in the algebra of ``kind``: both parts drawn, the part
    outside the algebra zeroed."""
    mat = rng.uniform(-1.0, 1.0, size=(n, n))
    vec = rng.uniform(-1.0, 1.0, size=n)
    if kind == ga.TRANSLATION_GROUP:
        mat[:] = 0.0
    if kind == ga.GENERAL_LINEAR:
        vec[:] = 0.0
    return AffineField(mat, vec)


def _fundamental_detail_case_by_case(seed):
    """Check 5 with one action, one ``fundamental_field_numeric`` call, one
    closed form through ``evaluate`` and two ``np.linalg.norm`` calls per
    case, in the same draw order."""
    rng = np.random.default_rng([seed, 5])
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
            worst = max(worst, np.linalg.norm(numeric - analytic) / (1.0 + np.linalg.norm(x)))
    return f"worst relative defect {worst:.3e} (bound 1e-05)"


def _field_tangent_detail_case_by_case(seed):
    """Check 6 with one action and one field per case, and one
    ``tangent_for_field`` and one ``fundamental_field_analytic`` call per
    case, in the same draw order."""
    rng = np.random.default_rng([seed, 6])
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
            cases += [(action, AffineField(rng.uniform(-2.0, 2.0, size=(n, n)), np.zeros(n)))
                      for _ in range(5)]
    worst = 0.0
    for action, field in cases:
        back = ga.fundamental_field_analytic(action, ga.tangent_for_field(action, field))
        worst = max(worst, float(np.max(np.abs(back.matrix - field.matrix))))
    return f"worst round-trip defect {worst:.3e} (bound 1e-12)"


CASE_BY_CASE = [
    (check_flow_vs_oracle, _oracle_detail_case_by_case),
    (check_group_law, _group_law_detail_case_by_case),
    (check_planar_family, _planar_detail_case_by_case),
    (check_fundamental_agreement, _fundamental_detail_case_by_case),
    (check_field_tangent_roundtrip, _field_tangent_detail_case_by_case),
    (check_invariant_flow_constancy, _invariant_detail_case_by_case),
    (check_degenerate_flows, _degenerate_detail_case_by_case),
]


@pytest.mark.parametrize("seed", [*range(10), 42, 2006])
@pytest.mark.parametrize(
    "check,reference", CASE_BY_CASE, ids=[c.__name__ for c, _ in CASE_BY_CASE]
)
def test_stacked_check_is_the_case_by_case_check(check, reference, seed):
    assert check(seed).detail == reference(seed)


@pytest.mark.parametrize("check, calls, matrices", [
    (check_flow_vs_oracle, 6, 500),  # exp(G) once per field, one call per n
    (check_group_law, 15, 4_500),  # blocks of at most ORBIT_BLOCK_ENTRIES entries
])
def test_each_exponential_is_formed_once(monkeypatch, check, calls, matrices):
    stacks, kernel = [], linalg._exp

    def spy(a, *args):
        stacks.append(len(a))
        return kernel(a, *args)

    monkeypatch.setattr(linalg, "_exp", spy)
    assert check(2006).passed
    assert (len(stacks), sum(stacks)) == (calls, matrices)


def test_check_5_takes_one_stack_per_action_and_n(monkeypatch):
    # The five variants by n, a weight or power per row.
    stacks, rows = [], ga._fundamental_rows
    monkeypatch.setattr(ga, "_fundamental_rows",
                        lambda a, g, x: stacks.append(len(g)) or rows(a, g, x))
    assert check_fundamental_agreement(2006).passed
    assert (len(stacks), sum(stacks)) == (15, 500)


def _weight_rows(rng, n):
    """exp-translation with a weight per row, each alone, and 40 generators
    in its algebra, an entry zero in some rows only."""
    s, b = rng.uniform(-1.5, 1.5, size=(2, 40, n))
    b[::7, 0] = 0.0
    alone = [ga.exp_translation_action(row) for row in s]
    return _ParamRows(ga.EXP_TRANSLATION, n, s=s), alone, _generator(0.0, b)


def _power_rows(rng, n):
    """det-weighted with a power in 0..3 per row, each alone, and 40 linear
    generators, an entry zero in some rows only."""
    q = rng.integers(0, 4, size=40)
    c = rng.uniform(-1.0, 1.0, size=(40, n, n))
    c[::7, 0, 0] = 0.0
    alone = [ga.det_weighted_action(n, int(power)) for power in q]
    return _ParamRows(ga.DET_WEIGHTED, n, q=q), alone, _generator(c, np.zeros((40, n)))


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("rows", [_weight_rows, _power_rows])
def test_parameter_rows_are_each_action_alone_bit_for_bit(rows, n):
    rng = np.random.default_rng([n, 13])
    action, alone, g = rows(rng, n)
    x = rng.uniform(-2.0, 2.0, size=(40, n))
    record = ga.VARIANTS[action.variant]
    numeric = ga._fundamental_rows(action, g, x)
    closed = record.field(action, g)
    tangents = record.tangent(action, closed)
    for j, one in enumerate(alone):
        tangent = AffineField(g[j, :n, :n], g[j, :n, n])
        field = ga.fundamental_field_analytic(one, tangent)
        assert numeric[j].tobytes() == ga.fundamental_field_numeric(one, tangent, x[j]).tobytes()
        assert closed[j].tobytes() == field.matrix.tobytes()
        assert tangents[j].tobytes() == ga.tangent_for_field(one, field).matrix.tobytes()


def test_singular_matrices_of_a_stack_are_each_matrix_alone():
    rng = np.random.default_rng(3)
    for n in (2, 3, 4):
        a = rng.uniform(-2.0, 2.0, size=(40, n, n))
        stacked = _singular_matrix(a)
        for k, m in enumerate(a):
            alone = _singular_matrix(m)
            assert [s[k].tobytes() for s in stacked] == [s.tobytes() for s in alone]


def test_check_3_commutators_are_the_bracket_pair_by_pair(monkeypatch):
    stacks = []

    def spy(gx, gy):
        stacks.append(_commutator(gx, gy))
        return stacks[-1]

    monkeypatch.setattr(validate, "_commutator", spy)
    assert check_structure_constants().passed
    assert len(stacks) == 4
    for n, got in zip(range(1, 5), stacks):
        pairs = list(combinations_with_replacement(all_generators(n), 2))
        assert len(got) == len(pairs)
        for ((_, f1), (_, f2)), m in zip(pairs, got):
            assert m.tobytes() == bracket(f1, f2).matrix.tobytes()


def _doctored(m, flip=(), set_entry=None):
    """A copy of a commutator stack with the rows ``flip`` negated and
    ``set_entry`` = (row, i, j, value) written."""
    m = m.copy()
    m[list(flip)] *= -1.0
    if set_entry is not None:
        row, i, j, value = set_entry
        m[row, i, j] = value
    return m


# At n = 1 the table is (E_1, E_1), (E_1, E_1^1), (E_1^1, E_1^1); only the
# middle bracket, E_1, is nonzero.
@pytest.mark.parametrize("change,detail", [
    (lambda m: -m, "[E_1, E_1^1] mismatch for n=1"),
    # Doubled, the pair both has a non-unit entry and mismatches: the
    # non-unit entry is reported.
    (lambda m: 2.0 * m, "non-unit entry in [E_1, E_1^1] for n=1"),
    # The first failing pair in table order is reported, ...
    (lambda m: _doctored(m, flip=[1], set_entry=(2, 0, 0, 2.0)),
     "[E_1, E_1^1] mismatch for n=1"),
    (lambda m: _doctored(m, flip=[1], set_entry=(0, 0, 0, 0.5)),
     "non-unit entry in [E_1, E_1] for n=1"),
    # ... and a dimension only after every smaller one has passed.
    (lambda m: -m if len(m) == 21 else m, "[E_1, E_1^1] mismatch for n=2"),
])
def test_wrong_commutator_fails_check_3(monkeypatch, change, detail):
    monkeypatch.setattr(validate, "_commutator", lambda gx, gy: change(_commutator(gx, gy)))
    result = check_structure_constants()
    assert (result.passed, result.detail) == (False, detail)
