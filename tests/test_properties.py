"""Property tests: the matrix exponential against a 50-digit reference and
against itself on stacks, and the algebra of fields, flows, group elements
and fundamental fields.

Hypothesis draws the dimension, the raw entries and a scale exponent; each
kind below turns them into one family of hard inputs.  The profile is pinned
(derandomized, no deadline, few examples), so the examples are the same on
every run.
"""

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from affine_fields import AffineField, bracket, flow_at, linear_change, make_flow
from affine_fields import actions as ga
from affine_fields.charts import (
    diagonal_scaling_chart,
    exponential_chart,
    identity_chart,
    lambert_chart,
)
from affine_fields.flows import ORBIT_BLOCK_ENTRIES, flow_images
from affine_fields.invariants import FD_STEP
from affine_fields.linalg import mat_exp

PINNED = settings(derandomize=True, deadline=None, max_examples=15, database=None)


def _random(raw, e):
    return raw * 10.0 ** (e - 2.0)


def _non_normal(raw, e):
    return np.diag(np.diag(raw)) + np.triu(raw, 1) * 10.0**e


def _nilpotent(raw, e):
    return np.triu(raw, 1) * 10.0**e


def _stiff(raw, e):
    # Eigenvalues down to -700, whose exponential is still a normal float.
    return np.triu(raw, 1) - 0.7 * np.diag(10.0 ** (e * np.abs(np.diag(raw))))


def _badly_scaled(raw, e):
    d = 10.0 ** (e * np.arange(len(raw)))
    return raw * d[:, None] / d[None, :]


# Kind: (builder from raw entries in [-1, 1] and e in [0, 3], bound on the
# relative 1-norm error).  The bounds leave a margin of ten or more over the
# worst error seen on a few hundred random draws of each kind.  Stiff inputs
# are where a Taylor polynomial loses digits: at a large negative argument
# its terms cancel, and the squarings amplify the loss.  The kernel shifts a
# mean eigenvalue below -theta_30 out first; what is left of the spread
# still costs a few digits (worst seen 4e-14 in 1,000 draws, against about
# 2e-13 for the Pade kernel before it, whose bound here was 1e-11).
KINDS = {
    "random": (_random, 1e-13),
    "non-normal": (_non_normal, 1e-13),
    "nilpotent": (_nilpotent, 1e-14),
    "stiff": (_stiff, 1e-12),
    "badly-scaled": (_badly_scaled, 1e-13),
}


def _mp_expm(a) -> np.ndarray:
    with mpmath.workdps(50):
        return np.array(mpmath.expm(mpmath.matrix(a.tolist())).tolist(), dtype=float)


def _relative_error(got, ref) -> float:
    scale = np.linalg.norm(ref, 1)
    diff = np.linalg.norm(got - ref, 1)
    return 0.0 if diff == 0.0 else diff / scale


@st.composite
def _stacks(draw, build):
    n = draw(st.integers(1, 5))
    count = draw(st.integers(1, 3))
    entries = st.floats(-1.0, 1.0, allow_subnormal=False)
    raws = draw(arrays(float, (count, n, n), elements=entries))
    exponents = draw(st.lists(st.floats(0.0, 3.0), min_size=count, max_size=count))
    return np.stack([build(raw, e) for raw, e in zip(raws, exponents)])


@pytest.mark.parametrize("kind", sorted(KINDS))
@PINNED
@given(data=st.data())
def test_stacked_and_single_agree_with_mpmath(kind, data):
    build, bound = KINDS[kind]
    stack = data.draw(_stacks(build))
    stacked = mat_exp(stack)
    for a, got in zip(stack, stacked):
        ref = _mp_expm(a)
        single = mat_exp(a)
        assert _relative_error(single, ref) <= bound, (kind, a)
        assert _relative_error(got, ref) <= bound, (kind, a)
        assert np.array_equal(got, single), (kind, a)


@st.composite
def _mixed_stack(draw):
    """1 to 8 matrices of one size n from 1 to 6: 1-norms from about 1e-4 to
    200 and exact zeros (entries, whole rows and columns, strictly upper
    triangular matrices, the zero matrix)."""
    n = draw(st.integers(1, 6))
    count = draw(st.integers(1, 8))
    entries = st.floats(-1.0, 1.0, allow_subnormal=False)
    stack = draw(arrays(float, (count, n, n), elements=entries))
    stack *= draw(arrays(bool, (count, n, n)))
    for a in stack:
        a *= 10.0 ** draw(st.floats(-4.0, 1.5))
        zero = draw(st.sampled_from(["none", "row", "column", "upper", "all"]))
        if zero == "row":
            a[-1] = 0.0
        elif zero == "column":
            a[:, -1] = 0.0
        elif zero == "upper":
            a[:] = np.triu(a, 1)
        elif zero == "all":
            a[:] = 0.0
    return stack


@PINNED
@given(data=st.data())
def test_mat_exp_of_a_stack_is_its_single_results(data):
    # Every choice of the kernel is made per matrix, so a matrix's result
    # does not depend on the rest of its stack, bit for bit.
    stack = data.draw(_mixed_stack())
    for a, got in zip(stack, mat_exp(stack)):
        assert np.array_equal(got, mat_exp(a)), a


# ------------------------------------------------ flows, brackets, changes
#
# Fields are drawn with entries in [-1, 1] and n from 1 to 5, the matrix
# part scaled by 10^e for e in [-2, 1].  Each bound is relative to the size
# of the quantities it compares, and is at least ten times the worst defect
# seen in 1,000 or more unpinned draws of its test.  Below the smallest
# normal float, products of tiny entries lose their relative accuracy, so
# every bound also admits an absolute defect of that size, _FLOOR.

_ENTRIES = st.floats(-1.0, 1.0, allow_subnormal=False)
_TIMES = st.floats(-2.0, 2.0, allow_subnormal=False)
_FLOOR = np.finfo(float).tiny


@st.composite
def _fields(draw, n):
    c = draw(arrays(float, (n, n), elements=_ENTRIES))
    b = draw(arrays(float, n, elements=_ENTRIES))
    return AffineField(c * 10.0 ** draw(st.floats(-2.0, 1.0)), b)


@st.composite
def _field_family(draw, count):
    """``count`` fields of one dimension n, and a point of R^n."""
    n = draw(st.integers(1, 5))
    fields = [draw(_fields(n)) for _ in range(count)]
    return fields, draw(arrays(float, n, elements=st.floats(-2.0, 2.0)))


def _homogeneous(field) -> np.ndarray:
    """[[C, B], [0, 0]], built here rather than taken from the package."""
    return np.block([[field.C, field.B[:, None]], [np.zeros((1, field.n + 1))]])


def _size(*parts) -> float:
    return float(np.prod([np.linalg.norm(p, 1) for p in parts]))


@PINNED
@given(data=st.data())
def test_flow_group_law(data):
    (field,), x = data.draw(_field_family(1))
    s, t = data.draw(_TIMES), data.draw(_TIMES)
    flow = make_flow(field)
    direct = flow_at(flow, s + t, x)
    composed = flow_at(flow, s, flow_at(flow, t, x))
    # exp((s + t) G) = exp(s G) exp(t G): size by the product of the factors.
    g = _homogeneous(field)
    size = _size(mat_exp(abs(s) * np.abs(g)), mat_exp(abs(t) * np.abs(g)))
    size *= 1.0 + np.abs(x).sum()
    assert np.linalg.norm(direct - composed, 1) <= 1e-12 * size + _FLOOR


@PINNED
@given(data=st.data())
def test_flow_at_agrees_with_mpmath(data):
    (field,), x = data.draw(_field_family(1))
    t = data.draw(_TIMES)
    # mpmath truncates its series relative to the norm of the argument, so
    # B is first scaled by a power of two beta to unit size: the image is
    # then exp(t G') (x, beta) for G' = [[C, B / beta], [0, 0]].
    beta = 1.0
    if field.B.any():
        beta = np.ldexp(1.0, np.frexp(np.abs(field.B).max())[1])
    scaled = _homogeneous(field)
    scaled[:-1, -1] /= beta
    lifted = np.append(x, beta)
    with mpmath.workdps(50):
        e = mpmath.expm(mpmath.mpf(t) * mpmath.matrix(scaled.tolist()))
        want = e * mpmath.matrix(lifted.tolist())
        want = np.array(want.tolist(), dtype=float)[:-1, 0]
        magnitude = np.array(e.apply(abs).tolist(), dtype=float)[:-1]
    got = flow_at(make_flow(field), t, x)
    size = (magnitude @ np.abs(lifted)).sum()
    assert np.linalg.norm(got - want, 1) <= 5e-13 * size + _FLOOR


@PINNED
@given(data=st.data())
def test_flow_at_many_times_is_its_single_times(data):
    # Row j of a call on many times is the call on t[j] alone, bit for bit.
    (field,), x = data.draw(_field_family(1))
    times = st.lists(st.sampled_from([0.0, 1e-3]) | _TIMES, min_size=1, max_size=12)
    ts = np.array(data.draw(times)) * 10.0 ** data.draw(st.floats(-3.0, 1.0))
    flow = make_flow(field)
    for t, image in zip(ts, flow_at(flow, ts, x)):
        assert np.array_equal(image, flow_at(flow, t, x)), t


@st.composite
def _generator_rows(draw):
    """1 to 8 fields of one dimension n from 1 to 6, each with its own time
    and point: some fields have C = 0, some times are zero or negative."""
    n = draw(st.integers(1, 6))
    fields = []
    for _ in range(draw(st.integers(1, 8))):
        field = draw(_fields(n))
        if draw(st.booleans()):
            field = AffineField(np.zeros((n, n)), field.B)
        fields.append(field)
    times = st.sampled_from([0.0, -1e-3]) | _TIMES
    ts = draw(arrays(float, len(fields), elements=times))
    xs = draw(arrays(float, (len(fields), n), elements=st.floats(-2.0, 2.0)))
    return fields, ts, xs


@PINNED
@given(data=st.data())
def test_flow_images_rows_are_flow_at(data):
    # Row j of flow_images is flow_at for field j alone, bit for bit, also
    # when the rows are repeated past one ORBIT_BLOCK_ENTRIES block.
    fields, ts, xs = data.draw(_generator_rows())
    block = ORBIT_BLOCK_ENTRIES // (fields[0].n + 1) ** 2
    copies = block // len(fields) + 1 if data.draw(st.booleans()) else 1
    generators = np.stack([field.matrix for field in fields] * copies)
    images = flow_images(generators, np.tile(ts, copies), np.tile(xs, (copies, 1)))
    for j, (field, t, x) in enumerate(zip(fields, ts, xs)):
        want = flow_at(make_flow(field), t, x)
        for image in images[j :: len(fields)]:
            assert image.tobytes() == want.tobytes(), (field, t, x)


@PINNED
@given(data=st.data())
def test_bracket_antisymmetry_and_jacobi(data):
    (x, y, z), _ = data.draw(_field_family(3))
    xy, yx = bracket(x, y), bracket(y, x)
    # a - b is -(b - a) exactly in floating point.
    assert np.array_equal(xy.C, -yx.C) and np.array_equal(xy.B, -yx.B)
    cycles = ((x, y, z), (y, z, x), (z, x, y))
    total = sum(_homogeneous(bracket(a, bracket(b, c))) for a, b, c in cycles)
    size = _size(*map(_homogeneous, (x, y, z)))
    assert np.linalg.norm(total, 1) <= 1e-14 * size + _FLOOR


@st.composite
def _change(draw, n):
    """A change matrix a, diagonally dominant so that cond(a) stays small."""
    raw = draw(arrays(float, (n, n), elements=_ENTRIES))
    return raw + (n + 1.0) * np.eye(n)


@PINNED
@given(data=st.data())
def test_linear_change_is_conjugation(data):
    (x, y), p = data.draw(_field_family(2))
    a = data.draw(_change(x.n))
    t = data.draw(_TIMES)
    lift = np.eye(x.n + 1)
    lift[:-1, :-1] = a
    cond = _size(lift, np.linalg.inv(lift))
    changed = linear_change(x, a)
    want = lift @ _homogeneous(x) @ np.linalg.inv(lift)
    assert np.linalg.norm(_homogeneous(changed) - want, 1) <= (
        1e-14 * cond * _size(_homogeneous(x)) + _FLOOR
    )
    # Conjugation is an automorphism of the bracket ...
    lhs = _homogeneous(linear_change(bracket(x, y), a))
    rhs = _homogeneous(bracket(changed, linear_change(y, a)))
    assert np.linalg.norm(lhs - rhs, 1) <= (
        1e-13 * cond**2 * _size(_homogeneous(x), _homogeneous(y)) + _FLOOR
    )
    # ... and carries the flow of x to the flow of the changed field.
    moved = flow_at(make_flow(changed), t, a @ p)
    size = cond * _size(mat_exp(abs(t) * np.abs(want))) * (1.0 + np.abs(p).sum())
    defect = np.linalg.norm(moved - a @ flow_at(make_flow(x), t, p), 1)
    assert defect <= 1e-13 * size + _FLOOR


_ELEMENTS = {
    ga.TRANSLATION_GROUP: lambda a, t: ga.translation_element(t),
    ga.GENERAL_LINEAR: lambda a, t: ga.linear_element(a),
    ga.GENERAL_AFFINE: ga.affine_element,
}


@pytest.mark.parametrize("kind", sorted(_ELEMENTS))
@PINNED
@given(data=st.data())
def test_group_element_associativity_and_inverse(kind, data):
    n = data.draw(st.integers(1, 5))
    g, h, k = (
        _ELEMENTS[kind](
            data.draw(_change(n)) * 10.0 ** data.draw(st.floats(-2.0, 2.0)),
            data.draw(arrays(float, n, elements=st.floats(-10.0, 10.0))),
        )
        for _ in range(3)
    )
    left = ga.multiply(ga.multiply(g, h), k).matrix
    right = ga.multiply(g, ga.multiply(h, k)).matrix
    size = _size(g.matrix, h.matrix, k.matrix)
    assert np.linalg.norm(left - right, 1) <= 1e-14 * size + _FLOOR
    inv = ga.inverse(g)
    size = _size(g.matrix, inv.matrix)
    for product in (ga.multiply(g, inv), ga.multiply(inv, g)):
        defect = np.linalg.norm(product.matrix - np.eye(n + 1), 1)
        assert defect <= 1e-14 * size + _FLOOR


@st.composite
def _tangents(draw, kind, n):
    """A generator in the algebra of group ``kind`` with entries in [-1, 1],
    its matrix part scaled by 10^e for e in [-2, 1]."""
    mat = draw(arrays(float, (n, n), elements=_ENTRIES))
    mat *= 10.0 ** draw(st.floats(-2.0, 1.0))
    vec = draw(arrays(float, n, elements=_ENTRIES))
    if kind == ga.TRANSLATION_GROUP:
        mat[:] = 0.0
    if kind == ga.GENERAL_LINEAR:
        vec[:] = 0.0
    return AffineField(mat, vec)


@st.composite
def _catalog_action(draw, variant, n):
    """The catalog action ``variant`` on R^n, with a drawn weight s or
    power q where it takes one."""
    param = ga.VARIANTS[variant].param
    if param == "s":
        return ga.GroupAction(variant, n, s=draw(arrays(float, n, elements=_ENTRIES)))
    if param == "q":
        return ga.GroupAction(variant, n, q=draw(st.integers(0, 3)))
    return ga.GroupAction(variant, n)


@pytest.mark.parametrize("variant", ga.CATALOG_VARIANTS)
@PINNED
@given(data=st.data())
def test_fundamental_fields_reverse_the_bracket(variant, data):
    # A left action's fundamental fields satisfy xi_[X,Y] = -[xi_X, xi_Y]:
    # [X, Y] is the matrix commutator of the homogeneous tangents, and the
    # bracket on the right is that of fields.
    n = data.draw(st.integers(1, 5))
    action = data.draw(_catalog_action(variant, n))
    kind = action.group_kind
    x, y = data.draw(_tangents(kind, n)), data.draw(_tangents(kind, n))
    c = x.matrix @ y.matrix - y.matrix @ x.matrix
    xy = AffineField(c[:-1, :-1], c[:-1, -1])
    fx, fy = (ga.fundamental_field_analytic(action, t) for t in (x, y))
    lhs = ga.fundamental_field_analytic(action, xy).matrix
    rhs = -bracket(fx, fy).matrix
    size = _size(x.matrix, y.matrix) + _size(fx.matrix, fy.matrix)
    assert np.linalg.norm(lhs - rhs, 1) <= 2e-15 * size + _FLOOR


@pytest.mark.parametrize("variant", ga.CATALOG_VARIANTS)
@PINNED
@given(data=st.data())
def test_fundamental_fields_of_matrix_units_reverse_the_bracket_exactly(variant, data):
    # The same map on two matrix units e_rc of the group's coordinates
    # (matrix entries, translation entries or both): every entry is then a
    # small integer or a weight s_i, and xi_[X,Y] = -[xi_X, xi_Y] holds bit
    # for bit.
    n = data.draw(st.integers(1, 4))
    action = data.draw(_catalog_action(variant, n))
    kind = action.group_kind
    units = [
        (r, c)
        for r in range(n)
        for c in range(n + 1)
        if kind == ga.GENERAL_AFFINE or (c == n) == (kind == ga.TRANSLATION_GROUP)
    ]
    tangents = []
    for r, c in (data.draw(st.sampled_from(units)) for _ in range(2)):
        e = np.zeros((n + 1, n + 1))
        e[r, c] = 1.0
        tangents.append(AffineField(e[:-1, :-1], e[:-1, -1]))
    x, y = tangents
    c = x.matrix @ y.matrix - y.matrix @ x.matrix
    xy = AffineField(c[:-1, :-1], c[:-1, -1])
    fx, fy = (ga.fundamental_field_analytic(action, t) for t in (x, y))
    lhs = ga.fundamental_field_analytic(action, xy).matrix
    assert np.array_equal(lhs, -bracket(fx, fy).matrix)


def _uniform_tangent(rng, kind, n) -> AffineField:
    """A generator in the algebra of group ``kind`` with entries in [-1, 1]."""
    mat = rng.uniform(-1, 1, (n, n))
    vec = rng.uniform(-1, 1, n)
    if kind == ga.TRANSLATION_GROUP:
        mat[:] = 0.0
    if kind == ga.GENERAL_LINEAR:
        vec[:] = 0.0
    return AffineField(mat, vec)


def _central_jacobian(f, p) -> np.ndarray:
    """Jacobian of f at p by central differences with step FD_STEP."""
    steps = FD_STEP * np.eye(len(p))
    return np.column_stack([(f(p + e) - f(p - e)) / (2.0 * FD_STEP) for e in steps])


@pytest.mark.parametrize(
    "chart",
    [identity_chart(2), exponential_chart(2), diagonal_scaling_chart(2), lambert_chart()],
    ids=lambda chart: chart.name,
)
@pytest.mark.parametrize("variant", ga.CATALOG_VARIANTS)
def test_chart_fundamental_fields_reverse_the_bracket(variant, chart):
    # xi_[X,Y] = -[xi_X, xi_Y] holds through a chart as well, where the
    # fundamental fields are no longer affine: the bracket of fields
    # [V, W] = DW V - DV W is taken by central differences, and the defect
    # is bounded relative to the sizes of its two terms.  Tangent entries
    # are drawn from [-1, 1], so no tiny part sits beside a large one whose
    # rounding the differences would amplify; over these draws the worst
    # defect is 6.3e-10 of that size (standard-affine on lambert).
    rng = np.random.default_rng(21)
    n = chart.n
    param = ga.VARIANTS[variant].param
    values = {}
    if param == "s":
        values["s"] = rng.uniform(-1, 1, n)
    if param == "q":
        values["q"] = int(rng.integers(0, 4))
    action = ga.chart_conjugated_action(ga.GroupAction(variant, n, **values), chart)
    for _ in range(20):
        x, y = (_uniform_tangent(rng, action.group_kind, n) for _ in range(2))
        p = chart.sample(rng)
        fx, fy = (lambda q, t=t: ga.fundamental_field_chart(action, t, q) for t in (x, y))
        c = x.matrix @ y.matrix - y.matrix @ x.matrix
        lhs = ga.fundamental_field_chart(action, AffineField(c[:-1, :-1], c[:-1, -1]), p)
        dx, dy = _central_jacobian(fx, p), _central_jacobian(fy, p)
        defect = np.linalg.norm(lhs + dy @ fx(p) - dx @ fy(p), 1)
        size = _size(dy, fx(p)) + _size(dx, fy(p))
        assert defect <= 1e-7 * size + _FLOOR, (x, y, p)
