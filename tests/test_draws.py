"""The draw-order contract, one table with a row per caller of a block draw.

A block draw takes the doubles of many generator calls in one call.  Each
row pins that its draws are bit for bit those of a reference that makes one
generator call per value (or per sample), and that the generator is left in
the same state, whether the block is kept or rejected and drawn again from
its start.  Rows of callers that can reject a block also pin whether it was
drawn again: one generator call for a kept block, more for a redrawn one."""

import numpy as np
import pytest

from affine_fields import actions as ga
from affine_fields.fields import AffineField, constant_field, evaluate
from affine_fields.invariants import IRREGULAR_NORM, _regular_points, planar_affine_family
from affine_fields.validate import (
    _degenerate_draws,
    _field_blocks,
    _fundamental_draws,
    _group_law_draws,
    _invariant_draws,
    _round_trip_draws,
    _singular_matrix,
)
from affine_fields.linalg import solve_linear

from conftest import random_affine_field
from test_actions import _every_action
from test_validate import _amplitudes_per_call, _random_tangent


class _Counted:
    """A generator that counts the calls of its methods."""

    def __init__(self, rng):
        self.rng, self.calls = rng, 0
        self.bit_generator = rng.bit_generator

    def __getattr__(self, name):
        method = getattr(self.rng, name)

        def call(*args, **kwargs):
            self.calls += 1
            return method(*args, **kwargs)

        return call


def _by_dimension(cases):
    """{n: [(value, ...), ...]} as one tuple of stacked values per n, in
    increasing n."""
    return [tuple(map(np.array, zip(*cases[n]))) for n in sorted(cases)]


def _fields_per_call(rng, count, dims, starts):
    """Checks 1 and 9 with one ``rng.uniform`` call per value: C, B, then
    the starts."""
    cases = {}
    for _ in range(count):
        n = int(rng.integers(*dims))
        g = random_affine_field(rng, n).matrix
        cases.setdefault(n, []).append((g, rng.uniform(-2.0, 2.0, size=(starts, n))))
    return _by_dimension(cases)


def _group_law_per_call(rng):
    """Check 2 with one ``rng.uniform`` call per value: C, B, then (s, t)
    and x per case."""
    cases = {}
    for _ in range(500):
        n = int(rng.integers(1, 7))
        g = random_affine_field(rng, n).matrix
        for _ in range(3):
            s, t = rng.uniform(-1.0, 1.0, size=2)
            cases.setdefault(n, []).append((g, s, t, rng.uniform(-2.0, 2.0, size=n)))
    return _by_dimension(cases)


def _fundamental_per_call(rng):
    """Check 5 with one ``rng.uniform`` call per value after n and s or q:
    the generator's matrix and vector parts, then x."""
    cases = {}
    for variant, record in ga.VARIANTS.items():
        for _ in range(100):
            n = int(rng.integers(1, 4))
            value = (tuple(rng.uniform(-1.5, 1.5, size=n)) if record.param == "s"
                     else int(rng.integers(0, 4)) if record.param == "q" else None)
            g = _random_tangent(rng, record.kind, n).matrix
            key = (variant, n, record.param, value)
            cases.setdefault(key, []).append((g, rng.uniform(-2.0, 2.0, size=n)))
    return {key: tuple(map(np.array, zip(*drawn))) for key, drawn in cases.items()}


def _round_trip_per_call(rng):
    """Check 6 with one ``rng.uniform`` call per value: C and B of each of
    the 50 fields, taken as its linear part, its constant part and itself,
    then the matrices of the det-weighted fields one by one."""
    cases = {}
    for _ in range(50):
        n = int(rng.integers(1, 5))
        c = rng.uniform(-2.0, 2.0, size=(n, n))
        b = rng.uniform(-2.0, 2.0, size=n)
        for variant, field in ((ga.STANDARD_LINEAR, AffineField(c, np.zeros(n))),
                               (ga.STANDARD_TRANSLATION, AffineField(np.zeros((n, n)), b)),
                               (ga.STANDARD_AFFINE, AffineField(c, b))):
            cases.setdefault((variant, n, None), []).append(field.matrix)
    draws = {key: np.array(cases[key]) for key in sorted(cases, key=lambda key: key[1])}
    for n in range(1, 5):
        for q in range(4):
            draws[ga.DET_WEIGHTED, n, q] = np.array([
                AffineField(rng.uniform(-2.0, 2.0, size=(n, n)), np.zeros(n)).matrix
                for _ in range(5)])
    return draws


def _degenerate_per_call(rng):
    """Check 10 with one ``rng.uniform`` call per value, each field's matrix
    before its SVD, with the same rejections."""
    cases = {}
    fields = 0
    while fields < 50:
        n = int(rng.integers(2, 5))
        c, null_vec = _singular_matrix(rng.uniform(-2.0, 2.0, size=(n, n)))
        b = -(c @ rng.uniform(-2.0, 2.0, size=n))
        if np.max(np.abs(b)) < 0.1:
            continue
        fields += 1
        u0, _ = solve_linear(c, -b)
        for _ in range(3):
            t = rng.uniform(-1.0, 1.0)
            x = rng.uniform(-2.0, 2.0, size=n)
            cases.setdefault(n, []).append((AffineField(c, b).matrix, t, x, u0, u0 + null_vec))
    blocks = {}
    for _ in range(50):
        n = int(rng.integers(2, 5))
        c, _ = _singular_matrix(rng.uniform(-2.0, 2.0, size=(n, n)))
        left_null = np.linalg.svd(c)[0][:, -1]
        b = rng.uniform(-1.0, 1.0, size=n) + left_null * rng.uniform(0.5, 1.5)
        blocks.setdefault(n, []).append((AffineField(c, b).matrix,
                                         rng.uniform(-2.0, 2.0, size=(1, n))))
    return _by_dimension(cases), _by_dimension(blocks)


def _invariant_per_call(rng):
    """Check 8 with one ``rng.uniform`` or ``rng.choice`` call per value: b's
    magnitudes and signs, F's and G's amplitudes, then the start."""
    cases = {}
    for _ in range(100):
        n = int(rng.integers(2, 5))
        b = rng.uniform(0.3, 2.0, size=n) * rng.choice([-1.0, 1.0], size=n)
        amps = np.concatenate([_amplitudes_per_call(rng, n - 1) for _ in "FG"])
        cases.setdefault(n, []).append((b, amps, rng.uniform(-2.0, 2.0, size=n)))
    return _by_dimension(cases)


def _validate_row(salt, draws, per_call):
    """Validation's ensemble of the salt, drawn at its own seed sequence;
    validation never draws a block again."""
    return lambda seed: [([seed, salt], draws, per_call, None)]


def _samples_per_sample(action, k):
    """k axiom samples one at a time: the point (+-2, or the chart's box),
    then ``_random_matrix`` for g1 and for g2."""
    def draw(rng):
        n = action.n
        x, g = np.empty((k, n)), np.empty((2, k, n + 1, n + 1))
        for i in range(k):
            x[i] = (rng.uniform(-2.0, 2.0, size=n) if action.chart is None
                    else action.chart.sample(rng))
            g[:, i] = ga._random_matrix(action, rng), ga._random_matrix(action, rng)
        return x, g
    return draw


def _samples_row(keep, redrawn=False):
    """``_random_samples`` of the actions of ``_every_action`` that ``keep``
    takes, at n = 1, 2, 3 and 6, blocks of 1 and 40 samples and at seed 0
    and n = 3 and 6 a whole block of ORBIT_BLOCK_ENTRIES entries (512 and
    167 samples; a row is laid out alike in a block of any size); with
    ``redrawn`` blocks of 200 samples at n = 3 and 6, each drawn again."""
    def cases(seed):
        rows = []
        for n in (3, 6) if redrawn else (1, 2, 3, 6):
            whole = ga.ORBIT_BLOCK_ENTRIES // (n + 1) ** 2
            sizes = [1, 40] + ([whole] if n >= 3 and seed == 0 else [])
            for action in filter(keep, _every_action(np.random.default_rng([seed, n]), n)):
                for k in [200] if redrawn else sizes:
                    rows.append(([seed, n, k],
                                 lambda rng, a=action, k=k: ga._random_samples(a, rng, k),
                                 _samples_per_sample(action, k), redrawn))
        return rows
    return cases


def _points_per_point(field, count, box):
    """``sample_regular_points`` one point at a time, each taken by
    ``evaluate`` and kept unless its norm is below IRREGULAR_NORM: the
    points and their field values."""
    def draw(rng):
        points, values, attempts = [], [], 0
        while len(points) < count:
            attempts += 1
            if attempts > 1000 * count:
                raise RuntimeError("could not sample away from irregular points")
            x = rng.uniform(-box, box, size=field.n)
            v = evaluate(field, x)
            if not np.linalg.norm(v) < IRREGULAR_NORM:
                points.append(x)
                values.append(v)
        return np.reshape(points, (count, field.n)), np.reshape(values, (count, field.n))
    return draw


def _points_row(fields, redrawn):
    """``_regular_points`` of the (field, count, box) cases of ``fields``."""
    def cases(seed):
        rng = np.random.default_rng([seed, 91])
        return [([seed, j], lambda r, c=case: _regular_points(c[0], c[1], r, c[2]),
                 _points_per_point(*case), redrawn)
                for j, case in enumerate(fields(rng, seed))]
    return cases


def _regular_fields(rng, seed):
    """Fields whose norm is at least IRREGULAR_NORM on the box: constant
    ones, one of them of norm 1.5 IRREGULAR_NORM, the planar family and
    affine ones with small C and B_1 at least 1."""
    cases = [(constant_field([0.0, 1.5 * IRREGULAR_NORM]), 10, 2.0)]
    for n in range(1, 6):
        b = rng.uniform(0.5, 2.0, size=n) * rng.choice([-1.0, 1.0], size=n)
        c = rng.uniform(-0.1, 0.1, size=(n, n)) / n
        cases += [(constant_field(b), int(rng.integers(0, 30)), float(rng.uniform(0.5, 3.0))),
                  (AffineField(c, np.abs(b) + 0.5), int(rng.integers(1, 30)), 3.0)]
    cases.append((planar_affine_family(*rng.uniform(0.5, 2.0, size=3))[0], 25, 2.0))
    return cases


def _vanishing_fields(rng, seed):
    """1e-3 times a rotation: its norm is below IRREGULAR_NORM inside the
    unit disc, a fifth of the box."""
    angle = 0.3 * seed
    rotation = [[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]]
    return [(AffineField(1e-3 * np.array(rotation), [0.0, 0.0]), 40, 2.0)]


def _zero_field(rng, seed):
    """The zero field, where every point is irregular: both sides raise."""
    return [(AffineField(np.zeros((2, 2)), [0.0, 0.0]), 3, 2.0)]


def _redraw_below_half(monkeypatch):
    """A rejection threshold of 0.5, under which about one matrix part
    I + U in 20 is redrawn at n = 3."""
    monkeypatch.setattr(ga, "MIN_SAMPLE_DET", 0.5)


# id: (cases of a seed, each (seed sequence, block draw, per-value reference,
# whether the block is drawn again, or None where the caller never does),
# the seeds, a set-up taking monkeypatch or None).
SEEDS = [*range(10), 42, 2006]
DRAWS = {
    "validate-check-1": (_validate_row(1, lambda rng: _field_blocks(rng, 500, (1, 7), 3),
                                       lambda rng: _fields_per_call(rng, 500, (1, 7), 3)),
                         SEEDS, None),
    "validate-check-2": (_validate_row(2, _group_law_draws, _group_law_per_call), SEEDS, None),
    "validate-check-5": (_validate_row(5, _fundamental_draws, _fundamental_per_call), SEEDS, None),
    "validate-check-6": (_validate_row(6, _round_trip_draws, _round_trip_per_call), SEEDS, None),
    "validate-check-8": (_validate_row(8, _invariant_draws, _invariant_per_call), SEEDS, None),
    "validate-check-9": (_validate_row(9, lambda rng: _field_blocks(rng, 20, (2, 5), 1),
                                       lambda rng: _fields_per_call(rng, 20, (2, 5), 1)),
                         SEEDS, None),
    "validate-check-10": (_validate_row(10, _degenerate_draws, _degenerate_per_call),
                          SEEDS, None),
    **{f"random_samples-{variant}": (
        _samples_row(lambda a, v=variant: a.chart is None and a.variant == v), range(5), None)
       for variant in ga.CATALOG_VARIANTS},
    "random_samples-chart-conjugated": (_samples_row(lambda a: a.chart is not None),
                                        range(5), None),
    "random_samples-redrawn": (
        _samples_row(lambda a: a.variant in (ga.STANDARD_AFFINE, ga.STANDARD_LINEAR)
                     and a.chart is None, redrawn=True), range(5), _redraw_below_half),
    "regular_points-kept": (_points_row(_regular_fields, False), range(5), None),
    "regular_points-redrawn": (_points_row(_vanishing_fields, True), range(5), None),
    "regular_points-zero-field": (_points_row(_zero_field, True), range(5), None),
}
CASES = [pytest.param(row, seed, id=f"{row}-{seed}") for row in DRAWS for seed in DRAWS[row][1]]


def _bits(value):
    """What a draw is compared by: nested lists, tuples and dicts of arrays
    as the dtype, shape and bytes of each array; an error as its type and
    message."""
    if isinstance(value, Exception):
        return type(value).__name__, str(value)
    if isinstance(value, dict):
        return [(key, _bits(v)) for key, v in value.items()]
    if isinstance(value, (list, tuple)):
        return [_bits(v) for v in value]
    value = np.asarray(value)
    return value.dtype.str, value.shape, value.tobytes()


def _outcome(draw, rng):
    try:
        return draw(rng)
    except RuntimeError as error:
        return error


@pytest.mark.parametrize("row, seed", CASES)
def test_block_draws_are_the_per_value_draws(row, seed, monkeypatch):
    cases, _, setup = DRAWS[row]
    if setup is not None:
        setup(monkeypatch)
    for entropy, draw, reference, redrawn in cases(seed):
        block, loop = _Counted(np.random.default_rng(entropy)), np.random.default_rng(entropy)
        assert _bits(_outcome(draw, block)) == _bits(_outcome(reference, loop)), entropy
        assert block.bit_generator.state == loop.bit_generator.state, entropy
        if redrawn is not None:
            assert (block.calls > 1) == redrawn, entropy
