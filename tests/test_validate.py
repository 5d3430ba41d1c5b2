"""The stacked RK4 pass behind validation checks 1 and 10."""

import numpy as np
import pytest

from affine_fields import AffineField, evaluate
from affine_fields.oracle import DivergenceError, OdeProblem, integrate
from affine_fields.validate import _stacked_rk4_ends

from conftest import random_affine_field


def _ensemble():
    rng = np.random.default_rng(6)
    fields = [random_affine_field(rng, n) for n in range(1, 7)]
    starts = [rng.uniform(-2.0, 2.0, size=(2, f.n)) for f in fields]
    return fields, starts


def test_stack_matches_one_integration_per_field_and_start():
    fields, starts = _ensemble()
    ends = _stacked_rk4_ends(fields, starts)
    assert ends.shape == (6, 2, 6)
    for field, xs, stacked in zip(fields, starts, ends):
        for x, end in zip(xs, stacked[:, : field.n]):
            want = integrate(
                OdeProblem(lambda z: evaluate(field, z), x, 1.0, 1e-3)
            )
            assert np.linalg.norm(end - want) <= 1e-13 * np.linalg.norm(want)


def test_padded_coordinates_stay_exactly_zero():
    fields, starts = _ensemble()
    ends = _stacked_rk4_ends(fields, starts)
    for field, stacked in zip(fields, ends):
        assert np.array_equal(stacked[:, field.n :], np.zeros((2, 6 - field.n)))


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid")
def test_one_diverging_field_fails_the_stack():
    fields, starts = _ensemble()
    fields.insert(2, AffineField([[1e4]], [0.0]))
    starts.insert(2, np.ones((2, 1)))
    with pytest.raises(DivergenceError):
        _stacked_rk4_ends(fields, starts)
