"""Property tests of the matrix exponential against a 50-digit reference.

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
# lose digits in the Pade denominator of a large negative eigenvalue before
# squaring: exp(-167) comes out with a relative error near 5e-13.
KINDS = {
    "random": (_random, 1e-13),
    "non-normal": (_non_normal, 1e-13),
    "nilpotent": (_nilpotent, 1e-14),
    "stiff": (_stiff, 1e-11),
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
