"""The one input rule: every public entry point takes its arrays through
``linalg._real``.  A complex array is refused with a TypeError naming its
dtype, before a float cast could drop its imaginary part with only a
ComplexWarning; a non-finite value is refused with a ValueError where the
entry point refuses it and taken where it does not; lists and real arrays
give the same result.  A finite input whose image is beyond the float range
raises OverflowError, with no warning first."""

import math
import re

import numpy as np
import pytest

from affine_fields import actions as ga
from affine_fields.charts import exponential_chart
from affine_fields.fields import (
    AffineField,
    bracket,
    constant_field,
    evaluate,
    evaluate_many,
    linear_change,
    linear_field,
    zero_field,
)
from affine_fields.flows import Orbit, flow_at, make_flow, orbit
from affine_fields.invariants import (
    InvariantBundle,
    ScalarField,
    constant_field_bundle,
    straightened_frame_flow,
)
from affine_fields.linalg import augment_affine, mat_exp, rank, solve_linear
from affine_fields.oracle import OdeProblem

FIELD = AffineField([[0.0, 1.0], [-1.0, 0.0]], [1.0, 0.5])
FLOW = make_flow(FIELD)
AFFINE = ga.standard_affine_action(2)
CHART = exponential_chart(2)
G = ga.affine_element([[1.0, 0.5], [0.0, 2.0]], [1.0, -1.0])
SCALAR = ScalarField(2, lambda p: float(p @ p))
BUNDLE = InvariantBundle(constant_field([1.0, 0.0]), SCALAR, (SCALAR,))


def _exact(message: str) -> str:
    return f"^{re.escape(message)}$"


# id: (call on the value v, a valid real value, the name the message gives
# v, and the pattern of the ValueError for a NaN or infinite entry of v, or
# None where the entry point takes one).
ENTRY_POINTS = {
    # flows
    "flow_at-point": (lambda v: flow_at(FLOW, 1.0, v), [1.0, 2.0], "point",
                      _exact("point must be finite")),
    "flow_at-t": (lambda v: flow_at(FLOW, v, [1.0, 2.0]), 1.0, "t", _exact("t must be finite")),
    "flow_at-times": (lambda v: flow_at(FLOW, v, [1.0, 2.0]), [0.5, 1.0], "t",
                      _exact("t must be finite")),
    "orbit-point": (lambda v: orbit(FLOW, v, np.linspace(0.0, 1.0, 5)), [1.0, 2.0], "point",
                    _exact("point must be finite")),
    "orbit-grid": (lambda v: orbit(FLOW, [1.0, 2.0], v), np.linspace(0.0, 1.0, 5), "t",
                   _exact("t must be finite")),
    "Orbit-start": (lambda v: Orbit(v, [0.0], [[1.0]]), [1.0], "start", None),
    "Orbit-times": (lambda v: Orbit([1.0], v, [[1.0]]), [0.0], "times", None),
    "Orbit-points": (lambda v: Orbit([1.0], [0.0], v), [[1.0]], "points", None),
    # fields
    "AffineField-matrix": (lambda v: AffineField(v, [0.0]), [[1.0]], "matrix part",
                           _exact("matrix part has non-finite entries")),
    "AffineField-vector": (lambda v: AffineField([[1.0]], v), [1.0], "vector part",
                           _exact("vector part has non-finite entries")),
    "constant_field": (constant_field, [1.0, 1.0], "vector",
                       _exact("vector has non-finite entries")),
    "linear_field": (linear_field, np.eye(2), "matrix",
                     _exact("matrix has non-finite entries")),
    "linear_change": (lambda v: linear_change(zero_field(2), v), np.eye(2), "change matrix",
                      _exact("change matrix has non-finite entries")),
    "evaluate": (lambda v: evaluate(FIELD, v), [1.0, 2.0], "point",
                 _exact("point must be finite")),
    "evaluate_many": (lambda v: evaluate_many(FIELD, v), [[1.0, 2.0], [3.0, 4.0]], "point",
                      _exact("point must be finite")),
    # linalg
    "mat_exp": (mat_exp, [[1.0]], "mat_exp argument", _exact("matrix has non-finite entries")),
    "mat_exp-stack": (mat_exp, np.zeros((2, 3, 3)), "mat_exp argument",
                      _exact("matrix has non-finite entries")),
    "augment_affine-matrix": (lambda v: augment_affine(v, [0.0]), [[0.0]], "matrix part",
                              _exact("matrix part has non-finite entries")),
    "augment_affine-vector": (lambda v: augment_affine([[0.0]], v), [1.0], "vector part",
                              _exact("vector part has non-finite entries")),
    "rank": (rank, np.eye(2), "matrix", _exact("matrix has non-finite entries")),
    "solve_linear-matrix": (lambda v: solve_linear(v, [1.0, 0.0]), np.eye(2),
                            "coefficient matrix",
                            _exact("coefficient matrix has non-finite entries")),
    "solve_linear-rhs": (lambda v: solve_linear(np.eye(2), v), [1.0, 0.0], "right-hand side",
                         _exact("right-hand side has non-finite entries")),
    # actions
    "GroupElement": (ga.GroupElement, np.eye(3), "group element",
                     _exact("group element has non-finite entries")),
    "act": (lambda v: ga.act(AFFINE, G, v), [1.0, 2.0], "point",
            _exact("point must be finite")),
    "act-chart": (lambda v: ga.act(ga.chart_conjugated_action(AFFINE, CHART), G, v),
                  [1.0, 2.0], "point", "outside chart 'exponential'"),
    "fundamental_field_numeric": (lambda v: ga.fundamental_field_numeric(AFFINE, FIELD, v),
                                  [1.0, 2.0], "point", _exact("point must be finite")),
    "one_parameter_subgroup": (lambda v: ga.one_parameter_subgroup(AFFINE, FIELD, v), 0.5, "t",
                               _exact("t must be finite")),
    "GroupAction-weights": (lambda v: ga.GroupAction(ga.EXP_TRANSLATION, 2, s=v), [1.0, 1.0],
                            "weight vector", _exact("weight vector has non-finite entries")),
    "exp_translation_action": (ga.exp_translation_action, [1.0, 1.0], "vector",
                               _exact("vector has non-finite entries")),
    # charts
    "Chart.forward": (CHART.forward, [1.0, 2.0], "point", None),
    "Chart.inverse": (CHART.inverse, [1.0, 2.0], "point", None),
    "Chart.jacobian": (CHART.jacobian, [1.0, 2.0], "point", None),
    "Chart.contains": (CHART.contains, [1.0, 2.0], "point", None),
    "Chart.require": (CHART.require, [[1.0, 2.0], [3.0, 4.0]], "point",
                      "outside chart 'exponential'"),
    # invariants
    "ScalarField.value": (SCALAR.value, [1.0, 2.0], "point", None),
    "ScalarField.gradient": (SCALAR.gradient, [1.0, 2.0], "point", None),
    "ScalarField.value-callback": (lambda v: ScalarField(2, lambda p: v).value([1.0, 2.0]), 5.0,
                                   "value", None),
    "ScalarField.gradient-callback": (
        lambda v: ScalarField(2, SCALAR.fn, grad=lambda p: v).gradient([1.0, 2.0]),
        [2.0, 4.0], "gradient", None),
    "constant_field_bundle": (constant_field_bundle, [1.0, 1.0], "vector part",
                              _exact("vector part has non-finite entries")),
    "straightened_frame_flow-t": (lambda v: straightened_frame_flow(BUNDLE, v, [1.0, 2.0]),
                                  0.5, "t", _exact("t must be finite")),
    "straightened_frame_flow-coords": (lambda v: straightened_frame_flow(BUNDLE, 0.5, v),
                                       [1.0, 2.0], "coords", None),
    # oracle
    "OdeProblem-start": (lambda v: OdeProblem(np.negative, v, 1.0), [1.0, 2.0], "start", None),
    "OdeProblem-t_end": (lambda v: OdeProblem(np.negative, [1.0], v), 1.0, "t_end",
                         _exact("t_end must be finite")),
}
ROWS = [pytest.param(*row, id=key) for key, row in ENTRY_POINTS.items()]
REFUSING = [pytest.param(*row, id=key) for key, row in ENTRY_POINTS.items() if row[3]]
TAKING = [pytest.param(*row, id=key) for key, row in ENTRY_POINTS.items() if not row[3]]


def _with_first_entry(value, entry: float) -> np.ndarray:
    bad = np.array(value, dtype=float)
    bad.flat[0] = entry
    return bad


# Complex arrays of both widths, one whose imaginary parts are all zero,
# and Python complex numbers: cast to float, each would lose its imaginary
# part with only a ComplexWarning.
COMPLEX_FORMS = {
    "complex128": lambda v: np.asarray(v) + 1j,
    "complex64": lambda v: (np.asarray(v) + 1j).astype(np.complex64),
    "complex128-zero-imaginary": lambda v: np.asarray(v, complex),
    "python-complex": lambda v: (np.asarray(v) + 1j).tolist(),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("call, value, name, non_finite", ROWS)
@pytest.mark.parametrize("form", COMPLEX_FORMS.values(), ids=COMPLEX_FORMS.keys())
def test_complex_input_is_refused_naming_its_dtype(call, value, name, non_finite, form):
    complex_value = form(value)
    message = f"{name} must be real, not of dtype {np.asarray(complex_value).dtype}"
    with pytest.raises(TypeError, match=_exact(message)):
        call(complex_value)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("call, value, name, non_finite", REFUSING)
@pytest.mark.parametrize("entry", [math.nan, math.inf, -math.inf])
def test_non_finite_input_is_refused(call, value, name, non_finite, entry):
    with pytest.raises(ValueError, match=non_finite):
        call(_with_first_entry(value, entry))


@pytest.mark.parametrize("call, value, name, non_finite", TAKING)
@pytest.mark.parametrize("entry", [math.nan, math.inf])
def test_non_finite_input_is_taken_where_it_is_not_refused(call, value, name, non_finite,
                                                           entry):
    # These entry points pass a non-finite value on to what they compute.
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        call(_with_first_entry(value, entry))


def _key(result):
    """What two results of one row are compared by: the repr, but of a
    bundle's field and of a problem's start and float end time."""
    if isinstance(result, InvariantBundle):
        return repr(result.field)
    if isinstance(result, OdeProblem):
        return repr((result.start, float(result.t_end)))
    return repr(result)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("call, value, name, non_finite", ROWS)
def test_lists_and_real_arrays_give_the_same_result(call, value, name, non_finite):
    as_list = np.asarray(value).tolist()
    assert _key(call(as_list)) == _key(call(np.asarray(value)))


# Entries of 1e308: C x overflows to inf at (10, 1) and to inf - inf = NaN
# at (10, -10).
HUGE = AffineField([[1e308, 1e308], [0.0, 1.0]], [1e308, 0.0])
# Entries of 1e300 and of 1e200, whose products overflow.
E300 = AffineField(np.full((3, 3), 1e300), np.full(3, 1e300))
E200 = AffineField(np.full((2, 2), 1e200), np.full(2, 1e200))
# An element whose square, 1e400, is beyond the float range; and a valid
# element (its columns scaled to unit norm give I) whose inverse is 1e310.
G200 = ga.affine_element([[1e200, 0.0], [0.0, 1.0]], [0.0, 0.0])
TINY = ga.affine_element([[1e-310, 0.0], [0.0, 1.0]], [0.0, 0.0])
# x + t B from (1e308, 0) leaves the float range after t = 0.797.
DRIFT = make_flow(constant_field([1e308, 0.0]))

# id: (a call on finite input whose image is not finite, the pattern of its
# OverflowError).
OVERFLOWING = {
    "evaluate-inf": (lambda: evaluate(HUGE, [10.0, 1.0]),
                     _exact("field value overflows the float range")),
    "evaluate-nan": (lambda: evaluate(HUGE, [10.0, -10.0]),
                     _exact("field value overflows the float range")),
    "evaluate_many": (lambda: evaluate_many(HUGE, [[0.0, 0.0], [10.0, -10.0]]),
                      _exact("field value overflows the float range")),
    "flow_at": (lambda: flow_at(DRIFT, 1.0, [1e308, 0.0]),
                _exact("image overflows the float range")),
    "flow_at-times": (lambda: flow_at(DRIFT, [0.5, 1.0], [1e308, 0.0]),
                      _exact("image overflows the float range")),
    # Anchors at t = 0, 4/11 and 8/11 are finite; the rows carried to t = 9/11 on are not.
    "orbit-uniform": (lambda: orbit(DRIFT, [1e308, 0.0], np.linspace(0.0, 1.0, 12)),
                      _exact("image overflows the float range")),
    "orbit-uneven": (lambda: orbit(DRIFT, [1e308, 0.0], [0.0, 0.25, 1.0]),
                     _exact("image overflows the float range")),
    "act": (lambda: ga.act(AFFINE, ga.affine_element([[1e308, 0.0], [0.0, 1.0]], [0.0, 0.0]),
                           [10.0, 1.0]),
            _exact("image under standard-affine overflows the float range")),
    "multiply": (lambda: ga.multiply(G200, G200), _exact("group product overflows the float range")),
    "inverse": (lambda: ga.inverse(TINY), _exact("group inverse overflows the float range")),
    "one_parameter_subgroup": (
        lambda: ga.one_parameter_subgroup(ga.standard_linear_action(1), linear_field([[2.0]]), 1e308),
        _exact("time-1e+308 generator overflows the float range")),
    "bracket": (lambda: bracket(E300, E300), _exact("bracket overflows the float range")),
    "linear_change": (lambda: linear_change(E200, 1e200 * np.eye(2)),
                      _exact("linear change overflows the float range")),
    "fundamental_field_numeric": (
        lambda: ga.fundamental_field_numeric(ga.standard_affine_action(3), E300, np.full(3, 1e300)),
        _exact("fundamental field under standard-affine overflows the float range")),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("call, message", OVERFLOWING.values(), ids=OVERFLOWING.keys())
def test_image_beyond_the_float_range_raises_overflow_error(call, message):
    with pytest.raises(OverflowError, match=message):
        call()


@pytest.mark.filterwarnings("error")
def test_solve_linear_at_the_end_of_the_float_range_returns_its_solution():
    # The residual norms take squares of about 1e600, but not the solution.
    solution, r = solve_linear(1e300 * np.eye(3), np.full(3, 1e300))
    assert (solution.tolist(), r) == ([1.0, 1.0, 1.0], 3)
