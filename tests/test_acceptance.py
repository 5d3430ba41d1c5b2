"""Acceptance gate: every criterion at its stated tolerance.

Each test runs one cross-module check and prints a PASS/FAIL line with the
measured defect (visible with pytest -s).
"""

import pytest

from affine_fields.validate import (
    check_chart_conjugation,
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

SEED = 42

CRITERIA = [
    (1, "closed-form flow vs RK4 oracle", lambda: check_flow_vs_oracle(SEED)),
    (2, "flow group law", lambda: check_group_law(SEED)),
    (3, "bracket structure constants", check_structure_constants),
    (4, "planar family end to end", lambda: check_planar_family(SEED)),
    (5, "fundamental field agreement", lambda: check_fundamental_agreement(SEED)),
    (6, "field/tangent round trips", lambda: check_field_tangent_roundtrip(SEED)),
    (7, "chart conjugation", check_chart_conjugation),
    (8, "invariant flow constancy", lambda: check_invariant_flow_constancy(SEED)),
    (9, "RK4 convergence order", lambda: check_rk4_order(SEED)),
    (10, "degenerate flow consistency", lambda: check_degenerate_flows(SEED)),
]


@pytest.mark.parametrize(
    "number,label,check", CRITERIA, ids=[f"criterion-{k}" for k, _, _ in CRITERIA]
)
def test_acceptance_criterion(number, label, check):
    result = check()
    status = "PASS" if result.passed else "FAIL"
    print(f"ACCEPTANCE {number} ({label}): {status} [{result.detail}]")
    assert result.passed, f"{label}: {result.detail}"


# The detail lines of the two checks that run the RK4 oracle, to the printed
# digit: the ensembles, their draw order and the worst defects must not move
# when the oracle's state is laid out differently.
PINNED_DETAILS = [
    (check_flow_vs_oracle, 42, "worst relative defect 4.179e-10 (bound 1e-06)"),
    (check_flow_vs_oracle, 2006, "worst relative defect 5.351e-10 (bound 1e-06)"),
    (
        check_degenerate_flows,
        42,
        "worst fixed-point-choice defect 2.254e-14 (bound 1e-10), "
        "worst oracle defect 1.037e-09 (bound 1e-06)",
    ),
    (
        check_degenerate_flows,
        2006,
        "worst fixed-point-choice defect 2.934e-14 (bound 1e-10), "
        "worst oracle defect 9.082e-10 (bound 1e-06)",
    ),
]


@pytest.mark.parametrize(
    "check,seed,detail",
    PINNED_DETAILS,
    ids=[f"{c.__name__}-{s}" for c, s, _ in PINNED_DETAILS],
)
def test_oracle_check_detail_is_pinned(check, seed, detail):
    assert check(seed).detail == detail
