"""CLI surface: JSON/CSV formats, exit codes, determinism."""

import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affine_fields import AffineField
from affine_fields.cli import (
    FORMAT_BLOCK_ROWS,
    _fmt_blocks,
    _scalar_field_from_json,
    fmt_float,
    main,
)
from affine_fields.flows import make_flow, orbit

PLANAR_FIELD = {"n": 2, "C": [[0.0, 0.0], [2.0, 0.0]], "B": [1.0, 0.0]}


@pytest.fixture
def planar_field_file(tmp_path):
    path = tmp_path / "field.json"
    path.write_text(json.dumps(PLANAR_FIELD))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestFloatFormat:
    def test_integral_values_drop_point_zero(self):
        assert fmt_float(2.0) == "2"
        assert fmt_float(-0.0) == "-0"

    def test_shortest_round_trip(self):
        assert fmt_float(0.1) == "0.1"
        assert float(fmt_float(1.0 / 3.0)) == 1.0 / 3.0
        assert fmt_float(1e22) == "1e+22"


# Values whose text is a corner of fmt_float's rule: -0.0, integral values
# below and at 1e16 (where repr stops writing ".0"), the least subnormal, an
# exponent form, and the non-finite ones.
CORNER_FLOATS = [-0.0, 0.0, 1.0, -3.0, 1e15, 1e16, -1e16, 9007199254740993.0, 5e-324,
                 1e22, 1e-300, 0.1, math.nan, math.inf, -math.inf]


def _per_value_lines(table, sep):
    return [sep.join(map(fmt_float, row)) for row in table.tolist()]


class TestFormatRows:
    # The block formatter against fmt_float value by value, on tables that
    # end inside, at and just past a block, with values tiled from one pool.
    # Lines are compared as lists: a diff of two long strings takes minutes.
    @pytest.mark.parametrize("rows", [1, FORMAT_BLOCK_ROWS - 1, FORMAT_BLOCK_ROWS,
                                      FORMAT_BLOCK_ROWS + 1, 2 * FORMAT_BLOCK_ROWS + 1])
    @settings(derandomize=True, deadline=None, max_examples=20, database=None)
    @given(
        pool=st.lists(st.one_of(st.sampled_from(CORNER_FLOATS), st.floats(),
                                st.integers(-2**60, 2**60).map(float)),
                      min_size=1, max_size=40),
        width=st.integers(1, 7),
        sep=st.sampled_from([",", " "]),
    )
    def test_text_is_fmt_float_value_by_value(self, rows, pool, width, sep):
        table = np.resize(np.array(pool), (rows, width))
        assert "".join(_fmt_blocks([table], sep)).split("\n") == _per_value_lines(table, sep)

    def test_every_corner_value(self):
        table = np.array(CORNER_FLOATS).reshape(-1, 1)
        assert "".join(_fmt_blocks([table], ",")).split("\n") == _per_value_lines(table, ",")
        assert "".join(_fmt_blocks([table.T], " ")) == _per_value_lines(table.T, " ")[0]


class TestFlowCommand:
    def test_planar_value(self, capsys, planar_field_file):
        code, out, err = run_cli(
            capsys, "flow", "--field", planar_field_file, "--t", "2", "--point", "0,0"
        )
        assert code == 0
        assert out == "2 4\n"
        assert err == ""

    def test_json_format(self, capsys, planar_field_file):
        code, out, _ = run_cli(
            capsys,
            "flow",
            "--field",
            planar_field_file,
            "--t",
            "2",
            "--point",
            "0,0",
            "--format",
            "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["image"] == [2.0, 4.0]

    def test_byte_identical_reruns(self, capsys, planar_field_file):
        argv = ["flow", "--field", planar_field_file, "--t", "0.7", "--point", "0.3,-1"]
        _, first, _ = run_cli(capsys, *argv)
        _, second, _ = run_cli(capsys, *argv)
        assert first == second


    @pytest.mark.parametrize(
        "spelling, image",
        [
            # From (-1, 2): (-1 + t, 2 - 2 t + t^2), which is (1, 2) at t = 2.
            (("--t", "2", "--point", "-1,2"), "1 2\n"),
            (("--t", "2", "--point=-1,2"), "1 2\n"),
            # From (1, 2): (1 + t, 2 + 2 t + t^2), which is (-1, 2) at t = -2.
            (("--t", "-2e0", "--point", "1,2"), "-1 2\n"),
        ],
    )
    def test_negative_values(self, capsys, planar_field_file, spelling, image):
        code, out, err = run_cli(capsys, "flow", "--field", planar_field_file, *spelling)
        assert (code, out, err) == (0, image, "")

    def test_non_finite_point_is_an_input_error(self, capsys, planar_field_file):
        code, out, err = run_cli(
            capsys, "flow", "--field", planar_field_file, "--t", "1", "--point", "nan,0"
        )
        assert (code, out) == (2, "")
        assert err == "error: point must be finite\n"

    def test_overflow_exits_two(self, capsys, tmp_path):
        field = tmp_path / "field.json"
        field.write_text(json.dumps({"n": 1, "C": [[100.0]], "B": [0.0]}))
        code, out, err = run_cli(
            capsys, "flow", "--field", str(field), "--t", "10", "--point", "1"
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "overflow" in err


class TestOrbitCommand:
    def test_infinite_end_time_is_an_input_error(self, capsys, planar_field_file):
        code, out, err = run_cli(
            capsys, "orbit", "--field", planar_field_file, "--point", "0,0",
            "--t1", "inf",
        )
        assert (code, out, err) == (2, "", "error: t must be finite\n")

    def test_csv_shape(self, capsys, planar_field_file):
        code, out, _ = run_cli(
            capsys,
            "orbit",
            "--field",
            planar_field_file,
            "--point",
            "0,0",
            "--t0",
            "0",
            "--t1",
            "2",
            "--steps",
            "4",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "t,u1,u2"
        assert len(lines) == 6
        assert lines[1] == "0,0,0"
        assert lines[-1] == "2,2,4"


    @pytest.mark.parametrize(
        "field, point",
        [
            ({"n": 2, "C": [[0, 0], [0, 0]], "B": [1, -0.5]}, "-0.0,2"),
            ({"n": 2, "C": [[0, -1], [1, 0.1]], "B": [0.3, 0]}, "-0.0,0.1"),
        ],
    )
    def test_csv_matches_per_value_formatting(self, capsys, tmp_path, field, point):
        # Integral times and values print without ".0" and -0.0 as "-0",
        # exactly as formatting each np.float64 of the orbit one at a time.
        path = tmp_path / "field.json"
        path.write_text(json.dumps(field))
        argv = ["orbit", "--field", str(path), "--point", point]
        grid = ["--t0", "-2", "--t1", "6", "--steps", "16"]
        code, out, _ = run_cli(capsys, *argv, *grid)
        assert code == 0
        lib = orbit(
            make_flow(AffineField.from_dict(field)),
            [float(v) for v in point.split(",")],
            np.linspace(-2.0, 6.0, 17),
        )
        lines = ["t,u1,u2"] + [
            ",".join([fmt_float(t)] + [fmt_float(v) for v in row])
            for t, row in zip(lib.times, lib.points)
        ]
        assert out == "\n".join(lines) + "\n"
        assert "\n0,-0," in out
        assert "\n4," in out

    def test_long_csv_matches_per_value_formatting(self, capsys, tmp_path):
        # 10^4 intervals at n = 6 span ten blocks of rows.  The last two
        # coordinates stay at the start, -0.0 and 3.0, and the times from
        # -5000 to 5000 are integral, so every row has values without ".0".
        rng = np.random.default_rng(6)
        c = np.zeros((6, 6))
        c[:4, :4] = rng.uniform(-0.01, 0.01, (4, 4))
        c[:4, :4] -= c[:4, :4].T
        field = AffineField(c, np.append(rng.uniform(-1.0, 1.0, 4), [0.0, 0.0]))
        path = tmp_path / "field.json"
        path.write_text(json.dumps(field.to_dict()))
        code, out, err = run_cli(capsys, "orbit", "--field", str(path),
                                 "--point", "0.5,-1,0.25,2,-0.0,3",
                                 "--t0", "-5000", "--t1", "5000", "--steps", "10000")
        assert (code, err) == (0, "")
        lib = orbit(make_flow(field), [0.5, -1.0, 0.25, 2.0, -0.0, 3.0],
                    np.linspace(-5000.0, 5000.0, 10_001))
        lines = out.split("\n")
        assert lines[0] == "t,u1,u2,u3,u4,u5,u6" and lines[-1] == ""
        assert len(lines) == 10_003
        for line, t, row in zip(lines[1:], lib.times, lib.points):
            assert line == ",".join(map(fmt_float, [t, *row]))
        assert lines[5001].startswith("0,") and lines[5001].endswith(",-0,3")

    @pytest.mark.parametrize("spelling", [("--point", "-1,2"), ("--point=-1,2",)])
    def test_negative_first_coordinate(self, capsys, planar_field_file, spelling):
        code, out, _ = run_cli(
            capsys,
            "orbit",
            "--field",
            planar_field_file,
            *spelling,
            "--t1",
            "2",
            "--steps",
            "1",
        )
        assert code == 0
        assert out.strip().split("\n")[1:] == ["0,-1,2", "2,1,2"]


class TestBracketCommand:
    def test_generator_pair(self, capsys, tmp_path):
        # [d/du^1, u^1 d/du^2] = d/du^2
        x = tmp_path / "x.json"
        y = tmp_path / "y.json"
        x.write_text(json.dumps({"n": 2, "C": [[0, 0], [0, 0]], "B": [1, 0]}))
        y.write_text(json.dumps({"n": 2, "C": [[0, 0], [1, 0]], "B": [0, 0]}))
        code, out, _ = run_cli(capsys, "bracket", "--x", str(x), "--y", str(y))
        assert code == 0
        payload = json.loads(out)
        assert payload["C"] == [[0.0, 0.0], [0.0, 0.0]]
        assert payload["B"] == [0.0, 1.0]


class TestFundamentalCommand:
    def test_affine_standard(self, capsys, tmp_path):
        tangent = tmp_path / "X.json"
        tangent.write_text(
            json.dumps({"X_mat": [[0.0, 0.0], [2.0, 0.0]], "X_vec": [1.0, 0.0]})
        )
        code, out, _ = run_cli(
            capsys, "fundamental", "--group", "GA", "--X", str(tangent)
        )
        assert code == 0
        payload = json.loads(out)
        assert payload == PLANAR_FIELD

    def test_exp_translation_needs_weights(self, capsys, tmp_path):
        tangent = tmp_path / "X.json"
        tangent.write_text(json.dumps({"X_vec": [1.0, 0.0]}))
        code, _, err = run_cli(
            capsys,
            "fundamental",
            "--group",
            "T",
            "--action",
            "exp-translation",
            "--X",
            str(tangent),
        )
        assert code == 2
        assert "needs --s" in err
        code, out, _ = run_cli(
            capsys,
            "fundamental",
            "--group",
            "T",
            "--action",
            "exp-translation",
            "--s",
            "1,0",
            "--X",
            str(tangent),
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["C"] == [[1.0, 0.0], [0.0, 1.0]]


    @pytest.mark.parametrize("spelling", [("--s", "-1,2"), ("--s=-1,2",)])
    def test_negative_weight(self, capsys, tmp_path, spelling):
        # exp-translation with s = (-1, 2): C = (X_vec . s) I = 3 I.
        tangent = tmp_path / "X.json"
        tangent.write_text(json.dumps({"X_vec": [1.0, 2.0]}))
        code, out, _ = run_cli(
            capsys,
            "fundamental",
            "--group",
            "T",
            "--action",
            "exp-translation",
            *spelling,
            "--X",
            str(tangent),
        )
        assert code == 0
        assert json.loads(out)["C"] == [[3.0, 0.0], [0.0, 3.0]]

    def test_action_of_another_group(self, capsys, tmp_path):
        tangent = tmp_path / "X.json"
        tangent.write_text(json.dumps({"X_mat": [[1.0]]}))
        code, _, err = run_cli(
            capsys,
            "fundamental",
            "--group",
            "GL",
            "--action",
            "exp-translation",
            "--s",
            "1",
            "--X",
            str(tangent),
        )
        assert code == 2
        assert "action of the translation group" in err

    def test_det_weighted_needs_power(self, capsys, tmp_path):
        tangent = tmp_path / "X.json"
        tangent.write_text(json.dumps({"X_mat": [[1.0]]}))
        argv = ["fundamental", "--group", "GL", "--action", "det-weighted"]
        code, _, err = run_cli(capsys, *argv, "--X", str(tangent))
        assert code == 2
        assert "needs --q" in err
        code, out, _ = run_cli(capsys, *argv, "--q", "1", "--X", str(tangent))
        assert code == 0
        assert json.loads(out)["C"] == [[2.0]]


class TestVerifyInvariantsCommand:
    def test_constant_family_passes(self, capsys, tmp_path):
        field = tmp_path / "field.json"
        field.write_text(json.dumps({"n": 2, "C": [[0, 0], [0, 0]], "B": [2, 4]}))
        bundle = tmp_path / "bundle.json"
        bundle.write_text(
            json.dumps({"family": "constant", "G": {"kind": "slot", "index": 1}})
        )
        code, out, _ = run_cli(
            capsys,
            "verify-invariants",
            "--field",
            str(field),
            "--bundle",
            str(bundle),
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["passed"] is True
        assert payload["jacobian_ok"] is True

    def test_planar_family_passes(self, capsys, planar_field_file, tmp_path):
        bundle = tmp_path / "bundle.json"
        bundle.write_text(
            json.dumps({"family": "planar", "alpha": 1.0, "beta": 1.0, "gamma": 0.0})
        )
        code, out, _ = run_cli(
            capsys,
            "verify-invariants",
            "--field",
            planar_field_file,
            "--bundle",
            str(bundle),
        )
        assert code == 0
        assert json.loads(out)["passed"] is True

    @pytest.mark.parametrize("kind", ["zero", "slot", "square", "sin"])
    def test_every_slot_kind_passes(self, capsys, tmp_path, kind):
        field = tmp_path / "field.json"
        field.write_text(json.dumps({"n": 3, "C": [[0] * 3] * 3, "B": [2, -1, 0.5]}))
        bundle = tmp_path / "bundle.json"
        functions = [{"kind": kind, "index": k} for k in (1, 2)]
        bundle.write_text(
            json.dumps({"family": "constant", "F": functions[0], "G": functions})
        )
        code, out, _ = run_cli(
            capsys,
            "verify-invariants",
            "--field",
            str(field),
            "--bundle",
            str(bundle),
            "--samples",
            "30",
        )
        payload = json.loads(out)
        assert payload["max_parameter_defect"] <= 1e-12
        assert payload["max_invariant_defect"] <= 1e-12
        # Two zero invariants cannot be coordinates; the other kinds can.
        assert payload["jacobian_ok"] is (kind != "zero")
        assert code == (1 if kind == "zero" else 0)

    @pytest.mark.parametrize(
        "kind, value, gradient",
        [
            ("slot", 0.5, [0.0, 1.0]),
            ("square", 0.25, [0.0, 1.0]),
            ("sin", math.sin(0.5), [0.0, math.cos(0.5)]),
        ],
    )
    def test_slot_function_table(self, kind, value, gradient):
        f = _scalar_field_from_json({"kind": kind, "index": 2}, 2)
        assert f.value([3.0, 0.5]) == value
        assert f.gradient([3.0, 0.5]).tolist() == gradient

    def test_incomplete_bundle_exits_one(self, capsys, tmp_path):
        # No invariants: defect checks pass but the Jacobian cannot reach
        # full rank, so the report fails and the exit code says so.
        field = tmp_path / "field.json"
        field.write_text(json.dumps({"n": 2, "C": [[0, 0], [0, 0]], "B": [2, 4]}))
        bundle = tmp_path / "bundle.json"
        bundle.write_text(json.dumps({"family": "constant"}))
        code, out, _ = run_cli(
            capsys,
            "verify-invariants",
            "--field",
            str(field),
            "--bundle",
            str(bundle),
        )
        assert code == 1
        assert json.loads(out)["passed"] is False

    def test_constant_family_rejects_tiny_matrix_part(self, capsys, tmp_path):
        # C = [[1e-15]] is not zero, so the field is affine, not constant.
        field = tmp_path / "field.json"
        field.write_text(json.dumps({"n": 1, "C": [[1e-15]], "B": [1]}))
        bundle = tmp_path / "bundle.json"
        bundle.write_text(json.dumps({"family": "constant"}))
        code, _, err = run_cli(
            capsys,
            "verify-invariants",
            "--field",
            str(field),
            "--bundle",
            str(bundle),
        )
        assert code == 2
        assert "needs a constant field" in err

    @pytest.mark.parametrize("field_data, alpha", [
        (PLANAR_FIELD, 3.0),
        # Within numpy's default rtol of the family's field, not equal to it.
        ({"n": 2, "C": [[0, 0], [2.000002, 0]], "B": [1.000001, 0]}, 1.0),
    ], ids=["other-alpha", "near-field"])
    def test_family_is_verified_against_the_files_field(self, capsys, tmp_path, field_data, alpha):
        field = tmp_path / "field.json"
        field.write_text(json.dumps(field_data))
        bundle = tmp_path / "bundle.json"
        bundle.write_text(
            json.dumps({"family": "planar", "alpha": alpha, "beta": 1.0, "gamma": 0.0})
        )
        code, out, _ = run_cli(
            capsys, "verify-invariants", "--field", str(field), "--bundle", str(bundle)
        )
        payload = json.loads(out)
        assert code == 1
        assert payload["passed"] is False
        assert payload["max_parameter_defect"] > 1e-8

    def test_planar_family_needs_a_planar_field(self, capsys, tmp_path):
        field = tmp_path / "field.json"
        field.write_text(json.dumps({"n": 3, "C": [[0] * 3] * 3, "B": [1, 0, 0]}))
        bundle = tmp_path / "bundle.json"
        bundle.write_text(
            json.dumps({"family": "planar", "alpha": 1.0, "beta": 1.0, "gamma": 0.0})
        )
        code, _, err = run_cli(
            capsys, "verify-invariants", "--field", str(field), "--bundle", str(bundle)
        )
        assert code == 2
        assert "bundle functions must live on the field's space" in err


class TestCheckActionCommand:
    def test_standard_affine_passes(self, capsys):
        code, out, _ = run_cli(
            capsys, "check-action", "--action", "standard-affine", "--samples", "100"
        )
        assert code == 0
        assert json.loads(out)["passed"] is True
        # The bound is a constant of the package, still part of the report.
        assert '"tol": 1e-09' in out

    def test_chart_conjugated(self, capsys, tmp_path):
        params = tmp_path / "params.json"
        params.write_text(
            json.dumps({"n": 1, "base": "standard-linear", "chart": "lambert"})
        )
        code, out, _ = run_cli(
            capsys,
            "check-action",
            "--action",
            "chart-conjugated",
            "--params",
            str(params),
            "--samples",
            "100",
        )
        assert code == 0
        assert json.loads(out)["passed"] is True

    # The whole report at the default 200 samples and seed 42, n = 2, s =
    # ones and q = 1, bit for bit: one base on each registry chart, which the
    # per-coordinate chart maps must reproduce, and each catalog action
    # without a chart (chart None), which a change to how an action checks
    # its elements must not move.  The last three (q = 3 at n = 3, and the
    # weight s . t at n = 3 and 6) are where a stacked act that rounds
    # differently from a lone element's (numpy's ** for the power, a
    # matrix-vector product for s . t) moves a reported defect.
    @pytest.mark.parametrize(
        "base, chart, n, report",
        [
            ("standard-affine", "identity", 2, {
                "action": "standard-affine via chart 'identity'",
                "max_identity_defect": 0.0,
                "max_composition_defect": 1.9081930863874445e-16}),
            ("standard-translation", "exponential", 2, {
                "action": "standard-translation via chart 'exponential'",
                "max_identity_defect": 1.1783412004380548e-16,
                "max_composition_defect": 2.311196043967572e-16}),
            ("det-weighted", "diagonal-scaling", 2, {
                "action": "det-weighted(q=1) via chart 'diagonal-scaling'",
                "max_identity_defect": 9.064533807899944e-17,
                "max_composition_defect": 5.344771175052053e-16}),
            ("exp-translation", "lambert", 1, {
                "action": "exp-translation(s=[1.0]) via chart 'lambert'",
                "max_identity_defect": 9.201567496251857e-15,
                "max_composition_defect": 7.179881862581109e-15}),
            ("standard-linear", None, 2, {
                "action": "standard-linear",
                "max_identity_defect": 0.0,
                "max_composition_defect": 3.3083374214324304e-16}),
            ("standard-translation", None, 2, {
                "action": "standard-translation",
                "max_identity_defect": 0.0,
                "max_composition_defect": 1.7105731709606052e-16}),
            ("standard-affine", None, 2, {
                "action": "standard-affine",
                "max_identity_defect": 0.0,
                "max_composition_defect": 2.9605314874891544e-16}),
            ("exp-translation", None, 2, {
                "action": "exp-translation(s=[1.0, 1.0])",
                "max_identity_defect": 0.0,
                "max_composition_defect": 2.4452521457503725e-16}),
            ("det-weighted", None, 2, {
                "action": "det-weighted(q=1)",
                "max_identity_defect": 0.0,
                "max_composition_defect": 8.875734185247046e-16}),
            ("det-weighted", None, {"n": 3, "q": 3}, {
                "action": "det-weighted(q=3)",
                "max_identity_defect": 0.0,
                "max_composition_defect": 1.5972757848511278e-14}),
            ("exp-translation", None, 3, {
                "action": "exp-translation(s=[1.0, 1.0, 1.0])",
                "max_identity_defect": 0.0,
                "max_composition_defect": 3.5538107761115506e-16}),
            ("exp-translation", None, 6, {
                "action": "exp-translation(s=[1.0, 1.0, 1.0, 1.0, 1.0, 1.0])",
                "max_identity_defect": 0.0,
                "max_composition_defect": 8.164088992115388e-16}),
        ],
    )
    def test_chart_conjugated_report_is_pinned(self, capsys, tmp_path, base, chart, n,
                                               report):
        # n is the dimension, or the whole parameter file.
        params = n if isinstance(n, dict) else {"n": n}
        path = tmp_path / "params.json"
        if chart is None:
            path.write_text(json.dumps(params))
            action = base
        else:
            path.write_text(json.dumps({**params, "base": base, "chart": chart}))
            action = "chart-conjugated"
        code, out, err = run_cli(
            capsys, "check-action", "--action", action, "--params", str(path)
        )
        expected = {"action": report["action"], "samples": 200,
                    "max_identity_defect": report["max_identity_defect"],
                    "max_composition_defect": report["max_composition_defect"],
                    "tol": 1e-09, "passed": True}
        assert (code, err) == (0, "")
        assert out == json.dumps(expected, indent=2) + "\n"

    @pytest.mark.parametrize(
        "params",
        [{"n": 0}, {"n": -1}, {"n": 2.5}, {"n": 2.0}, {"n": True}, {"n": "2"},
         {"n": 2, "q": 1.5}, {"n": 2, "q": True}, {"n": 2, "q": -1}],
    )
    def test_dimension_and_power_must_be_json_integers(self, capsys, tmp_path, params):
        path = tmp_path / "params.json"
        path.write_text(json.dumps(params))
        code, out, err = run_cli(
            capsys, "check-action", "--action", "det-weighted", "--params", str(path)
        )
        key = "q" if "q" in params else "n"
        assert (code, out) == (2, "")
        assert err.startswith(f"error: parameter {key!r} must be an integer")

    def test_defaults_for_weight_and_power(self, capsys, tmp_path):
        # Without "s" and "q" the weight is ones(n) and the power is 1.
        params = tmp_path / "params.json"
        params.write_text(json.dumps({"n": 3}))
        for action in ("exp-translation", "det-weighted"):
            code, out, _ = run_cli(
                capsys,
                "check-action",
                "--action",
                action,
                "--params",
                str(params),
                "--samples",
                "20",
            )
            assert code == 0
            assert json.loads(out)["action"].endswith(
                "(s=[1.0, 1.0, 1.0])" if action == "exp-translation" else "(q=1)"
            )


class TestErrorHandling:
    def test_missing_file(self, capsys):
        code, out, err = run_cli(
            capsys, "flow", "--field", "/nonexistent.json", "--t", "1", "--point", "0"
        )
        assert code == 2
        assert err.startswith("error:")
        assert out == ""

    def test_malformed_json(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, err = run_cli(
            capsys, "flow", "--field", str(bad), "--t", "1", "--point", "0"
        )
        assert code == 2
        assert "not valid JSON" in err

    def test_schema_violation(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"C": [[0.0, 0.0]], "B": [1.0]}))
        code, _, err = run_cli(
            capsys, "flow", "--field", str(bad), "--t", "1", "--point", "0"
        )
        assert code == 2
        assert err.startswith("error:")

    # A file that is valid JSON but not an object, a bundle function index
    # that is not an integer, a value of the wrong JSON type below the top
    # level, and a tangent with no part or outside its group's algebra are
    # input errors, not crashes.
    @pytest.mark.parametrize(
        "command, flag, content",
        [
            ("verify-invariants", "--bundle", []),
            ("check-action", "--params", []),
            ("fundamental", "--X", []),
            ("fundamental", "--X", {}),
            ("fundamental", "--X", {"X_vec": [1.0]}),
            ("flow", "--field", [1.0]),
            ("verify-invariants", "--bundle",
             {"family": "constant", "G": {"kind": "slot", "index": "1"}}),
            ("verify-invariants", "--bundle",
             {"family": "constant", "G": {"kind": "slot", "index": 1.5}}),
            ("verify-invariants", "--bundle",
             {"family": "constant", "G": {"kind": "sin", "index": True}}),
            ("verify-invariants", "--bundle", {"family": "constant", "G": [[]]}),
            ("check-action", "--params", {"n": [2]}),
            ("verify-invariants", "--bundle",
             {"family": "planar", "alpha": [1], "beta": 1, "gamma": 0}),
            ("verify-invariants", "--bundle",
             {"family": "constant", "G": {"kind": "linear", "coeffs": {"a": 1}}}),
        ],
        ids=["bundle-list", "params-list", "tangent-list", "tangent-empty",
             "tangent-vector-under-GL", "field-list",
             "index-string", "index-float", "index-bool", "function-list",
             "dimension-list", "planar-alpha-list", "coeffs-object"],
    )
    def test_malformed_content_exits_two(self, capsys, tmp_path, command, flag, content):
        field = tmp_path / "field.json"
        field.write_text(json.dumps({"n": 3, "C": [[0] * 3] * 3, "B": [2, -1, 0.5]}))
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(content))
        argv = {
            "verify-invariants": ["--field", str(field)],
            "check-action": ["--action", "standard-linear"],
            "fundamental": ["--group", "GL"],
            "flow": ["--t", "1", "--point", "0"],
        }[command]
        code, out, err = run_cli(capsys, command, *argv, flag, str(bad))
        assert code == 2
        assert err.startswith("error:")
        assert out == ""

    def test_bad_point_string(self, capsys, planar_field_file):
        code, _, err = run_cli(
            capsys, "flow", "--field", planar_field_file, "--t", "1", "--point", "a,b"
        )
        assert code == 2
        assert "cannot parse point" in err

    @pytest.mark.parametrize("command", ["validate", "verify-invariants", "check-action"])
    def test_negative_seed_is_named(self, capsys, tmp_path, command):
        field = tmp_path / "field.json"
        field.write_text(json.dumps({"n": 2, "C": [[0, 0], [0, 0]], "B": [2, 4]}))
        bundle = tmp_path / "bundle.json"
        bundle.write_text(json.dumps({"family": "constant", "G": {"kind": "slot", "index": 1}}))
        argv = {
            "validate": [],
            "verify-invariants": ["--field", str(field), "--bundle", str(bundle)],
            "check-action": ["--action", "standard-linear"],
        }[command]
        code, out, err = run_cli(capsys, command, *argv, "--seed", "-1")
        assert (code, out, err) == (2, "", "error: seed must be an integer >= 0, not -1\n")


# The whole stdout of ``validate --seed 7``: every check's worst defect and
# bound, then the summary line.
VALIDATE_SEED_7 = [
    "ok   closed-form-vs-rk4: worst relative defect 8.423e-10 (bound 1e-06)",
    "ok   flow-group-law: worst relative defect 9.859e-14 (bound 1e-08)",
    "ok   bracket-structure-constants: "
    "312 unordered pairs exact (n=4 table: 210 pairs)",
    "ok   planar-family-end-to-end: defects: S 0.00e+00, "
    "I 0.00e+00, det 2.22e-16 (bound 1e-09)",
    "ok   fundamental-field-agreement: "
    "worst relative defect 9.884e-11 (bound 1e-05)",
    "ok   field-tangent-round-trip: worst round-trip defect 1.776e-15 (bound 1e-12)",
    "ok   chart-conjugation: worst field defect 9.319e-11 (bound 1e-06), "
    "worst Newton residual 4.885e-15 (bound 1e-12)",
    "ok   invariant-flow-constancy: worst defect 5.329e-15 (bound 1e-07)",
    "ok   rk4-convergence-order: smallest measured exponent 3.912 (bound 3.7)",
    "ok   degenerate-flow-consistency: "
    "worst fixed-point-choice defect 1.823e-14 (bound 1e-10), "
    "worst oracle defect 1.066e-10 (bound 1e-06)",
    "all 10 checks passed",
]


def test_validate_command_clean_build():
    # Full cross-module suite through the console entry point.
    result = subprocess.run(
        [sys.executable, "-m", "affine_fields.cli", "validate", "--seed", "7"],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert result.stdout.splitlines() == VALIDATE_SEED_7


@pytest.mark.parametrize("seed", [42, 2006])
def test_validate_stdout_is_pinned(capsys, seed):
    # The whole stdout of ``validate``, in process, against its pinned file.
    code, out, _ = run_cli(capsys, "validate", "--seed", str(seed))
    assert code == 0
    assert out == Path(__file__).with_name(f"validate_seed_{seed}.txt").read_text()
