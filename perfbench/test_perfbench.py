"""Tests of the benchmark itself: every correctness check can fail, the
tracer reaches every namespace and keeps validate's seed, the speed probe
scales by its probes, and a tiny pass of all four workloads finishes in
seconds.

    python3 -m pytest perfbench
"""

import json
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import layers  # noqa: E402
import probe  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

# The three slowest validate checks; the tiny pass runs the other seven.
SLOW_CHECKS = ("check_flow_vs_oracle", "check_group_law", "check_degenerate_flows")


@pytest.fixture
def fast_validate(monkeypatch):
    from affine_fields import validate

    monkeypatch.setattr(validate, "ALL_CHECKS", tuple(
        fn for fn in validate.ALL_CHECKS if fn.__name__ not in SLOW_CHECKS))


def _workload(name, seed=5):
    run.OUT.mkdir(exist_ok=True)
    wl = workloads.WORKLOADS[name](seed, "tiny", run.OUT)
    wl.prepare()
    return wl


def _tally(wl, rnd):
    tally = workloads.Tally()
    wl.check(rnd, tally)
    return tally


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_pass(name, trace, fast_validate):
    record = run.run(name, seed=7, seconds=1e-3, trace=trace, size="tiny")
    result = record["result"]
    assert record["problems"] == []
    assert result["correct"]
    assert result["attempted"] >= 1
    assert set(record["failures"]) <= set(workloads.KNOWN_FAULTS)
    assert all(workloads.KNOWN_FAULTS[f] == name for f in record["failures"])
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    group = "per_layer" if trace else "end_to_end"
    assert list(result["metrics"]) == [m["name"] for m in bench[group]]
    for m in bench[group]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_per_layer_names_match_benchmark_json():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == \
        layers.per_layer_names()


def test_perturbed_flow_value_is_a_failure():
    wl = _workload("flow-ensemble")
    rnd = wl.run_round()
    clean = _tally(wl, rnd)
    rnd.outputs["flows"][0][0] = rnd.outputs["flows"][0][0] * (1.0 + 1e-8)
    tally = _tally(wl, rnd)
    assert tally.failed == clean.failed + 1
    assert tally.unexpected == ["pool-flow:0"]
    assert not tally.correct


def test_changed_csv_digit_is_a_failure():
    wl = _workload("orbit-grid")
    rnd = wl.run_round()
    assert _tally(wl, rnd).failed == 0
    code, text = rnd.outputs["cli"]
    lines = text.splitlines()
    row = lines[5]
    k = next(i for i, ch in enumerate(row) if ch.isdigit() and ch not in "09" and i > 2)
    lines[5] = row[:k] + str(int(row[k]) + 1) + row[k + 1:]
    rnd.outputs["cli"] = (code, "\n".join(lines) + "\n")
    tally = _tally(wl, rnd)
    assert tally.failures == {"cli-orbit": 1}
    assert not tally.correct


def test_validate_fail_line_is_a_failure():
    wl = _workload("validate")
    lines = [f"ok   {name}: worst relative defect 1.0e-10 (bound 1e-06)"
             for name in layers.CHECK_NAMES]
    rnd = workloads.Round()
    rnd.outputs["validate"] = (0, "\n".join(lines + ["all 10 checks passed"]))
    assert _tally(wl, rnd).failed == 0
    lines[3] = lines[3].replace("ok  ", "FAIL")
    rnd.outputs["validate"] = (1, "\n".join(lines + ["1 of 10 checks failed"]))
    tally = _tally(wl, rnd)
    assert tally.failures == {f"check:{layers.CHECK_NAMES[3]}": 1}
    assert not tally.correct


def test_orbit_reference_catches_a_wrong_orbit():
    wl = _workload("orbit-grid")
    rnd = wl.run_round()
    rnd.outputs["orbits"][2] = rnd.outputs["orbits"][2] * (1.0 + 1e-8)
    assert "orbit:shifted-20" in _tally(wl, rnd).unexpected


def test_group_action_properties_can_fail():
    wl = _workload("group-actions")
    rnd = wl.run_round()
    assert set(_tally(wl, rnd).failures) <= {"small-determinant-rejected"}
    rnd.outputs["subgroup"][0] = rnd.outputs["subgroup"][0] + 1e-6
    numeric, analytic = rnd.outputs["fundamental"][0]
    rnd.outputs["fundamental"][0] = (numeric + 1e-3, analytic)
    assert _tally(wl, rnd).unexpected == ["fundamental", "subgroup"]


def test_subgroup_reference_catches_an_error_shared_with_the_flow():
    wl = _workload("group-actions")
    rnd = wl.run_round()
    # A wrong exponential moves the orbit and the package's flow of the
    # fundamental field alike; only the 50-digit reference sees it.
    flow, reference = wl.subgroup_expected[0]
    wl.subgroup_expected[0] = (flow * (1.0 + 1e-8), reference)
    rnd.outputs["subgroup"][0] = rnd.outputs["subgroup"][0] * (1.0 + 1e-8)
    assert _tally(wl, rnd).unexpected == ["subgroup"]


def test_speed_probe_scales_by_its_probes():
    previous = signal.getsignal(signal.SIGALRM)
    with probe.SpeedProbe() as p:
        t0 = p.now()
        end = perf_counter() + 0.5
        while perf_counter() < end:
            pass
        t1 = p.now()
    assert signal.getsignal(signal.SIGALRM) is previous
    assert len(p.durations) >= 3
    # Time spent in probes is taken out of ``now``.
    assert t1 - t0 == pytest.approx(0.5 - p.spent, abs=0.02)
    assert p.factor(t0, t1) == probe.REFERENCE_S / statistics.fmean(p.durations)
    rnd = workloads.Round(p.now)
    rnd.intervals = [("kind", t0, t1)]
    rnd.rescale(lambda a, b: (b - a) * p.factor(a, b))
    assert rnd.seconds["kind"] == (t1 - t0) * p.factor(t0, t1)


def test_tracer_rebinds_every_namespace_and_restores():
    import affine_fields
    from affine_fields import actions, cli, fields, flows, linalg, validate

    originals = {
        "mat_exp": (linalg.mat_exp, (linalg, flows, actions)),
        "flow_at": (flows.flow_at, (flows, validate, cli)),
        "make_flow": (flows.make_flow, (flows, validate, cli)),
        "evaluate_many": (fields.evaluate_many, (fields, validate)),
        "integrate": (validate.integrate, (validate,)),
        "evaluate": (fields.evaluate, (fields, actions, validate)),
        "solve_linear": (linalg.solve_linear, (flows, validate)),
    }
    tracer = Tracer()
    layers.install_tracer(tracer)
    try:
        for name, (original, holders) in originals.items():
            for mod in holders:
                assert getattr(mod, name) is not original
                assert getattr(mod, name).__wrapped__ is original
            for mod_name, mod in sys.modules.items():
                if mod_name.startswith("affine_fields"):
                    assert all(v is not original for v in vars(mod).values()), (mod_name, name)
    finally:
        tracer.restore()
    for name, (original, holders) in originals.items():
        assert all(getattr(mod, name) is original for mod in holders + (affine_fields,))


def test_traced_validate_keeps_the_seed(fast_validate):
    from affine_fields import validate

    argv = ["validate", "--seed", "7"]
    plain = workloads._capture_cli(argv)
    tracer = Tracer()
    layers.install_tracer(tracer)
    try:
        traced = workloads._capture_cli(argv)
    finally:
        tracer.restore()
    assert traced == plain
    assert tracer.summary()["validate.check"]["calls"] == len(validate.ALL_CHECKS)

    # A plain *args wrapper hides the seed parameter: run_all then falls
    # back to seed 42 and the output changes, which the benchmark reports.
    naive = tuple((lambda fn: lambda *a, **k: fn(*a, **k))(fn) for fn in validate.ALL_CHECKS)
    original = validate.ALL_CHECKS
    validate.ALL_CHECKS = naive
    try:
        assert workloads._capture_cli(argv) != plain
    finally:
        validate.ALL_CHECKS = original


def test_self_time_subtracts_children():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda: sum(range(20000)))
    outer = tracer.wrap("outer", lambda: [inner() for _ in range(3)])
    outer()
    spans = tracer.summary()
    assert spans["inner"]["calls"] == 3
    assert spans["outer"]["self_s"] == pytest.approx(
        spans["outer"]["total_s"] - spans["inner"]["total_s"], abs=1e-12)
    assert 0.0 < spans["outer"]["self_s"] < spans["outer"]["total_s"]


def test_reference_is_independent_of_the_package():
    import refs

    c = np.array([[0.0, 0.0], [2.0, 0.0]])
    b = np.array([1.0, 0.0])
    value, scale = refs.apply(refs.homogeneous_exp(c, b, 2.0), [0.0, 0.0])
    assert np.array_equal(value, [2.0, 4.0])
    assert scale == np.hypot(2.0, 4.0)
    assert "affine_fields" not in Path(refs.__file__).read_text()


def test_run_that_is_not_correct_exits_1(monkeypatch, capsys):
    monkeypatch.delitem(workloads.KNOWN_FAULTS, "overflow-returns-inf")
    code = run.main(["--workload", "flow-ensemble", "--seed", "1", "--seconds", "0.001",
                     "--trace", "1"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False
    assert code == 1

def test_exits_nonzero_without_the_package():
    bare = run.OUT / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(HERE.parent / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "orbit-grid", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60, check=False)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
