#!/usr/bin/env python3
"""Benchmark of affine-fields: four workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload orbit-grid --seed 1 --seconds 10 --trace 0

runs one workload from the root of a source checkout and prints, as its
last line, one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--trace 0`` measures the end-to-end metrics, averaged over
WORKERS[workload] processes run one after another; ``--trace 1`` runs the
workload in this process untraced and then traced for the same number of
rounds, and reports the per-layer metrics of BENCHMARK.json (counts and
times per round) together with the tracing overhead.  Timings are scaled to
a reference machine speed by ``probe.SpeedProbe``.  ``--workload all`` runs
the four workloads one after another and prints a table of the named
metrics.  The package is imported from ``src/`` of the checkout; spans and
per-span summaries go to ``.perfbench_out/``.
"""

import os

# nproc is 2 and OpenBLAS would start up to 64 threads: pin BLAS to one
# thread before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("orbit-grid", "flow-ensemble", "validate", "group-actions")
SETUP_REPEATS = 5
# Processes an untraced run is split over (see run_workers).  Each process
# runs at least one round, so validate, whose one round is longer than a
# run, measures three rounds.
WORKERS = {"orbit-grid": 3, "flow-ensemble": 5, "validate": 3, "group-actions": 5}
CHILD_TIMEOUT_S = 170


def _import_package(clock) -> list[tuple[float, float]]:
    """Import affine_fields from this checkout's src/ SETUP_REPEATS times,
    each time from scratch: every module the first import added (the
    package and what it imports) is dropped from sys.modules before the
    next.  Returns the intervals.  Modules of the package loaded before the
    call stay the ones in use afterwards."""
    if not (SRC / "affine_fields" / "__init__.py").is_file():
        raise SystemExit(f"error: no package source under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    loaded = {name: mod for name, mod in sys.modules.items() if name.startswith("affine_fields")}
    baseline = set(sys.modules) - set(loaded)
    spans = []
    for _ in range(SETUP_REPEATS):
        for name in set(sys.modules) - baseline:
            del sys.modules[name]
        t0 = clock()
        importlib.import_module("affine_fields")
        spans.append((t0, clock()))
    sys.modules.update(loaded)
    return spans


# --------------------------------------------------------------- running

def _rounds(workload, tally, seconds: float, count: int | None = None):
    """Run rounds until `seconds` of round time (or exactly `count` rounds),
    checking each round's outputs outside its timed region.  Rounds keep
    their timings and a digest of their outputs, not the outputs."""
    rounds, digests = [], []
    clock = workload.clock
    while True:
        t0 = clock()
        rnd = workload.run_round()
        rnd.span = (t0, clock())
        workload.check(rnd, tally)
        digests.append(workload.digest(rnd))
        rnd.outputs = None
        rounds.append(rnd)
        if (len(rounds) >= count if count else
                sum(r.span[1] - r.span[0] for r in rounds) >= seconds):
            return rounds, digests


def run(workload: str, seed: int, seconds: float, trace: bool, size: str = "full") -> dict:
    """Run one workload in this process and return its result record.
    Every interval is timed on the clock of a running ``SpeedProbe`` and
    scaled to its reference speed by the probes around it."""
    from probe import SpeedProbe

    with SpeedProbe() as probe:
        return _run(probe, workload, seed, seconds, trace, size)


def _run(probe, workload, seed, seconds, trace, size) -> dict:
    clock = probe.now

    def scaled_seconds(start: float, end: float) -> float:
        return (end - start) * probe.factor(start, end)

    imports = [scaled_seconds(*span) for span in _import_package(clock)]
    from layers import install_tracer, layer_metrics, per_layer_names
    from spans import Tracer
    from workloads import WORKLOADS, Tally

    OUT.mkdir(exist_ok=True)
    cls = WORKLOADS[workload]
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = clock()
        wl = cls(seed, size, OUT, clock)
        wl.warm_up()
        setups.append(scaled_seconds(t0, clock()))
    wl.prepare()

    def measure(count=None):
        rounds, digests = _rounds(wl, tally, seconds / 2 if trace else seconds, count)
        for rnd in rounds:
            rnd.duration = scaled_seconds(*rnd.span)
            rnd.rescale(scaled_seconds)
        return rounds, digests

    tally = Tally()
    rounds, digests = measure()
    record = {"workload": workload, "seed": seed, "rounds": len(rounds)}
    if not trace:
        metrics = {
            "setup_s": (statistics.median(imports) + statistics.median(setups), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "round_s": (statistics.fmean(r.duration for r in rounds), "s"),
            "ops_per_s": (wl.rate(rounds, *wl.primary), "1/s"),
            "digits": (tally.digits(), "digits"),
        }
        named = {"setup_s": metrics["setup_s"], "peak_rss_mb": metrics["peak_rss_mb"]}
        named.update(wl.named_metrics(rounds, tally))
        record["speed_factor"] = statistics.median(
            r.duration / (r.span[1] - r.span[0]) for r in rounds)
    else:
        tracer = Tracer(clock)
        install_tracer(tracer)
        try:
            traced, traced_digests = measure(count=len(rounds))
        finally:
            tracer.restore()
        if traced_digests != digests:
            tally.problems.append("traced rounds produced different outputs than untraced ones")
        untraced_s = sum(r.duration for r in rounds)
        traced_s = sum(r.duration for r in traced)
        overhead = traced_s / untraced_s - 1.0
        speed = traced_s / sum(r.span[1] - r.span[0] for r in traced)
        values = layer_metrics(tracer, len(rounds), overhead, speed)
        units = {name: unit for name, unit, _ in per_layer_names()}
        metrics = {name: (value, units[name]) for name, value in values.items()}
        named = {}
        tracer.write(OUT / f"spans-{workload}.npz")
        summary = {name: {k: v for k, v in s.items() if k not in ("durations", "tags")}
                   for name, s in tracer.summary().items()}
        with open(OUT / f"layers-{workload}.json", "w") as handle:
            json.dump({"rounds": len(rounds), "overhead_ratio": overhead,
                       "untraced_s": untraced_s, "traced_s": traced_s,
                       "spans": summary}, handle, indent=1)
    if len(set(digests)) != 1:
        tally.problems.append("rounds with identical inputs produced different outputs")
    record.update({
        "named": {k: {"value": v, "unit": u} for k, (v, u) in named.items()},
        "failures": tally.failures,
        "problems": tally.problems + [f"unexpected failure: {n}" for n in tally.unexpected],
        "result": {
            "correct": tally.correct,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
        },
    })
    return record


def _spawn(workload: str, seed: int, seconds: float, trace: int, worker: bool) -> tuple[dict, dict]:
    """Run this script for one workload in a child process; returns its
    summary record and result, or raises RuntimeError."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--seconds", repr(seconds), "--trace", str(trace)]
    if worker:
        cmd.append("--worker")
    proc = subprocess.run(cmd, capture_output=True, text=True, check=False,
                          timeout=CHILD_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    # Exit 1 with both lines printed is a result that is not correct.
    if proc.returncode not in (0, 1) or len(lines) < 2:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"workload {workload} exited with {proc.returncode}")
    return json.loads(lines[-2]), json.loads(lines[-1])


def run_workers(workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """An untraced run split over WORKERS[workload] processes in turn, each
    measuring its share of `seconds`.  Memory layout and hash seeds differ
    between processes and move a process's speed by several percent for its
    whole life; averaging over processes keeps that out of run-to-run
    spread.  Operations add up; timings and rates are averaged; digits is
    the worst."""
    parts = [_spawn(workload, seed, seconds / WORKERS[workload], 0, True)
             for _ in range(WORKERS[workload])]
    records, results = [p[0] for p in parts], [p[1] for p in parts]

    def combine(metric_sets):
        out = {}
        for name, first in metric_sets[0].items():
            values = [m[name]["value"] for m in metric_sets]
            value = min(values) if name.endswith("digits") else statistics.fmean(values)
            out[name] = {"value": value, "unit": first["unit"]}
        return out

    failures: dict[str, int] = {}
    for r in records:
        for name, count in r["failures"].items():
            failures[name] = failures.get(name, 0) + count
    record = {
        "workload": workload, "seed": seed, "workers": len(parts),
        "rounds": sum(r["rounds"] for r in records),
        "speed_factor": statistics.fmean(r["speed_factor"] for r in records),
        "named": combine([r["named"] for r in records]),
        "failures": failures,
        "problems": [p for r in records for p in r["problems"]],
    }
    result = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": combine([r["metrics"] for r in results]),
    }
    return record, result


def run_all(args) -> int:
    """Every workload in its own processes; prints the named metrics."""
    results = {}
    for name in WORKLOAD_NAMES:
        try:
            summary, result = _spawn(name, args.seed, args.seconds, args.trace, False)
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        results[name] = {**result, "named": summary["named"], "failures": summary["failures"]}
        print(f"{name}: attempted {result['attempted']}, failed {result['failed']}"
              f" {summary['failures'] or ''}, correct {result['correct']}")
        for metric, v in {**summary["named"], **result["metrics"]}.items():
            print(f"  {metric:<45} {v['value']:>14.6g} {v['unit']}")
    print(json.dumps({"workloads": results}))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args)
    if not (args.trace or args.worker or WORKERS[args.workload] == 1):
        try:
            record, result = run_workers(args.workload, args.seed, args.seconds)
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    else:
        record = run(args.workload, args.seed, args.seconds, bool(args.trace))
        result = record.pop("result")
    print(json.dumps(record))
    print(json.dumps(result))
    # A worker's parent combines its result and judges it.
    return 0 if result["correct"] or args.worker else 1


if __name__ == "__main__":
    sys.exit(main())
