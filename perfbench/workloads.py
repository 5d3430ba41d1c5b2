"""The four benchmark workloads.

Each workload generates its inputs from the run's seed, then repeats one
fixed *round* of operations.  Every round attempts the same operations, so
the share of failed operations does not depend on the run length.  Results
are checked outside the timed regions: flows against the mpmath references
of ``refs.py``, the CLI's CSV against the library orbit, ``validate``
against its own exit code and lines, and group actions against properties
the method must have, subgroup orbits also against mpmath references.

All package calls go through module attributes (``flows.flow_at``, not a
name imported here), so the tracer's rebinding reaches them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import re
import warnings
from pathlib import Path
from time import perf_counter

import numpy as np

import affine_fields as af
from affine_fields import actions as ga
from affine_fields import charts, cli, fields, flows, invariants

import refs

# Relative tolerance of a flow value against its 50-digit reference.  The
# worst ensemble value is about 2e-14 today; the near-singular shifted-form
# fault sits at 6e-8.
FLOW_RTOL = 1e-10
EXAMPLE_RTOL = 1e-12
AXIOM_TOL = 1e-9
FUNDAMENTAL_TOL = 1e-5
SUBGROUP_TOL = 1e-10
BUNDLE_TOL = 1e-8
# Errors are floored at the unit roundoff so that digits stay finite.
ERROR_FLOOR = 2.0**-53

# Operations that fail at the commit that introduced the benchmark, each
# because of a named fault in the package; see README.md.
KNOWN_FAULTS = {
    "tiny-scale-classified-constant": "flow-ensemble",
    "near-singular-shifted-form": "flow-ensemble",
    "overflow-returns-inf": "flow-ensemble",
    "small-determinant-rejected": "group-actions",
}


class Tally:
    """Attempted and failed operations, plus the worst error of the
    operations that passed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: dict[str, int] = {}
        self.problems: list[str] = []
        self.worst = 0.0

    def record(self, name: str, ok: bool, error: float | None = None):
        self.attempted += 1
        if ok:
            if error is not None:
                self.worst = max(self.worst, error)
            return
        self.failed += 1
        self.failures[name] = self.failures.get(name, 0) + 1

    @property
    def unexpected(self) -> list[str]:
        return sorted(name for name in self.failures if name not in KNOWN_FAULTS)

    @property
    def correct(self) -> bool:
        return not self.unexpected and not self.problems

    def digits(self) -> float:
        return -math.log10(max(self.worst, ERROR_FLOOR))


class Round:
    """Outputs of one round and the seconds spent per kind of operation,
    read from ``clock`` (the speed probe's clock in a benchmark run)."""

    def __init__(self, clock=perf_counter):
        self.clock = clock
        self.outputs: dict = {}
        self.intervals: list[tuple[str, float, float]] = []
        self.seconds: dict[str, float] = {}

    def timed(self, kind: str, fn):
        """fn(), with its interval recorded and its seconds added to ``kind``."""
        t0 = self.clock()
        result = fn()
        t1 = self.clock()
        self.intervals.append((kind, t0, t1))
        self.seconds[kind] = self.seconds.get(kind, 0.0) + t1 - t0
        return result

    def rescale(self, scaled_seconds):
        """Recompute ``seconds`` with scaled_seconds(start, end) per interval."""
        self.seconds = {}
        for kind, t0, t1 in self.intervals:
            self.seconds[kind] = self.seconds.get(kind, 0.0) + scaled_seconds(t0, t1)


def relative_error(got, want, scale=None) -> float:
    """2-norm error over ``scale``, by default the 2-norm of ``want``."""
    diff = float(np.linalg.norm(np.asarray(got, dtype=float) - want))
    if diff == 0.0:
        return 0.0
    scale = float(np.linalg.norm(want)) if scale is None else scale
    return diff / scale if scale > 0.0 else math.inf


def _attempt(fn, *args):
    """Result of fn(*args), or the exception it raised."""
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001 - a raised operation is a result to check
        return exc


def _capture_cli(argv) -> tuple[int, str]:
    """Exit code and stdout of ``affine-fields <argv>``, run in process."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects its arguments this way
            code = exc.code
    return code, buf.getvalue()


def _worked_example(rnd: Round):
    """Paper's worked example: the planar field flows the origin to (2, 4)."""
    rnd.outputs["worked-example"] = rnd.timed("example", lambda: _attempt(
        lambda: flows.flow_at(flows.make_flow(
            fields.AffineField([[0.0, 0.0], [2.0, 0.0]], [1.0, 0.0])), 2.0, np.zeros(2))))


def _check_worked_example(rnd: Round, tally: Tally):
    got = rnd.outputs["worked-example"]
    ok = not isinstance(got, Exception) and \
        relative_error(got, np.array([2.0, 4.0])) <= EXAMPLE_RTOL
    tally.record("worked-example", ok)


class Workload:
    name = ""
    primary: tuple[str, ...] = ()   # kinds of operation that make ops_per_s
    ops_per_round: dict[str, int]

    def __init__(self, seed: int, size: str, out_dir: Path, clock=perf_counter):
        """Inputs from ``seed``; ``size`` is "full" or "tiny" (the tests'
        quick pass); files the CLI reads go to ``out_dir``."""
        self.clock = clock

    def warm_up(self):
        """One reduced pass over every kind of operation."""

    def prepare(self):
        """Reference values; runs after set-up, outside every timed region."""

    def run_round(self) -> Round:
        raise NotImplementedError

    def check(self, rnd: Round, tally: Tally):
        raise NotImplementedError

    def digest(self, rnd: Round) -> str:
        """Hash of a round's outputs, to compare rounds bit for bit."""
        h = hashlib.sha256()
        _digest(rnd.outputs, h)
        return h.hexdigest()

    def named_metrics(self, rounds: list[Round], tally: Tally) -> dict:
        return {}

    def rate(self, rounds: list[Round], *kinds: str) -> float:
        """Operations of these kinds per (reference-speed) second spent on them."""
        seconds = sum(r.seconds[kind] for r in rounds for kind in kinds)
        return sum(self.ops_per_round[kind] for kind in kinds) * len(rounds) / seconds


def _digest(value, h):
    if isinstance(value, np.ndarray):
        h.update(f"{value.dtype.str}{value.shape}".encode())
        h.update(np.ascontiguousarray(value).tobytes())
    elif isinstance(value, dict):
        for key in sorted(value):
            h.update(f"<{key}>".encode())
            _digest(value[key], h)
    elif isinstance(value, (list, tuple)):
        h.update(f"[{len(value)}".encode())
        for item in value:
            _digest(item, h)
    elif isinstance(value, BaseException):
        h.update(f"<{type(value).__name__}: {value}>".encode())
    elif isinstance(value, float):
        h.update(value.hex().encode())
    else:
        h.update(repr(value).encode())


# ---------------------------------------------------------------- orbit-grid

class OrbitGrid(Workload):
    """Fixed fields of dimension 2, 6 and 20, one per flow form, sampled by
    ``flows.orbit`` on dense uniform grids, plus ``affine-fields orbit``
    over the 10^4-interval grid of the n = 6 field through ``cli.main``."""

    name = "orbit-grid"
    primary = ("orbit",)
    CLI_FIELD = "rotation-6"

    def __init__(self, seed, size, out_dir, clock=perf_counter):
        super().__init__(seed, size, out_dir, clock)
        rng = np.random.default_rng([seed, 1])
        self.orbits = []
        for spec in refs.load()["orbit"]:
            n = len(spec["B"])
            every = spec["sample_every"]
            steps = spec["steps"] if size == "full" else 4 * every
            start = np.zeros(n) if spec["name"] == "planar" else rng.uniform(-1.0, 1.0, size=n)
            self.orbits.append({
                "name": spec["name"], "C": np.array(spec["C"]), "B": np.array(spec["B"]),
                "start": start, "steps": steps, "h": spec["h"], "every": every,
                "grid": np.linspace(0.0, steps * spec["h"], steps + 1),
                "E_sample": spec["E_sample"],
            })
        self.cli_orbit = next(o for o in self.orbits if o["name"] == self.CLI_FIELD)
        self.field_path = out_dir / "orbit-field.json"
        self.field_path.write_text(json.dumps(
            fields.AffineField(self.cli_orbit["C"], self.cli_orbit["B"]).to_dict()))
        self.ops_per_round = {"orbit": sum(o["steps"] + 1 for o in self.orbits),
                              "cli": self.cli_orbit["steps"] + 1, "example": 1}

    def _cli_argv(self, steps: int) -> list[str]:
        o = self.cli_orbit
        return ["orbit", "--field", str(self.field_path),
                "--point=" + ",".join(repr(float(v)) for v in o["start"]),
                "--t0", "0", "--t1", repr(steps * o["h"]), "--steps", str(steps)]

    def warm_up(self):
        for o in self.orbits:
            flows.orbit(flows.make_flow(fields.AffineField(o["C"], o["B"])),
                        o["start"], o["grid"][:9])
        _capture_cli(self._cli_argv(8))
        _worked_example(Round(self.clock))

    def prepare(self):
        for o in self.orbits:
            count = o["steps"] // o["every"] + 1
            o["reference"] = refs.propagate(refs.decode(o["E_sample"]), o["start"], count)

    def run_round(self) -> Round:
        rnd = Round(self.clock)
        points = []
        for o in self.orbits:
            path = rnd.timed("orbit", lambda: _attempt(lambda: flows.orbit(
                flows.make_flow(fields.AffineField(o["C"], o["B"])), o["start"], o["grid"])))
            points.append(path if isinstance(path, Exception) else path.points)
        rnd.outputs["orbits"] = points
        argv = self._cli_argv(self.cli_orbit["steps"])
        rnd.outputs["cli"] = rnd.timed("cli", lambda: _attempt(_capture_cli, argv))
        _worked_example(rnd)
        return rnd

    def check(self, rnd: Round, tally: Tally):
        for o, pts in zip(self.orbits, rnd.outputs["orbits"]):
            ok = not isinstance(pts, Exception) and pts.shape == (o["steps"] + 1, len(o["start"]))
            error = None
            if ok:
                sampled = pts[:: o["every"]]
                error = max(relative_error(p, r) for p, r in zip(sampled, o["reference"]))
                ok = error <= FLOW_RTOL
            tally.record(f"orbit:{o['name']}", ok, error)
        lib = rnd.outputs["orbits"][self.orbits.index(self.cli_orbit)]
        tally.record("cli-orbit", self.csv_matches(rnd.outputs["cli"], lib))
        _check_worked_example(rnd, tally)

    def csv_matches(self, cli_result, library_points) -> bool:
        """The CSV has a header and steps + 1 rows that parse back exactly
        to the grid and to the library orbit."""
        if isinstance(cli_result, Exception) or isinstance(library_points, Exception):
            return False
        code, text = cli_result
        lines = text.splitlines()
        n = len(self.cli_orbit["start"])
        header = "t," + ",".join(f"u{i}" for i in range(1, n + 1))
        if code != 0 or not lines or lines[0] != header:
            return False
        if len(lines) != self.cli_orbit["steps"] + 2:
            return False
        try:
            table = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        except ValueError:
            return False
        return (table.shape == (len(lines) - 1, n + 1)
                and np.array_equal(table[:, 0], self.cli_orbit["grid"])
                and np.array_equal(table[:, 1:], library_points))

    def named_metrics(self, rounds, tally):
        return {
            "orbit_points_per_s": (self.rate(rounds, "orbit"), "points/s"),
            "cli_orbit_rows_per_s": (self.rate(rounds, "cli"), "rows/s"),
            "orbit_digits": (tally.digits(), "digits"),
        }


# ------------------------------------------------------------- flow-ensemble

class FlowEnsemble(Workload):
    """The 60-field pool of ``refs.py`` (n = 1..20, full-rank, rank-deficient
    with B in and off the range of C, linear and constant), each field built,
    passed to ``make_flow`` and flowed at its t from three seeded points,
    plus the worked example and three known-fault flows."""

    name = "flow-ensemble"
    primary = ("flows",)
    POINTS_PER_FIELD = 3

    def __init__(self, seed, size, out_dir, clock=perf_counter):
        super().__init__(seed, size, out_dir, clock)
        data = refs.load()
        pool = data["pool"] if size == "full" else data["pool"][:20]
        rng = np.random.default_rng([seed, 2])
        self.pool = [{
            "C": np.array(e["C"]), "B": np.array(e["B"]), "t": e["t"], "E": e["E"],
            "xs": rng.uniform(-1.0, 1.0, size=(self.POINTS_PER_FIELD, len(e["B"]))),
        } for e in pool]
        self.faults = {name: dict(f) for name, f in data["faults"].items()}
        self.ops_per_round = {"flows": self.POINTS_PER_FIELD * len(self.pool), "example": 1,
                              "faults": len(self.faults) + 1}

    @staticmethod
    def _flows(entry):
        flow = flows.make_flow(fields.AffineField(entry["C"], entry["B"]))
        return [flows.flow_at(flow, entry["t"], x) for x in entry["xs"]]

    def warm_up(self):
        for entry in self.pool[:20]:
            self._flows(entry)
        _worked_example(Round(self.clock))

    def prepare(self):
        # A pool flow's error is taken relative to the size of the terms it
        # sums, |E| |(x, 1)|: relative to the value itself, a start point
        # near cancellation (n = 1 pool fields) would make the worst error,
        # and with it `digits`, depend on the seed rather than the code.
        for entry in self.pool:
            e = refs.decode(entry["E"])
            entry["reference"] = [refs.apply(e, x) for x in entry["xs"]]
        for f in self.faults.values():
            f["reference"] = refs.apply(refs.decode(f["E"]), f["x"])

    def _faults(self) -> dict:
        out = {}
        for name, f in self.faults.items():
            out[name] = _attempt(lambda: flows.flow_at(
                flows.make_flow(fields.AffineField(f["C"], f["B"])), f["t"], f["x"]))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            out["overflow-returns-inf"] = _attempt(lambda: flows.flow_at(
                flows.make_flow(fields.AffineField([[100.0]], [0.0])), 10.0, [1.0]))
        return out

    def run_round(self) -> Round:
        rnd = Round(self.clock)
        rnd.outputs["flows"] = rnd.timed(
            "flows", lambda: [_attempt(self._flows, entry) for entry in self.pool])
        _worked_example(rnd)
        rnd.outputs["faults"] = rnd.timed("faults", self._faults)
        return rnd

    def check(self, rnd: Round, tally: Tally):
        for k, (entry, got) in enumerate(zip(self.pool, rnd.outputs["flows"])):
            for j, (ref, scale) in enumerate(entry["reference"]):
                error = None if isinstance(got, Exception) else relative_error(got[j], ref, scale)
                tally.record(f"pool-flow:{k}", error is not None and error <= FLOW_RTOL, error)
        _check_worked_example(rnd, tally)
        faults = rnd.outputs["faults"]
        for name, f in self.faults.items():
            got = faults[name]
            tally.record(name, not isinstance(got, Exception)
                         and relative_error(got, *f["reference"]) <= FLOW_RTOL)
        # Overflow must surface as a typed error, not as inf with a warning.
        got = faults["overflow-returns-inf"]
        tally.record("overflow-returns-inf",
                     isinstance(got, (ArithmeticError, ValueError, RuntimeError)))

    def named_metrics(self, rounds, tally):
        return {
            "flows_per_s": (self.rate(rounds, "flows"), "flows/s"),
            "flow_digits": (tally.digits(), "digits"),
        }


# ------------------------------------------------------------------ validate

CHECK_LINE = re.compile(r"^(ok  |FAIL) ([\w-]+): (.*)$")
ORACLE_CHECK = "closed-form-vs-rk4"


class Validate(Workload):
    """``affine-fields validate --seed 2006`` through ``cli.main``.

    The seed is fixed rather than drawn from the run's seed: the worst
    closed-form-vs-RK4 defect, which makes ``digits`` here, moves by more
    than half a digit between validate seeds, while the gate's code paths
    and cost do not depend on it.  It is not 42, the checks' default, so a
    traced run that lost the seed would print different output."""

    name = "validate"
    primary = ("validate",)
    VALIDATE_SEED = 2006

    def __init__(self, seed, size, out_dir, clock=perf_counter):
        super().__init__(seed, size, out_dir, clock)
        self.argv = ["validate", "--seed", str(self.VALIDATE_SEED)]
        self.field_path = out_dir / "planar-field.json"
        self.field_path.write_text('{"n": 2, "C": [[0, 0], [2, 0]], "B": [1, 0]}')
        self.ops_per_round = {"validate": len(af.validate.ALL_CHECKS)}

    def warm_up(self):
        _capture_cli(["flow", "--field", str(self.field_path), "--t", "2", "--point", "0,0"])

    def run_round(self) -> Round:
        rnd = Round(self.clock)
        rnd.outputs["validate"] = rnd.timed("validate", lambda: _attempt(_capture_cli, self.argv))
        return rnd

    def check(self, rnd: Round, tally: Tally):
        result = rnd.outputs["validate"]
        if isinstance(result, Exception):
            tally.problems.append(f"validate raised {result!r}")
            return
        code, text = result
        lines = text.splitlines()
        checks = [m.groups() for m in map(CHECK_LINE.match, lines) if m]
        for status, name, detail in checks:
            ok = status == "ok  "
            error = None
            if ok and name == ORACLE_CHECK:
                found = re.search(r"worst relative defect ([0-9.eE+-]+)", detail)
                error = float(found.group(1)) if found else None
            tally.record(f"check:{name}", ok, error)
        passed = sum(status == "ok  " for status, _, _ in checks)
        expected = len(af.validate.ALL_CHECKS)
        if len(checks) != expected:
            tally.problems.append(f"validate printed {len(checks)} check lines, expected {expected}")
        if (code == 0) != (passed == len(checks) == expected):
            tally.problems.append(f"validate exit code {code} with {passed} of {len(checks)} ok")

    def named_metrics(self, rounds, tally):
        return {"validate_s": (float(np.median([r.seconds["validate"] for r in rounds])), "s")}


# ------------------------------------------------------------- group-actions

def _slot_function(m: int, k: int, amp: float, analytic: bool) -> invariants.ScalarField:
    """xi -> xi_k + amp sin(xi_k): strictly increasing in its slot, so n - 1
    of them give a full-rank Jacobian.  Without ``analytic`` the gradient
    falls back to central differences."""

    def fn(xi):
        return float(xi[k] + amp * np.sin(xi[k]))

    def grad(xi):
        g = np.zeros(m)
        g[k] = 1.0 + amp * np.cos(xi[k])
        return g

    return invariants.ScalarField(m, fn, grad=grad if analytic else None)


class GroupActions(Workload):
    """Action axioms on the five catalog actions and three chart-conjugated
    ones, numeric against analytic fundamental fields, one-parameter
    subgroup orbits against fundamental-field flows, ``verify_bundle`` on
    constant-field bundles with n - 1 invariants and on the planar family,
    and one known-fault group element."""

    name = "group-actions"
    primary = ("axioms", "fundamental", "subgroup", "bundle")
    AXIOM_SAMPLES = 40
    FUNDAMENTAL_PER_ACTION = 20
    SUBGROUP_TIMES = np.linspace(-1.5, 1.5, 8)
    BUNDLE_SAMPLES = 25

    def __init__(self, seed, size, out_dir, clock=perf_counter):
        super().__init__(seed, size, out_dir, clock)
        self.out_dir = out_dir
        rng = np.random.default_rng([seed, 4])
        scale = 1 if size == "full" else 4
        n = 3
        catalog = [
            ga.standard_linear_action(n),
            ga.standard_translation_action(n),
            ga.standard_affine_action(n),
            ga.exp_translation_action(rng.uniform(-1.5, 1.5, size=n)),
            ga.det_weighted_action(n, 2),
        ]
        conjugated = [
            ga.chart_conjugated_action(ga.standard_linear_action(1), charts.lambert_chart()),
            ga.chart_conjugated_action(ga.standard_translation_action(2),
                                       charts.exponential_chart(2)),
            ga.chart_conjugated_action(ga.standard_affine_action(3),
                                       charts.diagonal_scaling_chart(3)),
        ]
        samples = self.AXIOM_SAMPLES // scale
        self.axioms = [(a, samples, int(rng.integers(0, 2**31))) for a in catalog + conjugated]

        self.fundamental = []
        for variant in ga.CATALOG_VARIANTS:
            for _ in range(self.FUNDAMENTAL_PER_ACTION // scale):
                m = int(rng.integers(1, 5))
                if variant == ga.EXP_TRANSLATION:
                    action = ga.exp_translation_action(rng.uniform(-1.5, 1.5, size=m))
                elif variant == ga.DET_WEIGHTED:
                    action = ga.det_weighted_action(m, int(rng.integers(0, 4)))
                else:
                    action = ga.GroupAction(variant, m)
                self.fundamental.append(
                    (action, self._tangent(rng, action), rng.uniform(-2.0, 2.0, size=m)))

        self.subgroup = []
        for action in catalog:
            for _ in range(4 if size == "full" else 1):
                tangent = self._tangent(rng, action, norm=1.0)
                x = rng.uniform(-2.0, 2.0, size=n)
                self.subgroup += [(action, tangent, float(t), x) for t in self.SUBGROUP_TIMES]

        self.bundles = []
        for m in (2, 3, 4, 5)[: 4 // scale]:
            b = rng.uniform(0.5, 2.0, size=m) * rng.choice([-1.0, 1.0], size=m)
            amps = rng.uniform(-0.5, 0.5, size=m)
            reshape = _slot_function(m - 1, 0, 0.3, analytic=True)
            invs = [_slot_function(m - 1, k, amps[k], analytic=k % 2 == 0) for k in range(m - 1)]
            self.bundles.append(invariants.constant_field_bundle(b, F=reshape, G=invs))
        alpha = float(rng.uniform(0.5, 2.0) * rng.choice([-1.0, 1.0]))
        beta, gamma = (float(v) for v in rng.uniform(-1.0, 1.0, size=2))
        self.bundles.append(invariants.planar_affine_family(alpha, beta, gamma)[1])
        self.bundle_seed = int(rng.integers(0, 2**31))
        self.bundle_samples = self.BUNDLE_SAMPLES // scale

        # Known fault: det(0.2 I_20) = 1e-14 is under the absolute MIN_ABS_DET.
        self.fault_x = np.linspace(-1.0, 1.0, 20)
        self.ops_per_round = {
            "axioms": samples * len(self.axioms),
            "fundamental": len(self.fundamental),
            "subgroup": len(self.subgroup),
            "bundle": self.bundle_samples * len(self.bundles),
        }

    @staticmethod
    def _tangent(rng, action, norm=None):
        """Random tangent with entries in [-1, 1]; or, given ``norm``, one with
        singular values of its matrix part in [0.5, 1], rescaled to that
        Frobenius norm over the coordinates its group uses.  Subgroup orbits
        use the latter: the fundamental-field flow of an affine tangent goes
        through the fixed point X_mat^-1 X_vec, and a near-singular X_mat
        (the near-singular-shifted-form fault) would make the worst subgroup
        defect depend on the seed."""
        m = action.n
        mat = rng.uniform(-1.0, 1.0, size=(m, m))
        vec = rng.uniform(-1.0, 1.0, size=m)
        if norm is not None:
            u, _, vt = np.linalg.svd(mat)
            mat = (u * rng.uniform(0.5, 1.0, size=m)) @ vt
        if action.group_kind == ga.TRANSLATION_GROUP:
            mat[:] = 0.0
        if action.group_kind == ga.GENERAL_LINEAR:
            vec[:] = 0.0
        if norm is not None:
            scale = norm / np.sqrt(np.sum(mat**2) + np.sum(vec**2))
            mat, vec = mat * scale, vec * scale
        return ga.TangentAtIdentity(action.group_kind, mat, vec)

    def _pass(self, rnd: Round, limit=None):
        """Every kind of operation once; ``limit`` shortens it to a warm-up."""
        rnd.outputs["axioms"] = rnd.timed("axioms", lambda: [
            _attempt(ga.check_action_axioms, action, samples if limit is None else 1, seed)
            for action, samples, seed in self.axioms])
        rnd.outputs["fundamental"] = rnd.timed("fundamental", lambda: [
            _attempt(lambda: (ga.fundamental_field_numeric(action, tangent, x),
                              fields.evaluate(ga.fundamental_field_analytic(action, tangent), x)))
            for action, tangent, x in self.fundamental[:limit]])
        rnd.outputs["subgroup"] = rnd.timed("subgroup", lambda: [
            _attempt(lambda: ga.act(action, ga.one_parameter_subgroup(action, tangent, t), x))
            for action, tangent, t, x in self.subgroup[:limit]])
        rnd.outputs["bundle"] = rnd.timed("bundle", lambda: [
            _attempt(invariants.verify_bundle, bundle,
                     self.bundle_samples if limit is None else 1, BUNDLE_TOL, 2.0,
                     self.bundle_seed)
            for bundle in self.bundles])
        rnd.outputs["fault"] = rnd.timed("fault", lambda: _attempt(
            lambda: ga.act(ga.standard_linear_action(20),
                           ga.linear_element(0.2 * np.eye(20)), self.fault_x)))

    def warm_up(self):
        self._pass(Round(self.clock), limit=2)

    def prepare(self):
        # Two expectations per subgroup point: the package's flow of the
        # analytic fundamental field, the closed form the orbit must
        # reproduce, and exp(t [[C, B], [0, 0]]) (x, 1) of that field at 50
        # digits, which no error of the package's exponential cancels.  The
        # references take 2 s; they are kept in a file named by a hash of
        # their inputs, so the later processes of a run read them.
        self.subgroup_expected = []
        fields_cb, h = [], hashlib.sha256()
        for action, tangent, t, x in self.subgroup:
            field = ga.fundamental_field_analytic(action, tangent)
            flow = flows.flow_at(flows.make_flow(field), t, x)
            fields_cb.append((field.C, field.B))
            self.subgroup_expected.append(flow)
            _digest([field.C, field.B, t, x], h)
        path = self.out_dir / f"subgroup-references-{h.hexdigest()[:16]}.npy"
        if path.is_file():
            references = np.load(path)
        else:
            references = np.array([
                refs.apply(refs.homogeneous_exp(c, b, t), x)[0]
                for (c, b), (_, _, t, x) in zip(fields_cb, self.subgroup)])
            partial = path.with_suffix(".partial.npy")
            np.save(partial, references)
            partial.replace(path)
        self.subgroup_expected = list(zip(self.subgroup_expected, references))

    def run_round(self) -> Round:
        rnd = Round(self.clock)
        self._pass(rnd)
        return rnd

    def check(self, rnd: Round, tally: Tally):
        out = rnd.outputs
        for (action, _, _), report in zip(self.axioms, out["axioms"]):
            ok = not isinstance(report, Exception) and (
                report.max_identity_defect <= AXIOM_TOL
                and report.max_composition_defect <= AXIOM_TOL)
            tally.record(f"axioms:{action.describe()}", ok)
        for (_, _, x), got in zip(self.fundamental, out["fundamental"]):
            ok = not isinstance(got, Exception) and (
                np.linalg.norm(got[0] - got[1]) <= FUNDAMENTAL_TOL * (1.0 + np.linalg.norm(x)))
            tally.record("fundamental", ok)
        for (_, _, _, x), got, (flow, reference) in zip(
                self.subgroup, out["subgroup"], self.subgroup_expected):
            bound = SUBGROUP_TOL * (1.0 + np.linalg.norm(x))
            ok = not isinstance(got, Exception) and (
                np.linalg.norm(got - flow) <= bound and np.linalg.norm(got - reference) <= bound)
            tally.record("subgroup", ok, relative_error(got, reference) if ok else None)
        for report in out["bundle"]:
            tally.record("bundle", not isinstance(report, Exception) and report.passed)
        got = out["fault"]
        tally.record("small-determinant-rejected", not isinstance(got, Exception)
                     and relative_error(got, 0.2 * self.fault_x) <= 1e-15)

    def named_metrics(self, rounds, tally):
        return {
            "axiom_samples_per_s": (self.rate(rounds, "axioms"), "samples/s"),
            "fundamental_evals_per_s": (self.rate(rounds, "fundamental"), "evaluations/s"),
            "subgroup_points_per_s": (self.rate(rounds, "subgroup"), "points/s"),
            "bundle_points_per_s": (self.rate(rounds, "bundle"), "points/s"),
        }


WORKLOADS = {w.name: w for w in (OrbitGrid, FlowEnsemble, Validate, GroupActions)}
