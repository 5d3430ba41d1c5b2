"""Per-layer metrics: which package functions the tracer wraps, and how
their spans become the per-layer metrics of BENCHMARK.json."""

import numpy as np

CHECK_NAMES = (
    "closed-form-vs-rk4", "flow-group-law", "bracket-structure-constants",
    "planar-family-end-to-end", "fundamental-field-agreement", "field-tangent-round-trip",
    "chart-conjugation", "invariant-flow-constancy", "rk4-convergence-order",
    "degenerate-flow-consistency",
)
FORMS = ("translation", "exponential", "shifted-exponential", "augmented-exponential")
P50_MIN_SAMPLES = 10


def _rk4_steps(tracer, args, kwargs) -> int:
    problem = args[0] if args else kwargs["problem"]
    if problem.t_end == 0.0:
        return 0
    n_full = int(abs(problem.t_end) / problem.step)
    tail = abs(problem.t_end) - n_full * problem.step
    return n_full + (1 if tail > 1e-15 * abs(problem.t_end) else 0)


def _flow_dim(tracer, args, kwargs) -> int:
    return (args[0] if args else kwargs["flow"]).field.n


def _mat_exp_dim(tracer, args, kwargs) -> int:
    """Dimension of the field being flowed, else the matrix size."""
    dim = tracer.enclosing_tag("flows.flow_at")
    return dim if dim is not None else len(args[0] if args else kwargs["a"])


def install_tracer(tracer):
    tracer.patch_function("linalg", "mat_exp", pre=_mat_exp_dim)
    tracer.patch_function("linalg", "solve_linear", post=lambda tr, res: int(res[0] is None))
    tracer.patch_function("flows", "make_flow", post=lambda tr, res: tr.label_id(res.form))
    tracer.patch_function("flows", "flow_at", pre=_flow_dim)
    tracer.patch_function("flows", "orbit")
    tracer.patch_function("fields", "evaluate_many")
    tracer.patch_function("fields", "evaluate")
    tracer.patch_function("oracle", "integrate", pre=_rk4_steps)
    for name in ("act", "multiply", "fundamental_field_numeric", "one_parameter_subgroup",
                 "check_action_axioms"):
        tracer.patch_function("actions", name)
    tracer.patch_method("actions", "GroupElement", "__init__", span="actions.GroupElement")
    tracer.patch_function("charts", "lambert_w")
    tracer.patch_function("invariants", "verify_bundle")
    tracer.patch_function("invariants", "directional_derivative")
    tracer.patch_method("invariants", "ScalarField", "gradient")
    tracer.patch_checks("validate", "ALL_CHECKS")
    tracer.patch_function("cli", "main")


def per_layer_names() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in output order."""
    names = []

    def add(name, unit, better="lower"):
        names.append((name, unit, better))

    add("linalg.mat_exp.calls", "count")
    add("linalg.mat_exp.self_s", "s")
    for n in (2, 6, 20):
        add(f"linalg.mat_exp.p50_us.n{n}", "us")
    add("linalg.solve_linear.calls", "count")
    add("linalg.solve_linear.self_s", "s")
    add("linalg.solve_linear.unsolvable_ratio", "ratio")
    for fn in ("make_flow", "flow_at"):
        add(f"flows.{fn}.calls", "count")
        add(f"flows.{fn}.self_s", "s")
    add("flows.flow_at.p50_us", "us")
    add("flows.flow_at.raised", "count", "higher")
    add("flows.orbit.self_s", "s")
    for form in FORMS:
        add(f"flows.form.{form}", "count")
    for fn in ("evaluate_many", "evaluate"):
        add(f"fields.{fn}.calls", "count")
        add(f"fields.{fn}.self_s", "s")
    add("oracle.integrate.calls", "count")
    add("oracle.integrate.self_s", "s")
    add("oracle.rk4_steps", "count")
    add("oracle.rk4_step_us", "us")
    for check in CHECK_NAMES:
        add(f"validate.{check}.s", "s")
    add("actions.GroupElement.calls", "count")
    add("actions.GroupElement.self_s", "s")
    add("actions.GroupElement.raised", "count")
    add("actions.act.calls", "count")
    add("actions.act.self_s", "s")
    add("actions.multiply.self_s", "s")
    add("actions.fundamental_field_numeric.p50_us", "us")
    add("actions.one_parameter_subgroup.p50_us", "us")
    add("actions.check_action_axioms.self_s", "s")
    add("charts.lambert_w.calls", "count")
    add("charts.lambert_w.self_s", "s")
    add("invariants.verify_bundle.self_s", "s")
    add("invariants.directional_derivative.calls", "count")
    add("invariants.directional_derivative.self_s", "s")
    add("invariants.ScalarField.gradient.calls", "count")
    add("cli.main.self_s", "s")
    add("trace.overhead_ratio", "ratio")
    return names


def layer_metrics(tracer, rounds: int, overhead: float, speed: float = 1.0) -> dict[str, float]:
    """Per-layer values; counts and times are per round of the workload, and
    times are multiplied by ``speed`` (the probe's factor over the traced
    rounds, see probe.py).  A p50 of a span with fewer than P50_MIN_SAMPLES
    calls reads 0."""
    spans = tracer.summary()
    empty = {"calls": 0, "raised": 0, "self_s": 0.0, "total_s": 0.0,
             "durations": np.zeros(0), "tags": np.zeros(0, dtype=np.int64)}

    def span(name):
        return spans.get(name, empty)

    def p50_us(durations) -> float:
        if durations.size < P50_MIN_SAMPLES:
            return 0.0
        return float(np.median(durations)) * 1e6

    values = {}
    for name, s in spans.items():
        values[f"{name}.calls"] = s["calls"] / rounds
        values[f"{name}.self_s"] = s["self_s"] / rounds
        values[f"{name}.raised"] = s["raised"] / rounds
        values[f"{name}.p50_us"] = p50_us(s["durations"])
    mat_exp = span("linalg.mat_exp")
    for n in (2, 6, 20):
        values[f"linalg.mat_exp.p50_us.n{n}"] = p50_us(mat_exp["durations"][mat_exp["tags"] == n])
    solve = span("linalg.solve_linear")
    values["linalg.solve_linear.unsolvable_ratio"] = (
        float(np.mean(solve["tags"] == 1)) if solve["calls"] else 0.0)
    forms = span("flows.make_flow")["tags"]
    for form in FORMS:
        count = int(np.sum(forms == tracer.label_id(form))) if forms.size else 0
        values[f"flows.form.{form}"] = count / rounds
    integrate = span("oracle.integrate")
    steps = int(integrate["tags"].sum())
    values["oracle.rk4_steps"] = steps / rounds
    values["oracle.rk4_step_us"] = integrate["total_s"] / steps * 1e6 if steps else 0.0
    checks = span("validate.check")
    for check in CHECK_NAMES:
        mask = checks["tags"] == tracer.label_id(check)
        values[f"validate.{check}.s"] = float(checks["durations"][mask].sum()) / rounds
    values["trace.overhead_ratio"] = overhead
    return {name: values.get(name, 0.0) * (speed if unit in ("s", "us") else 1.0)
            for name, unit, _ in per_layer_names()}
