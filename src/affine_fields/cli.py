"""Command-line interface: JSON in, JSON/CSV out.

Commands
--------
flow                image of a point under the time-t flow of a field
orbit               CSV trajectory of a point on a uniform time grid
bracket             Lie bracket of two fields
fundamental         closed-form fundamental field of a catalog action
verify-invariants   defect report for a canonical-parameter bundle
check-action        action-axiom defect report
validate            full cross-module validation suite

Exit codes: 0 success, 1 validation failure, 2 input error (a bad value or
JSON of the wrong type) or overflow.
Floats are printed in shortest round-trip decimal form so identical inputs
give byte-identical outputs.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

import numpy as np

from . import actions as ga
from .charts import get_chart
from .fields import AffineField, bracket
from .flows import flow_at, make_flow, orbit
from .invariants import (
    InvariantBundle,
    ScalarField,
    constant_field_bundle,
    planar_affine_family,
    verify_bundle,
)
from .linalg import _real, as_integer
from .validate import run_all


class InputError(ValueError):
    """Bad file, flag, or schema content; maps to exit code 2."""


def fmt_float(value: float) -> str:
    """Shortest round-trip decimal; integral values drop the trailing .0"""
    r = repr(float(value))
    return r[:-2] if r.endswith(".0") else r


def _fmt_vector(vec) -> str:
    return " ".join(fmt_float(v) for v in np.asarray(vec).ravel())


def _load_json(path: str) -> dict:
    try:
        with open(path) as handle:
            data = json.load(handle)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise InputError(f"{path} must hold a JSON object")
    return data


def _load_field(path: str) -> AffineField:
    data = _load_json(path)
    try:
        return AffineField.from_dict(data)
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"{path}: {exc}") from exc


def _parse_point(text: str) -> np.ndarray:
    try:
        return np.array([float(part) for part in text.split(",")])
    except ValueError as exc:
        raise InputError(f"cannot parse point {text!r}: {exc}") from exc


def _print_json(obj) -> None:
    print(json.dumps(obj, indent=2))


def _cmd_flow(args) -> int:
    field = _load_field(args.field)
    point = _parse_point(args.point)
    image = flow_at(make_flow(field), args.t, point)
    if args.format == "json":
        _print_json({"t": args.t, "point": point.tolist(), "image": image.tolist()})
    else:
        print(_fmt_vector(image))
    return 0


def _cmd_orbit(args) -> int:
    field = _load_field(args.field)
    point = _parse_point(args.point)
    if args.steps < 1:
        raise InputError("--steps must be at least 1")
    # flow_at rejects a non-finite grid; linspace must not warn about it first.
    with np.errstate(invalid="ignore", over="ignore"):
        grid = np.linspace(args.t0, args.t1, args.steps + 1)
    path = orbit(make_flow(field), point, grid)
    rows = np.column_stack([path.times, path.points]).tolist()
    header = "t," + ",".join(f"u{i}" for i in range(1, field.n + 1))
    print("\n".join([header] + [",".join(map(fmt_float, row)) for row in rows]))
    return 0


def _cmd_bracket(args) -> int:
    x = _load_field(args.x)
    y = _load_field(args.y)
    _print_json(bracket(x, y).to_dict())
    return 0


_GROUP_KINDS = {
    "T": ga.TRANSLATION_GROUP,
    "GL": ga.GENERAL_LINEAR,
    "GA": ga.GENERAL_AFFINE,
}


def _build_action(name: str, n: int, s=None, q=None, kind=None) -> ga.GroupAction:
    """Catalog action ``name`` on R^n.

    Given a group ``kind``, ``standard`` names that group's standard action,
    its one catalog action without a parameter, and an action of another
    group is refused.  A variant that takes the weight vector ``s`` or the
    determinant power ``q`` is given it.
    """
    if kind is not None and name == "standard":
        name = next(v for v in ga.CATALOG_VARIANTS
                    if ga.VARIANTS[v].kind == kind and ga.VARIANTS[v].param is None)
    if name not in ga.CATALOG_VARIANTS:
        raise InputError(f"unknown action {name!r}")
    param = ga.VARIANTS[name].param
    values = {}
    if param is not None:
        values[param] = s if param == "s" else q
        if values[param] is None:
            raise InputError(f"{name} needs --{param}")
    action = ga.GroupAction(name, n, **values)
    if kind is not None and action.group_kind != kind:
        group = action.group_kind.replace("-", " ")
        raise InputError(f"{name} is an action of the {group} group")
    return action


def _cmd_fundamental(args) -> int:
    kind = _GROUP_KINDS[args.group]
    data = _load_json(args.X)
    try:
        mat, vec = data.get("X_mat"), data.get("X_vec")
        if mat is None and vec is None:
            raise ValueError("tangent data needs X_mat or X_vec")
        n = len(mat if vec is None else vec)
        mat = np.zeros((n, n)) if mat is None else mat
        tangent = ga.TangentAtIdentity(kind, mat, np.zeros(n) if vec is None else vec)
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"{args.X}: {exc}") from exc
    s = None if args.s is None else _parse_point(args.s)
    action = _build_action(args.action, tangent.n, s, args.q, kind)
    _print_json(ga.fundamental_field_analytic(action, tangent).to_dict())
    return 0


# Functions of one slot: kind -> (f, f').
_SLOT_FUNCTIONS = {
    "slot": (lambda v: v, lambda v: 1.0),
    "square": (lambda v: v**2, lambda v: 2.0 * v),
    "sin": (np.sin, np.cos),
}


def _scalar_field_from_json(data: dict, m: int) -> ScalarField:
    """Scalar field on R^m from a small declarative catalog.

    kinds: zero; slot/square/sin with a 1-based "index"; linear with
    "coeffs" dotted against the slots.
    """
    kind = data.get("kind") if isinstance(data, dict) else None
    if kind == "zero":
        return ScalarField(m, lambda xi: 0.0, grad=lambda xi: np.zeros(m))
    if kind in _SLOT_FUNCTIONS:
        index = data.get("index", 1)
        if not isinstance(index, int) or isinstance(index, bool):
            raise InputError(f"function index {index!r} is not an integer")
        if not 1 <= index <= m:
            raise InputError(f"function index {index} out of range 1..{m}")
        k = index - 1
        f, df = _SLOT_FUNCTIONS[kind]

        def grad(xi):
            g = np.zeros(m)
            g[k] = df(xi[k])
            return g

        return ScalarField(m, lambda xi: float(f(xi[k])), grad=grad)
    if kind == "linear":
        coeffs = _real(data.get("coeffs", []), "coeffs", finite=None)
        if coeffs.size != m:
            raise InputError(f"linear function needs {m} coeffs")
        return ScalarField(
            m,
            lambda xi: float(np.dot(coeffs, xi)),
            grad=lambda xi: coeffs.copy(),
        )
    raise InputError(f"unknown scalar function kind {kind!r}")


def _build_bundle(field: AffineField, data: dict) -> InvariantBundle:
    family = data.get("family")
    if family == "constant":
        if field.classify() != "constant":
            raise InputError("constant bundle family needs a constant field")
        m = field.n - 1
        F = _scalar_field_from_json(data["F"], m) if "F" in data else None
        raw_g = data.get("G")
        if raw_g is None:
            G = None
        elif isinstance(raw_g, list):
            G = [_scalar_field_from_json(g, m) for g in raw_g]
        else:
            G = _scalar_field_from_json(raw_g, m)
        return constant_field_bundle(field.B, F=F, G=G)
    if family == "planar":
        try:
            alpha = float(data["alpha"])
            beta = float(data["beta"])
            gamma = float(data["gamma"])
        except KeyError as exc:
            raise InputError(f"planar bundle family needs {exc}") from exc
        family_field, bundle = planar_affine_family(alpha, beta, gamma)
        if not np.allclose(family_field.matrix, field.matrix, atol=1e-12):
            raise InputError("field file does not match the planar family parameters")
        return bundle
    raise InputError(f"unknown bundle family {family!r}")


def _cmd_verify_invariants(args) -> int:
    field = _load_field(args.field)
    bundle = _build_bundle(field, _load_json(args.bundle))
    report = verify_bundle(
        bundle, sample_count=args.samples, tol=args.tol, seed=args.seed
    )
    _print_json(report.to_dict())
    return 0 if report.passed else 1


# check-action's name for a catalog action made local by a chart.
CHART_CONJUGATED = "chart-conjugated"


def _cmd_check_action(args) -> int:
    params = _load_json(args.params) if args.params else {}
    n, q = (as_integer(params.get(key, default), f"parameter {key!r}", least)
            for key, default, least in (("n", 2, 1), ("q", 1, 0)))
    s = params.get("s", np.ones(n))
    name = args.action
    if name == CHART_CONJUGATED:
        base_name = params.get("base")
        chart_name = params.get("chart")
        if not base_name or not chart_name:
            raise InputError("chart-conjugated needs 'base' and 'chart' params")
        base = _build_action(base_name, n, s, q)
        action = ga.chart_conjugated_action(base, get_chart(chart_name, n))
    else:
        action = _build_action(name, n, s, q)
    report = ga.check_action_axioms(action, samples=args.samples, seed=args.seed)
    _print_json(report.to_dict())
    return 0 if report.passed else 1


def _cmd_validate(args) -> int:
    results = run_all(seed=args.seed)
    failures = 0
    for result in results:
        status = "ok  " if result.passed else "FAIL"
        print(f"{status} {result.name}: {result.detail}")
        failures += 0 if result.passed else 1
    if failures:
        print(f"{failures} of {len(results)} checks failed")
        return 1
    print(f"all {len(results)} checks passed")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="affine-fields",
        description="Flows, brackets, invariants, and fundamental fields "
        "of constant, linear, and affine vector fields on R^n.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("flow", help="image of a point under the time-t flow")
    p.add_argument("--field", required=True, help="field JSON file")
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--point", required=True, help="comma-separated coordinates")
    p.add_argument("--format", choices=("plain", "json"), default="plain")
    p.set_defaults(fn=_cmd_flow)

    p = sub.add_parser("orbit", help="CSV trajectory on a uniform time grid")
    p.add_argument("--field", required=True)
    p.add_argument("--point", required=True)
    p.add_argument("--t0", type=float, default=0.0)
    p.add_argument("--t1", type=float, required=True)
    p.add_argument("--steps", type=int, default=100, help="number of grid intervals")
    p.set_defaults(fn=_cmd_orbit)

    p = sub.add_parser("bracket", help="Lie bracket of two fields")
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.set_defaults(fn=_cmd_bracket)

    p = sub.add_parser("fundamental", help="fundamental field of a catalog action")
    p.add_argument("--group", choices=sorted(_GROUP_KINDS), required=True)
    p.add_argument(
        "--action",
        default="standard",
        choices=("standard",)
        + tuple(v for v in ga.CATALOG_VARIANTS if ga.VARIANTS[v].param is not None),
    )
    p.add_argument("--X", required=True, help="tangent JSON file")
    p.add_argument("--s", help="weight vector for exp-translation")
    p.add_argument("--q", type=int, help="determinant power for det-weighted")
    p.set_defaults(fn=_cmd_fundamental)

    p = sub.add_parser("verify-invariants", help="verify a bundle against a field")
    p.add_argument("--field", required=True)
    p.add_argument("--bundle", required=True, help="bundle JSON file")
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--seed", type=int, default=42)
    p.set_defaults(fn=_cmd_verify_invariants)

    p = sub.add_parser("check-action", help="action-axiom defect report")
    p.add_argument(
        "--action",
        required=True,
        choices=ga.CATALOG_VARIANTS + (CHART_CONJUGATED,),
    )
    p.add_argument("--params", help="parameter JSON file")
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--seed", type=int, default=42)
    p.set_defaults(fn=_cmd_check_action)

    p = sub.add_parser("validate", help="run the cross-module validation suite")
    p.add_argument("--seed", type=int, default=42)
    p.set_defaults(fn=_cmd_validate)

    return parser


def _attach_negative_values(argv: list[str]) -> list[str]:
    """Rewrite ``--point -1,2`` as ``--point=-1,2`` (likewise ``--t -1e-3``).

    argparse mistakes a value such as ``-1,2`` or ``-1e-3`` for an option, as
    it is not a plain negative number; in the ``=`` form it stays a value.
    Every long option here but ``--help`` takes a value, so a token that
    starts like a negative number right after a bare ``--option`` is that
    option's value.
    """
    out: list[str] = []
    for token in argv:
        previous = out[-1] if out else ""
        if (previous.startswith("--") and "=" not in previous
                and re.match(r"-[\d.]", token)):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(
        _attach_negative_values(sys.argv[1:] if argv is None else list(argv))
    )
    try:
        return args.fn(args)
    except (ValueError, TypeError, KeyError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
