"""Command-line interface.

Subcommands: check, stationarity, fixtures, fuzz, bho build, bho sweep.
Every command prints exactly one JSON document on stdout (indented by
two spaces, sorted keys), byte-for-byte deterministic for fixed inputs
unless --timing is given. One writer, `_dumps`, makes every document,
with the bytes of `json.dumps(payload, indent=2, sort_keys=True)`. It
accepts dict (str keys), list, tuple, str, int, float, bool and None,
the builtins every payload is built from, and raises TypeError on
anything else. `bho build --out -` prints the instance record alone;
with a file target it writes the record there and prints a summary.
Exit codes: 0 success (including an infeasible-point report), 1 a
verdict or invariant suite failed or the package raised (an
`MpecqError` such as a kernel's `ConvergenceError`, or the fuzz
generator's `RuntimeError` when it runs out of retries), 2 malformed
input, such as a negative count, cap or seed, a record field that is
not a finite number of the right shape, or a file that cannot be read
or written.

Tolerance resolution order: command-line flag, then MPECQ_* environment
variable, then the built-in default.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time

import numpy as np

from . import bho
from .cq import DEFAULT_BRANCH_CAP, run_all_checks
from .errors import (ClassificationError, ConvergenceError,
                     InfeasiblePointError, InputError, MpecqError)
from .fixtures import run_fixture_suite
from .fuzz import run_fuzz
from .model import (PointEvaluation, Tolerances, as_vector, check_feasibility,
                    classify_active)
from .stationarity import classify_stationarity

_TOL_SOURCES = (
    ("activity_eps", "tol_activity", "MPECQ_TOL_ACTIVITY"),
    ("rank_rel_tol", "tol_rank", "MPECQ_TOL_RANK"),
    ("feas_eps", "tol_feas", "MPECQ_TOL_FEAS"),
)


def _env_value(name: str) -> str | None:
    value = os.environ.get(name)
    return value if value not in (None, "") else None


def _resolve_tolerances(args) -> Tolerances:
    kwargs = {}
    for field, attr, env in _TOL_SOURCES:
        raw = getattr(args, attr, None)
        if raw is None:
            raw = _env_value(env)
        if raw is not None:
            try:
                kwargs[field] = float(raw)
            except ValueError:
                raise InputError(f"{env or attr}: expected a number, got {raw!r}")
    return Tolerances(**kwargs)


def _count(value: int, name: str) -> int:
    if value < 0:
        raise InputError(f"{name}: expected a nonnegative integer, got {value}")
    return value


def _resolve_int(flag_value, flag: str, env_name: str, default: int) -> int:
    """A nonnegative integer option: flag, then environment, then default."""
    if flag_value is not None:
        return _count(flag_value, flag)
    raw = _env_value(env_name)
    if raw is None:
        return default
    try:
        value = int(raw)
    except ValueError:
        raise InputError(f"{env_name}: expected an integer, got {raw!r}")
    return _count(value, env_name)


_escape = json.encoder.encode_basestring_ascii


def _float_text(value: float) -> str:
    if value - value == 0.0:  # finite; inf - inf and NaN - NaN are NaN
        return float.__repr__(value)
    return "NaN" if value != value else "Infinity" if value > 0 else "-Infinity"


# each scalar type's writer, giving the text json.dumps gives
_SCALARS = {str: _escape, int: int.__repr__, float: _float_text,
            bool: {True: "true", False: "false"}.__getitem__,
            type(None): lambda _: "null"}


def _dumps(obj) -> str:
    """`json.dumps(obj, indent=2, sort_keys=True)`, byte for byte, for the
    types payloads hold: dict with str keys, list, tuple, str, int,
    float, bool and None. Anything else, a numpy scalar included, is a
    TypeError. json's indent path runs its general pure-Python encoder;
    this one dispatches on the exact type, leaving strings to json's C
    escaper."""
    chunks = []
    write, scalar = chunks.append, _SCALARS.get

    def value(obj, newline):
        kind = type(obj)
        text = scalar(kind)
        if text is not None:
            write(text(obj))
        elif kind is dict:
            if not obj:
                write("{}")
                return
            inner = newline + "  "
            sep = "{" + inner
            # sorted() raises TypeError on mixed key types, _escape on a non-str key
            for key in sorted(obj):
                write(sep)
                write(_escape(key))
                write(": ")
                value(obj[key], inner)
                sep = "," + inner
            write(newline + "}")
        elif kind is list or kind is tuple:
            if not obj:
                write("[]")
                return
            inner = newline + "  "
            sep = "[" + inner
            for item in obj:
                write(sep)
                value(item, inner)
                sep = "," + inner
            write(newline + "]")
        else:
            raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")

    value(obj, "\n")
    return "".join(chunks)


def _emit(payload: dict, timing_started: float | None):
    if timing_started is not None:
        payload = dict(payload, timing_seconds=time.perf_counter() - timing_started)
    sys.stdout.write(_dumps(payload) + "\n")


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: invalid JSON: {exc}")
    if not isinstance(data, dict):
        raise InputError(f"{path}: expected a JSON object at top level")
    return data


def _dispatch_input(data: dict):
    """Route an input record: (evaluation, grad_f or None, extras)."""
    if "instance" in data and "point" in data:
        instance = bho.BhoInstance.from_dict(data["instance"])
        point = bho.BhoPoint.from_dict(data["point"])
        ev = bho.to_evaluation(instance, point)
        return ev, instance.grad_f, {"instance": instance, "point": point,
                                     "affine": True}
    if "G_grads" in data:
        ev = PointEvaluation.from_dict(data)
        grad_f = None
        if "grad_f" in data:
            grad_f = as_vector(data["grad_f"], ev.dims.n, "grad_f")
        affine = data.get("affine", False)
        if not isinstance(affine, bool):
            raise InputError(f"evaluation record: affine: expected true or false, "
                             f"got {affine!r}")
        return ev, grad_f, {"affine": affine}
    raise InputError("input must be either an evaluation record (with G_grads) "
                     "or an {instance, point} pair")


def _feasibility_payload(ev: PointEvaluation, tol: Tolerances,
                         started: float | None) -> dict | None:
    """The output payload opened by the feasibility report, or None once
    an infeasible point's report is out."""
    feas = check_feasibility(ev, tol)
    payload = {"feasibility": feas.to_dict()}
    if feas.feasible:
        return payload
    payload["note"] = "point is not feasible at feas_eps; no checks run"
    _emit(payload, started)
    return None


def cmd_check(args) -> int:
    started = time.perf_counter() if args.timing else None
    tol = _resolve_tolerances(args)
    cap = _resolve_int(args.cap, "--cap", "MPECQ_CAP_GH", DEFAULT_BRANCH_CAP)
    ev, _, extras = _dispatch_input(_load_json(args.input))
    payload = _feasibility_payload(ev, tol, started)
    if payload is None:
        return 0
    pattern = classify_active(ev, tol)
    payload["active_pattern"] = pattern.to_dict()
    report = run_all_checks(ev, pattern, tol, cap=cap, is_affine=extras["affine"])
    payload["cq"] = report.to_dict()
    if "instance" in extras:
        instance, point = extras["instance"], extras["point"]
        lp = bho.classify_lambda_psi(instance, point, tol)
        payload["activity_classes"] = {
            "lam1": list(lp.lam1), "lam2": list(lp.lam2),
            "lam3_plus": list(lp.lam3_plus), "lam3_c": list(lp.lam3_c),
            "lam_u": list(lp.lam_u), "psi2": list(lp.psi2),
            "psi3": list(lp.psi3),
            "assumption_flags": [list(f) for f in lp.assumption_flags]}
        payload["licq_theorem"] = bho.check_licq_theorem(instance, point, lp, tol).to_dict()
        payload["mfcq_r_theorem"] = bho.check_mfcq_r_theorem(instance, point, lp, tol).to_dict()
        payload["validation_error"] = bho.validation_error(instance, point)
    _emit(payload, started)
    return 0


def cmd_stationarity(args) -> int:
    started = time.perf_counter() if args.timing else None
    tol = _resolve_tolerances(args)
    cap = _resolve_int(args.cap, "--cap", "MPECQ_CAP_GH", DEFAULT_BRANCH_CAP)
    ev, grad_f, _ = _dispatch_input(_load_json(args.input))
    if grad_f is None:
        raise InputError("stationarity needs grad_f in the input record")
    payload = _feasibility_payload(ev, tol, started)
    if payload is None:
        return 0
    pattern = classify_active(ev, tol)
    report = classify_stationarity(ev, pattern, grad_f, tol, cap=cap)
    payload["stationarity"] = report.to_dict()
    _emit(payload, started)
    return 0


def cmd_fixtures(args) -> int:
    started = time.perf_counter() if args.timing else None
    tol = _resolve_tolerances(args)
    result = run_fixture_suite(tol)
    _emit(result, started)
    return 0 if result["ok"] else 1


def cmd_fuzz(args) -> int:
    started = time.perf_counter() if args.timing else None
    tol = _resolve_tolerances(args)
    cap = _resolve_int(args.cap, "--cap", "MPECQ_CAP_GH", DEFAULT_BRANCH_CAP)
    seed = _resolve_int(args.seed, "--seed", "MPECQ_SEED", 0)
    summary = run_fuzz(_count(args.points, "--points"), seed, tol, cap=cap)
    _emit(summary.to_dict(), started)
    return 0 if summary.ok() else 1


def _build_instance(args):
    dataset = bho.load_dataset_csv(args.csv)
    seed = _resolve_int(args.seed, "--seed", "MPECQ_SEED", 0)
    split = bho.split_folds(dataset, args.T, args.m1, args.m2, seed)
    instance = bho.BhoInstance.from_dataset(dataset, split)
    return dataset, split, instance


def cmd_bho_build(args) -> int:
    started = time.perf_counter() if args.timing else None
    dataset, split, instance = _build_instance(args)
    record = instance.to_dict()
    record["meta"] = {"seed": split.seed,
                      "validation_indices": [list(f) for f in split.validation],
                      "training_indices": [list(f) for f in split.training],
                      "csv": os.path.basename(args.csv)}
    if args.out == "-":
        _emit(record, started)
        return 0
    try:
        with open(args.out, "w") as fh:
            fh.write(_dumps(record) + "\n")
    except OSError as exc:
        raise InputError(f"cannot write {args.out}: {exc}") from None
    _emit({"written": args.out, "n": instance.n, "T": instance.T,
           "m1": instance.m1, "m2": instance.m2, "p": instance.p}, started)
    return 0


def cmd_bho_sweep(args) -> int:
    started = time.perf_counter() if args.timing else None
    tol = _resolve_tolerances(args)
    dataset, split, instance = _build_instance(args)
    try:
        grid = [float(c) for c in args.grid.split(",") if c.strip()]
    except ValueError:
        raise InputError(f"--grid: expected comma-separated numbers, got {args.grid!r}")
    if not grid:
        raise InputError("--grid is empty")
    if not all(np.isfinite(grid)):
        raise InputError(f"--grid: C values must be finite, got {args.grid!r}")
    rows = []
    failed = False
    for C in grid:
        entry = {"C": C}
        try:
            alphas = bho.solve_all_folds(instance, C)
            point, flags = bho.assemble_feasible_point(instance, C, alphas, tol)
            lp = bho.classify_lambda_psi(instance, point, tol)
            entry["validation_error"] = bho.validation_error(instance, point)
            entry["oracle_error"] = bho.misclassification_oracle(dataset, split, alphas)
            entry["flagged"] = [list(f) for f in lp.assumption_flags]
            entry["licq_theorem"] = bho.check_licq_theorem(instance, point, lp, tol).to_dict()
            entry["mfcq_r_theorem"] = bho.check_mfcq_r_theorem(instance, point, lp, tol).to_dict()
        except (ConvergenceError, InfeasiblePointError, ClassificationError) as exc:
            entry["error"] = f"{type(exc).__name__}: {exc}"
            failed = True
        rows.append(entry)
    solved = [r for r in rows if "validation_error" in r]
    best = min(solved, key=lambda r: (r["validation_error"], r["C"])) if solved else None
    _emit({"sweep": rows, "best": best}, started)
    return 1 if failed else 0


def _add_tol_flags(parser):
    parser.add_argument("--tol-activity", type=float, default=None,
                        help="activity threshold (default 1e-8)")
    parser.add_argument("--tol-rank", type=float, default=None,
                        help="relative rank tolerance (default 1e-12)")
    parser.add_argument("--tol-feas", type=float, default=None,
                        help="feasibility tolerance (default 1e-6)")
    parser.add_argument("--timing", action="store_true",
                        help="append wall-clock timing to the output")


def _add_split_flags(parser):
    parser.add_argument("--csv", required=True)
    parser.add_argument("--T", type=int, required=True)
    parser.add_argument("--m1", type=int, required=True)
    parser.add_argument("--m2", type=int, required=True)
    parser.add_argument("--seed", type=int, default=None)


@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing leaves it as is."""
    parser = argparse.ArgumentParser(
        prog="mpecq",
        description="Constraint-qualification and stationarity checks for "
                    "complementarity-constrained programs")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="run all CQ checks at a feasible point")
    p.add_argument("--input", required=True, help="JSON evaluation record or "
                   "{instance, point} pair")
    p.add_argument("--cap", type=int, default=None,
                   help="max biactive pairs for exhaustive branch checks")
    _add_tol_flags(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("stationarity", help="classify stationarity of a point")
    p.add_argument("--input", required=True)
    p.add_argument("--cap", type=int, default=None)
    _add_tol_flags(p)
    p.set_defaults(func=cmd_stationarity)

    p = sub.add_parser("fixtures", help="run the frozen fixture suite")
    _add_tol_flags(p)
    p.set_defaults(func=cmd_fixtures)

    p = sub.add_parser("fuzz", help="run the randomized invariant sweep")
    p.add_argument("--points", type=int, default=200)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--cap", type=int, default=None)
    _add_tol_flags(p)
    p.set_defaults(func=cmd_fuzz)

    pb = sub.add_parser("bho", help="hyperparameter-selection instances")
    bsub = pb.add_subparsers(dest="bho_command", required=True)

    p = bsub.add_parser("build", help="build an instance from a CSV dataset")
    _add_split_flags(p)
    p.add_argument("--out", required=True, help="output path, or - for stdout")
    p.add_argument("--timing", action="store_true",
                   help="append wall-clock timing to the output")
    p.set_defaults(func=cmd_bho_build)

    p = bsub.add_parser("sweep", help="solve and report over a C grid")
    _add_split_flags(p)
    p.add_argument("--grid", required=True, help="comma-separated C values")
    _add_tol_flags(p)
    p.set_defaults(func=cmd_bho_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (MpecqError, RuntimeError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
