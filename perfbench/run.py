"""Benchmark for mpecq: one workload per invocation, one process, no threads.

    python3 perfbench/run.py --workload biactive_sweep --seed 0 --seconds 30 --trace 0

Run it from the root of a source checkout; the package is imported
from `src/`.  Every line but the last is an `info` line of JSON for
readers; the last line is the result object with `correct`,
`attempted`, `failed` and `metrics`.  With `--trace 0` the metrics are
the end-to-end ones (`END_TO_END`), measured with tracing off; with
`--trace 1` they are the per-layer ones (`per_layer_names()`), read
from spans recorded around the package's public functions, plus the
counts of the known-failure probe (`workloads.BHO_PROBE`).

The benchmark drives units (one sweep, or one fuzz corpus) back to
back for `--seconds`, after at least one whole unit.  In a traced run
each unit is driven twice, untraced then traced, and the per-layer
numbers are per traced unit.
"""

from __future__ import annotations

import argparse
import importlib
import os
import statistics
import sys
import time

BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                    "NUMEXPR_NUM_THREADS")
# must be set before numpy is imported, by this script or by mpecq
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SETUP_REPEATS = 15

END_TO_END = {
    "setup_s": "s",
    "points_per_s": "1/s",
    "point_ms.geomean": "ms",
}
CHECKERS = ("check_mpec_licq", "check_mpec_mfcq_t", "check_mpec_mfcq_r",
            "check_nnamcq", "check_mpec_gmfcq")
KTABLE_SPANS = ("cq.check_nnamcq", "cq.check_mpec_gmfcq",
                "stationarity.classify_stationarity")
# k-table rows gated as per-layer metrics; the info line has k = 1..7
KTABLE_GATED_K = (4, 5, 6, 7)
FUZZ_MODES = ("plain", "gh3", "gh4", "multi", "ahat0")


def per_layer_names() -> dict:
    """Per-layer metric name -> unit, in a fixed order."""
    names = {}

    def add(prefix, fields):
        for field, unit in fields:
            names[f"{prefix}.{field}"] = unit

    add("kernels.simplex_solve", [("calls", "count"), ("self_s", "s"),
                                  ("errors", "count"), ("infeasible", "count"),
                                  ("rows_mean", "rows"), ("cols_mean", "cols"),
                                  ("tableau_cells", "count")])
    add("kernels.LinearProgram.solve", [("calls", "count"), ("self_s", "s")])
    add("kernels.signed_combination_exists",
        [("calls", "count"), ("self_s", "s"), ("found", "count")])
    add("kernels.numerical_rank", [("calls", "count"), ("self_s", "s")])
    add("kernels.largest_eigenvalue", [("calls", "count"), ("self_s", "s")])
    for check in CHECKERS:
        add(f"cq.{check}", [("calls", "count"), ("total_s", "s"), ("self_s", "s"),
                            ("lps", "count"), ("undecided", "count")])
    add("stationarity.classify_stationarity",
        [("calls", "count"), ("total_s", "s"), ("self_s", "s"), ("lps", "count"),
         ("undecided", "count")])
    add("stationarity.verify_kkt_equivalence", [("total_s", "s"), ("lps", "count")])
    add("bho.lower_level_solve", [("calls", "count"), ("total_s", "s"),
                                  ("p50_ms", "ms"), ("max_ms", "ms"),
                                  ("errors", "count")])
    for fn in ("assemble_feasible_point", "classify_lambda_psi", "check_licq_theorem",
               "check_mfcq_r_theorem", "load_dataset_csv"):
        add(f"bho.{fn}", [("total_s", "s")])
    add("fuzz.gen_bho_case", [("calls", "count"), ("total_s", "s")]
        + [(f"total_s.{mode}", "s") for mode in FUZZ_MODES]
        + [("solves_per_case", "count")])
    for fn in ("classify_active", "check_feasibility", "digest"):
        add(f"model.{fn}", [("self_s", "s")])
    add("cli.main", [("self_s", "s")])
    for family in ("holds", "fails"):
        for k in KTABLE_GATED_K:
            for span in KTABLE_SPANS:
                add(f"ktable.{family}.k{k}.{span.split('.')[1]}",
                    [("total_s", "s"), ("lps", "count")])
    add("trace", [("overhead_share", "ratio"), ("coverage", "ratio")])
    add("defects.bho_probe", [("failed", "count"), ("phase1_unbounded", "count"),
                              ("convergence_errors", "count")])
    return names


def probe_layers(probe) -> dict:
    """Counts of the probe's failed operations, in total and by known kind."""
    failures = probe.failures.values()
    return {
        "defects.bho_probe.failed": probe.failed,
        "defects.bho_probe.phase1_unbounded": sum(
            f["count"] for f in failures
            if f["type"] == "RuntimeError" and "phase 1 reported unbounded" in f["message"]),
        "defects.bho_probe.convergence_errors": sum(
            f["count"] for f in failures if f["type"] == "ConvergenceError"),
    }


def host_cpu_times():
    """The aggregate `cpu` line of /proc/stat as integers, or None elsewhere."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
    except OSError:
        return None
    if not fields or fields[0] != "cpu" or len(fields) < 9:
        return None
    return [int(v) for v in fields[1:]]


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def import_package():
    """Import mpecq afresh from the checkout's src/, never from an installed copy.

    Modules of the package already imported are dropped first, so each
    call re-executes the package's own modules; numpy and the standard
    library stay loaded after the first call.
    """
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "mpecq", "__init__.py")):
        raise SystemExit(f"perfbench: no mpecq sources under {src}")
    if src not in sys.path:
        sys.path.insert(0, src)
    for name in [n for n in sys.modules if n == "mpecq" or n.startswith("mpecq.")]:
        del sys.modules[name]
    package = importlib.import_module("mpecq")
    importlib.import_module("mpecq.cli")  # not imported by the package itself
    if not os.path.abspath(package.__file__).startswith(src + os.sep):
        raise SystemExit(f"perfbench: imported mpecq from {package.__file__}")
    return package


def main(argv=None) -> int:
    args = parse_args(argv)
    started = time.perf_counter()
    import_package()
    first_import_s = time.perf_counter() - started

    # imported after mpecq so that first_import_s includes numpy
    import json
    import tempfile

    import numpy as np

    import runner
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    def info(key, value):
        print("info " + json.dumps({key: value}, sort_keys=True, default=str))

    info("machine", {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": sys.version.split()[0], "numpy": np.__version__,
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace})

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as workdir:
        build = workloads.WORKLOADS[args.workload]
        setup_times = []
        for _ in range(SETUP_REPEATS):
            started = time.perf_counter()
            m = import_package()
            units = build(m, workdir, args.seed)
            setup_times.append(time.perf_counter() - started)
        setup_s = statistics.median(setup_times)
        info("setup", {"first_import_s": first_import_s, "setup_s": setup_times})

        cpu_before = host_cpu_times()
        result = runner.drive(units, args.seconds, trace=bool(args.trace), package=m)
        cpu_after = host_cpu_times()
        if args.trace:
            # set-up spans (the CSV load) come from one extra traced build
            setup_tracer = spans.Tracer()
            undo = spans.install(setup_tracer)
            try:
                build(m, workdir, args.seed)
            finally:
                spans.uninstall(undo)
            probe = runner.Result()
            probe.run_unit(workloads.build_bho_probe(m, workdir))
        fixture_ok = bool(m.fixtures.run_fixture_suite()["ok"])

    violations = result.violations + (0 if fixture_ok else 1)
    failed_checks = result.failed_checks
    if args.trace:
        violations += probe.violations
        failed_checks = failed_checks + probe.failed_checks
    info("correctness", {"violations": violations, "fixture_suite_ok": fixture_ok,
                         "failed_checks": failed_checks[:20]})
    info("failures", result.failure_summary())
    info("verdict_digest", result.verdict_digest())
    info("extras", result.extras())
    if cpu_before and cpu_after:
        # share of the host's CPU time taken by the hypervisor while driving
        spent = [b - a for a, b in zip(cpu_before, cpu_after)]
        info("host", {"steal_share": spent[7] / sum(spent) if sum(spent) else None})

    if args.trace:
        layers, tables = result.per_layer(KTABLE_SPANS)
        setup_layers = spans.aggregate(setup_tracer.spans)
        layers["bho.load_dataset_csv.total_s"] = (
            setup_layers.get("bho.load_dataset_csv", {}).get("total_s", 0.0))
        layers.update(probe_layers(probe))
        info("defects", {"bho_probe": {"points": workloads.BHO_PROBE,
                                       "attempted": probe.attempted,
                                       "failures": probe.failure_summary()}})
        info("ktable", tables["ktable"])
        info("trace", tables["trace"])
        names = per_layer_names()
        metrics = {name: {"value": float(layers.get(name, 0.0)), "unit": unit}
                   for name, unit in names.items()}
    else:
        values = dict(result.end_to_end(), setup_s=setup_s)
        metrics = {name: {"value": float(values[name]), "unit": unit}
                   for name, unit in END_TO_END.items() if name in values}
    print(json.dumps({"correct": violations == 0, "attempted": result.attempted,
                      "failed": result.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
