"""Closed-loop runner and the reduction of its timings and spans to metrics."""

from __future__ import annotations

import hashlib
import json
import math
import statistics
import time

import spans

CQ_SPANS = ("cq.check_mpec_licq", "cq.check_mpec_mfcq_t", "cq.check_mpec_mfcq_r",
            "cq.check_nnamcq", "cq.check_mpec_gmfcq", "cq.check_acq_affine")
STATIONARITY_CLASSES = 4
# layers whose inclusive share of traced wall time the trace line reports
SHARE_SPANS = ("kernels.LinearProgram.solve", spans.SIMPLEX, "bho.lower_level_solve",
               "cq.run_all_checks", "stationarity.classify_stationarity", "fuzz.run_fuzz")


class Result:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.violations = 0
        self.failed_checks: list = []
        self.failures: dict = {}
        self.outcomes: dict = {}
        # untraced units: list of (wall_s, [(op, seconds, ok)])
        self.units: list = []
        # traced units: list of (untraced wall_s, traced wall_s)
        self.pairs: list = []
        self.tracer: spans.Tracer | None = None

    def run_unit(self, ops, tracer=None, deadline=None):
        """Drive one unit's operations in order, stopping early at deadline."""
        timed = []
        started = time.perf_counter()
        for op in ops:
            if deadline is not None and time.perf_counter() >= deadline:
                break
            if tracer is not None:
                tracer.request = op
            t0 = time.perf_counter()
            try:
                bad = op.run()
            except Exception as exc:  # a failed operation is counted, not fatal
                dt = time.perf_counter() - t0
                self.failed += op.points
                entry = self.failures.setdefault(
                    op.label, {"count": 0, "type": type(exc).__name__,
                               "message": str(exc)[:200]})
                entry["count"] += 1
                self.outcomes[op.label] = f"error:{type(exc).__name__}"
                ok = False
            else:
                dt = time.perf_counter() - t0
                self.violations += len(bad)
                self.failed_checks.extend(f"{op.label}: {b}" for b in bad)
                self.outcomes[op.label] = op.verdicts
                ok = True
            self.attempted += op.points
            timed.append((op, dt, ok))
        return time.perf_counter() - started, timed

    # ------------------------------------------------------------ reports

    def failure_summary(self) -> dict:
        return dict(sorted(self.failures.items()))

    def verdict_digest(self) -> str:
        text = json.dumps(self.outcomes, sort_keys=True, default=str)
        return hashlib.sha256(text.encode()).hexdigest()[:16]

    def _point_times(self):
        """Latencies of the successful single-point operations."""
        return [dt for _wall, timed in self.units for op, dt, ok in timed
                if op.points == 1 and ok]

    def _position_medians(self) -> list:
        """Median successful time of the i-th operation over all untraced units.

        Every unit has the same shape (one sweep, or one corpus), so the
        i-th operation of each unit is a sample of the same position; the
        last unit of a run may stop part way and adds samples only to
        the positions it reached.  A position where every sample failed
        falls back to the median over its failed samples.
        """
        ok_times: dict = {}
        all_times: dict = {}
        for _wall, timed in self.units:
            for position, (_op, dt, ok) in enumerate(timed):
                all_times.setdefault(position, []).append(dt)
                if ok:
                    ok_times.setdefault(position, []).append(dt)
        return [statistics.median(ok_times.get(p) or v) for p, v in all_times.items()]

    def end_to_end(self) -> dict:
        """Throughput and typical latency of a unit's positions.

        A typical unit takes the sum over positions of their median
        times: points_per_s is its points over that sum, and
        point_ms.geomean is the geometric mean of the position medians,
        which weighs a 10 ms point and a 4 s point alike and has no
        cliff where the pooled median falls between two point sizes.
        Medians are over successful samples: a failed operation stops
        part way, so its time would reward the failure.
        """
        medians = self._position_medians()
        points = sum(op.points for op, _dt, _ok in self.units[0][1])
        out = {"points_per_s": points / sum(medians)}
        if points == len(medians):
            out["point_ms.geomean"] = 1e3 * math.exp(
                sum(math.log(t) for t in medians) / len(medians))
        return out

    def tail(self) -> dict | None:
        """Highest of p99/p95/p90/p75/p50 with ten samples beyond it, else the max."""
        times = sorted(self._point_times())
        if not times:
            return None
        n = len(times)
        for q in (99, 95, 90, 75, 50):
            if n * (100 - q) / 100 >= 10:
                return {"percentile": q, "samples": n,
                        "ms": 1e3 * statistics.quantiles(times, n=100)[q - 1]}
        return {"percentile": 100, "samples": n, "ms": 1e3 * times[-1]}

    def extras(self) -> dict:
        times = self._point_times()
        out = {"error_ratio": self.failed / self.attempted,
               "violations": self.violations,
               "point_ms.p50": 1e3 * statistics.median(times) if times else None,
               "point_ms.tail": self.tail(),
               "position_ms": [1e3 * t for t in self._position_medians()],
               "units": len(self.units), "traced_units": len(self.pairs)}
        undecided = total = 0
        for verdicts in self.outcomes.values():
            if isinstance(verdicts, dict) and "cq" in verdicts:
                statuses = list(verdicts["cq"].values()) + list(verdicts["classes"].values())
                undecided += statuses.count("undecided")
                total += len(statuses)
        if total:
            out["undecided_ratio"] = undecided / total
        verify: dict = {}
        for _w, timed in self.units:
            for op, _dt, ok in timed:
                if ok and "check_s" in op.timings:
                    verify.setdefault(f"verify_ms.k{op.k}.{op.family}", []).append(
                        op.timings["check_s"] + op.timings["stationarity_s"])
        for name, values in verify.items():
            out[name] = 1e3 * statistics.median(values)
        return out

    def per_layer(self, ktable_spans) -> tuple:
        """Per-layer metrics per traced unit, plus the k-table and trace shares."""
        units = max(len(self.pairs), 1)
        agg = spans.aggregate(self.tracer.spans) if self.tracer else {}
        layers: dict = {}
        for name, entry in agg.items():
            for field, value in entry.items():
                if field != "durations":
                    layers[f"{name}.{field}"] = value / units

        simplex = agg.get(spans.SIMPLEX)
        if simplex and simplex["calls"] > simplex["errors"]:
            # shapes are recorded on calls that returned
            returned = simplex["calls"] - simplex["errors"]
            layers[f"{spans.SIMPLEX}.rows_mean"] = simplex["rows"] / returned
            layers[f"{spans.SIMPLEX}.cols_mean"] = simplex["cols"] / returned
        solve = agg.get("bho.lower_level_solve")
        if solve:
            layers["bho.lower_level_solve.p50_ms"] = 1e3 * statistics.median(solve["durations"])
            layers["bho.lower_level_solve.max_ms"] = 1e3 * max(solve["durations"])
        gen = {name.rsplit(".", 1)[1]: entry for name, entry in agg.items()
               if name.startswith("fuzz.gen_bho_case.")}
        if gen:
            calls = sum(e["calls"] for e in gen.values())
            layers["fuzz.gen_bho_case.calls"] = calls / units
            layers["fuzz.gen_bho_case.total_s"] = sum(e["total_s"] for e in gen.values()) / units
            for mode, entry in gen.items():
                layers[f"fuzz.gen_bho_case.total_s.{mode}"] = entry["total_s"] / units
            layers["fuzz.gen_bho_case.solves_per_case"] = (
                solve["calls"] / calls if solve else 0.0)

        ktable: dict = {}
        if self.tracer:
            for (op, name), entry in spans.aggregate(self.tracer.spans,
                                                     by_request=True).items():
                k = getattr(op, "k", None)
                if k is not None and name in ktable_spans:
                    # each traced unit holds one point per (family, k)
                    short = name.split(".")[1]
                    row = ktable.setdefault(f"{op.family}/k={k}", {})
                    for field in ("total_s", "lps"):
                        key = f"{short}.{field}"
                        row[key] = row.get(key, 0.0) + entry[field] / units
                        layers[f"ktable.{op.family}.k{k}.{key}"] = row[key]

        untraced = sum(u for u, _t in self.pairs)
        traced = sum(t for _u, t in self.pairs)
        top = sum(entry["top_level_s"] for entry in agg.values())
        layers["trace.overhead_share"] = traced / untraced - 1.0 if untraced else 0.0
        layers["trace.coverage"] = top / traced if traced else 0.0

        undecided = sum(agg.get(n, {}).get("undecided", 0) for n in CQ_SPANS)
        verdicts = sum(agg.get(n, {}).get("calls", 0) for n in CQ_SPANS)
        stat = agg.get("stationarity.classify_stationarity", {})
        undecided += stat.get("undecided", 0)
        verdicts += STATIONARITY_CLASSES * stat.get("calls", 0)
        shares = {name: agg[name]["total_s"] / traced for name in SHARE_SPANS
                  if name in agg and traced}
        if gen and traced:
            shares["fuzz.gen_bho_case"] = sum(e["total_s"] for e in gen.values()) / traced
        trace_info = {"untraced_unit_s": untraced / units, "traced_unit_s": traced / units,
                      "share_of_traced_wall": shares,
                      "overhead_share": layers["trace.overhead_share"],
                      "coverage": layers["trace.coverage"],
                      "spans": len(self.tracer.spans) if self.tracer else 0,
                      "undecided_ratio": undecided / verdicts if verdicts else None}
        return layers, {"ktable": ktable, "trace": trace_info}


def drive(units, seconds: float, trace: bool, package) -> Result:
    """Drive units in a closed loop for `seconds`.

    Untraced, operations run back to back until the time is up, after
    at least one whole unit.  Traced, each unit is driven untraced and
    then traced on the same inputs, and another pair starts only while
    the median pair still fits; end-to-end timings come from the
    untraced passes only.
    """
    result = Result()
    started = time.perf_counter()
    if not trace:
        index = 0
        while index == 0 or time.perf_counter() - started < seconds:
            deadline = started + seconds if index else None
            result.units.append(result.run_unit(units[index % len(units)],
                                                deadline=deadline))
            index += 1
        return result

    result.tracer = spans.Tracer()
    pair_times = []
    index = 0
    while True:
        ops = units[index % len(units)]
        wall, timed = result.run_unit(ops)
        result.units.append((wall, timed))
        undo = spans.install(result.tracer, package.__name__)
        try:
            traced_wall, _ = result.run_unit(ops, result.tracer)
        finally:
            spans.uninstall(undo)
        result.pairs.append((wall, traced_wall))
        pair_times.append(wall + traced_wall)
        index += 1
        if time.perf_counter() - started + statistics.median(pair_times) > seconds:
            return result
