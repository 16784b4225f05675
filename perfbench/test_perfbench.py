"""Tests of the benchmark's own code: the biactive generator, span
arithmetic and the metric names in BENCHMARK.json.

    python3 -m pytest perfbench
"""

import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402  (puts the checkout's src/ on sys.path on import_package)
import runner  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

m = run.import_package()


@pytest.mark.parametrize("family", ["holds", "fails"])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_biactive_construction_verdicts(k, family, tmp_path):
    unit = workloads.build_biactive(m, str(tmp_path), seed=7)[0]
    op = unit[k - 1 + (0 if family == "holds" else len(workloads.K_RANGE))]
    assert op.k == k and op.family == family
    assert op.run() == []
    expected = workloads.biactive_expected(k, family)
    assert op.verdicts["cq"] == expected["cq"]
    assert op.verdicts["strongest"] == expected["strongest"]

    # the same verdicts from the library calls, without the CLI
    ev = m.model.PointEvaluation.from_dict(op.record)
    tol = m.model.Tolerances()
    pattern = m.model.classify_active(ev, tol)
    assert pattern.I_GH == tuple(range(k))
    report = m.cq.run_all_checks(ev, pattern, tol, is_affine=True)
    assert {n: v.status for n, v in report.verdicts.items()} == expected["cq"]
    stat = m.stationarity.classify_stationarity(ev, pattern, op.record["grad_f"], tol)
    assert stat.strongest == expected["strongest"]
    assert dict(stat.classes) == expected["classes"]


def test_biactive_inputs_follow_the_seed():
    a = workloads.biactive_record(3, "holds", np.random.default_rng(1))
    b = workloads.biactive_record(3, "holds", np.random.default_rng(1))
    c = workloads.biactive_record(3, "holds", np.random.default_rng(2))
    assert a == b
    assert a != c


def test_bho_inputs_follow_the_seed_and_come_from_the_pool(tmp_path):
    def indices(seed):
        return [unit[0].case["index"]
                for unit in workloads.build_bho(m, str(tmp_path), seed)]

    a, b, c = indices(3), indices(3), indices(4)
    assert a == b and a != c
    assert len(set(a)) == workloads.BHO_DATASETS
    assert set(a) <= set(workloads.BHO_POOL)
    assert not {index for index, _ in workloads.BHO_PROBE} & set(workloads.BHO_POOL)


def test_probe_layers_count_failures_by_kind():
    probe = runner.Result()
    probe.failed = 3
    probe.failures = {
        "a": {"count": 1, "type": "RuntimeError", "message": "phase 1 reported unbounded"},
        "b": {"count": 1, "type": "ConvergenceError", "message": "budget"},
        "c": {"count": 1, "type": "RuntimeError", "message": "other"},
    }
    assert run.probe_layers(probe) == {"defects.bho_probe.failed": 3,
                                       "defects.bho_probe.phase1_unbounded": 1,
                                       "defects.bho_probe.convergence_errors": 1}


def _span(name, start, end, parent, request=None, error=False, info=None):
    return [name, start, end, parent, request, error, info]


def test_self_time_subtracts_direct_children_only():
    recorded = [
        _span("cq.check_nnamcq", 0.0, 10.0, -1, request="a"),
        _span("kernels.signed_combination_exists", 1.0, 4.0, 0, request="a"),
        _span(spans.SIMPLEX, 2.0, 3.0, 1, request="a", info={"rows": 2, "cols": 3}),
        _span(spans.SIMPLEX, 5.0, 6.0, 0, request="a", info={"rows": 4, "cols": 5}),
        _span("cq.check_nnamcq", 20.0, 21.0, -1, request="b", error=True),
    ]
    agg = spans.aggregate(recorded)
    nnamcq = agg["cq.check_nnamcq"]
    assert nnamcq["calls"] == 2 and nnamcq["errors"] == 1
    assert nnamcq["total_s"] == pytest.approx(11.0)
    assert nnamcq["self_s"] == pytest.approx(10.0 - 3.0 - 1.0 + 1.0)
    assert nnamcq["lps"] == 2
    assert nnamcq["top_level_s"] == pytest.approx(11.0)
    combo = agg["kernels.signed_combination_exists"]
    assert combo["self_s"] == pytest.approx(2.0) and combo["lps"] == 1
    assert combo["top_level_s"] == 0.0
    simplex = agg[spans.SIMPLEX]
    assert simplex["self_s"] == pytest.approx(2.0)
    assert (simplex["rows"], simplex["cols"]) == (6, 8)

    by_request = spans.aggregate(recorded, by_request=True)
    assert by_request[("a", "cq.check_nnamcq")]["total_s"] == pytest.approx(10.0)
    assert by_request[("b", "cq.check_nnamcq")]["errors"] == 1


def test_tracer_nests_spans_and_counts_errors():
    tracer = spans.Tracer()

    def inner(x):
        if x < 0:
            raise ValueError("negative")
        return x

    def outer(x):
        return traced_inner(x) + traced_inner(1)

    traced_inner = tracer.wrap("kernels.inner", inner)
    traced_outer = tracer.wrap("cq.outer", outer)
    assert traced_outer(2) == 3
    with pytest.raises(ValueError):
        traced_outer(-1)
    names = [(s[0], s[3], s[5]) for s in tracer.spans]
    assert names == [("cq.outer", -1, False), ("kernels.inner", 0, False),
                     ("kernels.inner", 0, False), ("cq.outer", -1, True),
                     ("kernels.inner", 3, True)]
    agg = spans.aggregate(tracer.spans)
    assert agg["cq.outer"]["errors"] == 1
    assert agg["cq.outer"]["self_s"] <= agg["cq.outer"]["total_s"]


def test_install_wraps_the_names_callers_look_up_and_undoes():
    original_rank = m.cq.numerical_rank
    original_solve = m.kernels.LinearProgram.solve
    tracer = spans.Tracer()
    undo = spans.install(tracer)
    try:
        assert m.cq.numerical_rank is not original_rank
        assert m.kernels.numerical_rank is m.cq.numerical_rank
        assert m.fuzz.run_all_checks is m.cq.run_all_checks
        ev = m.model.PointEvaluation.from_dict(
            workloads.biactive_record(2, "holds", np.random.default_rng(0)))
        tol = m.model.Tolerances()
        m.cq.run_all_checks(ev, m.model.classify_active(ev, tol), tol, is_affine=True)
    finally:
        spans.uninstall(undo)
    assert m.cq.numerical_rank is original_rank
    assert m.kernels.LinearProgram.solve is original_solve
    agg = spans.aggregate(tracer.spans)
    assert agg["cq.run_all_checks"]["calls"] == 1
    assert agg["cq.check_nnamcq"]["lps"] > 0
    assert agg["cq.check_nnamcq"]["lps"] <= agg[spans.SIMPLEX]["calls"]
    assert agg["kernels.LinearProgram.solve"]["calls"] == agg[spans.SIMPLEX]["calls"]


class _Op(workloads.Operation):
    def __init__(self, label, fail=False):
        super().__init__(label)
        self.fail = fail

    def run(self):
        if self.fail:
            raise RuntimeError("boom")
        return []


def test_failed_operations_are_counted_not_dropped():
    result = runner.Result()
    result.units.append(result.run_unit([_Op("a"), _Op("b", fail=True)]))
    assert (result.attempted, result.failed) == (2, 1)
    assert result.failure_summary()["b"]["type"] == "RuntimeError"
    assert result.extras()["error_ratio"] == 0.5


def test_end_to_end_uses_position_medians_of_successful_samples():
    a, b = _Op("a"), _Op("b")
    result = runner.Result()
    result.units = [(0.0, [(a, 1.0, True), (b, 4.0, True)]),
                    (0.0, [(a, 3.0, True), (b, 0.5, False)]),
                    (0.0, [(a, 2.0, True)])]
    metrics = result.end_to_end()
    assert metrics["points_per_s"] == pytest.approx(2 / (2.0 + 4.0))
    assert metrics["point_ms.geomean"] == pytest.approx(1e3 * (2.0 * 4.0) ** 0.5)


def test_ktable_averages_each_k_over_traced_units():
    ops = [_Op(f"holds/k=6/draw={d}") for d in range(2)]
    for op in ops:
        op.k, op.family = 6, "holds"
    result = runner.Result()
    result.tracer = spans.Tracer()
    result.tracer.spans = [
        _span("cq.check_nnamcq", 0.0, 2.0, -1, request=ops[0]),
        _span(spans.SIMPLEX, 0.5, 1.0, 0, request=ops[0], info={"rows": 2, "cols": 4}),
        _span("cq.check_nnamcq", 5.0, 9.0, -1, request=ops[1]),
        _span(spans.SIMPLEX, 5.0, 6.0, 2, request=ops[1], info={"rows": 4, "cols": 8}),
        _span(spans.SIMPLEX, 6.0, 7.0, 2, request=ops[1], error=True),
    ]
    result.pairs = [(1.0, 2.0), (4.0, 4.0)]
    layers, tables = result.per_layer(("cq.check_nnamcq",))
    assert tables["ktable"]["holds/k=6"]["check_nnamcq.total_s"] == pytest.approx(3.0)
    assert layers["ktable.holds.k6.check_nnamcq.lps"] == pytest.approx(1.5)
    assert layers["trace.overhead_share"] == pytest.approx(6.0 / 5.0 - 1.0)
    assert layers[f"{spans.SIMPLEX}.rows_mean"] == pytest.approx(3.0)
    assert layers[f"{spans.SIMPLEX}.errors"] == pytest.approx(0.5)


def test_benchmark_json_matches_the_emitted_metric_names():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {e["name"]: e["unit"] for e in spec["end_to_end"]} == run.END_TO_END
    assert ({e["name"]: e["unit"] for e in spec["per_layer"]}
            == run.per_layer_names())
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
