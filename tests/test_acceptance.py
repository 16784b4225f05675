"""Acceptance gate: ten criteria, one printed PASS/FAIL line each.

Criteria 2-8 and 10 read the shared 1000-point randomized corpus
(seed 20240817, tolerances pinned in conftest); criteria 1, 8 and 9
additionally run direct oracles: the frozen fixture verdict tables,
the strong-stationarity witness of the E2 origin, and an exact
rational-arithmetic rank comparison over 10^4 integer matrices.
"""

import numpy as np

from mpecq import (classify_active, classify_stationarity, digest,
                   numerical_rank)
from mpecq.kernels import WITNESS_RESIDUAL_SLACK, null_combination
from mpecq.fixtures import fixture_e2, run_fixture_suite

from _oracles import rational_rank
from conftest import PINNED_TOL


def violations_of(summary, *kinds):
    return [v for v in summary.violations if v["kind"] in kinds]


def test_corpus_digest_is_pinned(fuzz_summary):
    # the corpus's counts, branch hits and violations: a change that
    # moves any of them moves the digest
    assert digest(fuzz_summary.to_dict()) == "e5981adde919be29"


def test_criterion_01_counterexample_fidelity(acceptance):
    suite = run_fixture_suite(PINNED_TOL)
    cq = {name: entry["cq"] for name, entry in suite["fixtures"].items()}
    wanted = (
        cq["E1"]["MPEC_MFCQ_TNLP"] == "holds"
        and cq["E1"]["MPEC_LICQ"] == "fails"
        and cq["E2"]["NNAMCQ"] == "holds"
        and cq["E2"]["MPEC_GMFCQ"] == "holds"
        and cq["E2"]["MPEC_MFCQ_TNLP"] == "fails"
        and cq["E3"]["MPEC_MFCQ_RNLP"] == "holds"
        and cq["E3"]["NNAMCQ"] == "fails")
    acceptance(1, "counterexample fixtures match the frozen verdict tables "
                  "exactly", bool(suite["ok"]) and wanted)


def test_criterion_02_implication_lattice(acceptance, fuzz_summary):
    counts = fuzz_summary.counts
    audited = counts.get("affine_points", 0) + counts.get("bho_points", 0)
    passed = (audited >= 1000 and counts.get("bho_points", 0) > 0
              and not violations_of(fuzz_summary, "lattice"))
    acceptance(2, f"implication lattice clean on {audited} mixed fuzzed "
                  "points", passed)


def test_criterion_03_strict_complementarity_equivalence(acceptance,
                                                         fuzz_summary):
    checked = fuzz_summary.counts.get("tnlp_equals_rnlp_checked", 0)
    passed = (checked > 0
              and not violations_of(fuzz_summary, "tnlp_rnlp_mismatch"))
    acceptance(3, "tightened and relaxed verdicts agree on all "
                  f"{checked} points without biactive pairs", passed)


def test_criterion_04_licq_tnlp_equivalence(acceptance, fuzz_summary):
    checked = fuzz_summary.counts.get("bho_tnlp_licq_checked", 0)
    passed = (checked >= 500
              and not violations_of(fuzz_summary, "bho_tnlp_licq"))
    acceptance(4, "tightened-MFCQ verdict equals the LICQ verdict on "
                  f"{checked} hyperparameter points", passed)


def test_criterion_05_unified_licq_oracle(acceptance, fuzz_summary):
    counts = fuzz_summary.counts
    hits = fuzz_summary.branch_hits
    cases = ("no_biactive", "single_gh3", "single_gh4", "multi_biactive",
             "ahat_zero")
    branch_ok = all(hits.get(case, 0) >= 10 for case in cases)
    theorem_ok = (counts.get("licq_theorem_decisive", 0) > 0
                  and not violations_of(fuzz_summary,
                                        "licq_theorem_vs_generic"))
    gamma_ok = (counts.get("gamma_checked", 0) > 0
                and not violations_of(fuzz_summary, "gamma_mismatch",
                                      "gamma_row_count"))
    passed = (counts.get("bho_forced_points", 0) >= 200 and branch_ok
              and theorem_ok and gamma_ok)
    acceptance(5, "closed-form LICQ criterion agrees with the generic rank "
                  "check on every decisive point; all five branches hit; "
                  "active matrix matches the generic bundle", passed)


def test_criterion_06_pd_implies_relaxed_mfcq(acceptance, fuzz_summary):
    confirmable = fuzz_summary.counts.get("mfcqr_theorem_confirmable", 0)
    # relaxed MFCQ parts from the tightened check only at two or more
    # biactive pairs
    multi = fuzz_summary.counts.get("mfcqr_theorem_confirmable_multi", 0)
    passed = (confirmable > 0 and multi > 0
              and not violations_of(fuzz_summary, "mfcqr_theorem_vs_generic"))
    acceptance(6, "Gram positive-definiteness certificate confirmed by the "
                  f"generic relaxed check on {confirmable} points, {multi} "
                  "of them multi-biactive", passed)


def test_criterion_07_index_set_charts(acceptance, fuzz_summary):
    checked = fuzz_summary.counts.get("index_sets_checked", 0)
    passed = (checked > 0 and not violations_of(fuzz_summary, "index_sets"))
    acceptance(7, "structured index charts equal the generic active sets on "
                  f"{checked} unflagged points", passed)


def test_criterion_08_stationarity(acceptance, fuzz_summary):
    fx = fixture_e2()
    pattern = classify_active(fx.evaluation, PINNED_TOL)
    report = classify_stationarity(fx.evaluation, pattern, fx.grad_f,
                                   PINNED_TOL)
    strong_ok = (report.strongest == "strong" and report.witness is not None
                 and report.witness["residual"] <= 1e-6)
    counts = fuzz_summary.counts
    # every corpus point, affine and SVC, runs both checks
    points = counts.get("affine_points", 0) + counts.get("bho_points", 0)
    mono_ok = (counts.get("stationarity_checked", 0) == points >= 1000
               and not violations_of(fuzz_summary, "stationarity_monotonicity",
                                     "witness_monotonicity"))
    kkt_ok = (counts.get("kkt_checked", 0) == points
              and not violations_of(fuzz_summary, "kkt_equivalence"))
    acceptance(8, "strong-stationarity witness verified at residual <= 1e-6; "
                  "class nesting and multiplier-form agreement clean on all "
                  f"{points} corpus points", strong_ok and mono_ok and kkt_ok)


def test_criterion_09_kernel_soundness(acceptance):
    rng = np.random.default_rng(20240818)
    disagreements = 0
    for _ in range(10_000):
        r = int(rng.integers(1, 9))
        c = int(rng.integers(1, 9))
        matrix = rng.integers(-10, 11, size=(r, c)).astype(float)
        if r >= 2 and rng.random() < 0.35:
            matrix[int(rng.integers(0, r))] = matrix[int(rng.integers(0, r))]
        if numerical_rank(matrix, 1e-12).rank != rational_rank(matrix):
            disagreements += 1
    # planted dependencies: the witness returned for each must re-verify
    reverified = 0
    for _ in range(200):
        dim = int(rng.integers(2, 6))
        k = int(rng.integers(1, 4))
        rows = rng.integers(-3, 4, size=(k, dim)).astype(float)
        planted = np.vstack([rows, -rows.sum(axis=0, keepdims=True)])
        found = null_combination(planted, np.ones(len(planted), dtype=bool), 1e-12)
        if found is not None:
            # nonnegative, unit 1-norm, and the rows combine to zero
            y, residual = found
            combo = y @ planted
            if (y.min() >= 0.0 and abs(np.abs(y).sum() - 1.0) <= 1e-12
                    and np.abs(combo).max() <= WITNESS_RESIDUAL_SLACK
                    and abs(np.abs(combo).max() - residual) <= 1e-12):
                reverified += 1
    acceptance(9, "numerical rank equals the exact rational oracle on 10000 "
                  f"integer matrices ({disagreements} disagreements); "
                  f"{reverified} combination witnesses re-verified",
               disagreements == 0 and reverified == 200)


def test_criterion_10_objective_semantics(acceptance, fuzz_summary):
    checked = fuzz_summary.counts.get("validation_error_checked", 0)
    passed = (checked >= 100
              and not violations_of(fuzz_summary, "validation_error"))
    acceptance(10, "indicator-sum objective equals the direct "
                   f"misclassification ratio exactly on {checked} points",
               passed)
