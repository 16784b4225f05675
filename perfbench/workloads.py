"""Benchmark workloads: inputs built from a seed, the operations driven
against the package, and the correctness checks on their outputs.

A workload's `build` makes its inputs and returns a list of units; a
unit is a list of operations that the runner drives one at a time in a
closed loop.  An operation returns the failed correctness checks as a
list of strings and raises when the package raises, which the runner
counts as a failed operation, never as a skipped one.

Workloads and why each was chosen:

  biactive_sweep  constructed affine points with k = 1..7 biactive
                  pairs in two families, verified through `mpecq check`
                  and `mpecq stationarity` in-process.  The LP kernel
                  and the branch enumerators do all the work and `bho`
                  does none.  In the `holds` family the active bundle
                  has full rank, so NNAMCQ and GMFCQ enumerate every
                  branch and M-stationarity is exhausted before C is
                  reached.  In the `fails` family grad H_0 = -grad G_0,
                  so every CQ except the affine shortcut fails on the
                  first certificate found and the searches stop early;
                  a pruning change that costs this path shows there.
  bho_sweep       the bilevel SVC family on seeded Gaussian datasets
                  (T=3, m1=5, m2=15, p=5, so n=121) over a log grid of
                  C: few but large LPs (121 rows) and 15x15 Grams in
                  the lower-level solver.  The seed draws datasets from
                  BHO_POOL, the generator indices on which no operation
                  raises; the points that do raise are driven by the
                  BHO_PROBE repro in traced runs.
  fuzz_corpus     `run_fuzz(N, seed)`, the randomized invariant sweep
                  that `mpecq fuzz` and the acceptance gate run; the
                  lower-level solver does about 95% of the work.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import time

import numpy as np

K_RANGE = tuple(range(1, 8))
BIACTIVE_DRAWS = 6
BHO_SHAPE = {"T": 3, "m1": 5, "m2": 15, "p": 5}
C_GRID = tuple(float(c) for c in np.logspace(-2.0, 2.0, 9))
BHO_DATASETS = 24
BHO_STREAM = 2
# Of generator indices 0..159, those on which every C of the grid verifies
# without raising (`python3 perfbench/screen_bho.py 0 160`); the other
# 103 raise on at least one C.
BHO_POOL = (1, 4, 7, 8, 9, 14, 15, 18, 21, 31, 33, 40, 41, 44, 45, 46, 53, 54,
            55, 57, 60, 62, 63, 66, 68, 69, 70, 72, 75, 81, 88, 93, 100, 102,
            103, 110, 111, 112, 113, 116, 118, 119, 121, 123, 124, 125, 131,
            134, 137, 138, 140, 142, 148, 150, 151, 152, 156)
# (generator index, C grid position) of points that raise: the first four
# "phase 1 reported unbounded" crashes and the first ConvergenceError.
BHO_PROBE = ((0, 3), (2, 4), (3, 6), (5, 0), (22, 3))
FUZZ_POINTS = 20
FUZZ_CORPORA = 16
CQ_ALL = ("MPEC_LICQ", "MPEC_MFCQ_TNLP", "MPEC_MFCQ_RNLP", "NNAMCQ",
          "MPEC_GMFCQ", "MPEC_ACQ_AFFINE")


class Operation:
    """One closed-loop request: `run()` returns failed checks, raises on error.

    `label` names the input in failure records, `points` is how many
    points the operation plans to verify, and `verdicts` holds what it
    returned, for the verdict digest and the undecided count.
    """

    points = 1

    def __init__(self, label: str):
        self.label = label
        self.verdicts = None
        self.timings: dict = {}

    def run(self) -> list:
        raise NotImplementedError


# ---------------------------------------------------------------- biactive

def biactive_record(k: int, family: str, rng: np.random.Generator) -> dict:
    """Affine evaluation record at the origin with k biactive pairs.

    n = 2k+3 with one active g.  The rows are scaled unit vectors (g on
    e_0, G_i and H_i on the next 2k), so the active bundle has full
    rank; `family == "fails"` sets grad H_0 = -grad G_0.  grad_f is
    chosen so that the unique multipliers have lambda > 0 and
    gamma_i < 0, nu_i < 0 on every independent pair.  The seed draws
    the positive row scales and a signed permutation of the
    coordinates, neither of which changes a verdict.
    """
    if family not in ("holds", "fails"):
        raise ValueError(f"unknown family {family!r}")
    n = 2 * k + 3
    base = np.eye(n)
    g = base[0:1]
    G = base[1:2 * k + 1:2].copy()
    H = base[2:2 * k + 2:2].copy()
    if family == "fails":
        H[0] = -G[0]
    grad_f = -g[0] - G.sum(axis=0) - H.sum(axis=0)
    scale = rng.uniform(0.5, 2.0, size=2 * k + 1)
    g, G, H = g * scale[0], G * scale[1:k + 1, None], H * scale[k + 1:, None]
    P = np.eye(n)[rng.permutation(n)] * rng.choice([-1.0, 1.0], size=n)
    return {"n": n, "m": 1, "p": 0, "l": k, "point": [0.0] * n,
            "g_vals": [0.0], "h_vals": [], "G_vals": [0.0] * k,
            "H_vals": [0.0] * k, "g_grads": (g @ P).tolist(), "h_grads": [],
            "G_grads": (G @ P).tolist(), "H_grads": (H @ P).tolist(),
            "grad_f": (grad_f @ P).tolist(), "affine": True}


def biactive_expected(k: int, family: str) -> dict:
    """Verdicts that hold by construction for `biactive_record`."""
    if family == "holds":
        cq = {name: "holds" for name in CQ_ALL}
    else:
        cq = {name: "fails" for name in CQ_ALL}
        cq["MPEC_ACQ_AFFINE"] = "holds"
    if family == "fails" and k == 1:
        # gamma_0 = nu_0 is free, so a nonnegative choice exists
        classes = {"strong": "holds", "M": "holds", "C": "holds", "weak": "holds"}
    else:
        classes = {"strong": "fails", "M": "fails", "C": "holds", "weak": "holds"}
    strongest = next(c for c in ("strong", "M", "C", "weak") if classes[c] == "holds")
    return {"cq": cq, "classes": classes, "strongest": strongest}


def _cli(m, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = m.cli.main(argv)
    if code != 0:
        raise RuntimeError(f"mpecq {argv[0]} exited {code}: {err.getvalue().strip()}")
    return json.loads(out.getvalue())


class BiactivePoint(Operation):
    def __init__(self, m, path: str, record: dict, k: int, family: str, draw: int):
        super().__init__(f"{family}/k={k}/draw={draw}")
        self.m, self.path, self.k, self.family = m, path, k, family
        self.record = record
        self.expected = biactive_expected(k, family)

    def run(self) -> list:
        m = self.m
        t0 = time.perf_counter()
        check = _cli(m, ["check", "--input", self.path])
        t1 = time.perf_counter()
        stat = _cli(m, ["stationarity", "--input", self.path])["stationarity"]
        t2 = time.perf_counter()
        self.timings = {"check_s": t1 - t0, "stationarity_s": t2 - t1}
        ev = m.model.PointEvaluation.from_dict(self.record)
        tol = m.model.Tolerances()
        pattern = m.model.classify_active(ev, tol)
        kkt = m.stationarity.verify_kkt_equivalence(
            ev, pattern, np.asarray(self.record["grad_f"]), tol)

        verdicts = {name: v["status"] for name, v in check["cq"]["verdicts"].items()}
        self.verdicts = {"cq": verdicts, "classes": stat["classes"],
                         "strongest": stat["strongest"]}
        bad = []
        if check["active_pattern"]["I_GH"] != list(range(self.k)):
            bad.append(f"biactive set {check['active_pattern']['I_GH']}")
        if verdicts != self.expected["cq"]:
            bad.append(f"cq verdicts {verdicts}")
        for name, v in check["cq"]["verdicts"].items():
            if v["status"] == "fails" and not v["certificate"]:
                bad.append(f"{name} fails without a certificate")
        if check["cq"]["implication_violations"]:
            bad.append(f"lattice {check['cq']['implication_violations']}")
        if stat["classes"] != self.expected["classes"]:
            bad.append(f"stationarity classes {stat['classes']}")
        if stat["strongest"] != self.expected["strongest"]:
            bad.append(f"strongest {stat['strongest']}")
        if not kkt["agree"]:
            bad.append(f"strong stationarity and KKT disagree: {kkt}")
        return bad


def build_biactive(m, workdir: str, seed: int) -> list:
    """One unit per draw: the k = 1..7 points of each family, as CLI input files.

    Each unit draws its own scales and permutations, so a run averages
    the LP kernel's pivoting over several draws of the same points.
    """
    units = []
    for draw in range(BIACTIVE_DRAWS):
        ops = []
        for family in ("holds", "fails"):
            for k in K_RANGE:
                rng = np.random.default_rng([seed, draw, k, 0 if family == "holds" else 1])
                record = biactive_record(k, family, rng)
                path = os.path.join(workdir, f"{family}_d{draw}_k{k}.json")
                with open(path, "w") as fh:
                    json.dump(record, fh)
                ops.append(BiactivePoint(m, path, record, k, family, draw))
        units.append(ops)
    return units


# ---------------------------------------------------------------- bho sweep

class BhoPoint(Operation):
    def __init__(self, m, case: dict, C: float):
        super().__init__(f"dataset={case['index']}/C={C:.4g}")
        self.m, self.case, self.C = m, case, C

    def run(self) -> list:
        m, C = self.m, self.C
        bho = m.bho
        inst, ds, split = self.case["instance"], self.case["dataset"], self.case["split"]
        tol = m.model.Tolerances()
        alphas = bho.solve_all_folds(inst, C)
        point, _flags = bho.assemble_feasible_point(inst, C, alphas, tol)
        lp = bho.classify_lambda_psi(inst, point, tol)
        licq = bho.check_licq_theorem(inst, point, lp, tol)
        mfr = bho.check_mfcq_r_theorem(inst, point, lp, tol)
        ev = bho.to_evaluation(inst, point)
        pattern = m.model.classify_active(ev, tol)
        report = m.cq.run_all_checks(ev, pattern, tol, is_affine=True)
        stat = m.stationarity.classify_stationarity(ev, pattern, inst.grad_f, tol)
        err = bho.validation_error(inst, point)
        oracle = bho.misclassification_oracle(ds, split, alphas)

        verdicts = {name: v.status for name, v in report.verdicts.items()}
        self.verdicts = {"cq": verdicts, "classes": dict(stat.classes),
                         "strongest": stat.strongest, "licq_theorem": licq.status,
                         "mfcq_r_theorem": mfr.status, "validation_error": err}
        bad = []
        if report.implication_violations:
            bad.append(f"lattice {report.implication_violations}")
        if licq.status in ("holds", "fails") and licq.status != verdicts["MPEC_LICQ"]:
            bad.append(f"LICQ theorem {licq.status}/{licq.case}, generic "
                       f"{verdicts['MPEC_LICQ']}")
        if mfr.status == "holds" and verdicts["MPEC_MFCQ_RNLP"] != "holds":
            bad.append(f"MFCQ-R theorem holds, generic {verdicts['MPEC_MFCQ_RNLP']}")
        if not lp.assumption_flags:
            sets = bho.structured_index_sets(inst, lp)
            if (sets["I_G"], sets["I_H"], sets["I_GH"]) != (
                    pattern.I_G, pattern.I_H, pattern.I_GH):
                bad.append("structured index sets differ from the generic ones")
            if err != oracle:
                bad.append(f"validation error {err!r} != oracle {oracle!r}")
        return bad


def write_dataset_csv(path: str, rng: np.random.Generator) -> None:
    """Gaussian features labelled by a random linear rule plus Gaussian noise."""
    T, m1, m2, p = (BHO_SHAPE[key] for key in ("T", "m1", "m2", "p"))
    X = rng.normal(0.0, 1.0, size=(T * (m1 + m2), p))
    w = rng.normal(0.0, 1.0, size=p)
    y = np.where(X @ w + 0.5 * rng.normal(0.0, 1.0, size=X.shape[0]) >= 0.0, 1, -1)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x{j}" for j in range(p)] + ["label"])
        for row, label in zip(X, y):
            writer.writerow([repr(float(v)) for v in row] + [int(label)])


def build_bho_case(m, workdir: str, index: int) -> dict:
    """Dataset `index` of the fixed generator, written as CSV and read back."""
    rng = np.random.default_rng([BHO_STREAM, index])
    path = os.path.join(workdir, f"dataset{index}.csv")
    write_dataset_csv(path, rng)
    dataset = m.bho.load_dataset_csv(path)
    split = m.bho.split_folds(dataset, BHO_SHAPE["T"], BHO_SHAPE["m1"],
                              BHO_SHAPE["m2"], int(rng.integers(2 ** 31)))
    return {"index": index, "dataset": dataset, "split": split,
            "instance": m.bho.BhoInstance.from_dataset(dataset, split)}


def build_bho(m, workdir: str, seed: int) -> list:
    """One unit per dataset: the C grid on that dataset's instance.

    The seed draws BHO_DATASETS of the BHO_POOL datasets, in its own order.
    """
    rng = np.random.default_rng(seed)
    picked = rng.choice(BHO_POOL, size=BHO_DATASETS, replace=False)
    return [[BhoPoint(m, case, C) for C in C_GRID]
            for case in (build_bho_case(m, workdir, int(i)) for i in picked)]


def build_bho_probe(m, workdir: str) -> list:
    """The BHO_PROBE points, as one unit."""
    cases = {index: build_bho_case(m, workdir, index) for index, _ in BHO_PROBE}
    return [BhoPoint(m, cases[index], C_GRID[position]) for index, position in BHO_PROBE]


# ---------------------------------------------------------------- fuzz corpus

class FuzzCorpus(Operation):
    points = FUZZ_POINTS + FUZZ_POINTS // 2 + max(50, FUZZ_POINTS // 4)

    def __init__(self, m, corpus_seed: int):
        super().__init__(f"corpus_seed={corpus_seed}")
        self.m, self.corpus_seed = m, corpus_seed

    def run(self) -> list:
        summary = self.m.fuzz.run_fuzz(FUZZ_POINTS, self.corpus_seed)
        counts = summary.counts
        self.verdicts = {"counts": dict(sorted(counts.items())),
                         "branch_hits": dict(sorted(summary.branch_hits.items()))}
        bad = [f"{v['kind']} at {v['where']}" for v in summary.violations]
        planned = {"affine_points": FUZZ_POINTS,
                   "bho_plain_points": FUZZ_POINTS // 2,
                   "bho_forced_points": max(50, FUZZ_POINTS // 4)}
        planned["bho_points"] = planned["bho_plain_points"] + planned["bho_forced_points"]
        for key, want in planned.items():
            if counts.get(key, 0) != want:
                bad.append(f"{key}: audited {counts.get(key, 0)}, planned {want}")
        return bad


def build_fuzz(m, workdir: str, seed: int) -> list:
    """One unit per corpus: a run_fuzz call on a corpus seed drawn from seed."""
    seeds = np.random.SeedSequence(seed).generate_state(FUZZ_CORPORA)
    return [[FuzzCorpus(m, int(s))] for s in seeds]


WORKLOADS = {
    "biactive_sweep": build_biactive,
    "bho_sweep": build_bho,
    "fuzz_corpus": build_fuzz,
}
