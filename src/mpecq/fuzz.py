"""Randomized self-checking corpus driver.

Two point sources feed the invariant monitors: a constructed-pattern
affine generator (gradients are small integers, the point is the
origin, activity is chosen per pair) and the hyperparameter-selection
family (random Gaussian datasets solved to optimality, at a random C or
at a C read off the exact regularization path that lands the point in
one closed-form branch).

Every generated point, affine or SVC, runs one suite of generic
invariants (`_check_point`): the implication lattice, tightened/relaxed
agreement without biactive pairs, stationarity class nesting, witness
monotonicity and the multiplier-form equivalence for strong
stationarity; in the 1000-point acceptance corpus that is all 1750
points.  An SVC point, solved and classified once by its generator,
then runs its family's checks: LICQ against tightened MFCQ, the index
charts, active-matrix assembly, the validation-error count and both
closed-form theorems.  Any failure is recorded with enough provenance
to replay it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import bho
from .cq import DEFAULT_BRANCH_CAP, run_all_checks
from .errors import ClassificationError, ConvergenceError, InfeasiblePointError
from .model import (MpecDimensions, PointEvaluation, Tolerances,
                    classify_active, digest)
from .stationarity import (CLASS_ORDER, classify_stationarity,
                           verify_kkt_equivalence, witness_satisfies)

FORCE_MODES = ("plain", "gh3", "gh4", "multi", "ahat0")
_WANTED_CASE = {"plain": "no_biactive", "gh3": "single_gh3",
                "gh4": "single_gh4", "multi": "multi_biactive",
                "ahat0": "ahat_zero"}
# fresh datasets gen_bho_case draws before it gives up
_RETRIES = 80


def random_affine_evaluation(rng: np.random.Generator
                             ) -> tuple[PointEvaluation, np.ndarray]:
    """(ev, grad_f) of a feasible-by-construction affine instance at the
    origin.

    Small integer gradients, dimensions n in 2..5, up to 2 inequality
    and 1 equality rows, 1..3 complementarity pairs with the activity
    side of each pair drawn uniformly (G, H, or both active).
    """
    n = int(rng.integers(2, 6))
    m = int(rng.integers(0, 3))
    p = int(rng.integers(0, 2))
    l = int(rng.integers(1, 4))
    g_vals = np.array([0.0 if rng.integers(0, 2) else -float(rng.integers(1, 4))
                       for _ in range(m)])
    G_vals = np.zeros(l)
    H_vals = np.zeros(l)
    for i in range(l):
        side = int(rng.integers(0, 3))
        if side == 0:
            H_vals[i] = float(rng.integers(1, 4))  # G active only
        elif side == 1:
            G_vals[i] = float(rng.integers(1, 4))  # H active only
    def grads(rows):
        return rng.integers(-3, 4, size=(rows, n)).astype(float)
    ev = PointEvaluation(MpecDimensions(n, m, p, l), np.zeros(n),
                         g_vals, np.zeros(p), G_vals, H_vals,
                         grads(m), grads(p), grads(l), grads(l))
    return ev, rng.integers(-3, 4, size=n).astype(float)


def _random_dataset(rng: np.random.Generator, T: int, m1: int, m2: int,
                    p: int) -> bho.Dataset:
    N = T * (m1 + m2) + int(rng.integers(0, 3))
    X = rng.normal(0.0, 1.0, size=(N, p))
    y = rng.choice([-1.0, 1.0], size=N)
    return bho.Dataset(X, y)


@dataclass
class BhoCase:
    """A solved instance at C: the feasible point, its Lambda/Psi classes
    and its LICQ-theorem verdict, as generated."""

    instance: bho.BhoInstance
    C: float
    alphas: list
    dataset: bho.Dataset
    split: bho.FoldSplit
    mode: str
    point: bho.BhoPoint
    classes: bho.LambdaPsiPattern
    licq: bho.TheoremVerdict


def _solve_case(instance: bho.BhoInstance, C: float, tol: Tolerances):
    """(alphas, point, classes, LICQ-theorem verdict) of the instance at
    C, or None if the point fails to solve or classify.  A flagged point
    has theorem case None."""
    try:
        alphas = bho.solve_all_folds(instance, C)
        point, _ = bho.assemble_feasible_point(instance, C, alphas, tol)
        classes = bho.classify_lambda_psi(instance, point, tol)
    except (ConvergenceError, InfeasiblePointError, ClassificationError):
        return None
    return alphas, point, classes, bho.check_licq_theorem(instance, point, classes, tol)


def gen_bho_case(rng: np.random.Generator, mode: str, tol: Tolerances) -> BhoCase:
    """Sample one solved instance whose LICQ-theorem case is the mode's.

    `plain` takes any point that classifies, at a random C.  The forced
    modes keep the data and read C off the exact path (`bho.fold_knots`):
    `gh3` and `gh4` try the knots in a random order, since at a knot one
    family-3 or family-4 pair is biactive.  `multi` repeats fold 0 as
    one more fold and takes a knot of fold 0, where both copies have a
    biactive pair in their own fold block.  `ahat0` trains fold 0 on its
    first sample twice, a tie the path holds at a bound with gradient 0,
    and takes twice the last knot, where the held copy's row lies in the
    span of the free rows.  Retries with fresh data;
    raises RuntimeError when the retries run out, which for the shipped
    seeds never happens.
    """
    if mode not in FORCE_MODES:
        raise ValueError(f"unknown mode {mode!r}")
    wanted = _WANTED_CASE[mode]
    for _ in range(_RETRIES):
        T = int(rng.integers(1, 3))
        m1 = int(rng.integers(1, 4))
        m2 = int(rng.integers(2, 6))
        p = int(rng.integers(2, 5))
        dataset = _random_dataset(rng, T, m1, m2, p)
        split = bho.split_folds(dataset, T, m1, m2, int(rng.integers(2 ** 31)))
        if mode == "multi":
            split = replace(split, T=T + 1,
                            validation=(*split.validation, split.validation[0]),
                            training=(*split.training, split.training[0]))
        elif mode == "ahat0":
            first = split.training[0]
            split = replace(split, training=((*first[:-1], first[0]),
                                             *split.training[1:]))
        instance = bho.BhoInstance.from_dataset(dataset, split)
        if mode == "plain":
            candidates = [10.0 ** float(rng.integers(-1, 2)) * float(rng.uniform(0.5, 2.0))]
        else:
            try:
                knots = np.concatenate([bho.fold_knots(instance, t)
                                        for t in range(1 if mode == "multi" else T)])
            except ConvergenceError:
                continue
            if mode == "ahat0":  # past every fold's last knot
                knots = 2.0 * np.sort(knots)[-1:]
            candidates = rng.permutation(knots)
        for C in candidates:
            solved = _solve_case(instance, C, tol)
            if solved is not None and (mode == "plain" or solved[3].case == wanted):
                alphas, point, classes, licq = solved
                return BhoCase(instance, float(C), alphas, dataset, split, mode,
                               point, classes, licq)
    raise RuntimeError(f"could not generate a '{mode}' case in {_RETRIES} tries")


@dataclass
class FuzzSummary:
    seed: int
    counts: dict = field(default_factory=dict)
    branch_hits: dict = field(default_factory=dict)
    violations: list = field(default_factory=list)

    def bump(self, key: str, by: int = 1):
        self.counts[key] = self.counts.get(key, 0) + by

    def hit(self, case: str):
        self.branch_hits[case] = self.branch_hits.get(case, 0) + 1

    def flag(self, kind: str, where: dict, detail: str):
        self.violations.append({"kind": kind, "where": where, "detail": detail})

    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        return {"seed": self.seed, "counts": dict(sorted(self.counts.items())),
                "branch_hits": dict(sorted(self.branch_hits.items())),
                "violations": self.violations, "ok": self.ok()}


def _check_point(ev, grad_f, tol, cap, where, summary):
    """The generic invariants of one feasible point: the implication
    lattice, tightened = relaxed MFCQ without biactive pairs, class
    nesting, witness monotonicity and strong stationarity = KKT.
    Returns (verdict status by name, active pattern)."""
    pattern = classify_active(ev, tol)
    report = run_all_checks(ev, pattern, tol, cap=cap, is_affine=True)
    verdicts = {name: v.status for name, v in report.verdicts.items()}
    if report.implication_violations:
        summary.flag("lattice", where, str(report.implication_violations))
    if not pattern.I_GH:
        summary.bump("tnlp_equals_rnlp_checked")
        if verdicts["MPEC_MFCQ_TNLP"] != verdicts["MPEC_MFCQ_RNLP"]:
            summary.flag("tnlp_rnlp_mismatch", where,
                         f"T={verdicts['MPEC_MFCQ_TNLP']} "
                         f"R={verdicts['MPEC_MFCQ_RNLP']}")
    stat = classify_stationarity(ev, pattern, grad_f, tol, cap=cap)
    summary.bump("stationarity_checked")
    for i in range(len(CLASS_ORDER) - 1):
        if (stat.classes.get(CLASS_ORDER[i]) == "holds"
                and stat.classes.get(CLASS_ORDER[i + 1]) != "holds"):
            summary.flag("stationarity_monotonicity", where,
                         f"{CLASS_ORDER[i]} holds but {CLASS_ORDER[i + 1]} "
                         f"is {stat.classes.get(CLASS_ORDER[i + 1])}")
    if stat.witness is not None and stat.strongest in CLASS_ORDER:
        start = CLASS_ORDER.index(stat.strongest)
        for cls in CLASS_ORDER[start:]:
            if not witness_satisfies(ev, pattern, grad_f, stat.witness, cls, tol):
                summary.flag("witness_monotonicity", where,
                             f"witness of class {stat.strongest} fails {cls}")
    kkt = verify_kkt_equivalence(ev, pattern, grad_f, tol)
    summary.bump("kkt_checked")
    if not kkt["agree"]:
        summary.flag("kkt_equivalence", where, str(kkt))
    return verdicts, pattern


def _check_bho_case(case: BhoCase, tol, cap, where, summary):
    """The generic invariants, then the family's: LICQ = tightened MFCQ,
    the index charts, Gamma, the validation error and both theorems."""
    instance, point, classes = case.instance, case.point, case.classes
    ev = bho.to_evaluation(instance, point)
    where = dict(where, digest=digest(ev.to_dict()))
    summary.bump("bho_points")
    verdicts, pattern = _check_point(ev, instance.grad_f, tol, cap, where, summary)
    licq_status = verdicts["MPEC_LICQ"]
    summary.bump("bho_tnlp_licq_checked")
    if licq_status != verdicts["MPEC_MFCQ_TNLP"]:
        summary.flag("bho_tnlp_licq", where,
                     f"LICQ={licq_status} TNLP={verdicts['MPEC_MFCQ_TNLP']}")

    if not classes.assumption_flags:
        sets = bho.structured_index_sets(instance, classes)
        summary.bump("index_sets_checked")
        if (sets["I_G"] != pattern.I_G or sets["I_H"] != pattern.I_H
                or sets["I_GH"] != pattern.I_GH):
            summary.flag("index_sets", where,
                         f"structured={sets} generic=(I_G={pattern.I_G}, "
                         f"I_H={pattern.I_H}, I_GH={pattern.I_GH})")
        gm = bho.assemble_gamma(instance, classes)
        summary.bump("gamma_checked")
        if not gm.identity_ok:
            summary.flag("gamma_row_count", where, str(gm.notes))
        if not bho.gamma_matches_generic(gm, ev, pattern):
            summary.flag("gamma_mismatch", where,
                         f"shape {gm.matrix.shape} vs generic bundle")
        err = bho.validation_error(instance, point)
        oracle = bho.misclassification_oracle(case.dataset, case.split, case.alphas)
        summary.bump("validation_error_checked")
        if err != oracle:
            summary.flag("validation_error", where, f"matrix={err!r} oracle={oracle!r}")
    else:
        summary.bump("bho_flagged_points")

    thm = case.licq
    if thm.case is not None:
        summary.hit(thm.case)
    if thm.status in ("holds", "fails"):
        summary.bump("licq_theorem_decisive")
        if thm.status != licq_status:
            summary.flag("licq_theorem_vs_generic", where,
                         f"theorem={thm.status}/{thm.case} generic={licq_status}")
    mfr = bho.check_mfcq_r_theorem(instance, point, classes, tol)
    if mfr.status == "holds":
        summary.bump("mfcqr_theorem_confirmable")
        if thm.case == "multi_biactive":
            summary.bump("mfcqr_theorem_confirmable_multi")
        if verdicts["MPEC_MFCQ_RNLP"] != "holds":
            summary.flag("mfcqr_theorem_vs_generic", where,
                         f"theorem holds, generic={verdicts['MPEC_MFCQ_RNLP']}")


def run_fuzz(n_points: int, seed: int, tol: Tolerances | None = None,
             cap: int = DEFAULT_BRANCH_CAP) -> FuzzSummary:
    """Run the full randomized invariant sweep.

    n_points affine instances, n_points // 2 plain solved instances and
    max(50, n_points // 4) forced instances split evenly over the five
    branch modes.  Deterministic for a fixed (n_points, seed, tol, cap).
    """
    tol = tol or Tolerances()
    summary = FuzzSummary(seed=seed)
    root = np.random.SeedSequence(seed)
    affine_ss, plain_ss, forced_ss = root.spawn(3)

    children = affine_ss.spawn(n_points)
    for i, child in enumerate(children):
        ev, grad_f = random_affine_evaluation(np.random.default_rng(child))
        summary.bump("affine_points")
        where = {"corpus": "affine", "index": i, "digest": digest(ev.to_dict())}
        _check_point(ev, grad_f, tol, cap, where, summary)

    n_plain = n_points // 2
    children = plain_ss.spawn(max(n_plain, 1))
    for i, child in enumerate(children[:n_plain]):
        rng = np.random.default_rng(child)
        case = gen_bho_case(rng, "plain", tol)
        summary.bump("bho_plain_points")
        _check_bho_case(case, tol, cap, {"corpus": "bho_plain", "index": i},
                        summary)

    n_forced = max(50, n_points // 4)
    quota, extra = divmod(n_forced, len(FORCE_MODES))
    children = forced_ss.spawn(n_forced)
    idx = 0
    for k, mode in enumerate(FORCE_MODES):
        take = quota + (1 if k < extra else 0)
        for _ in range(take):
            rng = np.random.default_rng(children[idx])
            case = gen_bho_case(rng, mode, tol)
            summary.bump("bho_forced_points")
            summary.bump(f"bho_forced_{mode}")
            _check_bho_case(case, tol, cap,
                            {"corpus": "bho_forced", "mode": mode, "index": idx},
                            summary)
            idx += 1
    return summary
