"""Stationarity classification at a feasible MPEC point.

All four classes share the same multiplier equation

    grad f + sum lambda_i grad g_i + sum mu_j grad h_j
           - sum gamma_i grad G_i - sum nu_i grad H_i = 0

with lambda >= 0 supported on active g, gamma free on I_G (zero on
I_H), nu free on I_H (zero on I_G).  They differ only in the sign
constraints on the biactive multipliers (i in I_GH):

  weak    gamma_i, nu_i free
  C       gamma_i * nu_i >= 0
  M       (gamma_i > 0 and nu_i > 0) or gamma_i = 0 or nu_i = 0
  strong  gamma_i >= 0 and nu_i >= 0

The weak system is solved first, and its witness is reported as the
strong, M or C witness when its signs meet that class, snapped at
activity_eps by the rules that re-check every returned witness
(`_signs_satisfy`); each class is tried only once every stronger one
has failed, and M and C only below the branch cap.  A biactive pair
whose G and H rows lie outside the span of the other tightened-NLP
bundle rows (`cq.determined_pairs`, the rule the NNAMCQ and GMFCQ
searches share) has the same gamma_i and nu_i in every weak solution,
so the weak witness's signs decide each class for it.  Under
MPEC-LICQ every pair is determined, and the weak system is the only
one solved.  For the other pairs, M's per-pair set equals the
union of three closed branches, both >= 0, gamma = 0 and nu = 0, and
C's the union of both >= 0 and both <= 0, so each is one LP per branch
with no margin tolerance.  The branches are searched depth first
(`cq.first_leaf`) with unassigned pairs free: a node whose system is
infeasible clears its subtree, and the root is the weak system,
already solved.  Strong stationarity is a single LP, the weak one
itself when no pair is left open, and coincides with the classical KKT
system of the problem viewed as a plain NLP, which
`verify_kkt_equivalence` checks by building that second system
independently.  Where the two systems are equal bit for bit, as with
no pair active on one side only, the LP kernel's kept answer decides
the second.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cq import DEFAULT_BRANCH_CAP, M_BRANCHES, determined_pairs, first_leaf
from .errors import WitnessVerificationError
from .kernels import WITNESS_RESIDUAL_SLACK, LinearProgram
from .model import (ActivePattern, PointEvaluation, Tolerances,
                    gradient_bundle_tnlp)

CLASS_ORDER = ("strong", "M", "C", "weak")

# the multiplier of each gradient family in the multiplier equation
_MULTIPLIER = {"g": "lambda_g", "h": "mu", "G": "gamma", "H": "nu"}


@dataclass(frozen=True)
class StationarityReport:
    strongest: str  # "strong" | "M" | "C" | "weak" | "not_stationary"
    classes: dict   # class name -> "holds" | "fails" | "undecided"
    witness: dict | None
    notes: tuple = ()

    def to_dict(self) -> dict:
        return {"strongest": self.strongest, "classes": dict(self.classes),
                "witness": self.witness, "notes": list(self.notes)}


def _solve_system(ev: PointEvaluation, pattern: ActivePattern, grad_f,
                  tol: Tolerances, gh_modes: dict | None = None) -> dict | None:
    """Solve one multiplier system; returns a verified witness or None.

    gh_modes maps biactive indices to (gamma_mode, nu_mode) as in
    `gradient_bundle_tnlp`, whose rows are A^T and whose signs turn the
    values into multipliers.  With every pair free A^T is the
    tightened-NLP bundle, which the rank tests have already factored at
    tol.rank_rel_tol.
    """
    grad_f = np.asarray(grad_f, dtype=float)
    bundle = gradient_bundle_tnlp(ev, pattern, gh_modes)
    values, _ = LinearProgram(bundle.rows.T, -grad_f, np.flatnonzero(~bundle.signed),
                              tol.rank_rel_tol).solve()
    if values is None:
        return None

    multipliers = {
        "lambda_g": {}, "mu": {},
        "gamma": {str(i): 0.0 for i in pattern.G_active},
        "nu": {str(i): 0.0 for i in pattern.H_active},
    }
    # + 0.0 turns -0.0 into 0.0, so no witness prints -0.0
    for (family, i), value in zip(bundle.provenance, values * bundle.signs + 0.0):
        multipliers[_MULTIPLIER[family]][str(i)] = float(value)
    residual = witness_residual(ev, pattern, grad_f, multipliers)
    if residual > WITNESS_RESIDUAL_SLACK:
        raise WitnessVerificationError(
            f"stationarity witness residual {residual:.3e} too large")
    multipliers["residual"] = residual
    return multipliers


def witness_residual(ev: PointEvaluation, pattern: ActivePattern, grad_f,
                     multipliers: dict) -> float:
    """Recompute the multiplier equation residual from scratch, from the
    gradients of `ev`, one gathered product per family."""
    r = np.array(grad_f, dtype=float)
    for sign, grads, weights in (
            (1.0, ev.g_grads, {i: multipliers["lambda_g"][str(i)] for i in pattern.I_g}),
            (1.0, ev.h_grads, {j: multipliers["mu"][str(j)] for j in range(ev.dims.p)}),
            (-1.0, ev.G_grads, multipliers["gamma"]),
            (-1.0, ev.H_grads, multipliers["nu"])):
        if weights:
            values = np.fromiter(weights.values(), dtype=float, count=len(weights))
            r += sign * (values @ grads[[int(i) for i in weights]])
    return float(np.abs(r).max(initial=0.0))


def witness_satisfies(ev: PointEvaluation, pattern: ActivePattern, grad_f,
                      multipliers: dict, cls: str, tol: Tolerances) -> bool:
    """Check a concrete multiplier vector against one class definition.

    Used to confirm class monotonicity on actual witnesses rather than
    through repeated LP solves.  A magnitude at or below activity_eps
    counts as zero.
    """
    return (witness_residual(ev, pattern, grad_f, multipliers) <= WITNESS_RESIDUAL_SLACK
            and _signs_satisfy(pattern.I_GH, multipliers, cls, tol))


def _signs_satisfy(pairs, multipliers: dict, cls: str, tol: Tolerances) -> bool:
    """The sign conditions of `witness_satisfies` on the biactive
    `pairs`, without the residual.

    A magnitude at or below activity_eps counts as exactly 0, and then
    each class's exact rule applies, so the accepted sets nest: strong
    within M within C within weak.
    """
    eps = tol.activity_eps

    def sign(value):
        return 0 if abs(value) <= eps else 1 if value > 0 else -1

    if any(sign(v) < 0 for v in multipliers["lambda_g"].values()):
        return False
    if cls == "weak":
        return True
    for i in pairs:
        gamma = sign(multipliers["gamma"][str(i)])
        nu = sign(multipliers["nu"][str(i)])
        if cls == "C":
            if gamma * nu < 0:
                return False
        elif cls == "M":
            if not ((gamma > 0 and nu > 0) or gamma == 0 or nu == 0):
                return False
        elif cls == "strong":
            if gamma < 0 or nu < 0:
                return False
    return True


def classify_stationarity(ev: PointEvaluation, pattern: ActivePattern, grad_f,
                          tol: Tolerances,
                          cap: int = DEFAULT_BRANCH_CAP) -> StationarityReport:
    """Decide weak/C/M/strong stationarity and report the strongest class.

    The weak witness is the witness of the strongest class whose snapped
    signs (`_signs_satisfy`) it meets on every pair, once each stronger
    class has failed.  A determined pair's multipliers are those of the
    weak witness, so its signs decide each class for it.  Only
    the other pairs are constrained in the strong system and searched
    for M and C; the determined ones stay free there, which changes no
    feasible set.  The sign conditions of the returned witness are
    re-checked against its class and every weaker one.
    """
    k = len(pattern.I_GH)
    notes: list[str] = []
    classes = {c: "fails" for c in CLASS_ORDER}

    weak_witness = _solve_system(ev, pattern, grad_f, tol)
    if weak_witness is None:
        return StationarityReport("not_stationary", classes, None,
                                  ("multiplier equation infeasible even with free "
                                   "biactive signs",))
    classes["weak"] = "holds"

    def report(cls, witness):
        # _solve_system has already checked the residual, which is the
        # same for every class
        for weaker in CLASS_ORDER[CLASS_ORDER.index(cls):]:
            if not _signs_satisfy(pattern.I_GH, witness, weaker, tol):
                raise WitnessVerificationError(f"{cls} witness does not certify {weaker}")
            classes[weaker] = "holds"
        return StationarityReport(cls, classes, witness, tuple(notes))

    if _signs_satisfy(pattern.I_GH, weak_witness, "strong", tol):
        return report("strong", weak_witness)
    determined = determined_pairs(ev, pattern, tol)
    open_pairs = [i for i in pattern.I_GH if i not in determined]

    def admits(cls):
        return _signs_satisfy(determined, weak_witness, cls, tol)

    # with no pair open admits("strong") is the test above, so one is open here
    if admits("strong"):
        strong_witness = _solve_system(ev, pattern, grad_f, tol,
                                       dict.fromkeys(open_pairs, ("nonneg", "nonneg")))
        if strong_witness is not None:
            return report("strong", strong_witness)

    if k > cap:
        classes.update({"M": "undecided", "C": "undecided"})
        notes.append(f"biactive count {k} exceeds enumeration cap {cap}; "
                     "M and C undecided")
        return StationarityReport("weak", classes, weak_witness, tuple(notes))

    def search(cls, modes_of):
        """A witness of `cls`: the weak one when its signs meet the class,
        else that of the first feasible branch, choices in modes_of order."""
        if _signs_satisfy(pattern.I_GH, weak_witness, cls, tol):
            return weak_witness
        if not admits(cls):
            return None

        def admit(partial):
            if not partial:  # the root is the weak system
                return weak_witness
            return _solve_system(ev, pattern, grad_f, tol,
                                 {i: modes_of[choice] for i, choice in partial.items()})

        found = first_leaf(open_pairs, tuple(modes_of), admit)
        return None if found is None else found[1]

    for cls, modes_of in (("M", M_BRANCHES), ("C", {"nonneg": ("nonneg", "nonneg"),
                                                    "nonpos": ("nonpos", "nonpos")})):
        witness = search(cls, modes_of)
        if witness is not None:
            return report(cls, witness)
    return StationarityReport("weak", classes, weak_witness, tuple(notes))


def verify_kkt_equivalence(ev: PointEvaluation, pattern: ActivePattern, grad_f,
                           tol: Tolerances) -> dict:
    """Strong stationarity versus the plain-NLP KKT system.

    The KKT route treats the complementarity products G_i H_i = 0 as
    ordinary equalities with free multipliers tau_i and keeps G_i >= 0,
    H_i >= 0 as ordinary inequalities with nonnegative multipliers on
    their active sets.  Both routes must agree at every feasible point.
    """
    strong_ok = _solve_system(ev, pattern, grad_f, tol, dict.fromkeys(
        pattern.I_GH, ("nonneg", "nonneg"))) is not None

    # product-constraint gradient H_i grad G_i + G_i grad H_i vanishes on
    # the biactive set, so tau is only introduced where it can act
    tau = sorted(set(pattern.I_G) | set(pattern.I_H))
    prod_grads = (ev.H_vals[tau, None] * ev.G_grads[tau]
                  + ev.G_vals[tau, None] * ev.H_grads[tau])
    # columns: lambda >= 0, mu free, u >= 0 on active G, w >= 0 on active H, tau free
    A = np.column_stack([ev.g_grads[list(pattern.I_g)].T, ev.h_grads.T,
                         -ev.G_grads.take(pattern.G_active, axis=0).T,
                         -ev.H_grads.take(pattern.H_active, axis=0).T,
                         prod_grads.T])
    ng, ncols = len(pattern.I_g), A.shape[1]
    free = [*range(ng, ng + ev.dims.p), *range(ncols - len(tau), ncols)]
    kkt_ok = LinearProgram(A, -np.asarray(grad_f, dtype=float), free,
                           tol.rank_rel_tol).solve()[0] is not None
    return {"strong_feasible": strong_ok, "kkt_feasible": kkt_ok,
            "agree": strong_ok == kkt_ok}
