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

M's per-pair set equals the union of three closed branches, both
>= 0, gamma = 0 and nu = 0, and C's the union of both >= 0 and both
<= 0, so each is one LP per branch with no margin tolerance.  The
branches are searched depth first (`cq.first_leaf`) with unassigned
pairs free: a node whose system is infeasible clears its subtree, and
the root is the weak system, already solved.  Strong stationarity is a
single LP, the weak one itself when I_GH is empty, and coincides with
the classical KKT system of the problem viewed as a plain NLP, which
`verify_kkt_equivalence` checks by building that second system
independently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cq import DEFAULT_BRANCH_CAP, first_leaf
from .errors import WitnessVerificationError
from .kernels import WITNESS_RESIDUAL_SLACK, LinearProgram
from .model import ActivePattern, PointEvaluation, Tolerances

CLASS_ORDER = ("strong", "M", "C", "weak")


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
                  gh_modes: dict) -> dict | None:
    """Solve one multiplier system; returns a verified witness or None.

    gh_modes maps each biactive index to (gamma_mode, nu_mode) with
    modes 'free', 'nonneg', 'nonpos', 'zero'.
    """
    n = ev.dims.n
    grad_f = np.asarray(grad_f, dtype=float)
    lp = LinearProgram()
    lam = {i: lp.add_var() for i in pattern.I_g}
    mu = {j: lp.add_var(free=True) for j in range(ev.dims.p)}

    # each multiplier appears in the equation through sign * var
    gam: dict[int, tuple[int, float]] = {}
    nu: dict[int, tuple[int, float]] = {}
    for i in pattern.I_G:
        gam[i] = (lp.add_var(free=True), 1.0)
    for i in pattern.I_H:
        nu[i] = (lp.add_var(free=True), 1.0)

    def make_mode(mode):
        if mode == "free":
            return (lp.add_var(free=True), 1.0)
        if mode == "nonneg":
            return (lp.add_var(), 1.0)
        if mode == "nonpos":
            return (lp.add_var(), -1.0)
        if mode == "zero":
            return None
        raise ValueError(f"unknown multiplier mode {mode!r}")

    for i in pattern.I_GH:
        gmode, nmode = gh_modes[i]
        g_entry = make_mode(gmode)
        n_entry = make_mode(nmode)
        if g_entry is not None:
            gam[i] = g_entry
        if n_entry is not None:
            nu[i] = n_entry

    for col in range(n):
        coeffs: dict[int, float] = {}

        def add(var, value):
            if value:
                coeffs[var] = coeffs.get(var, 0.0) + value

        for i in pattern.I_g:
            add(lam[i], float(ev.g_grads[i, col]))
        for j in range(ev.dims.p):
            add(mu[j], float(ev.h_grads[j, col]))
        for i, (var, sign) in gam.items():
            add(var, -sign * float(ev.G_grads[i, col]))
        for i, (var, sign) in nu.items():
            add(var, -sign * float(ev.H_grads[i, col]))
        lp.add_eq(coeffs, -float(grad_f[col]))

    feasible, values, _ = lp.solve()
    if not feasible:
        return None

    multipliers = {
        "lambda_g": {str(i): float(values[lam[i]]) for i in pattern.I_g},
        "mu": {str(j): float(values[mu[j]]) for j in range(ev.dims.p)},
        "gamma": {}, "nu": {},
    }
    for i in sorted(set(pattern.I_G) | set(pattern.I_GH)):
        if i in gam:
            var, sign = gam[i]
            multipliers["gamma"][str(i)] = sign * float(values[var])
        else:
            multipliers["gamma"][str(i)] = 0.0
    for i in sorted(set(pattern.I_H) | set(pattern.I_GH)):
        if i in nu:
            var, sign = nu[i]
            multipliers["nu"][str(i)] = sign * float(values[var])
        else:
            multipliers["nu"][str(i)] = 0.0
    residual = witness_residual(ev, pattern, grad_f, multipliers)
    if residual > WITNESS_RESIDUAL_SLACK:
        raise WitnessVerificationError(
            f"stationarity witness residual {residual:.3e} too large")
    multipliers["residual"] = residual
    return multipliers


def witness_residual(ev: PointEvaluation, pattern: ActivePattern, grad_f,
                     multipliers: dict) -> float:
    """Recompute the multiplier equation residual from scratch."""
    r = np.array(grad_f, dtype=float)
    for i in pattern.I_g:
        r += multipliers["lambda_g"][str(i)] * ev.g_grads[i]
    for j in range(ev.dims.p):
        r += multipliers["mu"][str(j)] * ev.h_grads[j]
    for key, val in multipliers["gamma"].items():
        r -= val * ev.G_grads[int(key)]
    for key, val in multipliers["nu"].items():
        r -= val * ev.H_grads[int(key)]
    return float(np.abs(r).max()) if r.size else 0.0


def witness_satisfies(ev: PointEvaluation, pattern: ActivePattern, grad_f,
                      multipliers: dict, cls: str, tol: Tolerances) -> bool:
    """Check a concrete multiplier vector against one class definition.

    Used to confirm class monotonicity on actual witnesses rather than
    through repeated LP solves.  A magnitude at or below activity_eps
    counts as zero.
    """
    if witness_residual(ev, pattern, grad_f, multipliers) > WITNESS_RESIDUAL_SLACK:
        return False
    if any(v < -tol.activity_eps for v in multipliers["lambda_g"].values()):
        return False
    eps = tol.activity_eps
    for i in pattern.I_GH:
        gamma = multipliers["gamma"][str(i)]
        nu = multipliers["nu"][str(i)]
        if cls == "weak":
            continue
        if cls == "C":
            if gamma * nu < -eps * eps:
                return False
        elif cls == "M":
            if not ((gamma > eps and nu > eps) or abs(gamma) <= eps or abs(nu) <= eps):
                return False
        elif cls == "strong":
            if gamma < -eps or nu < -eps:
                return False
    return True


def classify_stationarity(ev: PointEvaluation, pattern: ActivePattern, grad_f,
                          tol: Tolerances,
                          cap: int = DEFAULT_BRANCH_CAP) -> StationarityReport:
    """Decide weak/C/M/strong stationarity and report the strongest class."""
    k = len(pattern.I_GH)
    notes: list[str] = []
    classes = {c: "fails" for c in CLASS_ORDER}

    weak_witness = _solve_system(ev, pattern, grad_f,
                                 {i: ("free", "free") for i in pattern.I_GH})
    if weak_witness is None:
        return StationarityReport("not_stationary", classes, None,
                                  ("multiplier equation infeasible even with free "
                                   "biactive signs",))
    classes["weak"] = "holds"

    # with no biactive pair the strong system is the weak one
    strong_witness = weak_witness if k == 0 else _solve_system(
        ev, pattern, grad_f, {i: ("nonneg", "nonneg") for i in pattern.I_GH})
    if strong_witness is not None:
        for cls in ("M", "C", "weak"):
            if not witness_satisfies(ev, pattern, grad_f, strong_witness, cls, tol):
                raise WitnessVerificationError(
                    f"strong witness does not certify {cls}; monotonicity broken")
        classes.update({"strong": "holds", "M": "holds", "C": "holds"})
        return StationarityReport("strong", classes, strong_witness, tuple(notes))

    if k > cap:
        classes.update({"M": "undecided", "C": "undecided"})
        notes.append(f"biactive count {k} exceeds enumeration cap {cap}; "
                     "M and C undecided")
        return StationarityReport("weak", classes, weak_witness, tuple(notes))

    def search(modes_of):
        """Witness of the first feasible branch; choices in modes_of order."""
        def admit(partial):
            if not partial:  # the root is the weak system
                return weak_witness
            return _solve_system(ev, pattern, grad_f, {
                i: modes_of.get(partial.get(i), ("free", "free")) for i in pattern.I_GH})

        found = first_leaf(pattern.I_GH, tuple(modes_of), admit)
        return None if found is None else found[1]

    m_witness = search({"nonneg": ("nonneg", "nonneg"), "gamma_zero": ("zero", "free"),
                        "nu_zero": ("free", "zero")})
    if m_witness is not None:
        if not witness_satisfies(ev, pattern, grad_f, m_witness, "C", tol):
            # an M witness with a mixed-sign zero pair still certifies C
            raise WitnessVerificationError("M witness does not certify C")
        classes.update({"M": "holds", "C": "holds"})
        return StationarityReport("M", classes, m_witness, tuple(notes))

    c_witness = search({"nonneg": ("nonneg", "nonneg"), "nonpos": ("nonpos", "nonpos")})
    if c_witness is not None:
        classes["C"] = "holds"
        return StationarityReport("C", classes, c_witness, tuple(notes))

    return StationarityReport("weak", classes, weak_witness, tuple(notes))


def verify_kkt_equivalence(ev: PointEvaluation, pattern: ActivePattern, grad_f,
                           tol: Tolerances) -> dict:
    """Strong stationarity versus the plain-NLP KKT system.

    The KKT route treats the complementarity products G_i H_i = 0 as
    ordinary equalities with free multipliers tau_i and keeps G_i >= 0,
    H_i >= 0 as ordinary inequalities with nonnegative multipliers on
    their active sets.  Both routes must agree at every feasible point.
    """
    strong_ok = _solve_system(ev, pattern, grad_f,
                              {i: ("nonneg", "nonneg") for i in pattern.I_GH}) is not None

    n = ev.dims.n
    lp = LinearProgram()
    lam = {i: lp.add_var() for i in pattern.I_g}
    mu = {j: lp.add_var(free=True) for j in range(ev.dims.p)}
    active_G = sorted(set(pattern.I_G) | set(pattern.I_GH))
    active_H = sorted(set(pattern.I_H) | set(pattern.I_GH))
    u = {i: lp.add_var() for i in active_G}
    w = {i: lp.add_var() for i in active_H}
    # product-constraint gradient H_i grad G_i + G_i grad H_i vanishes on
    # the biactive set, so tau is only introduced where it can act
    tau = {i: lp.add_var(free=True)
           for i in sorted(set(pattern.I_G) | set(pattern.I_H))}
    grad_f = np.asarray(grad_f, dtype=float)
    for col in range(n):
        coeffs: dict[int, float] = {}

        def add(var, value):
            if value:
                coeffs[var] = coeffs.get(var, 0.0) + value

        for i in pattern.I_g:
            add(lam[i], float(ev.g_grads[i, col]))
        for j in range(ev.dims.p):
            add(mu[j], float(ev.h_grads[j, col]))
        for i in active_G:
            add(u[i], -float(ev.G_grads[i, col]))
        for i in active_H:
            add(w[i], -float(ev.H_grads[i, col]))
        for i in tau:
            prod_grad = (ev.H_vals[i] * ev.G_grads[i, col]
                         + ev.G_vals[i] * ev.H_grads[i, col])
            add(tau[i], float(prod_grad))
        lp.add_eq(coeffs, -float(grad_f[col]))
    kkt_ok, _, _ = lp.solve()
    return {"strong_feasible": bool(strong_ok), "kkt_feasible": bool(kkt_ok),
            "agree": bool(strong_ok) == bool(kkt_ok)}
