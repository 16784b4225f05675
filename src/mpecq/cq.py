"""Constraint-qualification checks at a feasible MPEC point.

Six checks are provided, each returning a tri-state verdict with a
certificate whenever the verdict is "fails":

  MPEC_LICQ        active-gradient bundle linearly independent
  MPEC_MFCQ_TNLP   bundle positively linearly independent (tightened NLP)
  MPEC_MFCQ_RNLP   MFCQ of the relaxed NLP at the point
  NNAMCQ           no nonzero abnormal multiplier over the biactive sign branches
  MPEC_GMFCQ       direction-based generalized MFCQ over biactive partitions
  MPEC_ACQ_AFFINE  Abadie CQ via the affine shortcut only

NNAMCQ and GMFCQ quantify over 3^k sign branches or partitions of the
k biactive pairs.  Both are searched depth first by `first_leaf`, which
also drives M- and C-stationarity: unassigned pairs stay relaxed, and a
node whose relaxation settles every leaf below it skips its subtree.
On a full-rank bundle, the rank MPEC-LICQ keeps, MFCQ-TNLP,
MFCQ-RNLP, NNAMCQ and GMFCQ all hold with no LP: no combination of
the bundle's rows vanishes, and a GMFCQ node whose rows have full row
rank is certified by that rank alone.  A pair whose G and H rows both
lie outside the span of the other bundle rows (`determined_pairs`,
shared with the stationarity classifier) weighs nothing in any
vanishing combination, so a node that assigns it is settled by its
parent's answer or, in GMFCQ's R, by a direction on its own rows,
without an LP or a rank test, and an NNAMCQ node whose unassigned
pairs are all determined poses its first leaf's system, often
MFCQ-RNLP's.  Where every pair but a few is so determined, both
searches take a fixed number of LPs, whatever k.

The module builds no LP itself.  Short of that rank, MFCQ-TNLP,
MFCQ-RNLP and every NNAMCQ node ask `kernels.null_combination` for a
vanishing combination of their rows; a GMFCQ node asks
`kernels.cone_combination` for the Motzkin alternative of its
direction system.  GMFCQ poses its own
direction systems, so the audited NNAMCQ <=> GMFCQ edge compares two
different computations.

"undecided" occurs only when the biactive count exceeds the branch
cap, when the ACQ shortcut does not apply, or (for the model-specific
theorem checkers elsewhere) when a theorem hypothesis is not
established.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .kernels import cone_combination, null_combination, numerical_rank
from .model import (ActivePattern, GradientBundle, PointEvaluation, Tolerances,
                    gradient_bundle_tnlp)

CQ_NAMES = ("MPEC_LICQ", "MPEC_MFCQ_TNLP", "MPEC_MFCQ_RNLP", "NNAMCQ",
            "MPEC_GMFCQ", "MPEC_ACQ_AFFINE")

DEFAULT_BRANCH_CAP = 12

# audited implication edges: antecedent holds => consequent cannot fail
IMPLICATION_EDGES = (
    ("MPEC_LICQ", "MPEC_MFCQ_TNLP"),
    ("MPEC_MFCQ_TNLP", "MPEC_GMFCQ"),
    ("MPEC_GMFCQ", "NNAMCQ"),
    ("NNAMCQ", "MPEC_GMFCQ"),
    ("MPEC_GMFCQ", "MPEC_MFCQ_RNLP"),
)

# the three closed branches of an M-type biactive pair, as the (gamma, nu)
# modes of `gradient_bundle_tnlp`: both >= 0, gamma = 0, nu = 0
M_BRANCHES = {"nonneg": ("nonneg", "nonneg"), "gamma_zero": ("zero", "free"),
              "nu_zero": ("free", "zero")}


@dataclass(frozen=True)
class CqVerdict:
    name: str
    status: str  # "holds" | "fails" | "undecided"
    certificate: dict | None = None
    notes: tuple = ()

    def to_dict(self) -> dict:
        return {"name": self.name, "status": self.status,
                "certificate": self.certificate, "notes": list(self.notes)}


@dataclass(frozen=True)
class CqReport:
    verdicts: dict
    implication_violations: tuple

    def to_dict(self) -> dict:
        return {"verdicts": {k: v.to_dict() for k, v in self.verdicts.items()},
                "implication_violations": list(self.implication_violations)}


def _witness_cert(coeffs, residual, labels) -> dict:
    return {
        "coefficients": [float(c) for c in coeffs],
        "labels": [list(lab) for lab in labels],
        "residual": residual,
    }


def check_mpec_licq(ev: PointEvaluation, pattern: ActivePattern,
                    tol: Tolerances) -> CqVerdict:
    """Linear independence of the active gradient bundle."""
    bundle = gradient_bundle_tnlp(ev, pattern)
    nrows = bundle.rows.shape[0]
    rr = numerical_rank(bundle.rows, tol.rank_rel_tol)
    if rr.rank == nrows:
        return CqVerdict("MPEC_LICQ", "holds",
                         certificate={"rank": rr.rank, "rows": nrows})
    cert = {
        "rank": rr.rank,
        "rows": nrows,
        "null_witness": [float(w) for w in rr.null_witness],
        "labels": [list(pv) for pv in bundle.provenance],
    }
    return CqVerdict("MPEC_LICQ", "fails", certificate=cert)


def determined_pairs(ev: PointEvaluation, pattern: ActivePattern,
                     tol: Tolerances) -> list:
    """Biactive pairs whose grad G and grad H rows each lie outside the
    span of the other tightened-NLP bundle rows.

    Such a row has zero weight in every vanishing combination of bundle
    rows, up to sign, so its multiplier is the same in every weak
    stationarity solution and it carries nothing in any NNAMCQ or GMFCQ
    certificate.  A row is outside the span when its row of the
    bundle's orthonormal left null basis is at most the rank kernel's
    own cutoff rank_rel_tol * max(rows, cols); the rank call is a kept
    result after MPEC-LICQ.
    """
    bundle = gradient_bundle_tnlp(ev, pattern)
    basis = numerical_rank(bundle.rows, tol.rank_rel_tol).null_basis
    cutoff = tol.rank_rel_tol * max(bundle.rows.shape)
    fixed = np.abs(basis).max(axis=1, initial=0.0) <= cutoff
    row = bundle.provenance.index
    return [i for i in pattern.I_GH if fixed[row(("G", i))] and fixed[row(("H", i))]]


def _null_combination(bundle: GradientBundle, tol: Tolerances):
    """Search a nonzero combination of the bundle rows that vanishes,
    nonnegative on the signed rows and free on the others.

    Returns `null_combination`'s (coefficients, residual) or None, and
    the bundle row each coefficient weighs: the signed rows first, then
    the free ones, each in bundle order.
    """
    return (null_combination(bundle.rows, bundle.signed, tol.rank_rel_tol),
            np.argsort(~bundle.signed, kind="stable"))


def _positive_independence(name: str, bundle: GradientBundle,
                           tol: Tolerances) -> CqVerdict:
    """Fails exactly when `_null_combination` finds a combination.  A
    -grad G or -grad H row is labelled G_inward or H_inward."""
    found, order = _null_combination(bundle, tol)
    if found is None:
        return CqVerdict(name, "holds")
    provenance = [bundle.provenance[r] for r in order]
    labels = [(fam + "_inward", i) if fam in ("G", "H") and sign > 0 else (fam, i)
              for (fam, i), sign in zip(provenance, bundle.signs[order])]
    return CqVerdict(name, "fails", certificate=_witness_cert(*found, labels))


def _full_row_rank(ev: PointEvaluation, pattern: ActivePattern, tol: Tolerances) -> bool:
    """Whether the tightened-NLP bundle has full row rank, the result
    the MPEC-LICQ check keeps.  Then no nonzero combination of its rows
    vanishes, whatever signs or dropped rows a check puts on them."""
    rows = gradient_bundle_tnlp(ev, pattern).rows
    return numerical_rank(rows, tol.rank_rel_tol).rank == len(rows)


def check_mpec_mfcq_t(ev: PointEvaluation, pattern: ActivePattern,
                      tol: Tolerances) -> CqVerdict:
    """Positive linear independence of the tightened-NLP bundle, whose
    only signed rows are the active g rows; it holds without a
    combination query when the bundle has full row rank."""
    if _full_row_rank(ev, pattern, tol):
        return CqVerdict("MPEC_MFCQ_TNLP", "holds")
    return _positive_independence("MPEC_MFCQ_TNLP", gradient_bundle_tnlp(ev, pattern), tol)


def check_mpec_mfcq_r(ev: PointEvaluation, pattern: ActivePattern,
                      tol: Tolerances) -> CqVerdict:
    """MFCQ of the relaxed NLP.

    Active inequalities of the relaxed problem are g_i <= 0 and, on the
    biactive set, G_i >= 0 and H_i >= 0.  Positive linear dependence is
    tested on outward rows, which for the lower bounds are the inward
    normals -grad G_i and -grad H_i: every biactive pair in mode
    'nonneg'.  With no biactive pairs this is the tightened-NLP test.
    These rows are the tightened-NLP bundle's up to sign, so when that
    bundle has full row rank, a memo hit after the LICQ check, no
    combination of them vanishes and MFCQ-R holds without an LP.
    """
    if _full_row_rank(ev, pattern, tol):
        return CqVerdict("MPEC_MFCQ_RNLP", "holds")
    bundle = gradient_bundle_tnlp(ev, pattern,
                                  dict.fromkeys(pattern.I_GH, ("nonneg", "nonneg")))
    return _positive_independence("MPEC_MFCQ_RNLP", bundle, tol)


def first_leaf(pairs, choices, admit):
    """Depth-first search for the first admitted full assignment.

    Pairs are assigned in order, each to one of `choices` in order, and
    the pairs not yet assigned stay relaxed.  `admit(partial)` is called
    at every node with a dict from the assigned prefix of `pairs` to
    their choices; a falsy result skips the node's subtree, so a search
    may return falsy only when no leaf below can be admitted.  Returns
    (assignment, admit value) for the first admitted full assignment in
    lexicographic choice order, or None.  The nodes wait on a stack, the
    children pushed in reverse so the first choice is visited first.
    """
    stack = [{}]
    while stack:
        partial = stack.pop()
        value = admit(partial)
        if not value:
            continue
        if len(partial) == len(pairs):
            return partial, value
        stack.extend({**partial, pairs[len(partial)]: c} for c in reversed(choices))
    return None


def check_nnamcq(ev: PointEvaluation, pattern: ActivePattern, tol: Tolerances,
                 cap: int = DEFAULT_BRANCH_CAP) -> CqVerdict:
    """No nonzero abnormal multiplier condition.

    Each biactive multiplier pair is either both strictly positive or
    has one component at zero.  Per pair that set equals the union of
    three closed branches, both >= 0, gamma = 0 and nu = 0, so the
    condition fails exactly when some branch admits a nonzero
    multiplier vector.  The branches are searched depth first with the
    unassigned pairs free; a node whose relaxation admits no nonzero
    multiplier clears its whole subtree, and the root is the MFCQ-TNLP
    query.  On a full-row-rank bundle no combination vanishes at all,
    so the condition holds at the root without a query.  A determined
    pair (`determined_pairs`) has zero weight in every vanishing
    combination, so an inner node that assigns one admits exactly when
    its parent did and poses no system, and a node whose unassigned
    pairs are all determined admits exactly when its first leaf does,
    those pairs `nonneg`, so it poses that leaf's system; a leaf always
    solves its own, which is the reported certificate.  Each node's
    rows are `gradient_bundle_tnlp` with the pairs' `M_BRANCHES`
    modes, a pinned multiplier's row dropped.  The labels
    lambda_g, lambda_h, lambda_G and lambda_H name the multipliers of
    grad g, grad h, -grad G and -grad H; a pinned multiplier appears in
    `multipliers` only, as 0.0.  The failing branch is reported as read
    off the witness.
    """
    k = len(pattern.I_GH)
    if k > cap:
        return CqVerdict("NNAMCQ", "undecided",
                         notes=(f"biactive count {k} exceeds enumeration cap {cap}",))
    if _full_row_rank(ev, pattern, tol):
        return CqVerdict("NNAMCQ", "holds", certificate={"branches_checked": 3 ** k})

    determined = set(determined_pairs(ev, pattern, tol))
    # the pairs from position `tail` on are all determined
    tail = k
    while tail and pattern.I_GH[tail - 1] in determined:
        tail -= 1

    def admit(partial):
        depth = len(partial)
        if 0 < depth < k and pattern.I_GH[depth - 1] in determined:
            return True  # a determined pair changes no admitted combination
        if depth == tail:  # the first leaf below admits exactly when this node does
            partial = {**partial, **dict.fromkeys(pattern.I_GH[depth:], "nonneg")}
        bundle = gradient_bundle_tnlp(ev, pattern,
                                      {i: M_BRANCHES[c] for i, c in partial.items()})
        found, order = _null_combination(bundle, tol)
        if found is None:
            return None
        coeffs, residual = found
        coeffs = coeffs * bundle.signs[order]
        if not coeffs[:np.count_nonzero(bundle.signed)].any():
            # a dependence among free rows has no sign of its own; keep
            # the rank kernel's positive leading entry
            coeffs *= np.sign(coeffs[np.abs(coeffs) > 1e-12][0])
        labels = [("lambda_" + fam, i) for fam, i in (bundle.provenance[r] for r in order)]
        return coeffs, residual, labels

    found = first_leaf(pattern.I_GH, tuple(M_BRANCHES), admit)
    if found is None:
        return CqVerdict("NNAMCQ", "holds", certificate={"branches_checked": 3 ** k})
    coeffs, residual, labels = found[1]
    cert = _witness_cert(coeffs, residual, labels)
    multipliers: dict = {}
    for (kind, idx), coeff in zip(labels, coeffs):
        multipliers.setdefault(kind, {})[str(idx)] = float(coeff)
    for i, choice in found[0].items():
        for kind, mode in zip(("lambda_G", "lambda_H"), M_BRANCHES[choice]):
            if mode == "zero":
                multipliers.setdefault(kind, {})[str(i)] = 0.0
    eps = tol.activity_eps
    cert["branch"] = {
        str(i): ("gamma_zero" if abs(multipliers["lambda_G"][str(i)]) <= eps
                 else "nu_zero" if abs(multipliers["lambda_H"][str(i)]) <= eps
                 else "both_strict")
        for i in pattern.I_GH}
    cert["multipliers"] = multipliers
    return CqVerdict("NNAMCQ", "fails", certificate=cert)


def _direction_exists(n: int, eq_rows, geq_rows, strict_rows) -> bool:
    """Is there a direction d with eq.d = 0, geq.d >= 0 and strict.d > 0?

    By Motzkin's alternative there is none exactly when eq^T y_E +
    geq^T y_G + strict^T y_S = 0 has a solution with y_G, y_S >= 0 and
    1.y_S = 1, which is `cone_combination` over the rows eq, geq,
    strict.  It returns such a y, or None after verifying a Farkas ray
    (-d, t): eq.d = 0, geq.d >= 0 and strict.d >= t > 0, within the
    kernel's slack, so either answer carries its certificate.
    """
    rows = np.reshape([*eq_rows, *geq_rows, *strict_rows], (-1, n))
    k, ne = len(rows), len(eq_rows)
    return cone_combination(rows, range(ne), range(k - len(strict_rows), k)) is None


def check_mpec_gmfcq(ev: PointEvaluation, pattern: ActivePattern, tol: Tolerances,
                     cap: int = DEFAULT_BRANCH_CAP) -> CqVerdict:
    """Direction-based generalized MFCQ.

    Condition (i): every partition (P, Q, R) of the biactive set with
    R nonempty admits a direction d with grad g.d <= 0 on active g,
    grad h.d = 0, grad G.d = 0 on I_G and Q, grad H.d = 0 on I_H and P,
    grad G.d >= 0 and grad H.d >= 0 on R with at least one strict.

    Condition (ii): for every partition (P, Q) of the biactive set the
    rows {grad h, grad G on I_G+Q, grad H on I_H+P} are linearly
    independent and some direction in their null space strictly
    decreases every active g (vacuous when no g is active).

    Both are searched depth first over the biactive pairs.  An
    unassigned pair keeps grad G.d = 0 and grad H.d = 0, which every
    choice for it admits, so a node whose direction satisfies the
    condition certifies every partition below it and its subtree is
    skipped.  A node is certified without an LP when its rows have full
    row rank: its equality rows, the active g rows and, in (i), the G
    and H rows of its R pairs.  Every leaf below constrains a subset of
    those rows, so some direction gives them any signs.  At the root
    these rows are the tightened-NLP bundle, so MPEC-LICQ settles both
    searches.  An R child in (i) has its parent's rows, whose rank test
    failed, so it skips the test.  In (i) a node that assigns a
    determined pair (`determined_pairs`) needs neither test nor LP: in
    R it is certified by the direction that is 1 on the pair's G and H
    rows and 0 on every other row, which exists because those rows lie
    outside the span of the rest; in P or Q its dropped row weighs
    nothing in any dependence or Motzkin solution, so it is uncertified
    exactly when its parent is.  Otherwise a node of (i) asks for one
    direction (`_direction_exists`): each assigned R row >= 0 and their
    sum > 0.  A leaf still not certified is the failing partition; (i)
    is searched in R, P, Q order, (ii) in P, Q order.
    """
    k = len(pattern.I_GH)
    if k > cap:
        return CqVerdict("MPEC_GMFCQ", "undecided",
                         notes=(f"biactive count {k} exceeds enumeration cap {cap}",))
    n = ev.dims.n
    g_rows = ev.g_grads[list(pattern.I_g)]
    g_neg = -g_rows

    def side(partial, *choices):
        return [i for i in pattern.I_GH if partial.get(i) in choices]

    def eq_rows(partial):
        # grad h; grad G on I_G, Q and unassigned; grad H on I_H, P and unassigned
        return np.concatenate([
            ev.h_grads,
            ev.G_grads[sorted((*pattern.I_G, *side(partial, "Q", None)))],
            ev.H_grads[sorted((*pattern.I_H, *side(partial, "P", None)))]])

    def full_rank(*blocks):
        # g rows first: at the root these are the tightened-NLP bundle
        # rows in bundle order, which the LICQ check has factored
        rows = np.concatenate(blocks)
        return not len(rows) or numerical_rank(rows, tol.rank_rel_tol).rank == len(rows)

    # computed at the first child, so a root certified by rank never needs it
    determined = functools.cache(lambda: set(determined_pairs(ev, pattern, tol)))

    def uncertified_i(partial):
        R = side(partial, "R")
        if not R and len(partial) == k:  # a leaf without R is exempt
            return False
        if partial and (pair := pattern.I_GH[len(partial) - 1]) in determined():
            return partial[pair] != "R"  # R is certified, P and Q are as the parent
        cone = np.concatenate([ev.G_grads[R], ev.H_grads[R]])
        eq = eq_rows(partial)
        # the pair just put in R moved its G and H rows from eq to cone
        r_child = partial and partial[pattern.I_GH[len(partial) - 1]] == "R"
        if not r_child and full_rank(g_rows, eq, cone):
            return False
        if not R:  # nothing to certify yet
            return True
        return not _direction_exists(n, eq, np.concatenate([g_neg, cone]),
                                     [np.sum(cone, axis=0)])

    found = first_leaf(pattern.I_GH, ("R", "P", "Q"), uncertified_i)
    if found is not None:
        partial = found[0]
        return CqVerdict("MPEC_GMFCQ", "fails", certificate={
            "condition": "i", "P": side(partial, "P"), "Q": side(partial, "Q"),
            "R": side(partial, "R"),
            "detail": "no direction enters the biactive cone strictly"})

    def uncertified_ii(partial):
        eq = eq_rows(partial)
        if full_rank(g_rows, eq):
            return None
        if len(eq):
            rr = numerical_rank(eq, tol.rank_rel_tol)
            if rr.rank < len(eq):
                return {"condition": "ii-independence",
                        "null_witness": [float(w) for w in rr.null_witness]}
        if pattern.I_g and not _direction_exists(n, eq, [], g_neg):
            return {"condition": "ii-direction",
                    "detail": "no null-space direction strictly decreases all active g"}
        return None

    found = first_leaf(pattern.I_GH, ("P", "Q"), uncertified_ii)
    if found is not None:
        partial, failure = found
        return CqVerdict("MPEC_GMFCQ", "fails", certificate={
            "P": side(partial, "P"), "Q": side(partial, "Q"), **failure})

    return CqVerdict("MPEC_GMFCQ", "holds",
                     certificate={"partitions_i": 3 ** k - 2 ** k,
                                  "partitions_ii": 2 ** k})


def check_acq_affine(is_affine: bool | None) -> CqVerdict:
    """Abadie CQ via the affine shortcut.

    Affine constraint data makes the linearized and the actual tangent
    cone coincide, so the CQ holds at every feasible point.  For
    nonlinear or unknown instances the verdict is undecided; no tangent
    cone computation is attempted.
    """
    if is_affine is True:
        return CqVerdict("MPEC_ACQ_AFFINE", "holds",
                         notes=("all constraints affine",))
    return CqVerdict("MPEC_ACQ_AFFINE", "undecided",
                     notes=("affine shortcut not applicable",))


def audit_implications(verdicts: dict) -> tuple:
    """Check the implication lattice on decided verdicts.

    An edge is violated when the antecedent holds and the consequent
    fails; undecided verdicts never violate anything.
    """
    violations = []
    for ante, cons in IMPLICATION_EDGES:
        va = verdicts.get(ante)
        vc = verdicts.get(cons)
        if va is not None and vc is not None:
            if va.status == "holds" and vc.status == "fails":
                violations.append(f"{ante} holds but {cons} fails")
    return tuple(violations)


def run_all_checks(ev: PointEvaluation, pattern: ActivePattern, tol: Tolerances,
                   cap: int = DEFAULT_BRANCH_CAP,
                   is_affine: bool | None = None) -> CqReport:
    """Run the six checks and audit the implication lattice."""
    verdicts = {
        "MPEC_LICQ": check_mpec_licq(ev, pattern, tol),
        "MPEC_MFCQ_TNLP": check_mpec_mfcq_t(ev, pattern, tol),
        "MPEC_MFCQ_RNLP": check_mpec_mfcq_r(ev, pattern, tol),
        "NNAMCQ": check_nnamcq(ev, pattern, tol, cap),
        "MPEC_GMFCQ": check_mpec_gmfcq(ev, pattern, tol, cap),
        "MPEC_ACQ_AFFINE": check_acq_affine(is_affine),
    }
    return CqReport(verdicts, audit_implications(verdicts))
