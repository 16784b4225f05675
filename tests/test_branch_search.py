"""The pruned depth-first branch search against the exhaustive oracles.

NNAMCQ, GMFCQ and M/C-stationarity quantify over sign branches or
partitions of the biactive set.  The package searches them depth first
with pruning (`cq.first_leaf`); `_oracles` keeps the exhaustive
one-LP-per-branch enumerators with strict-margin LPs.  Verdicts and the
strongest class must agree everywhere, and the search must stay cheap
where the exhaustive one is exponential.
"""

import gc
import json
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mpecq import (BhoInstance, BhoPoint, MpecDimensions, PointEvaluation,
                   Tolerances, check_mpec_gmfcq, check_nnamcq,
                   classify_active, classify_stationarity, cq, fold_knots,
                   gen_bho_case, kernels, run_all_checks, stationarity,
                   to_evaluation)
from mpecq.cq import DEFAULT_BRANCH_CAP, _direction_exists, first_leaf
from mpecq.fixtures import all_fixtures
from mpecq.fuzz import FORCE_MODES
from mpecq.stationarity import CLASS_ORDER
from _oracles import (STRICT_MARGIN, direction_margin, gmfcq_oracle,
                      gmfcq_oracle_failure, nnamcq_oracle, rational_rank,
                      stationarity_oracle)
from _svc import svc_instance, svc_point
from conftest import FUZZ_POINTS, FUZZ_SEED, PINNED_TOL

TOL = Tolerances()
GOLDEN = pathlib.Path(__file__).parent / "golden"


def biactive_point(k, family, rng=None):
    """Affine point at the origin with k biactive pairs and one active g.

    n = 2k+3; g, G_i and H_i lie on distinct coordinate axes, so the
    active bundle has full rank and every CQ holds.  `family == "fails"`
    sets grad H_0 = -grad G_0, which makes every CQ but ACQ fail.
    grad_f forces gamma_i < 0 and nu_i < 0, so C is the strongest class
    (strong when k = 1 in `fails`, where gamma_0 = nu_0 is free).  With
    `rng`, positive row scales and a signed coordinate permutation are
    drawn; neither changes a verdict.
    """
    n = 2 * k + 3
    base = np.eye(n)
    g, G, H = base[0:1], base[1:2 * k + 1:2].copy(), base[2:2 * k + 2:2].copy()
    if family == "fails":
        H[0] = -G[0]
    grad_f = -g[0] - G.sum(axis=0) - H.sum(axis=0)
    if rng is not None:
        scale = rng.uniform(0.5, 2.0, size=2 * k + 1)
        g, G, H = g * scale[0], G * scale[1:k + 1, None], H * scale[k + 1:, None]
        P = np.eye(n)[rng.permutation(n)] * rng.choice([-1.0, 1.0], size=n)
        g, G, H, grad_f = g @ P, G @ P, H @ P, grad_f @ P
    ev = PointEvaluation(MpecDimensions(n, 1, 0, k), np.zeros(n), np.zeros(1),
                         np.zeros(0), np.zeros(k), np.zeros(k), g,
                         np.zeros((0, n)), G, H)
    return ev, grad_f


def integer_point(seed, k):
    """Integer gradients in [-2, 2] with k biactive pairs, up to two active
    g, one h and one pair active on one side only."""
    rng = np.random.default_rng(seed)
    n, m, p = int(rng.integers(2, 7)), int(rng.integers(0, 3)), int(rng.integers(0, 2))
    sides = [int(rng.integers(0, 2)) for _ in range(int(rng.integers(0, 2)))]
    l = k + len(sides)
    G_vals = np.array([0.0] * k + [0.0 if s == 0 else 1.0 for s in sides])
    H_vals = np.array([0.0] * k + [0.0 if s == 1 else 1.0 for s in sides])

    def grads(rows):
        return rng.integers(-2, 3, size=(rows, n)).astype(float)

    ev = PointEvaluation(MpecDimensions(n, m, p, l), np.zeros(n), np.zeros(m),
                         np.zeros(p), G_vals, H_vals, grads(m), grads(p),
                         grads(l), grads(l))
    return ev, grads(1)[0]


def assert_matches_oracles(ev, grad_f):
    pattern = classify_active(ev, TOL)
    nnamcq = check_nnamcq(ev, pattern, TOL)
    assert nnamcq.status == nnamcq_oracle(ev, pattern, TOL)
    gmfcq = check_mpec_gmfcq(ev, pattern, TOL)
    cert = gmfcq.certificate or {}
    assert (gmfcq.status, cert.get("condition")) == gmfcq_oracle(ev, pattern, TOL)
    stat = classify_stationarity(ev, pattern, grad_f, TOL)
    assert stat.strongest == stationarity_oracle(ev, pattern, grad_f, TOL)
    if nnamcq.status == "fails":
        assert_branch_labels_hold(nnamcq.certificate, TOL.activity_eps)


def assert_branch_labels_hold(cert, eps):
    """Every NNAMCQ branch label is true of the witness it comes with."""
    mult = cert["multipliers"]
    for i, label in cert["branch"].items():
        gamma, nu = mult["lambda_G"][i], mult["lambda_H"][i]
        if label == "gamma_zero":
            assert abs(gamma) <= eps
        elif label == "nu_zero":
            assert abs(nu) <= eps
        else:
            assert label == "both_strict" and gamma > eps and nu > eps


def test_first_leaf_prunes_subtrees_in_order():
    visited = []

    def admit(partial):
        visited.append(dict(partial))
        return partial.get(0) != "a"

    assert first_leaf((0, 1), ("a", "b"), admit) == ({0: "b", 1: "a"}, True)
    assert visited == [{}, {0: "a"}, {0: "b"}, {0: "b", 1: "a"}]
    assert first_leaf((0, 1), ("a", "b"), lambda partial: len(partial) < 2) is None


@pytest.mark.parametrize("fx", all_fixtures(), ids=lambda fx: fx.name)
def test_fixtures_match_oracles(fx):
    assert_matches_oracles(fx.evaluation, fx.grad_f)


@pytest.mark.parametrize("family", ["holds", "fails"])
@pytest.mark.parametrize("k", range(1, 7))
def test_constructed_families_match_oracles(k, family):
    ev, grad_f = biactive_point(k, family, np.random.default_rng([k, len(family)]))
    assert_matches_oracles(ev, grad_f)


@given(st.integers(0, 2 ** 31 - 1), st.integers(1, 4))
@settings(max_examples=60, deadline=None)
def test_integer_points_match_oracles(seed, k):
    ev, grad_f = integer_point(seed, k)
    assert_matches_oracles(ev, grad_f)


def test_search_cost_stays_polynomial_where_enumeration_explodes(monkeypatch):
    # k = 10 is 59049 branches for the exhaustive NNAMCQ enumeration
    k = 10
    calls = []
    solve = kernels.LinearProgram.solve
    monkeypatch.setattr(kernels.LinearProgram, "solve",
                        lambda self: calls.append(1) or solve(self))
    ev, grad_f = biactive_point(k, "holds")
    pattern = classify_active(ev, TOL)

    def lps(run):
        calls.clear()
        result = run()
        return result, len(calls)

    nnamcq, n_lps = lps(lambda: check_nnamcq(ev, pattern, TOL))
    assert nnamcq.status == "holds" and n_lps <= 1
    assert nnamcq.certificate == {"branches_checked": 3 ** k}
    stat, s_lps = lps(lambda: classify_stationarity(ev, pattern, grad_f, TOL))
    assert stat.strongest == "C" and s_lps <= 2 * k + 5
    gmfcq, g_lps = lps(lambda: check_mpec_gmfcq(ev, pattern, TOL))
    assert gmfcq.status == "holds" and g_lps <= 2 ** k + 2
    assert gmfcq.certificate == {"partitions_i": 3 ** k - 2 ** k,
                                 "partitions_ii": 2 ** k}


def test_degenerate_node_lp_from_fuzz_corpus():
    # a gh3 point of an earlier fuzz corpus, made by rescaling a training
    # row, kept as an {instance, point} record: the GMFCQ (i) direction
    # system of the node that puts the one biactive pair in R is fully
    # degenerate, and the dense simplex that once decided it pivoted on
    # rounding noise there.  The bundle has full rank, so GMFCQ itself
    # certifies the node by rank and the system is posed here on the
    # node's rows.
    record = json.loads((GOLDEN / "fuzz_gh3_degenerate_node.json").read_text())
    ev = to_evaluation(BhoInstance.from_dict(record["instance"]),
                       BhoPoint.from_dict(record["point"]))
    pattern = classify_active(ev, PINNED_TOL)
    assert ev.dims.m == ev.dims.p == 0 and len(pattern.I_GH) == 1
    i = pattern.I_GH[0]
    eq = [ev.G_grads[j] for j in pattern.I_G] + [ev.H_grads[j] for j in pattern.I_H]
    cone = [ev.G_grads[i], ev.H_grads[i]]
    strict = [np.sum(cone, axis=0)]
    assert _direction_exists(ev.dims.n, eq, cone, strict)
    assert direction_margin(ev.dims.n, eq, cone, strict) >= STRICT_MARGIN
    assert check_mpec_gmfcq(ev, pattern, PINNED_TOL).status == "holds"
    assert gmfcq_oracle(ev, pattern, PINNED_TOL) == ("holds", None)


def deficient_point(seed, k):
    """`integer_point` with one biactive G or H row replaced by a copy or
    negation of another active row, so the tightened-NLP bundle loses
    rank.  grad_f is an integer combination of the active rows with
    lambda >= 0, so the weak system is solvable."""
    ev, _ = integer_point(seed, k)
    rng = np.random.default_rng([seed, k])
    record = ev.to_dict()
    pattern = classify_active(ev, TOL)
    active = ([("g_grads", i) for i in pattern.I_g] + [("h_grads", j) for j in range(ev.dims.p)]
              + [("G_grads", i) for i in (*pattern.I_G, *pattern.I_GH)]
              + [("H_grads", i) for i in (*pattern.I_H, *pattern.I_GH)])
    target = ("G_grads" if rng.integers(0, 2) else "H_grads", int(rng.integers(0, k)))
    sources = [row for row in active if row != target]
    family, index = sources[int(rng.integers(0, len(sources)))]
    sign = rng.choice([-1.0, 1.0])
    record[target[0]][target[1]] = [sign * v for v in record[family][index]]
    ev = PointEvaluation.from_dict(record)
    grad_f = np.zeros(ev.dims.n)
    for family, index in active:
        low = 0 if family == "g_grads" else -2
        sign = -1.0 if family in ("g_grads", "h_grads") else 1.0
        grad_f += sign * int(rng.integers(low, 3)) * np.asarray(record[family][index])
    return ev, grad_f


def assert_matches_oracles_in_detail(ev, grad_f, tol=TOL):
    """Verdicts, GMFCQ's failing partition and every stationarity class
    equal what the exhaustive oracles give."""
    pattern = classify_active(ev, tol)
    assert check_nnamcq(ev, pattern, tol).status == nnamcq_oracle(ev, pattern, tol)
    gmfcq = check_mpec_gmfcq(ev, pattern, tol)
    failure = gmfcq_oracle_failure(ev, pattern, tol)
    if failure is None:
        assert gmfcq.status == "holds"
    else:
        cert = gmfcq.certificate
        assert gmfcq.status == "fails"
        assert (cert["condition"], cert["P"], cert["Q"], cert.get("R", [])) == failure
    assert_classes_match_oracle(ev, pattern, grad_f, tol)


def assert_classes_match_oracle(ev, pattern, grad_f, tol=TOL):
    """The strongest class and every class equal what the exhaustive
    stationarity oracle gives."""
    stat = classify_stationarity(ev, pattern, grad_f, tol)
    strongest = stationarity_oracle(ev, pattern, grad_f, tol)
    assert stat.strongest == strongest
    held = CLASS_ORDER[CLASS_ORDER.index(strongest):] if strongest in CLASS_ORDER else ()
    assert stat.classes == {c: "holds" if c in held else "fails" for c in CLASS_ORDER}


@pytest.mark.parametrize("k", range(1, 5))
def test_fails_family_matches_oracles_in_detail(k):
    ev, grad_f = biactive_point(k, "fails", np.random.default_rng([k, 5]))
    assert_matches_oracles_in_detail(ev, grad_f)


@pytest.mark.parametrize("family", ["holds", "fails"])
@pytest.mark.parametrize("k", range(1, 8))
def test_biactive_records_match_the_stationarity_oracle(k, family):
    # the first draw of perfbench's biactive sweep at seed 0; the oracle
    # enumerates all 3^k M and 2^k C branches
    j = ("holds", "fails").index(family)
    ev, grad_f = biactive_point(k, family, np.random.default_rng([0, 0, k, j]))
    assert_classes_match_oracle(ev, classify_active(ev, TOL), grad_f)


@pytest.mark.parametrize("index, knot_count", [(1, 98), (4, 82), (7, 87)])
def test_fold_knots_match_oracles_in_detail(index, knot_count):
    inst = svc_instance(index)
    knots = sorted({float(C) for t in range(inst.T) for C in fold_knots(inst, t)
                    if C < 100.0})
    assert len(knots) == knot_count
    for C in knots:
        ev, _, grad_f = svc_point(index, C, inst)
        assert_matches_oracles_in_detail(ev, grad_f)


@pytest.mark.parametrize("k", [1, 4, 7])
def test_gmfcq_r_children_skip_the_rank_test(k, monkeypatch):
    # an R child has its parent's rows, whose rank test failed, and in the
    # fails family every pair but pair 0 is determined, so no child runs a
    # rank test: the calls are the root's test and `determined_pairs`'s,
    # a kept result
    calls = []
    rank = cq.numerical_rank
    monkeypatch.setattr(cq, "numerical_rank",
                        lambda *args, **kw: calls.append(1) or rank(*args, **kw))
    ev, _ = biactive_point(k, "fails", np.random.default_rng([k, 5]))
    gmfcq = check_mpec_gmfcq(ev, classify_active(ev, TOL), TOL)
    assert gmfcq.status == "fails" and gmfcq.certificate["condition"] == "i"
    assert len(calls) == 2


def counting(log, function):
    return lambda *args: log.append(1) or function(*args)


def test_fails_family_search_cost_is_flat_in_k(monkeypatch):
    # every pair but pair 0 is determined, so NNAMCQ and GMFCQ assign it
    # without a solve or a factorization, and NNAMCQ's node {0: nonneg}
    # poses its first leaf's system, whose answer the leaf gets back;
    # both are counted below the kept results, so a kept answer counts
    # as neither
    solves, factorizations = [], []
    monkeypatch.setattr(kernels, "_nnls", counting(solves, kernels._nnls))
    monkeypatch.setattr(kernels, "_presolved_rank",
                        counting(factorizations, kernels._presolved_rank))
    for k in range(2, 11):
        ev, _ = biactive_point(k, "fails")
        pattern = classify_active(ev, TOL)
        kernels._recent_results.clear()
        kernels._recent_answers.clear()
        del solves[:], factorizations[:]
        assert check_nnamcq(ev, pattern, TOL).status == "fails"
        assert check_mpec_gmfcq(ev, pattern, TOL).status == "fails"
        assert (len(solves), len(factorizations)) == (2, 2), k


@pytest.mark.parametrize("family", ["holds", "fails"])
@pytest.mark.parametrize("k", [1, 4, 7])
def test_checks_leave_no_cyclic_garbage(k, family):
    # a reference cycle waits for the cyclic collector, whose pass then
    # lands on whichever later call happens to allocate
    ev, grad_f = biactive_point(k, family, np.random.default_rng([k, 5]))
    pattern = classify_active(ev, TOL)
    gc.collect()
    gc.disable()
    try:
        run_all_checks(ev, pattern, TOL, is_affine=True)
        classify_stationarity(ev, pattern, grad_f, TOL)
        assert gc.collect() == 0
    finally:
        gc.enable()


@given(st.integers(0, 2 ** 31 - 1), st.integers(1, 4))
@settings(max_examples=60, deadline=None)
def test_rank_deficient_integer_points_match_oracles_in_detail(seed, k):
    ev, grad_f = deficient_point(seed, k)
    pattern = classify_active(ev, TOL)
    bundle = np.vstack([ev.g_grads[list(pattern.I_g)], ev.h_grads,
                        ev.G_grads[list(pattern.I_G + pattern.I_GH)],
                        ev.H_grads[list(pattern.I_H + pattern.I_GH)]])
    assert rational_rank(bundle) < bundle.shape[0]
    assert_matches_oracles_in_detail(ev, grad_f)


def forced_corpus_points(mode):
    """(ev, grad_f) of the acceptance corpus's forced SVC cases of one
    mode, drawn as run_fuzz does."""
    n_forced = max(50, FUZZ_POINTS // 4)
    quota, extra = divmod(n_forced, len(FORCE_MODES))
    takes = [quota + (1 if j < extra else 0) for j in range(len(FORCE_MODES))]
    first = sum(takes[:FORCE_MODES.index(mode)])
    children = np.random.SeedSequence(FUZZ_SEED).spawn(3)[2].spawn(n_forced)
    for child in children[first:first + takes[FORCE_MODES.index(mode)]]:
        case = gen_bho_case(np.random.default_rng(child), mode, PINNED_TOL)
        yield to_evaluation(case.instance, case.point), case.instance.grad_f


@pytest.mark.parametrize("mode", ["gh3", "gh4", "multi", "ahat0"])
def test_fuzz_corpus_biactive_points_match_oracles(mode):
    for ev, grad_f in forced_corpus_points(mode):
        assert classify_active(ev, PINNED_TOL).I_GH
        assert_matches_oracles_in_detail(ev, grad_f, PINNED_TOL)


def differential_points(source):
    """(ev, grad_f, tol) of one source of the determined-pair differential."""
    if source == "fixtures":
        return [(fx.evaluation, fx.grad_f, TOL) for fx in all_fixtures()]
    if source == "biactive_records":
        # the 84 points that perfbench's biactive sweep draws at seed 0
        return [(*biactive_point(k, family, np.random.default_rng([0, draw, k, j])), TOL)
                for draw in range(6) for j, family in enumerate(("holds", "fails"))
                for k in range(1, 8)]
    if source in ("integer", "deficient"):
        draw = integer_point if source == "integer" else deficient_point
        return [(*draw(seed, k), TOL) for seed in range(40) for k in range(1, 5)]
    if source == "knots":
        # every fourth fold knot below C = 100, fold by fold (71 points)
        points = []
        for index in (1, 4, 7):
            inst = svc_instance(index)
            for t in range(inst.T):
                for C in [C for C in fold_knots(inst, t) if C < 100.0][::4]:
                    ev, _, grad_f = svc_point(index, float(C), inst)
                    points.append((ev, grad_f, TOL))
        assert len(points) == 71
        return points
    return [(ev, grad_f, PINNED_TOL) for mode in ("gh3", "gh4", "multi")
            for ev, grad_f in forced_corpus_points(mode)]


@pytest.mark.parametrize("source", ["fixtures", "biactive_records", "integer",
                                    "deficient", "corpus", "knots"])
def test_determined_pair_rule_changes_no_report(source, monkeypatch):
    # the rule settles a determined pair's nodes without a system of their
    # own; with it disabled every node solves one.  NNAMCQ and GMFCQ
    # verdicts and certificates must not change, nor the stationarity
    # classes.  Without the rule the classifier solves other systems, so
    # its witness may move by rounding (8.9e-16 on one deficient draw,
    # 1.6e-14 relative at one knot).
    def outcome(ev, grad_f, tol):
        pattern = classify_active(ev, tol)
        return (check_nnamcq(ev, pattern, tol).to_dict(),
                check_mpec_gmfcq(ev, pattern, tol).to_dict(),
                classify_stationarity(ev, pattern, grad_f, tol).to_dict())

    points = differential_points(source)
    with_rule = [outcome(*point) for point in points]
    for module in (cq, stationarity):
        monkeypatch.setattr(module, "determined_pairs", lambda *args: [])
    for point, (nnamcq, gmfcq, report) in zip(points, with_rule):
        new_nnamcq, new_gmfcq, new_report = outcome(*point)
        assert (new_nnamcq, new_gmfcq) == (nnamcq, gmfcq)
        witness, new_witness = report.pop("witness"), new_report.pop("witness")
        assert new_report == report
        assert (new_witness is None) == (witness is None)
        for family in ("lambda_g", "mu", "gamma", "nu") if witness else ():
            assert new_witness[family].keys() == witness[family].keys()
            for key, x in witness[family].items():
                assert abs(new_witness[family][key] - x) <= 1e-12 * max(1.0, abs(x))


def test_full_rank_bundle_needs_no_branch_lps(monkeypatch):
    # MPEC-LICQ at k = 10: GMFCQ is certified by the bundle's rank and the
    # unique multipliers decide every stationarity class
    k = 10
    calls = []
    solve = kernels.LinearProgram.solve
    monkeypatch.setattr(kernels.LinearProgram, "solve",
                        lambda self, *args, **kw: calls.append(1) or solve(self, *args, **kw))
    ev, grad_f = biactive_point(k, "holds")
    pattern = classify_active(ev, TOL)

    def lps(run):
        calls.clear()
        return run(), len(calls)

    gmfcq, g_lps = lps(lambda: check_mpec_gmfcq(ev, pattern, TOL))
    assert gmfcq.status == "holds" and g_lps == 0
    assert gmfcq.certificate == {"partitions_i": 3 ** k - 2 ** k,
                                 "partitions_ii": 2 ** k}
    stat, s_lps = lps(lambda: classify_stationarity(ev, pattern, grad_f, TOL))
    assert stat.strongest == "C" and s_lps == 1
    nnamcq, n_lps = lps(lambda: check_nnamcq(ev, pattern, TOL))
    assert nnamcq.status == "holds" and n_lps == 0
    assert nnamcq.certificate == {"branches_checked": 3 ** k}


# (systems posed, NNLS runs, factorizations) per check at k = 7, in
# `run_all_checks` order, then the classifier; the last two are counted
# below the kept results, so a kept answer counts as a system only
K7_COUNTS = {
    # a full-rank bundle: every CQ holds by the rank LICQ keeps, and the
    # unique multipliers decide every class
    "holds": {"MPEC_LICQ": (0, 0, 1), "stationarity": (1, 1, 0)},
    # the MFCQ-TNLP dependence is the free rows' rank; NNAMCQ's node
    # {0: nonneg} poses its first leaf's system, MFCQ-RNLP's, and the leaf
    # gets the same kept answer; the weak witness meets C
    "fails": {"MPEC_LICQ": (0, 0, 1), "MPEC_MFCQ_TNLP": (0, 0, 1),
              "MPEC_MFCQ_RNLP": (1, 1, 0), "NNAMCQ": (2, 0, 0),
              "MPEC_GMFCQ": (1, 1, 0), "stationarity": (1, 1, 0)},
}


@pytest.mark.parametrize("family", ["holds", "fails"])
def test_lp_counts_at_k7(family, monkeypatch):
    counts = {}
    stage = [None]

    def count(position, function):
        def counted(*args):
            tally = counts.setdefault(stage[0], [0, 0, 0])
            tally[position] += 1
            return function(*args)
        return counted

    monkeypatch.setattr(kernels.LinearProgram, "solve", count(0, kernels.LinearProgram.solve))
    monkeypatch.setattr(kernels, "_nnls", count(1, kernels._nnls))
    monkeypatch.setattr(kernels, "_presolved_rank", count(2, kernels._presolved_rank))
    ev, grad_f = biactive_point(7, family, np.random.default_rng([7, 5]))
    pattern = classify_active(ev, TOL)
    kernels._recent_results.clear()
    kernels._recent_answers.clear()
    for stage[0], check in (("MPEC_LICQ", cq.check_mpec_licq),
                            ("MPEC_MFCQ_TNLP", cq.check_mpec_mfcq_t),
                            ("MPEC_MFCQ_RNLP", cq.check_mpec_mfcq_r),
                            ("NNAMCQ", check_nnamcq), ("MPEC_GMFCQ", check_mpec_gmfcq)):
        assert check(ev, pattern, TOL).status == family
    stage[0] = "stationarity"
    assert classify_stationarity(ev, pattern, grad_f, TOL).strongest == "C"
    assert {name: tuple(tally) for name, tally in counts.items()} == K7_COUNTS[family]


def test_biactive_count_above_the_cap_stays_undecided():
    k = DEFAULT_BRANCH_CAP + 1
    ev, grad_f = biactive_point(k, "holds")
    pattern = classify_active(ev, TOL)
    assert check_nnamcq(ev, pattern, TOL).status == "undecided"
    assert check_mpec_gmfcq(ev, pattern, TOL).status == "undecided"
    stat = classify_stationarity(ev, pattern, grad_f, TOL)
    assert stat.strongest == "weak"
    assert stat.classes == {"strong": "fails", "M": "undecided", "C": "undecided",
                            "weak": "holds"}
