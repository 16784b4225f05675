"""Stationarity classification and multiplier-form equivalence tests."""

import itertools

import numpy as np
import pytest

from mpecq import (MpecDimensions, PointEvaluation, Tolerances, classify_active,
                   classify_stationarity, cq, fold_knots, gradient_bundle_tnlp,
                   kernels, model, run_all_checks, verify_kkt_equivalence,
                   witness_residual, witness_satisfies)
from mpecq.fixtures import all_fixtures, fixture_e1, fixture_e2, fixture_e3
from mpecq.stationarity import CLASS_ORDER
from _oracles import svd_rank
from _svc import C_GRID, svc_instance, svc_point
from test_branch_search import biactive_point

TOL = Tolerances()


def one_pair_point(grad_f):
    """Single biactive pair with axis gradients: multipliers are unique."""
    ev = PointEvaluation(MpecDimensions(2, 0, 0, 1), np.zeros(2),
                         np.zeros(0), np.zeros(0), np.zeros(1), np.zeros(1),
                         np.zeros((0, 2)), np.zeros((0, 2)),
                         np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]]))
    return ev, classify_active(ev, TOL), np.asarray(grad_f, dtype=float)


class TestFixtureStationarity:
    def test_e1_strong_with_unit_multipliers(self):
        fx = fixture_e1()
        pattern = classify_active(fx.evaluation, TOL)
        report = classify_stationarity(fx.evaluation, pattern, fx.grad_f, TOL)
        assert report.strongest == "strong"
        w = report.witness
        assert w["gamma"]["0"] == pytest.approx(1.0, abs=1e-9)
        assert w["nu"]["0"] == pytest.approx(1.0, abs=1e-9)
        assert w["residual"] <= 1e-9

    def test_e2_strong_witness_is_valid(self):
        fx = fixture_e2()
        pattern = classify_active(fx.evaluation, TOL)
        report = classify_stationarity(fx.evaluation, pattern, fx.grad_f, TOL)
        assert report.strongest == "strong"
        assert report.classes == {"weak": "holds", "C": "holds",
                                  "M": "holds", "strong": "holds"}
        # multiple vertices solve this system; assert validity, not values
        assert report.witness["residual"] <= 1e-6
        for cls in ("strong", "M", "C", "weak"):
            assert witness_satisfies(fx.evaluation, pattern, fx.grad_f,
                                     report.witness, cls, TOL)

    def test_e3_strong(self):
        fx = fixture_e3()
        pattern = classify_active(fx.evaluation, TOL)
        report = classify_stationarity(fx.evaluation, pattern, fx.grad_f, TOL)
        assert report.strongest == "strong"


class TestClassSeparation:
    """Axis-gradient pair: gamma = grad_f[0], nu = grad_f[1], uniquely."""

    def test_strong_point(self):
        ev, pattern, gf = one_pair_point([1.0, 2.0])
        assert classify_stationarity(ev, pattern, gf, TOL).strongest == "strong"

    def test_m_but_not_strong(self):
        ev, pattern, gf = one_pair_point([-1.0, 0.0])
        report = classify_stationarity(ev, pattern, gf, TOL)
        assert report.strongest == "M"
        assert report.classes["strong"] == "fails"

    def test_c_but_not_m(self):
        ev, pattern, gf = one_pair_point([-1.0, -1.0])
        report = classify_stationarity(ev, pattern, gf, TOL)
        assert report.strongest == "C"
        assert report.classes["M"] == "fails"
        assert report.classes["weak"] == "holds"

    def test_weak_but_not_c(self):
        ev, pattern, gf = one_pair_point([-1.0, 1.0])
        report = classify_stationarity(ev, pattern, gf, TOL)
        assert report.strongest == "weak"
        assert report.classes["C"] == "fails"

    def test_not_stationary(self):
        # H = v2 active, G inactive: gamma pinned to 0, nu free, but
        # grad_f has a component outside span(grad_H)
        ev = PointEvaluation(MpecDimensions(2, 0, 0, 1), np.zeros(2),
                             np.zeros(0), np.zeros(0), np.array([1.0]),
                             np.zeros(1), np.zeros((0, 2)), np.zeros((0, 2)),
                             np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]]))
        pattern = classify_active(ev, TOL)
        report = classify_stationarity(ev, pattern, np.array([1.0, 0.0]), TOL)
        assert report.strongest == "not_stationary"
        assert set(report.classes.values()) == {"fails"}
        assert report.witness is None


class TestLpCount:
    """Without a biactive pair, or with unique multipliers, the weak
    system is the only one solved."""

    @pytest.fixture
    def lps(self, monkeypatch):
        # counts multiplier systems, whichever route decides them
        calls = []
        solve = kernels.LinearProgram.solve
        monkeypatch.setattr(kernels.LinearProgram, "solve",
                            lambda self, *args, **kw: calls.append(1) or solve(self, *args, **kw))
        return calls

    def test_one_lp_without_biactive_pairs(self, lps):
        # G = v1 active, H = v2 inactive: gamma free, nu pinned to 0
        ev = PointEvaluation(MpecDimensions(2, 1, 0, 1), np.zeros(2),
                             np.zeros(1), np.zeros(0), np.zeros(1),
                             np.array([1.0]), np.array([[0.0, -1.0]]),
                             np.zeros((0, 2)), np.array([[1.0, 0.0]]),
                             np.array([[0.0, 1.0]]))
        pattern = classify_active(ev, TOL)
        assert pattern.I_GH == () and pattern.I_G == (0,)
        gf = np.array([-2.0, 3.0])
        report = classify_stationarity(ev, pattern, gf, TOL)
        assert len(lps) == 1
        assert report.strongest == "strong"
        assert report.witness["gamma"] == {"0": -2.0}
        assert report.witness["lambda_g"] == {"0": 3.0}

    def test_strong_lp_runs_with_a_biactive_pair(self, lps):
        # grad H = -grad G: only gamma - nu is fixed, so the pair's signs
        # are not determined and the strong system must be solved
        ev = PointEvaluation(MpecDimensions(2, 0, 0, 1), np.zeros(2),
                             np.zeros(0), np.zeros(0), np.zeros(1), np.zeros(1),
                             np.zeros((0, 2)), np.zeros((0, 2)),
                             np.array([[1.0, 0.0]]), np.array([[-1.0, 0.0]]))
        pattern = classify_active(ev, TOL)
        assert pattern.I_GH == (0,)
        report = classify_stationarity(ev, pattern, np.array([1.0, 0.0]), TOL)
        assert report.strongest == "strong"
        assert len(lps) >= 2

    @pytest.mark.parametrize("grad_f, strongest", [([1.0, 2.0], "strong"),
                                                   ([-1.0, 0.0], "M"),
                                                   ([-1.0, -1.0], "C"),
                                                   ([-1.0, 1.0], "weak")])
    def test_unique_multipliers_take_one_system(self, lps, grad_f, strongest):
        # gamma = grad_f[0] and nu = grad_f[1] in every weak solution
        ev, pattern, gf = one_pair_point(grad_f)
        report = classify_stationarity(ev, pattern, gf, TOL)
        assert report.strongest == strongest
        assert len(lps) == 1

    def test_fold_knot_under_licq_takes_one_system(self, lps):
        # the first knot of a fold's path: one biactive pair, determined
        # because MPEC-LICQ holds, with a multiplier at zero
        inst = svc_instance(9)
        ev, pattern, gf = svc_point(9, float(fold_knots(inst, 0)[0]), inst)
        assert len(pattern.I_GH) == 1
        assert cq.check_mpec_licq(ev, pattern, TOL).status == "holds"
        del lps[:]
        classify_stationarity(ev, pattern, gf, TOL)
        assert len(lps) == 1


class TestOneFactorizationPerSvcPoint:
    """Without active g and biactive pairs the weak system's A^T is the
    tightened-NLP bundle, so the CQ checks and the stationarity
    classifier share one factorization and run no least squares."""

    def test_checks_and_classifier_share_one_svd(self, monkeypatch, factorizations):
        ev, pattern, gf = svc_point(9, C_GRID[3])
        assert pattern.I_g == () and pattern.I_GH == ()
        systems = []
        solve = kernels.LinearProgram.solve
        monkeypatch.setattr(kernels.LinearProgram, "solve",
                            lambda self: systems.append(self.A) or solve(self))
        lstsq_calls = []
        lstsq = np.linalg.lstsq
        monkeypatch.setattr(np.linalg, "lstsq",
                            lambda *a, **kw: lstsq_calls.append(1) or lstsq(*a, **kw))
        kernels._recent_results.clear()
        del factorizations[:]
        run_all_checks(ev, pattern, TOL, is_affine=True)
        report = classify_stationarity(ev, pattern, gf, TOL)
        assert report.classes["weak"] == "holds"
        assert len(factorizations) == 1
        assert lstsq_calls == []
        (A,) = systems
        rows = gradient_bundle_tnlp(ev, pattern).rows
        assert self.block_is_smaller(rows)
        assert len(factorizations) == 1
        assert A.T.shape == rows.shape
        assert np.ascontiguousarray(A.T).tobytes() == rows.tobytes()
        # at C = 100 the non-unit rows are the fold Gram blocks over the
        # free support vectors alone, which have no column singleton
        inst = svc_instance(9)
        assert [self.block_is_smaller(gradient_bundle_tnlp(*svc_point(9, C, inst)[:2]).rows)
                for C in C_GRID] == [True] * 8 + [False]

    def test_checks_and_classifier_build_one_bundle(self, monkeypatch):
        ev, pattern, gf = svc_point(9, C_GRID[3])
        builds = []
        bundle = model.GradientBundle
        monkeypatch.setattr(model, "GradientBundle",
                            lambda *args: builds.append(1) or bundle(*args))
        run_all_checks(ev, pattern, TOL, is_affine=True)
        classify_stationarity(ev, pattern, gf, TOL)
        assert len(builds) == 1

    @staticmethod
    def block_is_smaller(rows):
        """Whether the factored block has fewer rows than the bundle has
        non-unit rows; no column singleton is left in it either way."""
        presolve = kernels.numerical_rank(rows).presolve
        block = rows[presolve.rows][:, presolve.cols]
        assert ((block != 0.0).sum(axis=0) != 1).all()
        return len(block) < ((rows != 0.0).sum(axis=1) != 1).sum()

    def test_a_looser_rank_cutoff_still_factors_once(self, factorizations):
        # the weak system reads its candidate off the rank result kept at
        # the classifier's cutoff, not at the default one
        tol = Tolerances(rank_rel_tol=1e-10)
        ev, pattern, gf = svc_point(9, C_GRID[3])
        kernels._recent_results.clear()
        del factorizations[:]
        run_all_checks(ev, pattern, tol, is_affine=True)
        assert classify_stationarity(ev, pattern, gf, tol).classes["weak"] == "holds"
        assert len(factorizations) == 1

    def test_biactive_knot_point_reuses_the_bundle_factorization(self, monkeypatch,
                                                                 factorizations):
        # a knot of a fold's path is a C where a fold index changes side,
        # so the point there has a biactive pair
        inst = svc_instance(1)
        ev, pattern, gf = svc_point(1, float(fold_knots(inst, 0)[0]), inst)
        assert pattern.I_g == () and len(pattern.I_GH) == 1
        systems = []
        solve = kernels.LinearProgram.solve
        monkeypatch.setattr(kernels.LinearProgram, "solve",
                            lambda self: systems.append(self.A) or solve(self))
        kernels._recent_results.clear()
        del factorizations[:]
        run_all_checks(ev, pattern, TOL, is_affine=True)
        del systems[:]
        classify_stationarity(ev, pattern, gf, TOL)
        # one factorization of the bundle: MFCQ-R holds by its full row rank
        assert len(factorizations) == 1
        rows = gradient_bundle_tnlp(ev, pattern).rows
        assert np.ascontiguousarray(systems[0].T).tobytes() == rows.tobytes()  # weak

        # MFCQ-TNLP and NNAMCQ hold by the same full row rank, with no
        # combination query
        queries = []
        combine = cq.null_combination
        monkeypatch.setattr(cq, "null_combination",
                            lambda r, s, t: queries.append((r, s)) or combine(r, s, t))
        assert cq.check_mpec_mfcq_t(ev, pattern, TOL).status == "holds"
        assert cq.check_nnamcq(ev, pattern, TOL).status == "holds"
        assert queries == [] and len(factorizations) == 1


class TestPresolveAgainstFullSvd:
    """The presolve (unit rows, then column singletons) against
    `_oracles.svd_rank`, one full SVD per rank question, at every
    `C_GRID` point and every fold knot below C = 100 of three benchmark
    datasets (267 knots in all)."""

    @staticmethod
    def outcome(ev, pattern, gf):
        rows = gradient_bundle_tnlp(ev, pattern).rows
        checks = run_all_checks(ev, pattern, TOL, is_affine=True)
        report = classify_stationarity(ev, pattern, gf, TOL)
        return (cq.numerical_rank(rows, TOL.rank_rel_tol).rank,
                cq.determined_pairs(ev, pattern, TOL),
                {name: v.status for name, v in checks.verdicts.items()},
                report)

    @pytest.mark.parametrize("index, knot_count", [(1, 98), (4, 82), (7, 87)])
    def test_same_verdicts_and_multipliers(self, monkeypatch, index, knot_count):
        inst = svc_instance(index)
        knots = sorted({float(C) for t in range(inst.T) for C in fold_knots(inst, t)
                        if C < 100.0})
        assert len(knots) == knot_count
        points = [svc_point(index, C, inst) for C in (*C_GRID, *knots)]
        presolved = [self.outcome(*point) for point in points]
        for module in (kernels, cq):
            monkeypatch.setattr(module, "numerical_rank", svd_rank)
        for point, new in zip(points, presolved):
            old = self.outcome(*point)
            assert new[:3] == old[:3]
            new_report, old_report = new[3], old[3]
            assert (new_report.strongest, new_report.classes) == (
                old_report.strongest, old_report.classes)
            for family in ("lambda_g", "mu", "gamma", "nu"):
                new_values = new_report.witness[family]
                old_values = old_report.witness[family]
                assert new_values.keys() == old_values.keys()
                for key, x in old_values.items():
                    assert abs(new_values[key] - x) <= 1e-12 * max(1.0, abs(x))


class TestWitnessChecks:
    def test_residual_recomputation(self):
        fx = fixture_e1()
        pattern = classify_active(fx.evaluation, TOL)
        report = classify_stationarity(fx.evaluation, pattern, fx.grad_f, TOL)
        res = witness_residual(fx.evaluation, pattern, fx.grad_f, report.witness)
        assert res == pytest.approx(report.witness["residual"], abs=1e-12)

    @staticmethod
    def loop_residual(ev, pattern, grad_f, multipliers):
        """The multiplier equation residual, one gradient row at a time."""
        r = np.array(grad_f, dtype=float)
        scale = np.abs(r)
        for family, grads in (("lambda_g", ev.g_grads), ("mu", ev.h_grads),
                              ("gamma", -ev.G_grads), ("nu", -ev.H_grads)):
            for key, value in multipliers[family].items():
                r += value * grads[int(key)]
                scale += np.abs(value * grads[int(key)])
        return float(np.abs(r).max(initial=0.0)), float(scale.max(initial=0.0))

    @pytest.mark.parametrize("make", [fixture_e1, fixture_e2, fixture_e3, None])
    def test_residual_matches_the_per_row_loop(self, make):
        if make is None:
            ev, pattern, gf = svc_point(1, C_GRID[4])
        else:
            fx = make()
            ev, pattern, gf = fx.evaluation, classify_active(fx.evaluation, TOL), fx.grad_f
        witness = classify_stationarity(ev, pattern, gf, TOL).witness
        rng = np.random.default_rng(0)
        # perturbed multipliers, so that the residual is far from zero
        for family in ("lambda_g", "mu", "gamma", "nu"):
            witness[family] = {key: value + rng.normal()
                               for key, value in witness[family].items()}
        expected, scale = self.loop_residual(ev, pattern, gf, witness)
        assert expected > 0.1
        got = witness_residual(ev, pattern, gf, witness)
        assert abs(got - expected) <= 16 * np.finfo(float).eps * scale

    def test_monotonicity_of_class_predicates(self):
        ev, pattern, gf = one_pair_point([2.0, 3.0])
        report = classify_stationarity(ev, pattern, gf, TOL)
        for cls in ("strong", "M", "C", "weak"):
            assert witness_satisfies(ev, pattern, gf, report.witness, cls, TOL)

    def test_class_predicates_nest_near_zero(self):
        # a magnitude at or below activity_eps counts as 0 in every class,
        # so each sign pattern satisfies a class and every weaker one
        eps = TOL.activity_eps
        values = (0.0, eps / 2, -eps / 2, eps, -eps, 2 * eps, -2 * eps, 1.0, -1.0)
        for gamma, nu in itertools.product(values, repeat=2):
            ev, pattern, gf = one_pair_point([gamma, nu])  # residual exactly 0
            witness = {"lambda_g": {}, "mu": {}, "gamma": {"0": gamma}, "nu": {"0": nu}}
            held = [witness_satisfies(ev, pattern, gf, witness, cls, TOL)
                    for cls in CLASS_ORDER]
            assert held == sorted(held) and held[-1], (gamma, nu, held)

    def test_corrupted_witness_fails_predicate(self):
        ev, pattern, gf = one_pair_point([2.0, 3.0])
        report = classify_stationarity(ev, pattern, gf, TOL)
        bad = {k: (dict(v) if isinstance(v, dict) else v)
               for k, v in report.witness.items()}
        bad["gamma"]["0"] = -5.0
        assert not witness_satisfies(ev, pattern, gf, bad, "strong", TOL)


class TestBranchCap:
    def test_cap_leaves_m_and_c_undecided(self):
        k = 13
        G = np.zeros((k, 2))
        H = np.zeros((k, 2))
        G[0] = [1.0, 0.0]
        H[0] = [0.0, 1.0]
        ev = PointEvaluation(MpecDimensions(2, 0, 0, k), np.zeros(2),
                             np.zeros(0), np.zeros(0), np.zeros(k), np.zeros(k),
                             np.zeros((0, 2)), np.zeros((0, 2)), G, H)
        pattern = classify_active(ev, TOL)
        report = classify_stationarity(ev, pattern, np.array([-1.0, 1.0]), TOL)
        assert report.classes["weak"] == "holds"
        assert report.classes["strong"] == "fails"
        assert report.classes["M"] == "undecided"
        assert report.classes["C"] == "undecided"
        assert report.strongest == "weak"


class TestKktEquivalence:
    @pytest.mark.parametrize("make", [fixture_e1, fixture_e2, fixture_e3])
    def test_fixtures_agree(self, make):
        fx = make()
        pattern = classify_active(fx.evaluation, TOL)
        out = verify_kkt_equivalence(fx.evaluation, pattern, fx.grad_f, TOL)
        assert out["agree"]
        assert out["strong_feasible"] and out["kkt_feasible"]

    def test_agreement_when_both_infeasible(self):
        ev, pattern, gf = one_pair_point([-1.0, 1.0])  # weak only
        out = verify_kkt_equivalence(ev, pattern, gf, TOL)
        assert out["agree"]
        assert not out["strong_feasible"]
        assert not out["kkt_feasible"]

    @pytest.mark.parametrize("C", C_GRID)
    @pytest.mark.parametrize("index", [1, 4, 7])
    def test_svc_point_with_strong_stationarity(self, index, C):
        ev, pattern, gf = svc_point(index, C)
        out = verify_kkt_equivalence(ev, pattern, gf, TOL)
        assert out["agree"]
        assert out["strong_feasible"] == out["kkt_feasible"]
        strongest = classify_stationarity(ev, pattern, gf, TOL).strongest
        assert out["strong_feasible"] == (strongest == "strong")


def test_kept_results_never_change_a_report():
    # the rank kernel's and the LP kernel's kept results live for the
    # whole process, and an evaluation keeps its tightened bundle: every
    # report must read the same whether they are cleared before each
    # point or still hold the previous point's
    points = [(fx.evaluation, fx.grad_f, fx.is_affine) for fx in all_fixtures()]
    points += [(*biactive_point(k, family, np.random.default_rng([k, 5])), True)
               for family in ("holds", "fails") for k in range(1, 8)]
    for C in C_GRID:
        ev, _, grad_f = svc_point(9, C)
        points.append((ev, grad_f, True))

    def reports(cold):
        kernels._recent_results.clear()
        kernels._recent_answers.clear()
        out = []
        for ev, grad_f, affine in points:
            if cold:
                kernels._recent_results.clear()
                kernels._recent_answers.clear()
                ev = PointEvaluation.from_dict(ev.to_dict())  # no bundle kept
            pattern = classify_active(ev, TOL)
            out.append((run_all_checks(ev, pattern, TOL, is_affine=affine).to_dict(),
                        classify_stationarity(ev, pattern, grad_f, TOL).to_dict()))
        return out

    assert reports(cold=True) == reports(cold=False)
