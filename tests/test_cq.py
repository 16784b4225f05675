"""Constraint-qualification checker tests against the frozen fixtures."""

import json
import pathlib

import numpy as np
import pytest

from mpecq import (CQ_NAMES, CqVerdict, Tolerances, audit_implications,
                   check_acq_affine, check_mpec_gmfcq, check_mpec_licq,
                   check_mpec_mfcq_r, check_mpec_mfcq_t, check_nnamcq,
                   classify_active, cli, cq, gradient_bundle_tnlp, numerical_rank,
                   run_all_checks)
from mpecq.fixtures import fixture_e1, fixture_e2, fixture_e3
from test_branch_search import biactive_point

TOL = Tolerances()


def pattern_of(fx):
    return classify_active(fx.evaluation, TOL)


class TestFixtureVerdicts:
    @pytest.mark.parametrize("make", [fixture_e1, fixture_e2, fixture_e3])
    def test_all_expected_verdicts(self, make):
        fx = make()
        report = run_all_checks(fx.evaluation, pattern_of(fx), TOL,
                                is_affine=fx.is_affine)
        for name, want in fx.expected_cq.items():
            assert report.verdicts[name].status == want, name

    @pytest.mark.parametrize("make", [fixture_e1, fixture_e2, fixture_e3])
    def test_lattice_clean(self, make):
        fx = make()
        report = run_all_checks(fx.evaluation, pattern_of(fx), TOL,
                                is_affine=fx.is_affine)
        assert report.implication_violations == ()


class TestCertificates:
    def test_tightened_mfcq_failure_witness(self):
        fx = fixture_e2()
        verdict = check_mpec_mfcq_t(fx.evaluation, pattern_of(fx), TOL)
        assert verdict.status == "fails"
        cert = verdict.certificate
        coeffs = np.asarray(cert["coefficients"])
        # the only vanishing combination is proportional to (1, 1, 1)
        np.testing.assert_allclose(coeffs / coeffs[0], [1.0, 1.0, 1.0],
                                   atol=1e-9)
        assert cert["residual"] <= 1e-6

    def test_licq_failure_reports_rank(self):
        fx = fixture_e1()
        verdict = check_mpec_licq(fx.evaluation, pattern_of(fx), TOL)
        assert verdict.status == "fails"
        assert verdict.certificate["rank"] == 3
        assert verdict.certificate["rows"] == 4
        w = np.asarray(verdict.certificate["null_witness"])
        bundle = np.array([[1.0, 0, 0], [1, 1, 0], [0, 1, 0], [0, 0, 1.0]])
        assert np.abs(w @ bundle).max() < 1e-9

    def test_nnamcq_failure_names_branch_and_multipliers(self):
        fx = fixture_e3()
        verdict = check_nnamcq(fx.evaluation, pattern_of(fx), TOL)
        assert verdict.status == "fails"
        cert = verdict.certificate
        assert set(cert["branch"].values()) == {"nu_zero"}
        mult = cert["multipliers"]["lambda_G"]
        # dependence gamma_0 = -gamma_1 on the duplicated G gradients
        assert mult["0"] == pytest.approx(-mult["1"], abs=1e-9)
        assert abs(mult["0"]) > 0.1

    def test_nnamcq_holds_reports_branch_count(self):
        fx = fixture_e2()
        verdict = check_nnamcq(fx.evaluation, pattern_of(fx), TOL)
        assert verdict.status == "holds"
        assert verdict.certificate["branches_checked"] == 3

    def test_gmfcq_certificate_counts_partitions(self):
        fx = fixture_e2()
        verdict = check_mpec_gmfcq(fx.evaluation, pattern_of(fx), TOL)
        assert verdict.status == "holds"
        assert verdict.certificate == {"partitions_i": 1, "partitions_ii": 2}

    def test_gmfcq_failure_names_the_condition(self):
        fx = fixture_e3()
        verdict = check_mpec_gmfcq(fx.evaluation, pattern_of(fx), TOL)
        assert verdict.status == "fails"
        assert verdict.certificate["condition"] in ("i", "ii-independence",
                                                    "ii-direction")


class TestAcqAffine:
    def test_affine_holds(self):
        assert check_acq_affine(True).status == "holds"

    def test_nonlinear_undecided(self):
        assert check_acq_affine(False).status == "undecided"

    def test_unknown_undecided(self):
        assert check_acq_affine(None).status == "undecided"


class TestBranchCap:
    def _many_biactive(self, k):
        """k biactive pairs; only pair 0 has nonzero gradients."""
        from mpecq import MpecDimensions, PointEvaluation
        G = np.zeros((k, 2))
        H = np.zeros((k, 2))
        G[0] = [1.0, 0.0]
        H[0] = [0.0, 1.0]
        return PointEvaluation(MpecDimensions(2, 0, 0, k), np.zeros(2),
                               np.zeros(0), np.zeros(0), np.zeros(k),
                               np.zeros(k), np.zeros((0, 2)),
                               np.zeros((0, 2)), G, H)

    def test_nnamcq_undecided_above_cap(self):
        ev = self._many_biactive(13)
        verdict = check_nnamcq(ev, classify_active(ev, TOL), TOL, cap=12)
        assert verdict.status == "undecided"
        assert any("cap" in note for note in verdict.notes)

    def test_gmfcq_undecided_above_cap(self):
        ev = self._many_biactive(13)
        verdict = check_mpec_gmfcq(ev, classify_active(ev, TOL), TOL, cap=12)
        assert verdict.status == "undecided"

    def test_cap_is_configurable(self):
        ev = self._many_biactive(3)
        verdict = check_nnamcq(ev, classify_active(ev, TOL), TOL, cap=2)
        assert verdict.status == "undecided"


class TestImplicationAudit:
    def _verdict(self, name, status):
        return CqVerdict(name, status)

    def test_violation_detected(self):
        verdicts = {name: self._verdict(name, "fails") for name in CQ_NAMES}
        verdicts["MPEC_LICQ"] = self._verdict("MPEC_LICQ", "holds")
        violations = audit_implications(verdicts)
        assert "MPEC_LICQ holds but MPEC_MFCQ_TNLP fails" in violations

    def test_undecided_is_not_a_violation(self):
        verdicts = {name: self._verdict(name, "undecided") for name in CQ_NAMES}
        verdicts["MPEC_LICQ"] = self._verdict("MPEC_LICQ", "holds")
        assert audit_implications(verdicts) == ()

    def test_clean_chain(self):
        verdicts = {name: self._verdict(name, "holds") for name in CQ_NAMES}
        assert audit_implications(verdicts) == ()


class TestRelaxedOrientation:
    def test_inward_normals_on_biactive_pair(self):
        # one biactive pair whose raw gradients admit a one-sign combination
        # only in the outward orientation; inward must stay clean
        from mpecq import MpecDimensions, PointEvaluation
        ev = PointEvaluation(MpecDimensions(2, 0, 0, 1), np.zeros(2),
                             np.zeros(0), np.zeros(0), np.zeros(1), np.zeros(1),
                             np.zeros((0, 2)), np.zeros((0, 2)),
                             np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]]))
        pattern = classify_active(ev, TOL)
        assert check_mpec_mfcq_r(ev, pattern, TOL).status == "holds"
        # mirrored gradients flip the cone so a nonzero combination appears
        ev2 = PointEvaluation(MpecDimensions(2, 0, 0, 1), np.zeros(2),
                              np.zeros(0), np.zeros(0), np.zeros(1), np.zeros(1),
                              np.zeros((0, 2)), np.zeros((0, 2)),
                              np.array([[1.0, 0.0]]), np.array([[-1.0, 0.0]]))
        pattern2 = classify_active(ev2, TOL)
        assert check_mpec_mfcq_r(ev2, pattern2, TOL).status == "fails"


class TestDeterminedPairs:
    """`cq.determined_pairs` reads the null basis's row maxima at the G and
    H rows of each biactive pair; the rule it replaced tested every
    bundle row and compared provenance sets."""

    @staticmethod
    def per_row_rule(ev, pattern):
        bundle = gradient_bundle_tnlp(ev, pattern)
        basis = numerical_rank(bundle.rows, TOL.rank_rel_tol).null_basis
        cutoff = TOL.rank_rel_tol * max(bundle.rows.shape)
        fixed = {pv for pv, row in zip(bundle.provenance, basis)
                 if np.abs(row).max(initial=0.0) <= cutoff}
        return [i for i in pattern.I_GH if {("G", i), ("H", i)} <= fixed]

    @pytest.mark.parametrize("family", ["holds", "fails"])
    @pytest.mark.parametrize("k", range(1, 8))
    def test_biactive_records(self, k, family):
        ev, _ = biactive_point(k, family, np.random.default_rng(k))
        pattern = classify_active(ev, TOL)
        pairs = cq.determined_pairs(ev, pattern, TOL)
        assert pairs == self.per_row_rule(ev, pattern)
        # grad H_0 = -grad G_0 ties pair 0 in `fails`; the rest are unit rows
        assert pairs == list(range(family == "fails", k))

    @pytest.mark.parametrize("make", [fixture_e1, fixture_e2, fixture_e3])
    def test_fixtures(self, make):
        ev = make().evaluation
        pattern = classify_active(ev, TOL)
        assert cq.determined_pairs(ev, pattern, TOL) == self.per_row_rule(ev, pattern)

    def test_fold_knot(self):
        path = pathlib.Path(__file__).parent / "golden" / "cli" / "fold_knot.input.json"
        ev, _, _ = cli._dispatch_input(json.loads(path.read_text()))
        pattern = classify_active(ev, TOL)
        assert len(pattern.I_GH) == 1
        assert cq.determined_pairs(ev, pattern, TOL) == self.per_row_rule(ev, pattern)
