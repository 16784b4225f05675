"""Model-layer tests: records, feasibility, activity, gradient bundles."""

import json

import numpy as np
import pytest

from mpecq import (ActivePattern, ClassificationError, InputError, PointEvaluation,
                   Tolerances, canonical_json, check_feasibility,
                   classify_active, digest, gradient_bundle_rnlp,
                   gradient_bundle_tnlp)


def record(**overrides):
    base = {
        "n": 3, "m": 2, "p": 1,
        "l": 2,
        "point": [0.0, 0.0, 0.0],
        "g_vals": [0.0, -1.0],
        "h_vals": [0.0],
        "G_vals": [0.0, 2.0],
        "H_vals": [1.0, 0.0],
        "g_grads": [[1, 0, 0], [0, 1, 0]],
        "h_grads": [[1, 1, 1]],
        "G_grads": [[1, 0, 0], [0, 1, 0]],
        "H_grads": [[0, 0, 1], [1, 1, 0]],
    }
    base.update(overrides)
    return base


class TestPointEvaluation:
    def test_round_trip(self):
        ev = PointEvaluation.from_dict(record())
        again = PointEvaluation.from_dict(ev.to_dict())
        assert canonical_json(ev.to_dict()) == canonical_json(again.to_dict())

    def test_missing_key_is_input_error(self):
        bad = record()
        del bad["G_grads"]
        with pytest.raises(InputError):
            PointEvaluation.from_dict(bad)

    def test_shape_mismatch_is_input_error(self):
        with pytest.raises(InputError):
            PointEvaluation.from_dict(record(G_vals=[0.0]))

    def test_gradient_width_mismatch_is_input_error(self):
        with pytest.raises(InputError):
            PointEvaluation.from_dict(record(h_grads=[[1, 1]]))

    def test_non_finite_rejected(self):
        with pytest.raises(InputError):
            PointEvaluation.from_dict(record(g_vals=[float("nan"), -1.0]))


class TestTolerances:
    def test_defaults(self):
        tol = Tolerances()
        assert tol.activity_eps == 1e-8
        assert tol.rank_rel_tol == 1e-12
        assert tol.pd_eps == 1e-10
        assert tol.feas_eps == 1e-6

    @pytest.mark.parametrize("field", ["activity_eps", "rank_rel_tol",
                                       "pd_eps", "feas_eps"])
    def test_nonpositive_rejected(self, field):
        with pytest.raises(InputError):
            Tolerances(**{field: 0.0})


class TestFeasibility:
    def test_clean_point(self):
        rep = check_feasibility(PointEvaluation.from_dict(record()), Tolerances())
        assert rep.feasible
        assert rep.violations == ()

    @pytest.mark.parametrize("key,vals,family", [
        ("g_vals", [0.1, -1.0], "g"),
        ("h_vals", [0.01], "h"),
        ("G_vals", [-0.1, 2.0], "G"),
        ("H_vals", [1.0, -0.1], "H"),
    ])
    def test_family_violations(self, key, vals, family):
        rep = check_feasibility(PointEvaluation.from_dict(record(**{key: vals})),
                                Tolerances())
        assert not rep.feasible
        assert any(v[0] == family for v in rep.violations)

    def test_complementarity_violation(self):
        # both sides of pair 0 strictly positive
        rep = check_feasibility(
            PointEvaluation.from_dict(record(G_vals=[0.5, 2.0], H_vals=[0.5, 0.0])),
            Tolerances())
        assert not rep.feasible
        assert any(v[0] == "GH" for v in rep.violations)

    def test_tolerance_band(self):
        rep = check_feasibility(
            PointEvaluation.from_dict(record(g_vals=[1e-7, -1.0])),
            Tolerances())
        assert rep.feasible


class TestClassifyActive:
    def test_index_sets(self):
        pattern = classify_active(PointEvaluation.from_dict(record()), Tolerances())
        assert pattern.I_g == (0,)
        assert pattern.I_G == (0,)   # G=0 < H=1
        assert pattern.I_H == (1,)   # H=0 < G=2
        assert pattern.I_GH == ()

    def test_biactive_pair(self):
        pattern = classify_active(
            PointEvaluation.from_dict(record(H_vals=[0.0, 0.0])), Tolerances())
        assert pattern.I_GH == (0,)
        assert pattern.I_H == (1,)

    def test_inactive_pair_rejected(self):
        ev = PointEvaluation.from_dict(record(G_vals=[1.0, 2.0], H_vals=[1.0, 0.0]))
        with pytest.raises(ClassificationError):
            classify_active(ev, Tolerances())

    def test_activity_band_is_inclusive(self):
        ev = PointEvaluation.from_dict(record(g_vals=[-5e-9, -1.0]))
        pattern = classify_active(ev, Tolerances())
        assert pattern.I_g == (0,)


class TestGradientBundles:
    def test_tightened_bundle_classes(self):
        ev = PointEvaluation.from_dict(record())
        b = gradient_bundle_tnlp(ev, classify_active(ev, Tolerances()))
        families = [prov[0] for prov in b.provenance]
        assert families == ["g", "h", "G", "H"]
        assert b.classes[0] == "signed"     # active g
        assert set(b.classes[1:]) == {"free"}
        np.testing.assert_allclose(b.rows[2], [1.0, 0.0, 0.0])  # G_0 gradient

    def test_relaxed_bundle_marks_biactive_rows_signed(self):
        ev = PointEvaluation.from_dict(record(H_vals=[0.0, 0.0]))
        b = gradient_bundle_rnlp(ev, classify_active(ev, Tolerances()))
        # biactive pair 0 contributes raw grad_G0 and grad_H0, sign-classed
        signed = [(prov, tuple(r)) for r, cls, prov
                  in zip(b.rows, b.classes, b.provenance) if cls == "signed"]
        assert (("G", 0), (1.0, 0.0, 0.0)) in signed
        assert (("H", 0), (0.0, 0.0, 1.0)) in signed

    def test_bundle_without_biactive_matches_between_forms(self):
        ev = PointEvaluation.from_dict(record())
        pattern = classify_active(ev, Tolerances())
        t = gradient_bundle_tnlp(ev, pattern)
        r = gradient_bundle_rnlp(ev, pattern)
        assert np.array_equal(np.sort(t.rows, axis=0), np.sort(r.rows, axis=0))


    def test_rows_follow_provenance_in_both_forms(self):
        rng = np.random.default_rng(5)
        ev = PointEvaluation.from_dict(record(
            m=3, l=4, g_vals=[0.0, -1.0, 0.0], G_vals=[0.0, 2.0, 0.0, 0.0],
            H_vals=[1.0, 0.0, 0.0, 0.0], g_grads=rng.normal(size=(3, 3)).tolist(),
            G_grads=rng.normal(size=(4, 3)).tolist(),
            H_grads=rng.normal(size=(4, 3)).tolist()))
        pattern = classify_active(ev, Tolerances())
        assert (pattern.I_g, pattern.I_G, pattern.I_H, pattern.I_GH) == ((0, 2), (0,), (1,), (2, 3))
        grads = {"g": ev.g_grads, "h": ev.h_grads, "G": ev.G_grads, "H": ev.H_grads}
        t = gradient_bundle_tnlp(ev, pattern)
        assert t.provenance == (("g", 0), ("g", 2), ("h", 0), ("G", 0), ("G", 2), ("G", 3),
                                ("H", 1), ("H", 2), ("H", 3))
        assert t.classes == ("signed",) * 2 + ("free",) * 7
        r = gradient_bundle_rnlp(ev, pattern)
        assert r.provenance == (("g", 0), ("g", 2), ("G", 2), ("G", 3), ("H", 2), ("H", 3),
                                ("h", 0), ("G", 0), ("H", 1))
        assert r.classes == ("signed",) * 6 + ("free",) * 3
        for b in (t, r):
            expected = np.vstack([grads[family][i] for family, i in b.provenance])
            assert b.rows.tobytes() == expected.tobytes()

    def test_empty_bundle_keeps_its_width(self):
        ev = PointEvaluation.from_dict(record(m=0, p=0, g_vals=[], h_vals=[],
                                              g_grads=[], h_grads=[]))
        empty = ActivePattern((), (), (), ())
        for build in (gradient_bundle_tnlp, gradient_bundle_rnlp):
            b = build(ev, empty)
            assert b.rows.shape == (0, 3) and b.classes == () and b.provenance == ()


class TestCanonicalJson:
    def test_digest_is_stable(self):
        data = {"b": [1.0, 2.5], "a": {"x": 3}}
        assert digest(data) == digest(json.loads(canonical_json(data)))

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            canonical_json({"x": float("inf")})
