"""Model-layer tests: records, feasibility, activity, gradient bundles."""

import json

import numpy as np
import pytest

from mpecq import (ActivePattern, ClassificationError, InputError, PointEvaluation,
                   Tolerances, canonical_json, check_feasibility,
                   classify_active, digest, gradient_bundle_tnlp)


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
        # a read-only array that owns its data is shared, and still checked
        grads = np.array(record()["G_grads"], dtype=float)
        grads[1, 2] = np.nan
        grads.setflags(write=False)
        with pytest.raises(InputError):
            PointEvaluation.from_dict(record(G_grads=grads))

    @pytest.mark.parametrize("key", ["n", "m", "p", "l"])
    def test_integral_float_count_is_read(self, key):
        ev = PointEvaluation.from_dict(record(**{key: float(record()[key])}))
        assert canonical_json(ev.to_dict()) == canonical_json(
            PointEvaluation.from_dict(record()).to_dict())
        assert type(getattr(ev.dims, key)) is int

    @pytest.mark.parametrize("value", [2.5, True, "3"], ids=["fraction", "boolean", "string"])
    @pytest.mark.parametrize("key", ["n", "m", "p", "l"])
    def test_count_that_is_not_an_integer_is_input_error(self, key, value):
        with pytest.raises(InputError, match=f"^evaluation record: {key}: expected an integer"):
            PointEvaluation.from_dict(record(**{key: value}))

    def test_an_array_that_can_still_change_is_copied(self):
        writable = np.array(record()["G_grads"], dtype=float)
        base = writable.copy()
        view = base[:]
        view.setflags(write=False)  # read-only, but its base is not
        for grads, owner in ((writable, writable), (view, base)):
            ev = PointEvaluation.from_dict(record(G_grads=grads))
            owner[0, 0] = 7.0
            assert ev.G_grads.tolist() == record()["G_grads"]
            assert not np.shares_memory(ev.G_grads, owner)
            assert not ev.G_grads.flags.writeable


class TestTolerances:
    def test_defaults(self):
        tol = Tolerances()
        assert tol.activity_eps == 1e-8
        assert tol.rank_rel_tol == 1e-12
        assert tol.feas_eps == 1e-6

    @pytest.mark.parametrize("field", ["activity_eps", "rank_rel_tol", "feas_eps"])
    def test_nonpositive_rejected(self, field):
        with pytest.raises(InputError):
            Tolerances(**{field: 0.0})

    @pytest.mark.parametrize("field", ["activity_eps", "rank_rel_tol", "feas_eps"])
    @pytest.mark.parametrize("value", [float("inf"), float("nan"), True])
    def test_non_finite_or_boolean_rejected(self, field, value):
        with pytest.raises(InputError):
            Tolerances(**{field: value})

    def test_removed_pd_eps_is_not_a_field(self):
        # a Gram block's definiteness is its full rank at rank_rel_tol
        with pytest.raises(TypeError):
            Tolerances(pd_eps=1e-10)


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

    def test_every_family_violated_at_once(self):
        # families in table order, indices ascending within each
        rep = check_feasibility(PointEvaluation.from_dict(record(
            g_vals=[0.5, -1.0], h_vals=[-0.25], G_vals=[-0.125, 2.0],
            H_vals=[1.0, -0.5])), Tolerances())
        assert rep.violations == (("g", 0, 0.5), ("h", 0, 0.25), ("G", 0, 0.125),
                                  ("H", 1, 0.5), ("GH", 0, 0.125), ("GH", 1, 1.0))
        assert all(type(i) is int and type(r) is float for _, i, r in rep.violations)
        assert not rep.feasible and rep.max_violation == 1.0

    def test_tolerance_band(self):
        rep = check_feasibility(
            PointEvaluation.from_dict(record(g_vals=[1e-7, -1.0])),
            Tolerances())
        assert rep.feasible


class TestClassifyActive:
    def test_active_sides(self):
        pattern = ActivePattern((), (2,), (0,), (1, 3))
        assert pattern.G_active == (1, 2, 3)
        assert pattern.H_active == (0, 1, 3)

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
        assert b.signed[0]                  # active g
        assert not b.signed[1:].any()
        np.testing.assert_allclose(b.rows[2], [1.0, 0.0, 0.0])  # G_0 gradient

    def test_relaxed_bundle_marks_biactive_rows_signed(self):
        ev = PointEvaluation.from_dict(record(H_vals=[0.0, 0.0]))
        b = gradient_bundle_tnlp(ev, classify_active(ev, Tolerances()),
                                 {0: ("nonneg", "nonneg")})
        # biactive pair 0 contributes -grad_G0 and -grad_H0, sign-classed,
        # whose coefficients are gamma_0 and nu_0 themselves
        signed = [(prov, tuple(r), s) for r, is_signed, prov, s
                  in zip(b.rows, b.signed, b.provenance, b.signs) if is_signed]
        assert (("G", 0), (-1.0, 0.0, 0.0), 1.0) in signed
        assert (("H", 0), (0.0, 0.0, -1.0), 1.0) in signed

    def test_bundle_without_biactive_matches_between_forms(self):
        ev = PointEvaluation.from_dict(record())
        pattern = classify_active(ev, Tolerances())
        t = gradient_bundle_tnlp(ev, pattern)
        r = gradient_bundle_tnlp(ev, pattern, dict.fromkeys(pattern.I_GH, ("nonneg", "nonneg")))
        assert t.rows.tobytes() == r.rows.tobytes()
        assert t.signed.tolist() == r.signed.tolist() and t.provenance == r.provenance

    @staticmethod
    def two_pair_point():
        rng = np.random.default_rng(5)
        ev = PointEvaluation.from_dict(record(
            m=3, l=4, g_vals=[0.0, -1.0, 0.0], G_vals=[0.0, 2.0, 0.0, 0.0],
            H_vals=[1.0, 0.0, 0.0, 0.0], g_grads=rng.normal(size=(3, 3)).tolist(),
            G_grads=rng.normal(size=(4, 3)).tolist(),
            H_grads=rng.normal(size=(4, 3)).tolist()))
        pattern = classify_active(ev, Tolerances())
        assert (pattern.I_g, pattern.I_G, pattern.I_H, pattern.I_GH) == ((0, 2), (0,), (1,), (2, 3))
        return ev, pattern

    def test_rows_follow_provenance_in_both_forms(self):
        ev, pattern = self.two_pair_point()
        grads = {"g": ev.g_grads, "h": ev.h_grads, "G": ev.G_grads, "H": ev.H_grads}
        t = gradient_bundle_tnlp(ev, pattern)
        assert t.provenance == (("g", 0), ("g", 2), ("h", 0), ("G", 0), ("G", 2), ("G", 3),
                                ("H", 1), ("H", 2), ("H", 3))
        assert t.signed.tolist() == [True] * 2 + [False] * 7
        assert t.signs.tolist() == [1.0] * 3 + [-1.0] * 6
        r = gradient_bundle_tnlp(ev, pattern, {2: ("nonneg", "nonneg"), 3: ("nonneg", "nonneg")})
        assert r.provenance == t.provenance
        # signed rows first, then free ones: the relaxed NLP's bundle
        relaxed = sorted(range(len(r.signed)), key=lambda j: not r.signed[j])
        assert [r.provenance[j] for j in relaxed] == [
            ("g", 0), ("g", 2), ("G", 2), ("G", 3), ("H", 2), ("H", 3),
            ("h", 0), ("G", 0), ("H", 1)]
        assert [r.signed[j] for j in relaxed] == [True] * 6 + [False] * 3
        biactive = [fam in ("G", "H") and i in pattern.I_GH for fam, i in r.provenance]
        assert r.signs.tolist() == [1.0 if b or fam in ("g", "h") else -1.0
                                    for b, (fam, _) in zip(biactive, r.provenance)]
        for b, negated in ((t, [False] * 9), (r, biactive)):
            expected = np.vstack([-grads[family][i] if neg else grads[family][i]
                                  for (family, i), neg in zip(b.provenance, negated)])
            assert b.rows.tobytes() == expected.tobytes()

    def test_zero_mode_drops_the_row(self):
        ev, pattern = self.two_pair_point()
        t = gradient_bundle_tnlp(ev, pattern)
        b = gradient_bundle_tnlp(ev, pattern, {3: ("zero", "free"), 2: ("free", "zero")})
        kept = [j for j, pv in enumerate(t.provenance) if pv not in (("G", 3), ("H", 2))]
        assert b.provenance == tuple(t.provenance[j] for j in kept)
        assert b.signed.tolist() == t.signed[kept].tolist()
        assert b.rows.tobytes() == t.rows[kept].tobytes()
        assert b.signs.tolist() == t.signs[kept].tolist()

    def test_nonpos_mode_signs_the_plus_gradient(self):
        ev, pattern = self.two_pair_point()
        t = gradient_bundle_tnlp(ev, pattern)
        b = gradient_bundle_tnlp(ev, pattern, {2: ("nonpos", "free")})
        j = t.provenance.index(("G", 2))
        # +grad G_2 with a coefficient c >= 0 stands for gamma_2 = -c <= 0
        assert b.signed[j] and b.signs[j] == -1.0
        assert b.rows.tobytes() == t.rows.tobytes()
        assert np.delete(b.signed, j).tolist() == np.delete(t.signed, j).tolist()

    @pytest.mark.parametrize("modes", [{2: ("nonneg", "positive")}, {0: ("free", "free")}])
    def test_unknown_mode_or_pair_raises(self, modes):
        ev, pattern = self.two_pair_point()
        with pytest.raises(ValueError):
            gradient_bundle_tnlp(ev, pattern, modes)

    def test_empty_bundle_keeps_its_width(self):
        ev = PointEvaluation.from_dict(record(m=0, p=0, g_vals=[], h_vals=[],
                                              g_grads=[], h_grads=[]))
        empty = ActivePattern((), (), (), ())
        for modes in (None, {}):
            b = gradient_bundle_tnlp(ev, empty, modes)
            assert b.rows.shape == (0, 3) and b.provenance == ()
            assert b.signed.shape == b.signs.shape == (0,)


class TestBundleStore:
    """The no-modes tightened bundle is built once per evaluation."""

    def test_stored_bundle_is_read_only_and_shared(self):
        ev, pattern = TestGradientBundles.two_pair_point()
        b = gradient_bundle_tnlp(ev, pattern)
        assert gradient_bundle_tnlp(ev, pattern) is b
        equal = ActivePattern(pattern.I_g, pattern.I_G, pattern.I_H, pattern.I_GH)
        assert gradient_bundle_tnlp(ev, equal) is b
        for arr in (b.rows, b.signed, b.signs):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0

    @staticmethod
    def same(a, b):
        return (a.rows.tobytes() == b.rows.tobytes() and a.rows.shape == b.rows.shape
                and a.signed.tolist() == b.signed.tolist()
                and a.signs.tolist() == b.signs.tolist() and a.provenance == b.provenance)

    def test_another_pattern_gets_a_fresh_bundle(self):
        ev, pattern = TestGradientBundles.two_pair_point()
        other = ActivePattern((0,), (0, 3), (1,), (2,))
        first = gradient_bundle_tnlp(ev, pattern)
        for p in (other, pattern, other):
            fresh = gradient_bundle_tnlp(PointEvaluation.from_dict(ev.to_dict()), p)
            b = gradient_bundle_tnlp(ev, p)
            assert self.same(b, fresh)
        assert not self.same(b, first) and self.same(gradient_bundle_tnlp(ev, pattern), first)

    def test_a_call_with_modes_is_built_afresh(self):
        ev, pattern = TestGradientBundles.two_pair_point()
        stored = gradient_bundle_tnlp(ev, pattern)
        # 'free' on both rows is the tightened bundle itself
        modes = dict.fromkeys(pattern.I_GH, ("free", "free"))
        b = gradient_bundle_tnlp(ev, pattern, modes)
        assert b is not stored and b.rows.flags.writeable and self.same(b, stored)
        assert gradient_bundle_tnlp(ev, pattern) is stored
        # a call with modes reads nothing from the store
        object.__setattr__(ev, "_tnlp_bundle", (pattern, None))
        assert self.same(gradient_bundle_tnlp(ev, pattern, modes), stored)


class TestCanonicalJson:
    def test_digest_is_stable(self):
        data = {"b": [1.0, 2.5], "a": {"x": 3}}
        assert digest(data) == digest(json.loads(canonical_json(data)))

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            canonical_json({"x": float("inf")})
