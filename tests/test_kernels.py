"""Kernel-layer tests: rank, definiteness, simplex, sign-constrained combos."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mpecq import (WitnessVerificationError, is_positive_definite, kernels,
                   make_query, numerical_rank, signed_combination_exists,
                   simplex_solve, verify_combination)
from mpecq.kernels import LinearProgram
from _oracles import rational_rank


def int_matrix(rng, rows, cols, lo=-10, hi=10):
    return rng.integers(lo, hi + 1, size=(rows, cols)).astype(float)


class TestNumericalRank:
    def test_zero_matrix(self):
        res = numerical_rank(np.zeros((3, 4)))
        assert res.rank == 0

    def test_empty(self):
        assert numerical_rank(np.zeros((0, 5))).rank == 0

    def test_identity(self):
        assert numerical_rank(np.eye(6)).rank == 6

    def test_duplicated_row_gives_witness(self):
        M = np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0]])
        res = numerical_rank(M)
        assert res.rank == 1
        w = res.null_witness
        assert w is not None
        # unit 1-norm, positive leading entry, annihilates the rows
        assert abs(np.abs(w).sum() - 1.0) < 1e-12
        assert w[np.nonzero(w)[0][0]] > 0
        assert np.abs(w @ M).max() < 1e-10

    def test_scale_invariance(self):
        M = np.array([[1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        assert numerical_rank(M).rank == numerical_rank(1e8 * M).rank == 2

    @given(st.integers(1, 8), st.integers(1, 8), st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=200, deadline=None)
    def test_matches_rational_oracle(self, rows, cols, seed):
        rng = np.random.default_rng(seed)
        M = int_matrix(rng, rows, cols)
        if rows > 1 and seed % 3 == 0:
            M[seed % rows] = M[(seed // 3) % rows]
        assert numerical_rank(M).rank == rational_rank(M)

    @given(st.integers(1, 7), st.integers(1, 7), st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=200, deadline=None)
    def test_null_basis_rows_vanish_exactly_off_every_dependence(self, rows, cols, seed):
        # row j of the left null basis is zero iff dropping row j lowers the rank
        rng = np.random.default_rng(seed)
        M = int_matrix(rng, rows, cols, -2, 2)
        if rows > 1 and seed % 2 == 0:
            M[seed % rows] = (-1.0) ** seed * M[(seed // 2) % rows]
        res = numerical_rank(M)
        basis = res.null_basis
        assert basis.shape == (rows, rows - res.rank)
        assert np.abs(basis.T @ basis - np.eye(rows - res.rank)).max(initial=0.0) < 1e-12
        cutoff = 1e-12 * max(rows, cols)
        for j in range(rows):
            isolated = rational_rank(np.delete(M, j, axis=0)) < res.rank
            assert (np.abs(basis[j]).max(initial=0.0) <= cutoff) == isolated


class TestRankMemo:
    def test_repeat_returns_what_recomputing_gives(self):
        M = np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [0.0, 1.0, 5.0]])
        first = numerical_rank(M)
        again = numerical_rank(M.copy())
        for other in (np.eye(2), np.eye(3)):  # evict M
            numerical_rank(other)
        fresh = numerical_rank(M)
        assert fresh is not first
        for res in (again, fresh):
            assert res.rank == first.rank == 2
            assert res.singular_values.tobytes() == first.singular_values.tobytes()
            assert res.null_witness.tobytes() == first.null_witness.tobytes()

    def test_returned_arrays_are_read_only(self):
        res = numerical_rank(np.array([[1.0, 1.0], [2.0, 2.0]]))
        with pytest.raises(ValueError):
            res.singular_values[0] = 0.0
        with pytest.raises(ValueError):
            res.null_witness[0] = 0.0
        with pytest.raises(ValueError):
            res.null_basis[0, 0] = 0.0
        with pytest.raises(ValueError):
            res.left_basis[0, 0] = 0.0
        with pytest.raises(ValueError):
            res.right_basis[0, 0] = 0.0

    def test_mutated_input_is_factored_afresh(self):
        M = np.array([[1.0, 0.0, 0.0], [2.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        assert numerical_rank(M).rank == 2
        M[1] = [0.0, 0.0, 1.0]
        res = numerical_rank(M)
        assert res.rank == 3 and res.null_witness is None

    def test_memo_holds_at_most_two_entries(self):
        rng = np.random.default_rng(3)
        for _ in range(6):
            numerical_rank(rng.normal(size=(3, 4)))
            assert kernels._svd_rank.cache_info().currsize <= 2


class TestPositiveDefinite:
    def test_identity(self):
        assert is_positive_definite(np.eye(4))

    def test_empty_block_counts_as_definite(self):
        assert is_positive_definite(np.zeros((0, 0)))

    def test_indefinite(self):
        assert not is_positive_definite(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_singular_psd(self):
        assert not is_positive_definite(np.array([[1.0, 1.0], [1.0, 1.0]]))

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError):
            is_positive_definite(np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_gram_of_independent_rows(self):
        rng = np.random.default_rng(2)
        B = rng.normal(size=(3, 5))
        assert is_positive_definite(B @ B.T)


class TestSimplex:
    def test_known_optimum(self):
        # min -x1 - 2 x2 s.t. x1 + x2 + s = 4, x2 + t = 3
        A = np.array([[1.0, 1.0, 1.0, 0.0], [0.0, 1.0, 0.0, 1.0]])
        b = np.array([4.0, 3.0])
        c = np.array([-1.0, -2.0, 0.0, 0.0])
        res = simplex_solve(A, b, c)
        assert res.status == "optimal"
        assert res.objective == pytest.approx(-7.0, abs=1e-9)
        assert res.x[:2] == pytest.approx([1.0, 3.0], abs=1e-9)

    def test_infeasible(self):
        # x1 = -1 with x1 >= 0
        res = simplex_solve([[1.0]], [-1.0], [0.0])
        assert res.status == "infeasible"

    def test_unbounded(self):
        # min -x1 s.t. x1 - x2 = 0: ray (t, t)
        res = simplex_solve([[1.0, -1.0]], [0.0], [-1.0, 0.0])
        assert res.status == "unbounded"

    def test_degenerate_terminates(self):
        A = np.array([[1.0, 1.0, 0.0], [1.0, 0.0, 1.0]])
        b = np.array([0.0, 0.0])
        c = np.array([-1.0, 0.0, 0.0])
        res = simplex_solve(A, b, c)
        assert res.status == "optimal"
        assert res.objective == pytest.approx(0.0, abs=1e-9)

    def test_redundant_rows_handled(self):
        A = np.array([[1.0, 1.0], [2.0, 2.0]])
        b = np.array([2.0, 4.0])
        c = np.array([1.0, 0.0])
        res = simplex_solve(A, b, c)
        assert res.status == "optimal"
        assert res.objective == pytest.approx(0.0, abs=1e-9)

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_feasible_solutions_satisfy_constraints(self, seed):
        rng = np.random.default_rng(seed)
        m, n = int(rng.integers(1, 4)), int(rng.integers(2, 6))
        A = int_matrix(rng, m, n, -3, 3)
        x0 = rng.uniform(0.0, 2.0, size=n)  # guarantees feasibility
        b = A @ x0
        c = int_matrix(rng, 1, n, -2, 2).ravel()
        res = simplex_solve(A, b, c)
        assert res.status in ("optimal", "unbounded")
        if res.status == "optimal":
            assert np.abs(A @ res.x - b).max() < 1e-7
            assert res.x.min() > -1e-9
            assert res.objective <= c @ x0 + 1e-7


class TestLinearProgram:
    def test_free_column_value_is_recombined(self):
        # x0 free, x1 >= 0: x0 + x1 = -2, x1 = 1
        feasible, values, obj = LinearProgram([[1.0, 1.0], [0.0, 1.0]],
                                              [-2.0, 1.0], free=[0]).solve()
        assert feasible and obj == 0.0
        assert values.tolist() == [-3.0, 1.0]

    def test_maximize_stops_at_the_cap(self):
        # x0 - x1 = 0 alone leaves x0 unbounded above
        feasible, values, margin = LinearProgram([[1.0, -1.0]], [0.0]).solve(maximize=0)
        assert feasible
        assert margin == LinearProgram.CAP == 1.0
        assert values[0] == 1.0

    def test_maximize_pinned_at_zero(self):
        feasible, _, margin = LinearProgram([[1.0, 1.0]], [0.0]).solve(maximize=0)
        assert feasible and margin == 0.0

    def test_infeasible(self):
        assert LinearProgram([[1.0]], [-1.0]).solve() == (False, None, None)
        assert LinearProgram([[1.0]], [-1.0]).solve(maximize=0) == (False, None, None)

    KINDS = ("full_rank", "rank_deficient", "inconsistent")

    @classmethod
    def all_free_system(cls, kind, seed):
        rng = np.random.default_rng([seed, cls.KINDS.index(kind)])
        m, n = int(rng.integers(3, 12)), int(rng.integers(2, 12))
        if kind == "full_rank":
            A = rng.normal(size=(m, n))
            return A, A @ rng.normal(size=n)
        r = int(rng.integers(1, min(m, n)))
        A = rng.normal(size=(m, r)) @ rng.normal(size=(r, n)) * 10.0 ** rng.integers(-3, 4)
        if kind == "rank_deficient":
            return A, A @ rng.normal(size=n)
        return A, rng.normal(size=m)  # generic b is outside the range of A

    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("kind", KINDS)
    def test_all_free_verdict_matches_simplex(self, monkeypatch, kind, seed):
        A, b = self.all_free_system(kind, seed)
        split = simplex_solve(np.hstack([A, -A]), b, np.zeros(2 * A.shape[1]))
        monkeypatch.setattr(kernels, "simplex_solve", None)  # the range route only
        feasible, x, obj = LinearProgram(A, b, range(A.shape[1])).solve()
        assert feasible == (split.status == "optimal") == (kind != "inconsistent")
        if feasible:
            assert obj == 0.0
            assert np.abs(A @ x - b).max() <= 1e-9 * max(1.0, np.abs(b).max())

    @pytest.mark.parametrize("seed", range(5))
    def test_farkas_ray_is_verified(self, seed):
        A, b = self.all_free_system("inconsistent", seed)
        x, ray = kernels.range_solve(A, b)
        assert x is None
        assert kernels.verify_farkas_ray(A, b, ray) <= kernels.WITNESS_RESIDUAL_SLACK
        for bad in (-ray, ray + 0.1 * A @ np.ones(A.shape[1]) / np.abs(A).max()):
            with pytest.raises(WitnessVerificationError):
                kernels.verify_farkas_ray(A, b, bad)

    def test_all_free_empty_systems(self):
        feasible, x, obj = LinearProgram(np.zeros((0, 3)), [], free=range(3)).solve()
        assert feasible and x.tolist() == [0.0, 0.0, 0.0] and obj == 0.0
        feasible, x, obj = LinearProgram(np.zeros((2, 0)), [0.0, 0.0]).solve()
        assert feasible and x.size == 0 and obj == 0.0
        A, b = np.zeros((2, 0)), [0.0, -3.0]
        assert LinearProgram(A, b).solve() == (False, None, None)
        assert simplex_solve(A, b, []).status == "infeasible"
        x, ray = kernels.range_solve(A, b)
        assert x is None and kernels.verify_farkas_ray(A, b, ray) == 0.0

    def test_column_layout(self, monkeypatch):
        # a free column's plus and minus parts sit side by side, the cap
        # row and its slack come last; the pivot path depends on this order
        seen = []
        solve = kernels.simplex_solve
        monkeypatch.setattr(kernels, "simplex_solve",
                            lambda A, b, c: seen.append((A, b, c)) or solve(A, b, c))
        feasible, values, margin = LinearProgram([[1.0, 2.0, 3.0]], [4.0],
                                                 free=[1]).solve(maximize=1)
        assert feasible and margin == 1.0 and values[1] == 1.0
        (A, b, c), = seen
        assert (A + 0.0).tolist() == [[1.0, 2.0, -2.0, 3.0, 0.0],
                                      [0.0, 1.0, -1.0, 0.0, 1.0]]
        assert b.tolist() == [4.0, 1.0]
        assert (c + 0.0).tolist() == [0.0, -1.0, 1.0, 0.0, 0.0]
        LinearProgram([[1.0, 2.0, 3.0]], [4.0], free=[1]).solve()
        assert (seen[1][0] + 0.0).tolist() == [[1.0, 2.0, -2.0, 3.0]]
        assert (seen[1][2] + 0.0).tolist() == [0.0, 0.0, 0.0, 0.0]


class TestRangeSolveDifferential:
    """`range_solve` against the truth of how each system was built.

    A x = b is consistent exactly when b was built in the range of A or
    A has full row rank.  Rows are scaled by 10^U(-s, s): the first
    candidate comes from the SVD of the unscaled A^T, which can miss a
    solution of a badly row-scaled consistent system, and the
    equilibrated least squares must then decide it.
    """

    KINDS = ("full_rank", "rank_deficient", "inconsistent")
    SYSTEMS = 334  # per kind and scale: 4008 in all

    @classmethod
    def system(cls, kind, s, seed):
        rng = np.random.default_rng([seed, s, cls.KINDS.index(kind)])
        m, n = int(rng.integers(2, 12)), int(rng.integers(2, 12))
        if kind == "full_rank":
            A = rng.normal(size=(m, n))
            b = rng.normal(size=m) if m <= n else A @ rng.normal(size=n)
        else:
            r = int(rng.integers(1, min(m, n)))
            A = rng.normal(size=(m, r)) @ rng.normal(size=(r, n))
            # a generic b is outside the range of a rank-deficient A
            b = A @ rng.normal(size=n) if kind == "rank_deficient" else rng.normal(size=m)
        rows = 10.0 ** rng.uniform(-s, s, size=m)
        return rows[:, None] * A, rows * b

    @pytest.mark.parametrize("s", [0, 3, 6, 9])
    @pytest.mark.parametrize("kind", KINDS)
    def test_verdict_matches_construction(self, monkeypatch, kind, s):
        lstsq = np.linalg.lstsq
        fallbacks = []
        monkeypatch.setattr(np.linalg, "lstsq",
                            lambda *a, **kw: fallbacks.append(1) or lstsq(*a, **kw))
        rescued = 0  # consistent systems the SVD candidate did not settle
        for seed in range(self.SYSTEMS):
            A, b = self.system(kind, s, seed)
            fallbacks.clear()
            x, ray = kernels.range_solve(A, b)
            assert (x is not None) == (kind != "inconsistent"), (kind, s, seed)
            if x is None:
                assert kernels.verify_farkas_ray(A, b, ray) <= kernels.WITNESS_RESIDUAL_SLACK
                continue
            As, bs, _ = kernels._equilibrate(A, b)
            assert np.abs(bs - As @ x).sum() <= kernels._INFEASIBLE_TOL * A.shape[0]
            rescued += bool(fallbacks)
        if s == 0 or kind == "inconsistent":
            assert rescued == 0
        elif s >= 6:
            assert rescued > 0


class TestSignedCombination:
    def test_free_rows_only_dependence(self):
        q = make_query(2, free=[[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        w = signed_combination_exists(q)
        assert w.exists
        assert np.abs(w.coefficients @ np.vstack([q.free])).max() < 1e-9

    def test_free_rows_only_independent(self):
        q = make_query(2, free=[[1.0, 0.0], [0.0, 1.0]])
        assert not signed_combination_exists(q).exists

    def test_nonneg_witness_found(self):
        # lambda(-1,-1) + free gamma(1,0) + free nu(0,1) = 0 at lambda=1
        q = make_query(2, nonneg=[[-1.0, -1.0]], free=[[1.0, 0.0], [0.0, 1.0]])
        w = signed_combination_exists(q)
        assert w.exists
        lam = w.coefficients[0]
        assert lam > 0
        assert w.coefficients[1] == pytest.approx(lam, abs=1e-9)
        assert w.coefficients[2] == pytest.approx(lam, abs=1e-9)

    def test_one_sign_cone_has_no_witness(self):
        # all rows point into distinct negative directions
        q = make_query(2, nonneg=[[-1.0, -1.0], [-1.0, 0.0], [0.0, -1.0]])
        assert not signed_combination_exists(q).exists

    @staticmethod
    def branch_queries(gamma_row, nu_row, free=()):
        """The three closed branches that replace a strictly positive pair:
        both >= 0, gamma = 0 (nu free) and nu = 0 (gamma free)."""
        free = list(free)
        return [make_query(2, nonneg=[gamma_row, nu_row], free=free),
                make_query(2, zero=[gamma_row], free=[nu_row] + free),
                make_query(2, zero=[nu_row], free=[gamma_row] + free)]

    def test_strict_branch_reformulation_has_no_witness(self):
        # gamma(1,0) cannot be cancelled by nu on (0,1) in any branch
        queries = self.branch_queries([1.0, 0.0], [0.0, 1.0])
        assert not any(signed_combination_exists(q).exists for q in queries)

    def test_strict_branch_reformulation_witness(self):
        queries = self.branch_queries([1.0, 0.0], [-1.0, 1.0], free=[[0.0, -1.0]])
        found = [signed_combination_exists(q) for q in queries]
        assert [w.exists for w in found] == [True, False, False]
        # the both >= 0 witness is strictly positive on the pair
        assert np.all(found[0].coefficients[:2] > 0.1)

    def test_zero_class_rows_are_ignored(self):
        q = make_query(2, zero=[[1.0, 0.0], [-1.0, 0.0]],
                       free=[[1.0, 0.0], [0.0, 1.0]])
        w = signed_combination_exists(q)
        assert not w.exists

    @given(st.integers(0, 2 ** 31 - 1), st.floats(0.5, 100.0))
    @settings(max_examples=80, deadline=None)
    def test_positive_row_scaling_invariance(self, seed, scale):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 5))
        nn = int_matrix(rng, int(rng.integers(0, 3)), n, -2, 2)
        fr = int_matrix(rng, int(rng.integers(1, 3)), n, -2, 2)
        base = signed_combination_exists(make_query(n, nonneg=nn, free=fr))
        scaled = signed_combination_exists(
            make_query(n, nonneg=scale * nn, free=fr))
        assert base.exists == scaled.exists

    def test_verify_rejects_sign_violation(self):
        q = make_query(2, nonneg=[[-1.0, -1.0]], free=[[1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(WitnessVerificationError):
            verify_combination(q, [-0.5, -0.5, 0.0])

    def test_verify_rejects_nonzero_residual(self):
        q = make_query(2, nonneg=[[-1.0, -1.0]], free=[[1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(WitnessVerificationError):
            verify_combination(q, [0.5, 0.5, 0.25])

    def test_verify_rejects_trivial_combination(self):
        q = make_query(2, free=[[1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(WitnessVerificationError):
            verify_combination(q, [0.0, 0.0])
