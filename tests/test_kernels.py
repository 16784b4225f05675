"""Kernel-layer tests: rank, definiteness, feasibility, sign-constrained combos."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from scipy.optimize import linprog
from scipy.sparse import block_diag

from mpecq import WitnessVerificationError, kernels, numerical_rank
from mpecq.cq import _direction_exists
from mpecq.kernels import LinearProgram, null_combination
from _oracles import rational_rank, svd_rank


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
    def test_repeat_returns_what_recomputing_gives(self, factorizations):
        M = np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [0.0, 1.0, 5.0]])
        first = numerical_rank(M)
        again = numerical_rank(M.copy())
        assert again is first  # an input equal bit for bit gets the kept result
        for other in (np.ones((2, 2)), np.ones((3, 3))):  # evict M
            numerical_rank(other)
        count = len(factorizations)
        fresh = numerical_rank(M)
        assert len(factorizations) == count + 1
        for res in (again, fresh):
            assert res.rank == first.rank == 2
            assert res.null_basis.tobytes() == first.null_basis.tobytes()
            assert res.null_witness.tobytes() == first.null_witness.tobytes()

    def test_returned_arrays_are_read_only(self):
        res = numerical_rank(np.array([[1.0, 1.0], [2.0, 2.0]]))
        with pytest.raises(ValueError):
            res.null_witness[0] = 0.0
        with pytest.raises(ValueError):
            res.null_basis[0, 0] = 0.0
        # the kept result and factorization are shared between callers
        for kept in res.presolve:
            with pytest.raises(ValueError):
                kept[0] = 0

    def test_mutated_input_is_factored_afresh(self):
        M = np.array([[1.0, 0.0, 0.0], [2.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        assert numerical_rank(M).rank == 2
        M[1] = [0.0, 0.0, 1.0]
        res = numerical_rank(M)
        assert res.rank == 3 and res.null_witness is None

    def test_kept_result_needs_the_same_bits_and_tolerance(self):
        M = np.array([[0.0, 1e-11, 0.0], [1.0, 0.0, 0.0]])
        first = numerical_rank(M)
        assert first.rank == 2
        assert numerical_rank(M, 1e-12 * (1.0 + 1e-15)) is not first
        assert numerical_rank(M) is first  # and first is now the most recent
        # 1e-11 is below the looser cutoff of 3e-11, so the answer must be recomputed
        assert numerical_rank(M, 1e-11).rank == 1
        assert numerical_rank(M) is first
        # -0.0 equals 0.0 but has other bits
        assert numerical_rank(np.array([[-0.0, 1e-11, 0.0], [1.0, 0.0, 0.0]])) is not first
        # a transposed view is compared by its values, not its memory
        assert numerical_rank(np.asfortranarray(M)) is first
        assert numerical_rank(M.T.copy().T) is first

    def test_memo_holds_at_most_two_entries(self):
        rng = np.random.default_rng(3)
        for _ in range(6):
            numerical_rank(rng.normal(size=(3, 4)))
            assert len(kernels._recent_results) <= 2


def mixed_matrix(rng, rows, cols, units, singletons=0):
    """Integer dense rows with `units` unit rows shuffled in, and
    `singletons` more columns that plant a chain of column singletons.

    The unit rows' columns are drawn with replacement, so some columns
    carry two or three unit rows, with entries of either sign; the dense
    rows use every column, the unit rows' columns included.  Planted
    column j is nonzero on one dense row and, past the first, on the
    dense row of column j - 1 as well, so it becomes a column singleton
    once that row is eliminated.
    """
    M = int_matrix(rng, rows, cols, -3, 3)
    if rows and singletons:
        chain = rng.integers(0, rows, size=singletons)
        planted = np.zeros((rows, singletons))
        planted[chain, np.arange(singletons)] = rng.integers(1, 4, size=singletons)
        planted[chain[:-1], np.arange(1, singletons)] = rng.integers(-3, 4, size=singletons - 1)
        M = np.hstack([M, planted])
    unit = np.zeros((units, M.shape[1]))
    unit[np.arange(units), rng.integers(0, cols, size=units)] = (
        rng.integers(1, 4, size=units) * rng.choice([-1.0, 1.0], size=units))
    return rng.permutation(np.vstack([M, unit]))


class TestUnitRowPresolve:
    """`numerical_rank` eliminates unit rows exactly; checked against the
    rational oracle, the full-SVD reference and the basis's own
    definition."""

    @staticmethod
    def check_null_space(M, res):
        k, n = M.shape
        cutoff = 1e-12 * max(k, n) * max(1.0, np.abs(M).max())
        basis = res.null_basis
        assert basis.shape == (k, k - res.rank)
        assert np.abs(basis.T @ basis - np.eye(k - res.rank)).max(initial=0.0) < 1e-12
        assert np.abs(basis.T @ M).max(initial=0.0) <= cutoff
        if res.rank == k:
            assert res.null_witness is None
            return
        w = res.null_witness
        assert abs(np.abs(w).sum() - 1.0) < 1e-12
        assert w[np.flatnonzero(np.abs(w) > 1e-12)[0]] > 0
        assert np.abs(w @ M).max() <= cutoff

    @given(st.integers(0, 6), st.integers(1, 7), st.integers(1, 6), st.integers(0, 3),
           st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=200, deadline=None)
    def test_matches_rational_oracle(self, rows, cols, units, singletons, seed):
        rng = np.random.default_rng(seed)
        M = mixed_matrix(rng, rows, cols, units, singletons)
        res = numerical_rank(M)
        assert res.rank == rational_rank(M) == svd_rank(M).rank
        assert res.presolve.rows.sum() <= rows  # every unit row is eliminated
        self.check_null_space(M, res)
        # row j of the basis is zero iff dropping row j lowers the rank
        for j in range(len(M)):
            isolated = rational_rank(np.delete(M, j, axis=0)) < res.rank
            assert (np.abs(res.null_basis[j]).max(initial=0.0) <= 1e-10) == isolated
        # x @ M = b is solved for every b in the row space
        b = rng.integers(-3, 4, size=len(M)) @ M
        assert np.abs(res.presolve.solve(b) @ M - b).max(initial=0.0) < 1e-9

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_unit_rows_sharing_a_column_are_one_dependence(self, sign):
        # rows 0 and 2 are both unit rows on column 1; the dense row uses it
        M = np.array([[0.0, 2.0, 0.0], [1.0, 1.0, 1.0], [0.0, 3.0 * sign, 0.0]])
        res = numerical_rank(M)
        assert res.rank == 2 and not res.presolve.rows[[0, 2]].any()
        self.check_null_space(M, res)
        expected = np.array([3.0, 0.0, -2.0 * sign]) / 5.0
        assert np.abs(res.null_witness - expected).max() < 1e-15
        # column 1 asks 2 x0 + 3 sign x2 = 26 once x1 = 1; the least-norm
        # split is (x0, x2) = 2 (2, 3 sign)
        x = res.presolve.solve(M[1] + 13.0 * M[0])
        assert np.abs(x - [4.0, 1.0, 6.0 * sign]).max() < 1e-14

    def test_unit_row_below_the_cutoff_stays_in_the_block(self):
        # row 2 is column 2's only nonzero, far below the cutoff
        M = np.array([[1.0, 2.0, 0.0], [3.0, -1.0, 0.0], [0.0, 0.0, 1e-14]])
        res = numerical_rank(M)
        assert res.presolve.rows[2]
        assert res.rank == svd_rank(M).rank == rational_rank(M[:2]) == 2
        self.check_null_space(M, res)
        # the same row clears the cutoff once its entry is large enough
        M[2, 2] = 1e-6
        res = numerical_rank(M)
        assert not res.presolve.rows[2]
        assert res.rank == svd_rank(M).rank == rational_rank(M) == 3

    def test_unit_row_small_within_its_column_stays_in_the_block(self):
        # row 2 clears the cutoff, but row 0 holds 1e6 times its entry on
        # column 1: it is not eliminated, and the full SVD finds M within
        # 1e-6 of rank 2, below the cutoff of about 3e-6
        M = np.array([[1.0, 1e6, 0.0], [3.0, -1.0, 4.0], [0.0, 1.0, 0.0]])
        res = numerical_rank(M)
        assert res.presolve.rows[2]
        assert res.rank == svd_rank(M).rank == rational_rank(M) - 1 == 2
        self.check_null_space(M, res)
        M[0, 1] = 100.0
        res = numerical_rank(M)
        assert not res.presolve.rows[2]
        assert res.rank == svd_rank(M).rank == rational_rank(M) == 3

    @pytest.mark.parametrize("M", [
        [[1.0, 0.0], [1e8, 1e-5]],
        # row 2 = row 0 + row 1, but all three rows lie within 1e-8 of one line
        [[1.0, 0.0], [1e8, 1.0], [1e8 + 1.0, 1.0]],
    ])
    def test_cutoff_scales_with_the_dense_rows_on_pivot_columns(self, M):
        # the unit row's column holds 1e8 in a dense row, so the full
        # matrix's sigma_max, not the unit row's entry, sets the cutoff
        M = np.array(M)
        res, ref = numerical_rank(M), svd_rank(M)
        assert res.rank == ref.rank == 1
        cutoff = 1e-12 * max(M.shape) * np.linalg.svd(M, compute_uv=False)[0]
        assert np.abs(res.null_basis.T @ res.null_basis - np.eye(len(M) - 1)).max() < 1e-12
        assert np.abs(res.null_basis.T @ M).max() <= cutoff
        w = res.null_witness
        assert abs(np.abs(w).sum() - 1.0) < 1e-12 and w[0] > 0
        assert np.abs(w @ M).max() <= cutoff

    def test_mutated_block_is_factored_again(self, factorizations):
        # row 2 is a unit row; the block is rows 0, 1 over columns 0, 1, 3
        M = np.array([[1.0, 2.0, 0.0, 5.0], [2.0, 4.0, 0.0, 0.0], [0.0, 0.0, 7.0, 0.0]])
        count = len(factorizations)
        assert numerical_rank(M).rank == 3
        M[0, 3] = 0.0  # rows 0 and 1 become parallel
        res = numerical_rank(M)
        assert res.rank == 2 == svd_rank(M).rank
        self.check_null_space(M, res)
        M[1, 1] = 4.5
        assert numerical_rank(M).rank == 3
        assert len(factorizations) == count + 3


class TestColumnSingletonPresolve:
    """After the unit rows, `numerical_rank` eliminates the block's column
    singletons round by round; checked against `_oracles.svd_rank` and
    the rational oracle."""

    def test_planted_chain_leaves_in_three_rounds(self):
        # column 0 is row 0's alone; once row 0 leaves, column 1 is row
        # 1's, then column 2 is row 2's.  Rows 3..5 hold one dependence
        # (row 5 = row 3 - row 4) and row 6 is a unit row on column 6,
        # which rows 0 and 3 also use.
        M = np.array([[4.0, 1.0, 1.0, 0.0, 1.0, 0.0, 1.0],
                      [0.0, 3.0, -1.0, 1.0, 0.0, 0.0, 0.0],
                      [0.0, 0.0, 2.0, 0.0, 0.0, 1.0, 0.0],
                      [0.0, 0.0, 0.0, 1.0, 2.0, -1.0, 2.0],
                      [0.0, 0.0, 0.0, 2.0, 1.0, 1.0, 0.0],
                      [0.0, 0.0, 0.0, -1.0, 1.0, -2.0, 2.0],
                      [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 3.0]])
        res = numerical_rank(M)
        assert res.rank == svd_rank(M).rank == rational_rank(M) == 6
        presolve = res.presolve
        assert presolve.singles.tolist() == [0, 1, 2]
        assert presolve.heads.tolist() == [0, 1, 2]
        assert presolve.rounds.tolist() == [0, 1, 2, 3]
        assert presolve.rows.tolist() == [False] * 3 + [True] * 3 + [False]
        assert not res.null_basis[presolve.singles].any()  # exactly zero
        TestUnitRowPresolve.check_null_space(M, res)
        b = np.array([1.0, -2.0, 3.0, 0.5, 0.0, 0.0, 1.0]) @ M
        assert np.abs(presolve.solve(b) @ M - b).max() < 1e-9

    def test_singleton_below_the_cutoff_stays_in_the_block(self):
        # row 1 is a unit row; the 1e-20 left in column 0 is no pivot
        M = np.array([[1e-20, 1.0], [0.0, 1.0]])
        res = numerical_rank(M)
        assert res.rank == svd_rank(M).rank == 1
        assert res.presolve.rows[0] and not res.presolve.singles.size
        TestUnitRowPresolve.check_null_space(M, res)

    def test_compounded_growth_stops_the_chain(self):
        # each round of this chain grows the rows by 999; a second round
        # would pass 1 / _PIVOT_SHARE, so the block keeps rows 1..5.  The
        # full SVD sees rank 5; eliminating the whole chain would give
        # the exact rank, 6.
        M = np.eye(6) + 999.0 * np.eye(6, k=1)
        res = numerical_rank(M)
        assert 999.0 ** 2 * kernels._PIVOT_SHARE > 1.0
        assert res.presolve.singles.tolist() == [0]
        assert res.rank == svd_rank(M).rank == rational_rank(M) - 1 == 5


def highs_ds_feasible(A, b):
    """The verdict of HiGHS's dual simplex on A x = b with x >= 0."""
    res = linprog(np.zeros(A.shape[1]), A_eq=A, b_eq=b, bounds=(0.0, None),
                  method="highs-ds")
    assert res.status in (0, 2), res.message
    return res.status == 0


def equilibrated_residual_passes(A, b, x):
    As, bs, _ = kernels._equilibrate(A, b)
    return np.abs(bs - As @ x).sum() <= kernels._INFEASIBLE_TOL * max(1, A.shape[0])


class TestLinearProgram:
    def test_free_column_value_is_recombined(self):
        # x0 free, x1 >= 0: x0 + x1 = -2, x1 = 1
        x, ray = LinearProgram([[1.0, 1.0], [0.0, 1.0]], [-2.0, 1.0], free=[0]).solve()
        assert ray is None
        assert x == pytest.approx([-3.0, 1.0], abs=1e-12)

    def test_infeasible(self):
        # x0 = -1 with x0 >= 0
        x, ray = LinearProgram([[1.0]], [-1.0]).solve()
        assert x is None and ray is not None

    def test_infeasible_has_farkas_ray(self):
        # x0 = -1 with x0 >= 0; the ray y = -1 has b.y = 1 and A^T y = -1 <= 0
        x, ray = LinearProgram([[1.0]], [-1.0]).solve()
        assert x is None and ray.tolist() == [-1.0]
        assert kernels.verify_farkas_ray([[1.0]], [-1.0], ray, []) == 0.0

    def test_degenerate_terminates(self):
        # b = 0 on a pointed cone: only x = 0 solves it
        x, ray = LinearProgram([[1.0, 1.0, 0.0], [1.0, 0.0, 1.0]], [0.0, 0.0]).solve()
        assert ray is None and x.tolist() == [0.0, 0.0, 0.0]

    def test_redundant_rows_handled(self):
        x, ray = LinearProgram([[1.0, 1.0], [2.0, 2.0]], [2.0, 4.0]).solve()
        assert ray is None and x.min() >= 0.0
        assert np.abs(np.array([[1.0, 1.0], [2.0, 2.0]]) @ x - [2.0, 4.0]).max() < 1e-12

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_feasible_solutions_satisfy_constraints(self, seed):
        rng = np.random.default_rng(seed)
        m, n = int(rng.integers(1, 4)), int(rng.integers(2, 6))
        A = int_matrix(rng, m, n, -3, 3)
        b = A @ rng.uniform(0.0, 2.0, size=n)  # guarantees feasibility
        x, ray = LinearProgram(A, b).solve()
        assert ray is None
        assert np.abs(A @ x - b).max() < 1e-7
        assert x.min() >= 0.0

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
    def test_all_free_verdict_matches_simplex(self, kind, seed):
        # the reference is HiGHS's dual simplex on the split form x = u - v
        A, b = self.all_free_system(kind, seed)
        split = highs_ds_feasible(np.hstack([A, -A]), b)
        x, ray = LinearProgram(A, b, range(A.shape[1])).solve()
        assert (x is not None) == split == (kind != "inconsistent")
        if x is not None:
            assert np.abs(A @ x - b).max() <= 1e-9 * max(1.0, np.abs(b).max())

    @pytest.mark.parametrize("seed", range(5))
    def test_farkas_ray_is_verified(self, seed):
        A, b = self.all_free_system("inconsistent", seed)
        free = range(A.shape[1])
        x, ray = LinearProgram(A, b, free).solve()
        assert x is None
        assert kernels.verify_farkas_ray(A, b, ray, free) <= kernels.WITNESS_RESIDUAL_SLACK
        for bad in (-ray, ray + 0.1 * A @ np.ones(A.shape[1]) / np.abs(A).max()):
            with pytest.raises(WitnessVerificationError):
                kernels.verify_farkas_ray(A, b, bad, free)

    def test_all_free_empty_systems(self):
        x, ray = LinearProgram(np.zeros((0, 3)), [], free=range(3)).solve()
        assert ray is None and x.tolist() == [0.0, 0.0, 0.0]
        x, ray = LinearProgram(np.zeros((2, 0)), [0.0, 0.0]).solve()
        assert ray is None and x.size == 0
        A, b = np.zeros((2, 0)), [0.0, -3.0]
        x, ray = LinearProgram(A, b).solve()
        assert x is None and kernels.verify_farkas_ray(A, b, ray, []) == 0.0


class TestKeptLpAnswers:
    """`LinearProgram.solve` keeps the last two answers of `_nnls` with
    their (A, b, free), compared bit for bit."""

    FEASIBLE = ([[1.0, 1.0, 0.0], [1.0, 0.0, 1.0]], [2.0, 1.0])
    INFEASIBLE = ([[1.0, 2.0]], [-1.0])

    @pytest.fixture
    def nnls(self, monkeypatch):
        calls = []
        nnls = kernels._nnls
        monkeypatch.setattr(kernels, "_nnls",
                            lambda *args: calls.append(1) or nnls(*args))
        kernels._recent_answers.clear()
        return calls

    def test_repeat_returns_the_kept_answer(self, nnls):
        A, b = self.FEASIBLE
        first = LinearProgram(A, b).solve()
        assert first[0] is not None and nnls == [1]
        again = LinearProgram(np.array(A), np.array(b), free=()).solve()
        assert again is first and nnls == [1]
        # a transposed copy is compared by its values, not its memory
        assert LinearProgram(np.asfortranarray(A), b).solve() is first

    def test_farkas_ray_answers_are_kept(self, nnls):
        A, b = self.INFEASIBLE
        first = LinearProgram(A, b).solve()
        assert first[0] is None and first[1] is not None
        assert LinearProgram(A, b).solve() is first and nnls == [1]

    @staticmethod
    def flip_last_bit(values, index):
        bits = np.array(values, dtype=float).view(np.int64)
        bits.flat[index] ^= 1
        return bits.view(float)

    def test_one_changed_bit_misses(self, nnls):
        A, b = self.FEASIBLE
        first = LinearProgram(A, b).solve()
        variants = (LinearProgram(self.flip_last_bit(A, 4), b),
                    LinearProgram(A, self.flip_last_bit(b, 1)),
                    LinearProgram(A, b, free=[2]),
                    # -0.0 equals 0.0 but has other bits
                    LinearProgram([[1.0, 1.0, -0.0], [1.0, 0.0, 1.0]], b))
        for count, system in enumerate(variants, start=2):
            assert LinearProgram(A, b).solve() is first
            assert system.solve() is not first
            assert len(nnls) == count

    def test_least_recently_used_answer_is_evicted(self, nnls):
        systems = [([[1.0, 1.0]], [c]) for c in (1.0, 2.0, 3.0)]
        first, second, third = (LinearProgram(*s) for s in systems)
        kept = first.solve()
        second.solve()
        assert first.solve() is kept and len(nnls) == 2  # now the most recent
        third.solve()  # evicts the second system's answer
        assert len(kernels._recent_answers) == 2
        assert first.solve() is kept and len(nnls) == 3
        second.solve()
        assert len(nnls) == 4

    def test_returned_arrays_are_read_only(self, nnls):
        for A, b in (self.FEASIBLE, self.INFEASIBLE):
            answer = LinearProgram(A, b).solve()
            kept = answer[0] if answer[0] is not None else answer[1]
            with pytest.raises(ValueError):
                kept[0] = 1.0

    def test_all_free_candidate_never_reaches_the_kept_answers(self, nnls):
        A = np.array([[1.0, 2.0], [0.0, 1.0], [1.0, 0.0]])
        x, ray = LinearProgram(A, A @ [1.0, -1.0], free=range(2)).solve()
        assert ray is None and np.abs(A @ x - A @ [1.0, -1.0]).max() < 1e-12
        assert nnls == [] and len(kernels._recent_answers) == 0
        # an inconsistent all-free system falls through to NNLS and is kept
        inconsistent = LinearProgram(A, [1.0, 0.0, 0.0], free=range(2))
        answer = inconsistent.solve()
        assert answer[0] is None and nnls == [1]
        assert inconsistent.solve() is answer and nnls == [1]


class TestRangeSolveDifferential:
    """All-free systems, the range question, against the truth of how
    each system was built.

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
            free = range(A.shape[1])
            fallbacks.clear()
            x, ray = LinearProgram(A, b, free).solve()
            assert (x is not None) == (kind != "inconsistent"), (kind, s, seed)
            if x is None:
                assert kernels.verify_farkas_ray(A, b, ray, free) <= kernels.WITNESS_RESIDUAL_SLACK
                continue
            assert equilibrated_residual_passes(A, b, x)
            rescued += bool(fallbacks)
        if s == 0 or kind == "inconsistent":
            assert rescued == 0
        elif s >= 6:
            assert rescued > 0


def highs_max_taus(blocks):
    """HiGHS's max of sum_k t_k over independent blocks, one linprog call.

    Block k is (A_eq, A_ub, free) over columns (x_k, t_k): A_eq (x, t) =
    0, A_ub (x, t) <= 0, x_j >= 0 off `free` and 0 <= t_k <= 1.  No two
    blocks share a row or a column, so the maximum of the sum maximizes
    every t_k.  Returns the t_k.
    """
    bounds, last = [], []
    for A_eq, _, free in blocks:
        n = A_eq.shape[1] - 1
        bounds += [(None, None) if j in free else (0.0, None) for j in range(n)]
        bounds.append((0.0, 1.0))
        last.append(len(bounds) - 1)
    A_eq = block_diag([blk[0] for blk in blocks], format="csr")
    A_ub = block_diag([blk[1] for blk in blocks], format="csr")
    c = np.zeros(len(bounds))
    c[last] = -1.0
    res = linprog(c, A_ub=A_ub, b_ub=np.zeros(A_ub.shape[0]), A_eq=A_eq,
                  b_eq=np.zeros(A_eq.shape[0]), bounds=bounds, method="highs")
    assert res.status == 0, res.message
    return res.x[last]


class TestKernelAgainstHighs:
    """`LinearProgram.solve` and `cq._direction_exists` against HiGHS on
    systems with mixed free and sign-constrained columns.

    Half the right-hand sides are built as A x0 with x0 >= 0 off the
    free columns and some entries of x0 at 0, so the feasible systems
    include degenerate ones; the others are drawn at random.  Rows are
    then scaled by 10^U(-s, s).  Row scaling changes no verdict, so
    HiGHS decides the unscaled system and the kernels the scaled one.

    HiGHS decides each system as the LP max t over A x = t b, x >= 0 off
    the free columns, 0 <= t <= 1, whose optimum is 1 when A x = b is
    feasible and 0 otherwise, and each direction question, by Farkas'
    lemma some d with A_F^T d = 0, A_N^T d >= 0 and -b.d > 0 exactly
    when A x = b is infeasible, as the max-margin LP max t over -b.d >= t
    with t <= 1.  The systems of a test are independent blocks of one
    LP, so one HiGHS call decides them all.
    """

    KINDS = ("random", "rank_deficient", "integer")
    SYSTEMS = 1112  # per kind and scale: 10008 in all

    @classmethod
    def system(cls, kind, s, seed):
        rng = np.random.default_rng([seed, s, cls.KINDS.index(kind), 7])
        m, n = int(rng.integers(1, 8)), int(rng.integers(1, 10))
        free = np.flatnonzero(rng.random(n) < 0.3)
        if kind == "random":
            A = rng.normal(size=(m, n))
        elif kind == "rank_deficient":
            r = int(rng.integers(1, max(2, min(m, n))))
            A = rng.normal(size=(m, r)) @ rng.normal(size=(r, n))
        else:
            A = int_matrix(rng, m, n, -3, 3)
        if rng.random() < 0.5:
            x0 = int_matrix(rng, 1, n, -2, 2)[0] if kind == "integer" else rng.normal(size=n)
            x0 = np.where(np.isin(np.arange(n), free), x0, np.abs(x0))
            x0[rng.random(n) < 0.3] = 0.0
            b = A @ x0
        else:
            b = int_matrix(rng, 1, m, -3, 3)[0] if kind == "integer" else rng.normal(size=m)
        rows = 10.0 ** rng.uniform(-s, s, size=m)
        return A, b, free, rows

    @pytest.mark.parametrize("s", [0, 3, 6])
    @pytest.mark.parametrize("kind", KINDS)
    def test_verdicts_and_certificates(self, kind, s):
        systems = [self.system(kind, s, seed) for seed in range(self.SYSTEMS)]
        primal, dual = [], []
        for A, b, free, _ in systems:
            m, n = A.shape
            primal.append((np.hstack([A, -b[:, None]]), np.zeros((0, n + 1)), set(free)))
            signed = np.delete(np.arange(n), free)
            dual.append((np.hstack([A[:, free].T, np.zeros((len(free), 1))]),
                         np.vstack([np.hstack([-A[:, signed].T, np.zeros((len(signed), 1))]),
                                    np.append(b, 1.0)]),
                         set(range(m))))
        feasible_t, margin_t = highs_max_taus(primal), highs_max_taus(dual)
        # the reference is unambiguous: every optimum is 0 or 1
        for t in (feasible_t, margin_t):
            assert np.minimum(t, 1.0 - t).max() < 1e-6
        assert np.array_equal(feasible_t > 0.5, margin_t < 0.5)
        for seed, ((A, b, free, rows), feasible) in enumerate(zip(systems, feasible_t > 0.5)):
            As, bs = rows[:, None] * A, rows * b
            x, ray = LinearProgram(As, bs, free).solve()
            assert (x is not None) == feasible, (kind, s, seed)
            if x is None:
                assert kernels.verify_farkas_ray(As, bs, ray, free) <= kernels.WITNESS_RESIDUAL_SLACK
            else:
                assert equilibrated_residual_passes(As, bs, x)
                assert np.delete(x, free).min(initial=0.0) >= 0.0
            signed = np.delete(np.arange(A.shape[1]), free)
            assert _direction_exists(A.shape[0], As[:, free].T, As[:, signed].T,
                                     [-bs]) == (not feasible), (kind, s, seed)
        assert self.SYSTEMS // 5 < np.count_nonzero(feasible_t > 0.5) < self.SYSTEMS * 4 // 5

    def test_ray_leaning_on_a_signed_column_is_rejected(self):
        A = np.array([[1.0, 1.0], [1.0, -1.0]])
        b = np.array([-1.0, -1.0])  # x0 = -1, x1 = 0 is the only solution
        x, ray = LinearProgram(A, b).solve()
        assert x is None
        assert kernels.verify_farkas_ray(A, b, ray, []) <= kernels.WITNESS_RESIDUAL_SLACK
        gap = float(b @ ray)
        for j in range(2):
            for lean in (1e-3, -1e-3):
                # column j bent so that A_j^T y = lean * b.y
                bent = A.copy()
                bent[:, j] += (lean * gap - A[:, j] @ ray) * ray / (ray @ ray)
                with pytest.raises(WitnessVerificationError):
                    kernels.verify_farkas_ray(bent, b, ray, [j])
                if lean > 0:
                    with pytest.raises(WitnessVerificationError):
                        kernels.verify_farkas_ray(bent, b, ray, [])
                else:
                    assert kernels.verify_farkas_ray(bent, b, ray, []) <= 1e-12


def combination(dim, nonneg=(), free=()):
    """`null_combination` over the nonneg rows, then the free ones."""
    rows = np.array([*nonneg, *free], dtype=float).reshape(-1, dim)
    return rows, null_combination(rows, np.arange(len(rows)) < len(nonneg), 1e-12)


class TestSignedCombination:
    def test_free_rows_only_dependence(self):
        rows, found = combination(2, free=[[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        assert found is not None
        assert np.abs(found[0] @ rows).max() < 1e-9

    def test_free_rows_only_independent(self):
        assert combination(2, free=[[1.0, 0.0], [0.0, 1.0]])[1] is None

    def test_nonneg_witness_found(self):
        # lambda(-1,-1) + free gamma(1,0) + free nu(0,1) = 0 at lambda=1
        _, found = combination(2, nonneg=[[-1.0, -1.0]], free=[[1.0, 0.0], [0.0, 1.0]])
        assert found is not None
        coeffs = found[0]
        lam = coeffs[0]
        assert lam > 0
        assert coeffs[1] == pytest.approx(lam, abs=1e-9)
        assert coeffs[2] == pytest.approx(lam, abs=1e-9)

    def test_one_sign_cone_has_no_witness(self):
        # all rows point into distinct negative directions
        assert combination(2, nonneg=[[-1.0, -1.0], [-1.0, 0.0], [0.0, -1.0]])[1] is None

    @staticmethod
    def branch_queries(gamma_row, nu_row, free=()):
        """The three closed branches that replace a strictly positive pair:
        both >= 0, gamma = 0 (its row dropped, nu free) and nu = 0."""
        free = list(free)
        return [combination(2, nonneg=[gamma_row, nu_row], free=free)[1],
                combination(2, free=[nu_row] + free)[1],
                combination(2, free=[gamma_row] + free)[1]]

    def test_strict_branch_reformulation_has_no_witness(self):
        # gamma(1,0) cannot be cancelled by nu on (0,1) in any branch
        found = self.branch_queries([1.0, 0.0], [0.0, 1.0])
        assert all(f is None for f in found)

    def test_strict_branch_reformulation_witness(self):
        found = self.branch_queries([1.0, 0.0], [-1.0, 1.0], free=[[0.0, -1.0]])
        assert [f is not None for f in found] == [True, False, False]
        # the both >= 0 witness is strictly positive on the pair
        assert np.all(found[0][0][:2] > 0.1)

    @given(st.integers(0, 2 ** 31 - 1), st.floats(0.5, 100.0))
    @settings(max_examples=80, deadline=None)
    def test_positive_row_scaling_invariance(self, seed, scale):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 5))
        nn = int_matrix(rng, int(rng.integers(0, 3)), n, -2, 2)
        fr = int_matrix(rng, int(rng.integers(1, 3)), n, -2, 2)
        base = combination(n, nonneg=nn, free=fr)[1]
        scaled = combination(n, nonneg=scale * nn, free=fr)[1]
        assert (base is None) == (scaled is None)

    # the kernel re-verifies what `cone_combination` hands it
    @pytest.fixture
    def cone_returns(self, monkeypatch):
        def stub(y):
            monkeypatch.setattr(kernels, "cone_combination",
                                lambda rows, free, mass: np.array(y, dtype=float))
            return combination(2, nonneg=[[-1.0, -1.0]], free=[[1.0, 0.0], [0.0, 1.0]])
        return stub

    def test_verify_rejects_sign_violation(self, cone_returns):
        with pytest.raises(WitnessVerificationError, match="negative"):
            cone_returns([-0.5, -0.5, 0.0])

    def test_verify_rejects_nonzero_residual(self, cone_returns):
        with pytest.raises(WitnessVerificationError, match="residual"):
            cone_returns([0.5, 0.5, 0.25])

    def test_verify_rejects_trivial_combination(self, cone_returns):
        with pytest.raises(WitnessVerificationError, match="zero"):
            cone_returns([0.0, 0.0, 0.0])
