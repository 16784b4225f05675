"""Hyperparameter-selection family tests: data plumbing, QP, index charts."""

import json
import pathlib

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from mpecq import (BhoInstance, BhoPoint, ClassificationError,
                   ConvergenceError, Dataset, FoldSplit, InfeasiblePointError,
                   InputError, Tolerances, assemble_feasible_point,
                   assemble_gamma, check_feasibility, check_licq_theorem,
                   check_mfcq_r_theorem, check_mpec_licq, check_mpec_mfcq_r,
                   bho, classify_active, classify_lambda_psi, fold_knots,
                   gamma_matches_generic, load_dataset_csv, lower_level_solve,
                   misclassification_oracle, solve_all_folds, split_folds,
                   structured_index_sets, to_evaluation, validation_error)
from mpecq.fuzz import gen_bho_case
from _oracles import (face_projected_gradient_qp, loop_misclassification,
                      projected_gradient_qp)
from conftest import PINNED_TOL

TOL = Tolerances()
GOLDEN = pathlib.Path(__file__).parent / "golden"


def make_instance(seed=0, T=2, m1=2, m2=3, p=3, extra=1):
    rng = np.random.default_rng(seed)
    N = T * (m1 + m2) + extra
    dataset = Dataset(rng.normal(size=(N, p)), rng.choice([-1.0, 1.0], size=N))
    split = split_folds(dataset, T, m1, m2, seed)
    return dataset, split, BhoInstance.from_dataset(dataset, split)


def exemplar_instance():
    """One fold, every margin decided, both biactive families present.

    Training rows (1,0) and (1,0) with alpha = (C, 0) = (1, 0) give
    s = (1, 1): index 0 sits at the box bound with a tight margin,
    index 1 is inactive with a tight margin.  Validation rows (1,0)
    and (-1,0) give margins (1, -1): one correct, one misclassified.
    """
    A = np.array([[1.0, 0.0], [-1.0, 0.0]])
    B = np.array([[1.0, 0.0], [1.0, 0.0]])
    instance = BhoInstance(1, 2, 2, 2, A, B)
    alphas = [np.array([1.0, 0.0])]
    return instance, 1.0, alphas


class TestCsvLoading:
    def test_with_header_and_binary_labels(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,b,y\n1.0,2.0,1\n-1.0,0.5,0\n")
        ds = load_dataset_csv(path)
        assert ds.size == 2 and ds.n_features == 2
        np.testing.assert_array_equal(ds.labels, [1.0, -1.0])

    def test_without_header_signed_labels(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1.0,2.0,1\n-1.0,0.5,-1\n")
        ds = load_dataset_csv(path)
        np.testing.assert_array_equal(ds.labels, [1.0, -1.0])

    def test_ragged_row_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1.0,2.0,1\n-1.0,-1\n")
        with pytest.raises(InputError):
            load_dataset_csv(path)

    def test_bad_labels_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1.0,2.0,3\n-1.0,0.5,1\n")
        with pytest.raises(InputError):
            load_dataset_csv(path)

    def test_empty_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("")
        with pytest.raises(InputError):
            load_dataset_csv(path)


class TestFoldSplit:
    def test_deterministic_and_disjoint(self):
        rng = np.random.default_rng(1)
        ds = Dataset(rng.normal(size=(12, 2)), rng.choice([-1.0, 1.0], size=12))
        s1 = split_folds(ds, 2, 2, 3, seed=9)
        s2 = split_folds(ds, 2, 2, 3, seed=9)
        assert s1 == s2
        used = [i for t in range(2) for i in s1.validation[t] + s1.training[t]]
        assert len(used) == len(set(used)) == 10
        assert split_folds(ds, 2, 2, 3, seed=10) != s1

    def test_insufficient_data(self):
        ds = Dataset(np.zeros((3, 2)), np.ones(3))
        with pytest.raises(InputError):
            split_folds(ds, 2, 2, 3, seed=0)


class TestInstanceAssembly:
    @pytest.mark.parametrize("key", ["T", "m1", "m2", "p"])
    def test_integral_float_count_is_read(self, key):
        _, _, inst = make_instance()
        data = inst.to_dict()
        data[key] = float(data[key])
        assert BhoInstance.from_dict(data).to_dict() == inst.to_dict()

    @pytest.mark.parametrize("value", [2.5, True, "3"], ids=["fraction", "boolean", "string"])
    @pytest.mark.parametrize("key", ["T", "m1", "m2", "p"])
    def test_count_that_is_not_an_integer_is_input_error(self, key, value):
        _, _, inst = make_instance()
        data = dict(inst.to_dict(), **{key: value})
        with pytest.raises(InputError, match=f"^instance record: {key}: expected an integer"):
            BhoInstance.from_dict(data)

    def test_dimensions(self):
        _, _, inst = make_instance()
        assert inst.n == 2 * 2 * (2 + 3) + 1 == 21
        assert inst.A.shape == (4, 6)
        assert inst.B.shape == (6, 6)

    def test_block_diagonal_structure(self):
        _, _, inst = make_instance()
        # fold 0 rows live in fold 0 feature columns only
        assert np.all(inst.A[:2, 3:] == 0.0)
        assert np.all(inst.A[2:, :3] == 0.0)
        assert np.all(inst.B[:3, 3:] == 0.0)
        assert np.all(inst.B[3:, :3] == 0.0)

    def test_constraint_values_match_entrywise_oracle(self):
        """G/H values from the matrices equal hand-computed per-sample values."""
        dataset, split, inst = make_instance(seed=3)
        rng = np.random.default_rng(7)
        point = BhoPoint(1.7, rng.uniform(size=4), rng.uniform(size=4),
                         rng.uniform(size=6), rng.uniform(size=6))
        ev = to_evaluation(inst, point)
        T, m1, m2 = split.T, split.m1, split.m2
        nv, nt = T * m1, T * m2
        for t in range(T):
            w = np.zeros(dataset.n_features)
            for r, k in enumerate(split.training[t]):
                w += point.alpha[t * m2 + r] * dataset.labels[k] * dataset.features[k]
            for r, k in enumerate(split.validation[t]):
                i = t * m1 + r
                margin = dataset.labels[k] * float(dataset.features[k] @ w)
                assert ev.G_vals[i] == pytest.approx(point.z[i] + margin, rel=1e-12, abs=1e-12)
                assert ev.G_vals[nv + i] == pytest.approx(1.0 - point.zeta[i], abs=1e-12)
                assert ev.H_vals[i] == pytest.approx(point.zeta[i], abs=1e-12)
                assert ev.H_vals[nv + i] == pytest.approx(point.z[i], abs=1e-12)
            for r, k in enumerate(split.training[t]):
                j = t * m2 + r
                sj = dataset.labels[k] * float(dataset.features[k] @ w)
                assert ev.G_vals[2 * nv + j] == pytest.approx(
                    sj - 1.0 + point.xi[j], rel=1e-12, abs=1e-12)
                assert ev.G_vals[2 * nv + nt + j] == pytest.approx(
                    point.C - point.alpha[j], abs=1e-12)
                assert ev.H_vals[2 * nv + j] == pytest.approx(point.alpha[j], abs=1e-12)
                assert ev.H_vals[2 * nv + nt + j] == pytest.approx(point.xi[j], abs=1e-12)

    def test_constraint_matrices_reproduce_evaluation(self):
        _, _, inst = make_instance(seed=4)
        P, a, Q = inst.constraint_matrices()
        rng = np.random.default_rng(0)
        point = BhoPoint(0.8, rng.uniform(size=4), rng.uniform(size=4),
                         rng.uniform(size=6), rng.uniform(size=6))
        v = point.to_vector()
        ev = to_evaluation(inst, point)
        np.testing.assert_allclose(P @ v + a, ev.G_vals, rtol=0, atol=1e-14)
        np.testing.assert_array_equal(Q @ v, v[1:])
        np.testing.assert_array_equal(np.asarray(ev.H_vals), v[1:])
        np.testing.assert_allclose(np.asarray(ev.G_grads), P, rtol=0, atol=0)
        # built once per instance and handed out read-only
        again = inst.constraint_matrices()
        for first, second in zip((P, a, Q), again):
            assert first is second
            assert not first.flags.writeable
        # and shared, not copied, by every evaluation
        for grads, matrix in ((ev.G_grads, P), (ev.H_grads, Q)):
            assert np.shares_memory(grads, matrix) and not grads.flags.writeable

    def test_round_trip(self):
        _, _, inst = make_instance()
        again = BhoInstance.from_dict(inst.to_dict())
        assert again.T == inst.T and again.p == inst.p
        np.testing.assert_array_equal(again.A, inst.A)
        np.testing.assert_array_equal(again.B, inst.B)


def classes(inst, C, alpha):
    """Activity classes of the point assembled from one fold's alpha."""
    try:
        point, _ = assemble_feasible_point(inst, C, [alpha], TOL)
        return classify_lambda_psi(inst, point, TOL)
    except (ClassificationError, InfeasiblePointError) as exc:
        return type(exc).__name__


class TestLowerLevelSolve:
    def test_zero_penalty_gives_zero(self):
        _, _, inst = make_instance()
        np.testing.assert_array_equal(lower_level_solve(inst, 0, 0.0), np.zeros(3))

    def test_scalar_fold_analytic(self):
        # single training sample with |b|^2 = 4: unconstrained optimum 1/4
        inst = BhoInstance(1, 1, 1, 1, np.array([[1.0]]), np.array([[2.0]]))
        alpha = lower_level_solve(inst, 0, 10.0)
        assert alpha[0] == pytest.approx(0.25, abs=1e-9)
        # small box clips at the bound
        alpha = lower_level_solve(inst, 0, 0.1)
        assert alpha[0] == pytest.approx(0.1, abs=1e-12)

    def test_negative_penalty_rejected(self):
        _, _, inst = make_instance()
        with pytest.raises(InputError):
            lower_level_solve(inst, 0, -1.0)

    @pytest.mark.parametrize("C", [np.nan, np.inf, -np.inf])
    def test_non_finite_penalty_rejected(self, C):
        _, _, inst = make_instance()
        with pytest.raises(InputError, match="finite"):
            lower_level_solve(inst, 0, C)
        assert inst._paths == {}  # rejected before any path is built

    @pytest.mark.parametrize("fold", [-1, 2])
    @pytest.mark.parametrize("C", [0.0, 1.0])
    def test_fold_outside_the_instance_rejected(self, fold, C):
        _, _, inst = make_instance()  # T = 2
        with pytest.raises(InputError, match="fold"):
            lower_level_solve(inst, fold, C)
        assert inst._paths == {}

    def test_budget_exhaustion_raises_with_residual(self, monkeypatch):
        monkeypatch.setattr(bho, "_BUDGET", 1)
        _, _, inst = make_instance()
        with pytest.raises(ConvergenceError, match="reached 1 segments") as exc:
            lower_level_solve(inst, 0, 1.0)
        assert exc.value.residual > 0
        assert exc.value.iterations == 1

    def test_rounding_above_tolerance_raises_at_once(self):
        # rank-1 Gram whose range excludes 1: the solution has alpha_0 = C
        # and alpha_1 = (1 + 2C) / 4, where rounding in K a is about 1 > tol,
        # as in the ill-conditioned `ahat0` fuzz draws; the path's one read
        # at C misses tol and nothing else is tried
        inst = BhoInstance(1, 1, 2, 1, np.array([[1.0]]), np.array([[1.0], [-2.0]]))
        with pytest.raises(ConvergenceError, match="misses tolerance") as exc:
            lower_level_solve(inst, 0, 1e16)
        assert exc.value.iterations == 2  # one breakpoint below C, one read
        assert exc.value.residual > 1e-9

    @given(st.integers(0, 2 ** 31 - 1), st.integers(1, 6), st.integers(1, 4),
           st.floats(-2.0, 2.0))
    @settings(max_examples=80, deadline=None)
    def test_matches_projected_gradient(self, seed, m2, p, log_c):
        # m2 > p draws rank-deficient Grams; 25 breakpoints are more than
        # a path over at most 6 samples takes, plain projected gradient
        # takes thousands of iterations
        rng = np.random.default_rng(seed)
        inst = BhoInstance(1, 2, m2, p, rng.normal(size=(2, p)), rng.normal(size=(m2, p)))
        C = 10.0 ** log_c
        K = inst.fold_training_gram(0)
        alpha = lower_level_solve(inst, 0, C)
        assert np.searchsorted(inst._paths[0].knots, C) <= 25
        reference, converged = projected_gradient_qp(K, C)

        def objective(a):
            return 0.5 * float(a @ (K @ a)) - float(a.sum())

        grad = K @ alpha - 1.0
        assert np.abs(alpha - np.clip(alpha - grad, 0.0, C)).max() <= 1e-9
        assert alpha.min() >= 0.0 and alpha.max() <= C
        assert objective(alpha) <= objective(reference) + 1e-9 * (1.0 + abs(objective(alpha)))
        free = np.flatnonzero((alpha > 0.0) & (alpha < C))
        if converged and np.linalg.matrix_rank(K[np.ix_(free, free)]) == free.size:
            assert classes(inst, C, alpha) == classes(inst, C, reference)

    @pytest.mark.parametrize("seed,C", [(0, 0.5), (1, 1.0), (2, 10.0), (3, 0.05)])
    def test_kkt_residual_small(self, seed, C):
        _, _, inst = make_instance(seed=seed)
        for t in range(inst.T):
            alpha = lower_level_solve(inst, t, C)
            K = inst.fold_training_gram(t)
            grad = K @ alpha - 1.0
            residual = np.abs(alpha - np.clip(alpha - grad, 0.0, C)).max()
            assert residual <= 1e-9
            assert alpha.min() >= 0.0 and alpha.max() <= C


def natural_residual(K, alpha, C):
    return np.abs(alpha - np.clip(alpha - (K @ alpha - 1.0), 0.0, C)).max()


def qp_objective(K, alpha):
    return 0.5 * float(alpha @ (K @ alpha)) - float(alpha.sum())


def gaussian_fold(rng):
    """Gaussian training rows, rank-deficient when m2 > p."""
    m2, p = int(rng.integers(1, 9)), int(rng.integers(1, 6))
    return rng.normal(size=(m2, p))


def duplicated_rows_fold(rng):
    """Gaussian rows of which k in 1..m2-1 are overwritten by copies."""
    m2, p = int(rng.integers(2, 9)), int(rng.integers(1, 6))
    B = rng.normal(size=(m2, p))
    for _ in range(int(rng.integers(1, m2))):
        src, dst = rng.integers(m2, size=2)
        B[dst] = B[src]
    return B


def binary_features_fold(rng):
    """Rows y x with x in {0, 1}^p and y = +-1; None when every x is 0."""
    m2, p = int(rng.integers(3, 12)), int(rng.integers(2, 6))
    X = rng.integers(0, 2, size=(m2, p)).astype(float)
    B = rng.choice([-1.0, 1.0], size=m2)[:, None] * X
    return B if B.any() else None


# rows tied at a breakpoint: copies, and 0/1 features that repeat rows or
# add up to other rows; both make K_FF singular where the tied rows enter
FOLDS = {"gaussian": gaussian_fold, "duplicated": duplicated_rows_fold,
         "binary": binary_features_fold}


class TestRegularizationPath:
    @given(st.integers(0, 2 ** 31 - 1), st.integers(1, 8), st.integers(1, 5),
           st.floats(-2.0, 2.0))
    @settings(max_examples=60, deadline=None)
    def test_path_matches_iteration_and_oracle(self, seed, m2, p, log_c):
        # m2 > p draws rank-deficient Grams, m2 <= p full-rank ones; the
        # iteration is gradient projection with exact face steps
        rng = np.random.default_rng(seed)
        inst = BhoInstance(1, 2, m2, p, rng.normal(size=(2, p)), rng.normal(size=(m2, p)))
        C = 10.0 ** log_c
        K = inst.fold_training_gram(0)
        alpha = lower_level_solve(inst, 0, C)
        assert C <= inst._paths[0].knots[-1]  # the path answered
        iterate = face_projected_gradient_qp(K, C, 1e-9, 100000)
        reference, _ = projected_gradient_qp(K, C)
        assert natural_residual(K, alpha, C) <= 1e-9
        assert alpha.min() >= 0.0 and alpha.max() <= C
        scale = 1e-9 * (1.0 + abs(qp_objective(K, iterate)))
        assert abs(qp_objective(K, alpha) - qp_objective(K, iterate)) <= scale
        assert qp_objective(K, alpha) <= qp_objective(K, reference) + scale

    @given(st.sampled_from(sorted(FOLDS)), st.integers(0, 2 ** 31 - 1),
           st.floats(-2.0, 2.0))
    @settings(max_examples=120, deadline=None)
    def test_path_matches_oracle(self, family, seed, log_c):
        rng = np.random.default_rng(seed)
        B = FOLDS[family](rng)
        assume(B is not None)
        m2, p = B.shape
        inst = BhoInstance(1, 2, m2, p, rng.normal(size=(2, p)), B)
        C = 10.0 ** log_c
        K = inst.fold_training_gram(0)
        alpha = lower_level_solve(inst, 0, C)
        assert C <= inst._paths[0].knots[-1]  # the path covers C
        assert np.searchsorted(inst._paths[0].knots, C) <= 25
        reference, converged = projected_gradient_qp(K, C)
        assert natural_residual(K, alpha, C) <= 1e-9
        assert alpha.min() >= 0.0 and alpha.max() <= C
        scale = 1e-9 * (1.0 + abs(qp_objective(K, alpha)))
        assert qp_objective(K, alpha) <= qp_objective(K, reference) + scale
        # a basic alpha without biactive pairs is the unique solution; at
        # a tie, solutions split along the null space of K and so do classes
        ours = classes(inst, C, alpha)
        if converged and (isinstance(ours, str) or not (ours.lam1 or ours.lam3_c)):
            assert classes(inst, C, reference) == ours

    @pytest.mark.parametrize("family,seeds,grid", [
        ("duplicated", range(300), None),
        ("binary", range(200), (0.01, 0.1, 1.0, 10.0, 100.0))])
    def test_tie_families_cover_every_C(self, family, seeds, grid):
        # bounded run of the tie families; every solve is read off the path
        solves = 0
        for seed in seeds:
            rng = np.random.default_rng(seed)
            B = FOLDS[family](rng)
            if B is None:
                continue
            inst = BhoInstance(1, 1, *B.shape, np.zeros((1, B.shape[1])), B)
            K = inst.fold_training_gram(0)
            for C in grid or 10.0 ** rng.uniform(-2.0, 2.0, size=3):
                alpha = lower_level_solve(inst, 0, C)
                assert natural_residual(K, alpha, C) <= 1e-9
                solves += 1
            assert inst._paths[0].knots[-1] == np.inf  # the whole path
        assert solves >= 2 * len(seeds)

    def test_two_sample_breakpoints_by_hand(self):
        # K = [[4, 2], [2, 5]].  From C = 0 both alphas sit at C with
        # gradient C (6, 7) - 1, so index 1 frees at C = 1/7.  Then
        # alpha_1 = (1 - 2C) / 5 and the gradient of index 0 is
        # 16 C / 5 - 3 / 5, which frees it at C = 3/16 before alpha_1
        # reaches 0 (at C = 1/2).  From there alpha = K^-1 1 = (3, 2) / 16.
        inst = BhoInstance(1, 1, 2, 2, np.array([[1.0, 0.0]]),
                           np.array([[2.0, 0.0], [1.0, 2.0]]))
        np.testing.assert_allclose(lower_level_solve(inst, 0, 1.0), [3 / 16, 2 / 16],
                                   rtol=0, atol=1e-15)
        path = inst._paths[0]
        np.testing.assert_allclose(path.knots, [0.0, 1 / 7, 3 / 16, np.inf], rtol=1e-15)
        np.testing.assert_allclose(path.a, [[0, 0], [0, 1 / 5], [3 / 16, 2 / 16]],
                                   rtol=0, atol=1e-15)
        np.testing.assert_allclose(path.b, [[1, 1], [1, -2 / 5], [0, 0]], rtol=0, atol=1e-15)
        np.testing.assert_allclose(lower_level_solve(inst, 0, 0.1), [0.1, 0.1],
                                   rtol=0, atol=1e-15)
        np.testing.assert_allclose(lower_level_solve(inst, 0, 0.16), [0.16, 0.136],
                                   rtol=0, atol=1e-15)

    def test_duplicated_row_continues_past_the_tie(self):
        # rows 0 and 1 coincide: their gradients reach 0 together at
        # C = 1/2, where freeing both would make K_FF singular; one enters
        # and the other stays at its bound with its gradient at 0
        inst = BhoInstance(1, 1, 3, 2, np.array([[1.0, 0.0]]),
                           np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 2.0]]))
        K = inst.fold_training_gram(0)
        np.testing.assert_array_equal(lower_level_solve(inst, 0, 0.4), [0.4, 0.4, 0.25])
        alpha = lower_level_solve(inst, 0, 1.0)
        path = inst._paths[0]
        assert path.knots[-1] >= 1.0
        assert natural_residual(K, alpha, 1.0) <= 1e-9
        assert qp_objective(K, alpha) == pytest.approx(-0.625, abs=1e-12)
        # past the tie the in-span row raises no event: the path ends
        lower_level_solve(inst, 0, 100.0)
        assert path.knots[-1] == np.inf

    def test_second_call_reuses_read_only_path(self):
        _, _, inst = make_instance(seed=2)
        assert inst._paths == {}  # nothing is built before the first solve
        solve_all_folds(inst, 10.0)
        assert sorted(inst._paths) == list(range(inst.T))
        path = inst._paths[0]
        arrays = (path.knots, path.a, path.b)
        for arr in arrays:
            assert not arr.flags.writeable
        # a second read reuses the same path and arrays
        lower_level_solve(inst, 0, 0.5)
        assert inst._paths[0] is path
        assert all(x is y for x, y in zip(arrays, (path.knots, path.a, path.b)))
        with pytest.raises(ValueError):
            path.a[0, 0] = 1.0

    def test_fold_knots_read_the_solver_path(self):
        # the two-sample example above: the whole path breaks at 1/7, 3/16
        inst = BhoInstance(1, 1, 2, 2, np.array([[1.0, 0.0]]),
                           np.array([[2.0, 0.0], [1.0, 2.0]]))
        knots = fold_knots(inst, 0)
        np.testing.assert_allclose(knots, [1 / 7, 3 / 16], rtol=1e-15)
        assert not knots.flags.writeable
        path = inst._paths[0]
        lower_level_solve(inst, 0, 1.0)
        assert inst._paths[0] is path
        with pytest.raises(InputError):
            fold_knots(inst, 1)

    def test_first_read_builds_the_whole_path(self):
        # a read below the first knot (1/7) already builds to C = inf;
        # fold_knots then reads the same arrays, with nothing rebuilt
        inst = BhoInstance(1, 1, 2, 2, np.array([[1.0, 0.0]]),
                           np.array([[2.0, 0.0], [1.0, 2.0]]))
        lower_level_solve(inst, 0, 0.1)
        path = inst._paths[0]
        knots = path.knots
        assert knots[-1] == np.inf and len(path.a) == 3
        inner = fold_knots(inst, 0)
        assert inst._paths[0] is path and path.knots is knots
        assert inner.base is knots
        np.testing.assert_array_equal(inner, knots[1:-1])

    def test_fold_knots_raise_past_the_budget(self, monkeypatch):
        def two_sample():
            return BhoInstance(1, 1, 2, 2, np.array([[1.0, 0.0]]),
                               np.array([[2.0, 0.0], [1.0, 2.0]]))

        monkeypatch.setattr(bho, "_BUDGET", 2)  # the path has 3 segments
        with pytest.raises(ConvergenceError, match="reached 2 segments"):
            fold_knots(two_sample(), 0)
        monkeypatch.setattr(bho, "_BUDGET", 3)
        np.testing.assert_allclose(fold_knots(two_sample(), 0), [1 / 7, 3 / 16], rtol=1e-15)


class TestAssembly:
    def test_assembled_point_is_feasible(self):
        _, _, inst = make_instance(seed=5)
        alphas = solve_all_folds(inst, 1.0)
        point, flags = assemble_feasible_point(inst, 1.0, alphas, TOL)
        assert check_feasibility(to_evaluation(inst, point), TOL).feasible

    def test_zero_margin_is_flagged(self):
        # the single validation sample is orthogonal to all training samples
        X = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        ds = Dataset(X, np.ones(3))
        split = FoldSplit(1, 1, 2, ((2,),), ((0, 1),), 0)
        inst = BhoInstance.from_dataset(ds, split)
        alphas = solve_all_folds(inst, 1.0)
        point, flags = assemble_feasible_point(inst, 1.0, alphas, TOL)
        assert flags == (0,)
        lp = classify_lambda_psi(inst, point, TOL)
        assert ("pair1_biactive", 0) in lp.assumption_flags


class TestActivityClasses:
    def test_exemplar_classes(self):
        instance, C, alphas = exemplar_instance()
        point, flags = assemble_feasible_point(instance, C, alphas, TOL)
        assert flags == ()
        lp = classify_lambda_psi(instance, point, TOL)
        assert lp.lam3_c == (0,)
        assert lp.lam1 == (1,)
        assert lp.lam2 == lp.lam3_plus == lp.lam_u == ()
        assert lp.psi2 == (0,) and lp.psi3 == (1,)
        assert lp.assumption_flags == ()
        # biactive charts follow the classes
        assert lp.i_gh3 == (1,) and lp.i_gh4 == (0,)
        assert lp.lam3 == (0,)

    def test_slack_and_interior_classes(self):
        # training rows (1,0) and (2,0): optimum alpha = (1, 0) at C = 1
        # puts index 0 at the bound with margin 1 and index 1 inactive
        # with margin 2 > 1
        A = np.array([[1.0, 0.0]])
        B = np.array([[1.0, 0.0], [2.0, 0.0]])
        instance = BhoInstance(1, 1, 2, 2, A, B)
        point, _ = assemble_feasible_point(instance, 1.0, [np.array([1.0, 0.0])], TOL)
        lp = classify_lambda_psi(instance, point, TOL)
        assert lp.lam3_c == (0,) and lp.lam2 == (1,)
        # scalar Gram 4: interior optimum 1/4 at large C, slack bound at small C
        inst1 = BhoInstance(1, 1, 1, 1, np.array([[1.0]]), np.array([[2.0]]))
        pt, _ = assemble_feasible_point(inst1, 10.0, [np.array([0.25])], TOL)
        assert classify_lambda_psi(inst1, pt, TOL).lam3_plus == (0,)
        pt, _ = assemble_feasible_point(inst1, 0.1, [np.array([0.1])], TOL)
        assert classify_lambda_psi(inst1, pt, TOL).lam_u == (0,)

    def test_inconsistent_point_rejected(self):
        # interior alpha whose optimality residual is far from zero
        instance = BhoInstance(1, 1, 2, 2, np.array([[1.0, 0.0]]), np.eye(2))
        point = BhoPoint(1.0, np.zeros(1), np.zeros(1),
                         np.array([0.5, 0.0]), np.zeros(2))
        with pytest.raises(ClassificationError):
            classify_lambda_psi(instance, point, TOL)

    def test_solved_points_classify_cleanly(self):
        for seed in range(4):
            _, _, inst = make_instance(seed=seed)
            alphas = solve_all_folds(inst, 1.0)
            point, flags = assemble_feasible_point(inst, 1.0, alphas, TOL)
            lp = classify_lambda_psi(inst, point, TOL)
            counted = (len(lp.lam1) + len(lp.lam2) + len(lp.lam3_plus)
                       + len(lp.lam3_c) + len(lp.lam_u))
            assert counted == inst.n_training
            assert len(lp.psi2) + len(lp.psi3) + len(lp.assumption_flags) \
                == inst.n_validation


class TestIndexCharts:
    @pytest.mark.parametrize("seed,C", [(0, 1.0), (1, 0.3), (2, 3.0), (5, 0.1)])
    def test_structured_sets_match_generic(self, seed, C):
        _, _, inst = make_instance(seed=seed)
        alphas = solve_all_folds(inst, C)
        point, flags = assemble_feasible_point(inst, C, alphas, TOL)
        lp = classify_lambda_psi(inst, point, TOL)
        if lp.assumption_flags:
            pytest.skip("distinct-classification assumption violated")
        sets = structured_index_sets(inst, lp)
        pattern = classify_active(to_evaluation(inst, point), TOL)
        assert sets["I_G"] == pattern.I_G
        assert sets["I_H"] == pattern.I_H
        assert sets["I_GH"] == pattern.I_GH

    def test_exemplar_sets_by_hand(self):
        instance, C, alphas = exemplar_instance()
        point, _ = assemble_feasible_point(instance, C, alphas, TOL)
        lp = classify_lambda_psi(instance, point, TOL)
        sets = structured_index_sets(instance, lp)
        # pairs: family 1 at 0..1, family 2 at 2..3, family 3 at 4..5,
        # family 4 at 6..7; biactive: family 3 of index 1, family 4 of index 0
        assert sets["I_GH"] == (5, 6)
        assert sets["I_G"] == (1, 3, 4)
        assert sets["I_H"] == (0, 2, 7)

    @pytest.mark.parametrize("seed,C", [(0, 1.0), (3, 0.5), (4, 2.0)])
    def test_gamma_matches_generic_bundle(self, seed, C):
        _, _, inst = make_instance(seed=seed)
        alphas = solve_all_folds(inst, C)
        point, flags = assemble_feasible_point(inst, C, alphas, TOL)
        lp = classify_lambda_psi(inst, point, TOL)
        if lp.assumption_flags:
            pytest.skip("distinct-classification assumption violated")
        gm = assemble_gamma(inst, lp)
        assert gm.identity_ok
        ev = to_evaluation(inst, point)
        assert gamma_matches_generic(gm, ev, classify_active(ev, TOL))

    def test_gamma_exemplar_rows_and_count(self):
        instance, C, alphas = exemplar_instance()
        point, _ = assemble_feasible_point(instance, C, alphas, TOL)
        lp = classify_lambda_psi(instance, point, TOL)
        gm = assemble_gamma(instance, lp)
        # n = 9, |I_G| = |I_H| = 3: row count 2*8 - 6 = 10
        assert gm.matrix.shape == (10, 9)
        assert gm.identity_ok
        labels = {prov[0] for prov in gm.provenance}
        assert labels == {"I_G1", "I_H1", "I_G2", "I_H2", "I_G3_bound",
                          "I_GH3_G", "I_GH3_H", "I_GH4_G", "I_GH4_H", "I_H4"}
        ev = to_evaluation(instance, point)
        assert gamma_matches_generic(gm, ev, classify_active(ev, TOL))

    def test_zero_feature_dataset_flags_everything(self):
        ds = Dataset(np.zeros((6, 2)), np.ones(6))
        split = split_folds(ds, 1, 2, 3, seed=0)
        inst = BhoInstance.from_dataset(ds, split)
        alphas = solve_all_folds(inst, 1.0)  # zero Gram: alpha hits the bound
        point, flags = assemble_feasible_point(inst, 1.0, alphas, TOL)
        assert flags == (0, 1)
        lp = classify_lambda_psi(inst, point, TOL)
        assert len(lp.assumption_flags) == 2
        assert lp.lam_u == (0, 1, 2)
        assert not assemble_gamma(inst, lp).identity_ok


def solved_point(seed, C):
    """A solved point of `make_instance(seed)` at C, with its classes."""
    _, _, inst = make_instance(seed=seed)
    point, _ = assemble_feasible_point(inst, C, solve_all_folds(inst, C), TOL)
    return inst, point, classify_lambda_psi(inst, point, TOL)


def scaled_copy(inst, scale, B=None):
    """The instance with every feature times `scale` (B replaced if given)."""
    B = inst.B if B is None else B
    return BhoInstance(inst.T, inst.m1, inst.m2, inst.p, scale * inst.A, scale * B)


THEOREMS = (check_licq_theorem, check_mfcq_r_theorem)


class TestTheorems:
    @pytest.mark.parametrize("mode,case,seed", [
        ("plain", "no_biactive", 101), ("gh3", "single_gh3", 102),
        ("gh4", "single_gh4", 103), ("multi", "multi_biactive", 104),
        ("ahat0", "ahat_zero", 105)])
    def test_forced_branches_agree_with_generic(self, mode, case, seed):
        bundle = gen_bho_case(np.random.default_rng(seed), mode, TOL)
        point, flags = assemble_feasible_point(bundle.instance, bundle.C,
                                               bundle.alphas, TOL)
        lp = classify_lambda_psi(bundle.instance, point, TOL)
        thm = check_licq_theorem(bundle.instance, point, lp, TOL)
        if mode != "plain":
            assert thm.case == case
        if thm.status in ("holds", "fails"):
            ev = to_evaluation(bundle.instance, point)
            generic = check_mpec_licq(ev, classify_active(ev, TOL), TOL)
            assert generic.status == thm.status

    @pytest.mark.parametrize("mode,seed", [
        ("plain", 101), ("gh3", 102), ("gh4", 103), ("multi", 104), ("ahat0", 105)])
    def test_case_carries_what_a_fresh_solve_computes(self, mode, seed):
        case = gen_bho_case(np.random.default_rng(seed), mode, TOL)
        point, _ = assemble_feasible_point(case.instance, case.C, case.alphas, TOL)
        classes = classify_lambda_psi(case.instance, point, TOL)
        assert case.point.to_dict() == point.to_dict()
        assert case.classes == classes
        assert case.licq == check_licq_theorem(case.instance, point, classes, TOL)

    @pytest.mark.parametrize("mode", ["gh3", "gh4", "multi", "ahat0"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_forced_cases_keep_their_data(self, mode, seed):
        # a forced case is the dataset's own instance at a C read off its
        # path: a knot, or twice the last knot for ahat0
        case = gen_bho_case(np.random.default_rng(seed), mode, TOL)
        rebuilt = BhoInstance.from_dataset(case.dataset, case.split)
        assert rebuilt.A.tobytes() == case.instance.A.tobytes()
        assert rebuilt.B.tobytes() == case.instance.B.tobytes()
        knots = [fold_knots(case.instance, t) for t in range(case.instance.T)]
        if mode == "ahat0":
            assert case.C == 2.0 * np.concatenate(knots).max()
        else:
            assert case.C in np.concatenate(knots[:1] if mode == "multi" else knots)

    def test_exemplar_multi_biactive_fails(self):
        instance, C, alphas = exemplar_instance()
        point, _ = assemble_feasible_point(instance, C, alphas, TOL)
        lp = classify_lambda_psi(instance, point, TOL)
        thm = check_licq_theorem(instance, point, lp, TOL)
        assert thm.status == "fails" and thm.case == "multi_biactive"
        ev = to_evaluation(instance, point)
        assert check_mpec_licq(ev, classify_active(ev, TOL), TOL).status == "fails"

    def test_mfcq_r_theorem_confirmed_by_generic(self):
        hits = 0
        for seed in range(6):
            _, _, inst = make_instance(seed=seed)
            alphas = solve_all_folds(inst, 1.0)
            point, flags = assemble_feasible_point(inst, 1.0, alphas, TOL)
            lp = classify_lambda_psi(inst, point, TOL)
            thm = check_mfcq_r_theorem(inst, point, lp, TOL)
            if thm.status != "holds":
                continue
            hits += 1
            ev = to_evaluation(inst, point)
            assert check_mpec_mfcq_r(ev, classify_active(ev, TOL), TOL).status == "holds"
        assert hits > 0

    @pytest.mark.parametrize("name, case", [("fuzz_multi_mfcqr", "multi_biactive"),
                                            ("fuzz_ahat0_mfcqr", "ahat_zero")])
    def test_mfcq_r_theorem_on_kept_corpus_points(self, name, case):
        # a multi and an ahat0 point of an earlier fuzz corpus, drawn by
        # rescaling two training rows and by solving for a C where ahat
        # vanishes, kept as {instance, point} records: the Gram block over
        # lam1 and lam3 is positive definite there, which an ahat0 tie
        # drawn now never gives
        record = json.loads((GOLDEN / f"{name}.json").read_text())
        inst = BhoInstance.from_dict(record["instance"])
        point = BhoPoint.from_dict(record["point"])
        lp = classify_lambda_psi(inst, point, PINNED_TOL)
        assert check_licq_theorem(inst, point, lp, PINNED_TOL).case == case
        assert check_mfcq_r_theorem(inst, point, lp, PINNED_TOL).status == "holds"
        ev = to_evaluation(inst, point)
        pattern = classify_active(ev, PINNED_TOL)
        assert len(pattern.I_GH) == (2 if case == "multi_biactive" else 1)
        assert check_mpec_mfcq_r(ev, pattern, PINNED_TOL).status == "holds"

    @pytest.mark.parametrize("theorem", THEOREMS)
    def test_gram_hypothesis_ignores_feature_scale(self, theorem):
        # a Gram block is positive definite exactly when it has full
        # rank, and the rank cutoff is relative: scaling the features
        # by 1e-6 scales the block by 1e-12 and moves no verdict
        inst, point, lp = solved_point(0, 1.0)
        assert lp.lam3_plus and not (lp.lam1 or lp.lam3_c)  # k = 0
        base = theorem(inst, point, lp, TOL)
        small = theorem(scaled_copy(inst, 1e-6), point, lp, TOL)
        assert base.status == "holds"
        assert (small.status, small.case) == (base.status, base.case)

    @pytest.mark.parametrize("scale", [1.0, 1e-6])
    def test_tied_gram_block_is_undecided(self, scale):
        inst, point, lp = solved_point(0, 1.0)
        assert {0, 1} <= set(lp.lam3_plus)
        B = inst.B.copy()
        B[1] = B[0]  # training rows 0 and 1 of fold 0 tie
        tied = scaled_copy(inst, scale, B)
        for theorem in THEOREMS:
            assert theorem(tied, point, lp, TOL).status == "undecided"

    def test_empty_gram_block_holds(self):
        inst, point, lp = solved_point(0, 0.3)
        assert not (lp.lam1 or lp.lam3)
        assert check_licq_theorem(inst, point, lp, TOL).case == "no_biactive"
        assert check_mfcq_r_theorem(inst, point, lp, TOL).case == "gram_pd"
        for theorem in THEOREMS:
            assert theorem(inst, point, lp, TOL).status == "holds"

    def test_flags_force_undecided(self):
        ds = Dataset(np.zeros((6, 2)), np.ones(6))
        split = split_folds(ds, 1, 2, 3, seed=0)
        inst = BhoInstance.from_dataset(ds, split)
        alphas = solve_all_folds(inst, 1.0)
        point, _ = assemble_feasible_point(inst, 1.0, alphas, TOL)
        lp = classify_lambda_psi(inst, point, TOL)
        assert check_licq_theorem(inst, point, lp, TOL).status == "undecided"
        assert check_mfcq_r_theorem(inst, point, lp, TOL).status == "undecided"


class TestValidationError:
    def test_hand_computed_case(self):
        # one training sample (2,0): alpha = 1/4, w = (1/2, 0); validation
        # samples (1,0) and (-1,1) with label +1 score margins +1/2 and -1/2
        X = np.array([[1.0, 0.0], [2.0, 0.0], [-1.0, 1.0]])
        ds = Dataset(X, np.ones(3))
        split = FoldSplit(1, 2, 1, ((0, 2),), ((1,),), 0)
        inst = BhoInstance.from_dataset(ds, split)
        alphas = solve_all_folds(inst, 1.0)
        assert alphas[0][0] == pytest.approx(0.25, abs=1e-9)
        point, flags = assemble_feasible_point(inst, 1.0, alphas, TOL)
        assert flags == ()
        np.testing.assert_array_equal(point.zeta, [0.0, 1.0])
        err = validation_error(inst, point)
        assert err == 0.5
        assert err == misclassification_oracle(ds, split, alphas)

    @pytest.mark.parametrize("seed,C", [(0, 1.0), (1, 0.2), (2, 5.0)])
    def test_matches_oracle_exactly(self, seed, C):
        dataset, split, inst = make_instance(seed=seed)
        alphas = solve_all_folds(inst, C)
        point, flags = assemble_feasible_point(inst, C, alphas, TOL)
        if flags:
            pytest.skip("flagged margins")
        assert validation_error(inst, point) == misclassification_oracle(
            dataset, split, alphas)

    @staticmethod
    def splits(dataset):
        """Random splits, one with a training sample repeated in a fold
        (a tie) and one with a whole fold repeated."""
        for seed in range(4):
            yield split_folds(dataset, 2, 2, 3, seed)
        base = split_folds(dataset, 2, 2, 3, 9)
        training = (base.training[0][:2] + base.training[0][:1], base.training[1])
        yield FoldSplit(2, 2, 3, base.validation, training, 9)
        yield FoldSplit(2, 2, 3, base.validation[:1] * 2, base.training[:1] * 2, 9)

    def test_equals_the_per_sample_loop(self):
        dataset, _, _ = make_instance(seed=6, extra=4)
        rng = np.random.default_rng(1)
        for split in self.splits(dataset):
            inst = BhoInstance.from_dataset(dataset, split)
            draws = [solve_all_folds(inst, C) for C in (0.0, 0.3, 1.0, 30.0)]
            draws += [list(rng.uniform(0.0, 2.0, size=(2, 3))) for _ in range(4)]
            for alphas in draws:
                assert misclassification_oracle(dataset, split, alphas) == \
                    loop_misclassification(dataset, split, alphas)
