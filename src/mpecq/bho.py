"""Bilevel SVC hyperparameter selection instantiated as an MPEC family.

The decision vector is v = [C; zeta; z; alpha; xi] over T folds with m1
validation and m2 training samples per fold, so n = 2*T*(m1+m2) + 1.
The upper level averages the validation misclassification indicators
zeta; the lower-level box-QP optimality conditions appear as four
complementarity families (one pair per component):

  1.  0 <= zeta  perp  A B^T alpha + z      >= 0
  2.  0 <= z     perp  1 - zeta             >= 0
  3.  0 <= alpha perp  B B^T alpha - 1 + xi >= 0
  4.  0 <= xi    perp  C 1 - alpha          >= 0

A stacks the label-scaled validation samples fold-block-diagonally, B
the training samples.  There are no g or h constraints (m = p = 0) and
all constraint functions are affine in v, so the generic checkers apply
verbatim; this module adds the closed-form index-set machinery and the
two model-specific theorem tests, which are always cross-checked
against the generic rank route.
"""

from __future__ import annotations

import csv
import functools
from dataclasses import dataclass

import numpy as np

from .errors import (ClassificationError, ConvergenceError,
                     InfeasiblePointError, InputError)
from .kernels import numerical_rank
from .model import (ActivePattern, MpecDimensions, PointEvaluation, Tolerances,
                    as_count, as_floats, feasibility_of, gradient_bundle_tnlp,
                    record_field)


@dataclass(frozen=True)
class Dataset:
    features: np.ndarray  # (N, p)
    labels: np.ndarray    # (N,), entries in {-1.0, +1.0}

    def __post_init__(self):
        X = np.array(self.features, dtype=float, ndmin=2)
        y = np.array(self.labels, dtype=float).ravel()
        if X.shape[0] != y.shape[0]:
            raise InputError("feature and label counts differ")
        if X.shape[0] == 0:
            raise InputError("dataset is empty")
        if not np.all(np.isfinite(X)) or not np.all(np.isfinite(y)):
            raise InputError("dataset contains non-finite values")
        if not set(np.unique(y)) <= {-1.0, 1.0}:
            raise InputError("labels must be -1/+1 (or 0/1 in CSV form)")
        X.setflags(write=False)
        y.setflags(write=False)
        object.__setattr__(self, "features", X)
        object.__setattr__(self, "labels", y)

    @property
    def size(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]


def load_dataset_csv(path) -> Dataset:
    """Load a dataset from CSV: feature columns then a label column.

    Labels may be -1/+1 or 0/1 (0 is mapped to -1).  A header row is
    detected by a non-numeric first row and skipped.
    """
    rows = []
    try:
        with open(path, newline="") as fh:
            for raw in csv.reader(fh):
                cells = [c.strip() for c in raw if c.strip() != ""]
                if cells:
                    rows.append(cells)
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    if not rows:
        raise InputError(f"{path}: no data rows")

    def parse(cells):
        return [float(c) for c in cells]

    try:
        parse(rows[0])
    except ValueError:
        rows = rows[1:]
        if not rows:
            raise InputError(f"{path}: header only, no data rows") from None
    width = len(rows[0])
    if width < 2:
        raise InputError(f"{path}: rows need at least one feature and a label")
    data = []
    for idx, cells in enumerate(rows):
        if len(cells) != width:
            raise InputError(f"{path}: row {idx} has {len(cells)} cells, expected {width}")
        try:
            data.append(parse(cells))
        except ValueError as exc:
            raise InputError(f"{path}: row {idx}: {exc}") from None
    arr = np.array(data)
    X, y = arr[:, :-1], arr[:, -1]
    values = set(np.unique(y))
    if values <= {0.0, 1.0}:
        y = np.where(y == 0.0, -1.0, 1.0)
    elif not values <= {-1.0, 1.0}:
        raise InputError(f"{path}: labels must be in {{-1,+1}} or {{0,1}}, got {sorted(values)}")
    return Dataset(X, y)


@dataclass(frozen=True)
class FoldSplit:
    """Per-fold dataset indices; a repeated training sample is a tie."""

    T: int
    m1: int
    m2: int
    validation: tuple  # per fold, tuple of dataset indices
    training: tuple
    seed: int


def split_folds(dataset: Dataset, T: int, m1: int, m2: int, seed: int) -> FoldSplit:
    """Deterministic disjoint fold sampling; leftover samples are dropped.

    A split built otherwise may repeat a training sample in a fold, a tie
    that the lower-level path holds with one copy at a bound, or repeat a
    whole fold, whose copy then has the same path.
    """
    if T < 1 or m1 < 1 or m2 < 1:
        raise InputError("T, m1, m2 must all be at least 1")
    need = T * (m1 + m2)
    if dataset.size < need:
        raise InputError(f"dataset has {dataset.size} samples, "
                         f"{need} needed for T={T}, m1={m1}, m2={m2}")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(dataset.size)
    validation, training = [], []
    for t in range(T):
        block = perm[t * (m1 + m2):(t + 1) * (m1 + m2)]
        validation.append(tuple(int(i) for i in block[:m1]))
        training.append(tuple(int(i) for i in block[m1:]))
    return FoldSplit(T, m1, m2, tuple(validation), tuple(training), seed)


@dataclass(frozen=True)
class BhoInstance:
    """Matrices of one hyperparameter-selection MPEC.

    A is (T*m1, T*p), B is (T*m2, T*p), both fold-block-diagonal with
    rows y_k x_k.  All other data (P, Q, a, c, the Gram products) is
    derived deterministically from A and B.
    """

    T: int
    m1: int
    m2: int
    p: int
    A: np.ndarray
    B: np.ndarray

    def __post_init__(self):
        A = np.atleast_2d(as_floats(self.A, "A"))
        B = np.atleast_2d(as_floats(self.B, "B"))
        if A.shape != (self.T * self.m1, self.T * self.p):
            raise InputError(f"A must be {(self.T * self.m1, self.T * self.p)}, got {A.shape}")
        if B.shape != (self.T * self.m2, self.T * self.p):
            raise InputError(f"B must be {(self.T * self.m2, self.T * self.p)}, got {B.shape}")
        A.setflags(write=False)
        B.setflags(write=False)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)
        ABt = A @ B.T
        BBt = B @ B.T
        ABt.setflags(write=False)
        BBt.setflags(write=False)
        object.__setattr__(self, "_ABt", ABt)
        object.__setattr__(self, "_BBt", BBt)
        # fold -> _RegularizationPath, built whole by the fold's first solve
        object.__setattr__(self, "_paths", {})

    # v = [C; zeta; z; alpha; xi]
    @property
    def n(self) -> int:
        return 2 * self.T * (self.m1 + self.m2) + 1

    @property
    def n_validation(self) -> int:
        return self.T * self.m1

    @property
    def n_training(self) -> int:
        return self.T * self.m2

    @property
    def off_zeta(self) -> int:
        return 1

    @property
    def off_z(self) -> int:
        return 1 + self.n_validation

    @property
    def off_alpha(self) -> int:
        return 1 + 2 * self.n_validation

    @property
    def off_xi(self) -> int:
        return 1 + 2 * self.n_validation + self.n_training

    @property
    def ABt(self) -> np.ndarray:
        return self._ABt

    @property
    def BBt(self) -> np.ndarray:
        return self._BBt

    @property
    def grad_f(self) -> np.ndarray:
        c = np.zeros(self.n)
        c[self.off_zeta:self.off_zeta + self.n_validation] = 1.0 / self.n_validation
        return c

    def constraint_matrices(self):
        """(P, a, Q) with G(v) = P v + a and H(v) = Q v; read-only, built once."""
        return self._constraint_arrays

    @functools.cached_property
    def _constraint_arrays(self):
        n, nv, nt = self.n, self.n_validation, self.n_training
        v, t = np.arange(nv), np.arange(nt)
        alpha = slice(self.off_alpha, self.off_alpha + nt)
        P = np.zeros((n - 1, n))
        a = np.zeros(n - 1)
        # family 1: z + A B^T alpha; family 2: 1 - zeta
        P[v, self.off_z + v] = 1.0
        P[:nv, alpha] = self.ABt
        P[nv + v, self.off_zeta + v] = -1.0
        a[nv:2 * nv] = 1.0
        # family 3: B B^T alpha - 1 + xi; family 4: C - alpha
        P[2 * nv:2 * nv + nt, alpha] = self.BBt
        P[2 * nv + t, self.off_xi + t] = 1.0
        a[2 * nv:2 * nv + nt] = -1.0
        P[2 * nv + nt:, 0] = 1.0
        P[2 * nv + nt + t, self.off_alpha + t] = -1.0
        Q = np.hstack([np.zeros((n - 1, 1)), np.eye(n - 1)])
        for arr in (P, a, Q):
            arr.setflags(write=False)
        return P, a, Q

    def pair_index(self, family: int, local: int) -> int:
        nv, nt = self.n_validation, self.n_training
        base = {1: 0, 2: nv, 3: 2 * nv, 4: 2 * nv + nt}[family]
        return base + local

    def fold_training_gram(self, t: int) -> np.ndarray:
        if not 0 <= t < self.T:
            raise InputError(f"fold must be in [0, {self.T}), got {t}")
        rows = slice(t * self.m2, (t + 1) * self.m2)
        return self.BBt[rows, rows]

    @classmethod
    def from_dataset(cls, dataset: Dataset, split: FoldSplit) -> "BhoInstance":
        p = dataset.n_features
        A = np.zeros((split.T * split.m1, split.T * p))
        B = np.zeros((split.T * split.m2, split.T * p))
        for t in range(split.T):
            cols = slice(t * p, (t + 1) * p)
            for r, k in enumerate(split.validation[t]):
                A[t * split.m1 + r, cols] = dataset.labels[k] * dataset.features[k]
            for r, k in enumerate(split.training[t]):
                B[t * split.m2 + r, cols] = dataset.labels[k] * dataset.features[k]
        return cls(split.T, split.m1, split.m2, p, A, B)

    def to_dict(self) -> dict:
        return {"kind": "bho_instance", "T": self.T, "m1": self.m1,
                "m2": self.m2, "p": self.p,
                "A": self.A.tolist(), "B": self.B.tolist()}

    @classmethod
    def from_dict(cls, data: dict) -> "BhoInstance":
        return cls(*(record_field(data, key, "instance", as_count) for key in ("T", "m1", "m2", "p")),
                   record_field(data, "A", "instance"), record_field(data, "B", "instance"))


@dataclass(frozen=True)
class BhoPoint:
    C: float
    zeta: np.ndarray
    z: np.ndarray
    alpha: np.ndarray
    xi: np.ndarray

    def to_vector(self) -> np.ndarray:
        return np.concatenate([[self.C], self.zeta, self.z, self.alpha, self.xi])

    def to_dict(self) -> dict:
        return {"C": float(self.C), "zeta": self.zeta.tolist(),
                "z": self.z.tolist(), "alpha": self.alpha.tolist(),
                "xi": self.xi.tolist()}

    @classmethod
    def from_dict(cls, data: dict) -> "BhoPoint":
        return cls(record_field(data, "C", "point", float),
                   *(record_field(data, key, "point", functools.partial(as_floats, name=key))
                     for key in ("zeta", "z", "alpha", "xi")))


def to_evaluation(instance: BhoInstance, point: BhoPoint) -> PointEvaluation:
    """Generic evaluation record of the instance at the point (m = p = 0)."""
    for name, length in (("zeta", instance.n_validation), ("z", instance.n_validation),
                         ("alpha", instance.n_training), ("xi", instance.n_training)):
        if np.shape(getattr(point, name)) != (length,):
            raise InputError(f"point block {name} must have length {length}, "
                             f"got shape {np.shape(getattr(point, name))}")
    v = point.to_vector()
    P, a, Q = instance.constraint_matrices()
    dims = MpecDimensions(instance.n, 0, 0, instance.n - 1)
    empty = np.zeros((0, instance.n))
    return PointEvaluation(dims, v, np.zeros(0), np.zeros(0),
                           P @ v + a, Q @ v, empty, empty, P, Q)


def validation_error(instance: BhoInstance, point: BhoPoint) -> float:
    """Upper-level objective: average of the misclassification indicators.

    Mathematically c.v; computed as sum(zeta) / (T m1) so that when the
    indicators are exact 0/1 values the result is the exact ratio (a
    dot product with the 1/(T m1) entries of c drifts an ulp).
    """
    return float(point.zeta.sum()) / instance.n_validation


def misclassification_oracle(dataset: Dataset, split: FoldSplit, alphas) -> float:
    """Direct misclassification count from the raw dataset.

    Recomputes each fold's primal normal vector from the training
    samples and counts validation samples with negative margin; shares
    no code with the matrix route.
    """
    X, y = dataset.features, dataset.labels
    wrong = 0
    for t in range(split.T):
        train, val = list(split.training[t]), list(split.validation[t])
        w = (np.asarray(alphas[t], dtype=float) * y[train]) @ X[train]
        wrong += int(np.count_nonzero(y[val] * (X[val] @ w) < 0))
    return wrong / (split.T * split.m1)


# a fold's path is built to at most this many segments
_BUDGET = 100000
# largest natural-map residual accepted from a read of the path
_TOL = 1e-9


def lower_level_solve(instance: BhoInstance, fold: int, C: float) -> np.ndarray:
    """Solve the fold's box QP min 0.5 a.K.a - sum(a) s.t. 0 <= a <= C.

    alpha(C) is read off the fold's exact solution path
    (`_RegularizationPath`), which the instance builds whole at the
    first read and keeps.  The read is accepted when the step-1
    natural-map residual ||a - clip(a - (K a - 1), 0, C)||_inf is at most
    `_TOL` = 1e-9, which keeps downstream complementarity residuals at
    O(C * _TOL).  There is no second solver: a read above that, which
    rounding in K a causes for C near 1e16, raises ConvergenceError with
    that residual, and so does a path that stopped before C because a
    side assignment repeated or it reached `_BUDGET` segments.
    """
    if not np.isfinite(C):
        raise InputError(f"C must be finite, got {C}")
    if C < 0:
        raise InputError("C must be nonnegative")
    K = instance.fold_training_gram(fold)
    if C == 0.0:
        return np.zeros(K.shape[0])
    path = _fold_path(instance, fold)
    knots = path.knots
    if C > knots[-1]:
        raise ConvergenceError(f"lower-level path stopped at C={knots[-1]:.6g} "
                               f"before C={C:.6g}: a side assignment repeated "
                               f"or the path reached {_BUDGET} segments",
                               _natural_residual(K, path.alpha(-1, C), C), len(path.a))
    # segment j starts at the j-th breakpoint below C
    j = int(np.searchsorted(knots, C)) - 1
    alpha = path.alpha(j, C)
    residual = _natural_residual(K, alpha, C)
    if residual > _TOL:
        raise ConvergenceError(f"lower-level path read at C={C:.6g} misses "
                               f"tolerance {_TOL:.1e}", residual, j + 1)
    return alpha


def fold_knots(instance: BhoInstance, fold: int) -> np.ndarray:
    """The finite breakpoints C > 0 of the fold's whole solution path,
    ascending and read-only: at each, a fold index changes side, so its
    family-3 or family-4 pair is biactive.  The path is the one
    `lower_level_solve` reads; ConvergenceError when it stopped at a
    finite C.
    """
    path = _fold_path(instance, fold)
    if np.isfinite(path.knots[-1]):
        raise ConvergenceError(f"lower-level path of fold {fold} stopped at "
                               f"C={path.knots[-1]:.6g}: a side assignment repeated "
                               f"or the path reached {_BUDGET} segments",
                               np.inf, len(path.a))
    return path.knots[1:-1]


def _fold_path(instance: BhoInstance, fold: int) -> "_RegularizationPath":
    path = instance._paths.get(fold)
    if path is None:
        path = instance._paths[fold] = _RegularizationPath(instance.fold_training_gram(fold))
    return path


_LOWER, _FREE, _UPPER = 0, 1, 2
# a bound index's slope (K b)_r at most this times m max|K| max(1, max|b|)
# is rounding of an exact 0
_SLOPE_TOL = 1e-13


class _RegularizationPath:
    """The exact solution path C -> alpha(C) of one fold's box QP.

    Segment j covers knots[j] <= C <= knots[j + 1].  On it the indices
    in U sit at C, those in L at 0, and the free set F solves
    K_FF alpha_F = 1 - C K_FU 1, so alpha(C) = a[j] + C b[j] and the
    gradient K alpha - 1 is affine in C too (Hastie, Rosset, Tibshirani
    and Zhu 2004, here without the bias equation).  The path starts at
    C = 0 with every index in U.  A segment ends at the smallest C where
    a free alpha reaches 0 or C or the gradient of a bound index reaches
    0, and every index whose event falls on that C changes side.

    Solutions stay basic (K_FF nonsingular).  A bound index whose row
    lies in the span of the free rows has a constant gradient; its slope
    (K b)_r is 0 up to rounding and is set to exactly 0, so it raises no
    event.  Rows tied at one breakpoint can make the new K_FF singular:
    then the entering indices are admitted one at a time, in index
    order, while K_FF stays nonsingular, and the others stay on their
    bound with rows in the span of the free rows and gradients at 0.

    The constructor builds the whole path: to C = inf, or until a side
    assignment seen before comes back, which only rounding can cause,
    or to `_BUDGET` segments; knots[-1] is the last C it covers.  knots,
    a and b are read-only and never change.
    """

    def __init__(self, K: np.ndarray):
        self._K = K
        self._rounding = _SLOPE_TOL * K.shape[0] * float(np.abs(K).max())
        side = np.full(K.shape[0], _UPPER, dtype=np.int8)
        seen = set()
        knots, a, b = [0.0], [], []
        while len(a) < _BUDGET and side.tobytes() not in seen:
            seen.add(side.tobytes())
            a_j, b_j, end, indices, to = self._segment(side, knots[-1])
            a.append(a_j)
            b.append(b_j)
            knots.append(end)
            if not np.isfinite(end):
                break
            new = side.copy()
            leaving = to != _FREE
            new[indices[leaving]] = to[leaving]
            for i in np.sort(indices[~leaving]):
                new[i] = _FREE
                if not self._basic(new):
                    new[i] = side[i]
            side = new
        self.knots, self.a, self.b = np.array(knots), np.array(a), np.array(b)
        for arr in (self.knots, self.a, self.b):
            arr.setflags(write=False)

    def alpha(self, j: int, C: float) -> np.ndarray:
        return np.clip(self.a[j] + C * self.b[j], 0.0, C)

    def _basic(self, side: np.ndarray) -> bool:
        F = np.flatnonzero(side == _FREE)
        return numerical_rank(self._K[F][:, F]).rank == F.size

    def _segment(self, side: np.ndarray, start: float):
        """(a, b) of the segment from `start` with these sides, the C where
        it ends, and the indices whose event falls there with their new
        sides."""
        K = self._K
        free, upper = side == _FREE, side == _UPPER
        F = np.flatnonzero(free)
        a = np.zeros(side.size)
        b = upper.astype(float)
        if F.size:
            K_F = K[F]
            rhs = np.stack([np.ones(F.size), -(K_F @ b)], axis=1)
            a[F], b[F] = np.linalg.solve(K_F[:, F], rhs).T
        p, q = K @ a - 1.0, K @ b
        q[~free & (np.abs(q) <= self._rounding * max(1.0, np.abs(b).max()))] = 0.0
        # each index keeps a slack s0 + C s1 >= 0: alpha on F, minus the
        # gradient on U, the gradient on L, and on F also C - alpha; a
        # slack with s1 < 0 runs out at C = -s0 / s1
        s0 = np.where(free, a, np.where(upper, -p, p))
        s1 = np.where(free, b, np.where(upper, -q, q))
        out = np.full((2, side.size), np.inf)
        np.divide(s0, -s1, out=out[0], where=s1 < 0.0)
        np.divide(-a, b - 1.0, out=out[1], where=free & (b > 1.0))
        np.maximum(out, start, out=out)
        end = float(out.min())
        which, indices = np.nonzero(out == end)
        to = np.where(which == 1, _UPPER, np.where(free[indices], _LOWER, _FREE))
        return a, b, end, indices, to.astype(np.int8)


def _natural_residual(K: np.ndarray, alpha: np.ndarray, C: float) -> float:
    grad = K @ alpha - 1.0
    return float(np.abs(alpha - np.clip(alpha - grad, 0.0, C)).max())


def solve_all_folds(instance: BhoInstance, C: float) -> list:
    return [lower_level_solve(instance, t, C) for t in range(instance.T)]


def assemble_feasible_point(instance: BhoInstance, C: float, alphas,
                            tol: Tolerances):
    """Build the full MPEC point from per-fold lower-level solutions.

    Returns (point, flags) where flags lists validation indices whose
    margin sits inside the activity band; such points violate the
    distinct-classification monitor but are still returned.  Raises
    InfeasiblePointError when the constructed point misses the
    feasibility tolerances, which indicates an unconverged alpha.
    """
    alpha = np.concatenate([np.asarray(a, dtype=float) for a in alphas])
    if alpha.shape[0] != instance.n_training:
        raise InputError("alpha blocks do not match the fold sizes")
    s = instance.BBt @ alpha
    margins = instance.ABt @ alpha
    xi = np.maximum(0.0, 1.0 - s)
    z = np.maximum(0.0, -margins)
    zeta = (margins < -tol.activity_eps).astype(float)
    point = BhoPoint(float(C), zeta, z, alpha, xi)
    # `check_feasibility` of `to_evaluation(instance, point)`, without the
    # evaluation: G = P v + a and H = Q v, with g and h empty
    P, a, Q = instance.constraint_matrices()
    v = point.to_vector()
    report = feasibility_of(np.zeros(0), np.zeros(0), P @ v + a, Q @ v, tol)
    if not report.feasible:
        raise InfeasiblePointError(
            f"assembled point violates feasibility by {report.max_violation:.3e}; "
            "the lower-level solution is not converged enough")
    flags = tuple(int(i) for i in np.nonzero(np.abs(margins) <= tol.activity_eps)[0])
    return point, flags


@dataclass(frozen=True)
class LambdaPsiPattern:
    """Closed-form activity classes of a feasible point.

    Training indices: lam1 (alpha=0 at the kink), lam2 (inactive with
    slack), lam3_plus (interior support), lam3_c (support at the box
    bound, margin tight), lam_u (bound with slack xi > 0).  Validation
    indices: psi2 (correctly classified), psi3 (misclassified).
    assumption_flags collects indices violating the distinct
    classification assumption (pair family 1/2 biactivity).
    """

    lam1: tuple
    lam2: tuple
    lam3_plus: tuple
    lam3_c: tuple
    lam_u: tuple
    psi2: tuple
    psi3: tuple
    assumption_flags: tuple

    @property
    def lam3(self) -> tuple:
        return tuple(sorted(set(self.lam3_plus) | set(self.lam3_c)))

    @property
    def i_gh3(self) -> tuple:
        return self.lam1

    @property
    def i_gh4(self) -> tuple:
        return self.lam3_c


def classify_lambda_psi(instance: BhoInstance, point: BhoPoint,
                        tol: Tolerances) -> LambdaPsiPattern:
    """Place every training/validation index into its activity class.

    A training index fitting no class means the point and the activity
    threshold disagree (ClassificationError).  Validation indices with
    a margin inside the activity band are flagged, not errored.
    """
    eps = tol.activity_eps
    alpha, xi, zeta, z = point.alpha, point.xi, point.zeta, point.z
    C = point.C
    s = instance.BBt @ alpha
    res = s - 1.0 + xi
    margins = instance.ABt @ alpha

    lam1, lam2, lam3_plus, lam3_c, lam_u = [], [], [], [], []
    for i in range(instance.n_training):
        a0 = abs(alpha[i]) <= eps
        aC = abs(alpha[i] - C) <= eps
        r0 = abs(res[i]) <= eps
        x0 = abs(xi[i]) <= eps
        if a0 and r0 and x0:
            lam1.append(i)
        elif a0 and res[i] > eps and x0:
            lam2.append(i)
        elif not a0 and not aC and 0 < alpha[i] < C and r0 and x0:
            lam3_plus.append(i)
        elif aC and r0 and x0:
            lam3_c.append(i)
        elif aC and r0 and xi[i] > eps:
            lam_u.append(i)
        else:
            raise ClassificationError(
                f"training index {i} fits no activity class "
                f"(alpha={alpha[i]:.3e}, residual={res[i]:.3e}, xi={xi[i]:.3e}, C={C:.3e})")

    psi2, psi3, flags = [], [], []
    for i in range(instance.n_validation):
        mz = margins[i] + z[i]
        if abs(zeta[i]) <= eps and mz > eps and abs(z[i]) <= eps:
            psi2.append(i)
        elif abs(zeta[i] - 1.0) <= eps and abs(mz) <= eps and z[i] > eps:
            psi3.append(i)
        elif abs(zeta[i]) <= eps and abs(mz) <= eps:
            flags.append(("pair1_biactive", i))
        elif abs(z[i]) <= eps and abs(zeta[i] - 1.0) <= eps:
            flags.append(("pair2_biactive", i))
        else:
            flags.append(("validation_unclassified", i))

    return LambdaPsiPattern(tuple(lam1), tuple(lam2), tuple(lam3_plus),
                            tuple(lam3_c), tuple(lam_u), tuple(psi2),
                            tuple(psi3), tuple(flags))


def structured_index_sets(instance: BhoInstance, pattern: LambdaPsiPattern) -> dict:
    """Global pair-index sets predicted by the activity classes.

    Family 1 and 2 pairs split along the validation classes, family 3
    and 4 pairs along the training classes; only families 3 and 4 can
    be biactive on unflagged points.
    """
    def globalize(family, locals_):
        base = instance.pair_index(family, 0)
        return [base + i for i in locals_]

    I_G = (globalize(1, pattern.psi3) + globalize(2, pattern.psi3)
           + globalize(3, pattern.lam3) + globalize(3, pattern.lam_u)
           + globalize(4, pattern.lam_u))
    I_H = (globalize(1, pattern.psi2) + globalize(2, pattern.psi2)
           + globalize(3, pattern.lam2)
           + globalize(4, pattern.lam1) + globalize(4, pattern.lam2)
           + globalize(4, pattern.lam3_plus))
    I_GH = globalize(3, pattern.i_gh3) + globalize(4, pattern.i_gh4)
    return {"I_G": tuple(sorted(I_G)), "I_H": tuple(sorted(I_H)),
            "I_GH": tuple(sorted(I_GH))}


@dataclass(frozen=True)
class GammaMatrix:
    matrix: np.ndarray
    provenance: tuple  # (set_label, family, kind, local_index)
    notes: tuple
    identity_ok: bool


def assemble_gamma(instance: BhoInstance,
                   pattern: LambdaPsiPattern) -> GammaMatrix:
    """Active-gradient matrix assembled from the activity classes.

    Every row is rebuilt from scratch out of unit vectors and Gram rows
    rather than sliced from the constraint matrices, so comparing the
    result against the generic bundle validates both the index-set
    predictions and the row formulas.  Row count satisfies
    rows = (n-1) + |lam1| + |lam3_c| on unflagged points, equivalently
    2(n-1) - |I_G| - |I_H|; the alternative published count
    2n - 2 + |lam1| + |lam3_c| matches only under the half-dimension
    convention n = T(m1+m2) + 1 and is reported, not adopted.
    """
    n = instance.n
    nt = instance.n_training

    def g1(i):
        row = np.zeros(n)
        row[instance.off_z + i] = 1.0
        row[instance.off_alpha:instance.off_alpha + nt] = instance.ABt[i]
        return row

    def h1(i):
        row = np.zeros(n)
        row[instance.off_zeta + i] = 1.0
        return row

    def g2(i):
        row = np.zeros(n)
        row[instance.off_zeta + i] = -1.0
        return row

    def h2(i):
        row = np.zeros(n)
        row[instance.off_z + i] = 1.0
        return row

    def g3(i):
        row = np.zeros(n)
        row[instance.off_alpha:instance.off_alpha + nt] = instance.BBt[i]
        row[instance.off_xi + i] = 1.0
        return row

    def h3(i):
        row = np.zeros(n)
        row[instance.off_alpha + i] = 1.0
        return row

    def g4(i):
        row = np.zeros(n)
        row[0] = 1.0
        row[instance.off_alpha + i] = -1.0
        return row

    def h4(i):
        row = np.zeros(n)
        row[instance.off_xi + i] = 1.0
        return row

    blocks = (
        ("I_G1", 1, "G", pattern.psi3, g1),
        ("I_H1", 1, "H", pattern.psi2, h1),
        ("I_G2", 2, "G", pattern.psi3, g2),
        ("I_H2", 2, "H", pattern.psi2, h2),
        ("I_G3", 3, "G", pattern.lam3_plus, g3),
        ("I_G3_bound", 3, "G", pattern.lam3_c, g3),
        ("I_G3_upper", 3, "G", pattern.lam_u, g3),
        ("I_GH3_G", 3, "G", pattern.lam1, g3),
        ("I_GH3_H", 3, "H", pattern.lam1, h3),
        ("I_H3", 3, "H", pattern.lam2, h3),
        ("I_G4", 4, "G", pattern.lam_u, g4),
        ("I_GH4_G", 4, "G", pattern.lam3_c, g4),
        ("I_GH4_H", 4, "H", pattern.lam3_c, h4),
        ("I_H4", 4, "H", pattern.lam1 + pattern.lam2 + pattern.lam3_plus, h4),
    )
    rows, provenance = [], []
    for label, family, kind, indices, build in blocks:
        for i in indices:
            rows.append(build(i))
            provenance.append((label, family, kind, int(i)))
    matrix = np.vstack(rows) if rows else np.zeros((0, n))

    sets = structured_index_sets(instance, pattern)
    expected = 2 * (n - 1) - len(sets["I_G"]) - len(sets["I_H"])
    identity_ok = (not pattern.assumption_flags) and matrix.shape[0] == expected
    alt = 2 * n - 2 + len(pattern.lam1) + len(pattern.lam3_c)
    notes = (
        f"rows={matrix.shape[0]}, identity 2(n-1)-|I_G|-|I_H|={expected}",
        f"half-dimension convention count {alt} differs by {alt - matrix.shape[0]} "
        "(uses n = T(m1+m2)+1)",
    )
    if pattern.assumption_flags:
        notes += ("assumption flags present; structured rows may not cover "
                  "all active rows",)
    return GammaMatrix(matrix, tuple(provenance), notes, identity_ok)


def _sorted_rows(matrix: np.ndarray) -> np.ndarray:
    if matrix.shape[0] == 0:
        return matrix
    clean = matrix + 0.0  # normalizes -0.0
    order = np.lexsort(clean.T[::-1])
    return clean[order]


def gamma_matches_generic(gamma: GammaMatrix, ev: PointEvaluation,
                          pattern: ActivePattern) -> bool:
    """Row-multiset equality of Gamma against the generic active bundle."""
    generic = gradient_bundle_tnlp(ev, pattern).rows
    if generic.shape != gamma.matrix.shape:
        return False
    return bool(np.allclose(_sorted_rows(generic), _sorted_rows(gamma.matrix),
                            rtol=0.0, atol=1e-12))


@dataclass(frozen=True)
class TheoremVerdict:
    name: str
    status: str  # "holds" | "fails" | "undecided"
    case: str | None
    details: dict
    notes: tuple = ()

    def to_dict(self) -> dict:
        return {"name": self.name, "status": self.status, "case": self.case,
                "details": self.details, "notes": list(self.notes)}


def check_mfcq_r_theorem(instance: BhoInstance, point: BhoPoint,
                         pattern: LambdaPsiPattern, tol: Tolerances) -> TheoremVerdict:
    """Closed-form sufficient test for relaxed-NLP MFCQ.

    Positive definiteness of the training Gram restricted to
    lam1 + lam3 implies the CQ holds; the test is one-directional, so a
    failed hypothesis yields undecided, never fails.  A Gram block is
    positive semidefinite, so it is positive definite exactly when it
    has full numerical rank at the rank cutoff; an empty block does.
    """
    name = "MFCQ_RNLP_THEOREM"
    if pattern.assumption_flags:
        return TheoremVerdict(name, "undecided", None, {},
                              ("distinct-classification flags present",))
    S = sorted(set(pattern.lam1) | set(pattern.lam3))
    block = instance.BBt[np.ix_(S, S)]
    if numerical_rank(block, tol.rank_rel_tol).rank == len(S):
        return TheoremVerdict(name, "holds", "gram_pd",
                              {"block_indices": [int(i) for i in S]})
    return TheoremVerdict(name, "undecided", None,
                          {"block_indices": [int(i) for i in S]},
                          ("Gram block not positive definite; sufficient "
                           "condition does not apply",))


def check_licq_theorem(instance: BhoInstance, point: BhoPoint,
                       pattern: LambdaPsiPattern, tol: Tolerances) -> TheoremVerdict:
    """Closed-form LICQ ladder over the biactive counts.

    Standing hypothesis: the interior-support Gram block
    (BB^T)_{(lam3_plus, lam3_plus)} is positive definite, which for a
    Gram block is full numerical rank (an empty block qualifies);
    without it every branch except the unconditional multi-biactive
    failure is undecided.  Branches:

      multi_biactive  |I_GH| > 1: more active rows than columns, fails
      no_biactive     |I_GH| = 0: holds
      single_gh3      one biactive pair in family 3: decided by a scalar
      single_gh4      one biactive pair in family 4: decided by a scalar
      ahat_zero       the scalar vanishes: dependent rows, fails
    """
    name = "LICQ_THEOREM"
    if pattern.assumption_flags:
        return TheoremVerdict(name, "undecided", None, {},
                              ("distinct-classification flags present",))
    k3, k4 = len(pattern.lam1), len(pattern.lam3_c)
    if k3 + k4 > 1:
        return TheoremVerdict(name, "fails", "multi_biactive",
                              {"biactive_family3": k3, "biactive_family4": k4})
    lam3p = sorted(pattern.lam3_plus)
    block = instance.BBt[np.ix_(lam3p, lam3p)]
    if numerical_rank(block, tol.rank_rel_tol).rank < len(lam3p):
        return TheoremVerdict(name, "undecided", None,
                              {"lam3_plus": [int(i) for i in lam3p]},
                              ("standing positive-definiteness assumption "
                               "not established",))
    if k3 + k4 == 0:
        return TheoremVerdict(name, "holds", "no_biactive", {})

    BBt = instance.BBt
    if k3 == 1:
        i = pattern.lam1[0]
        cols = sorted(pattern.lam_u)
        case = "single_gh3"
    else:
        i = pattern.lam3_c[0]
        cols = sorted(set(pattern.lam_u) | {i})
        case = "single_gh4"
    if lam3p:
        # row vector (BBt)_{i, lam3p} (BBt)_{lam3p, lam3p}^{-1}
        coupling = np.linalg.solve(block, BBt[np.ix_(lam3p, [i])]).ravel()
        correction = float(coupling @ (BBt[np.ix_(lam3p, cols)] @ np.ones(len(cols))))
    else:
        correction = 0.0
    ahat = float(BBt[i, cols].sum() - correction)
    details = {"index": int(i), "ahat": ahat,
               "lam3_plus": [int(j) for j in lam3p],
               "columns": [int(j) for j in cols]}
    if abs(ahat) > tol.activity_eps:
        return TheoremVerdict(name, "holds", case, details)
    return TheoremVerdict(name, "fails", "ahat_zero", details)
