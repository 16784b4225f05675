"""Independent oracles used only by the test suite.

Everything here is deliberately implemented with different mathematics
than the package (exact rational arithmetic instead of SVD, exhaustive
enumeration with strict-margin LPs solved by HiGHS instead of a pruned
search over closed branches decided by NNLS), so that agreement between
the two routes is meaningful evidence.  scipy is a test-time dependency
only; the package never imports it.
"""

import functools
import itertools
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
from scipy.optimize import linprog

from mpecq import RankResult, numerical_rank

# smallest margin the strict-margin LPs count as strict
STRICT_MARGIN = 1e-6


def rational_rank(matrix) -> int:
    """Exact rank of an integer (or rational) matrix.

    Fraction-based Gauss elimination with partial pivoting by absolute
    value; no floating point is involved anywhere, so the result is the
    true rank whenever the input entries are exactly representable.
    """
    A = [[Fraction(x) for x in row] for row in np.asarray(matrix).tolist()]
    rows = len(A)
    cols = len(A[0]) if rows else 0
    rank = 0
    r = 0
    for c in range(cols):
        pivot = None
        best = Fraction(0)
        for i in range(r, rows):
            if abs(A[i][c]) > best:
                best = abs(A[i][c])
                pivot = i
        if pivot is None:
            continue
        A[r], A[pivot] = A[pivot], A[r]
        inv = Fraction(1, 1) / A[r][c]
        for i in range(r + 1, rows):
            if A[i][c]:
                f = A[i][c] * inv
                for j in range(c, cols):
                    A[i][j] -= f * A[r][j]
        r += 1
        rank += 1
        if r == rows:
            break
    return rank


def rational_lineq_feasible(rows, rhs) -> bool:
    """Exact solvability test for A x = b over the rationals.

    rank(A) == rank([A | b]) via the elimination above; used to sanity
    check linear-independence certificates on integer data.
    """
    A = np.asarray(rows)
    b = np.asarray(rhs).reshape(-1, 1)
    return rational_rank(A.T) == rational_rank(np.hstack([A.T, b]))


@functools.lru_cache(maxsize=2)
def _full_svd(shape, data):
    return np.linalg.svd(np.frombuffer(data).reshape(shape))


def svd_rank(matrix, rank_rel_tol: float = 1e-12) -> RankResult:
    """`numerical_rank` without the presolve: one full SVD of M.

    rank = #{sigma > rank_rel_tol * sigma_max * max(rows, cols)}, the null
    basis holds the left singular vectors past the rank, and the witness
    is the first of them with unit 1-norm and a positive leading entry.
    Its `presolve.solve(b)` is the least-norm x with x @ M = b,
    U_r S_r^-1 V_r^T b.  A drop-in replacement for `numerical_rank` that
    the presolved kernel is compared against; the SVDs of its last two
    distinct inputs are kept, as that kernel's were before the presolve.
    """
    M = np.array(matrix, dtype=float, ndmin=2)
    k, n = M.shape
    if k == 0 or n == 0 or not M.any():
        witness = np.eye(k)[0] if k else None
        return RankResult(0, witness, np.eye(k),
                          SimpleNamespace(solve=lambda b: np.zeros(k)))
    U, sigma, Vt = _full_svd(M.shape, M.tobytes())
    rank = int(np.sum(sigma > rank_rel_tol * sigma[0] * max(k, n)))
    witness = None
    if rank < k:
        witness = U[:, rank] / np.abs(U[:, rank]).sum()
        lead = np.flatnonzero(np.abs(witness) > 1e-12)
        if lead.size and witness[lead[0]] < 0:
            witness = -witness
    U_r, sigma_r, Vt_r = U[:, :rank], sigma[:rank], Vt[:rank]
    return RankResult(rank, witness, U[:, rank:],
                      SimpleNamespace(solve=lambda b: U_r @ ((Vt_r @ b) / sigma_r)))


# ------------------------------------------------------------------
# Exhaustive branch enumerators: one LP per sign branch or partition,
# with strictly positive multiplier pairs decided by a max-margin LP.
# The package searches the same branches depth first with pruning and
# replaces each strict pair by closed branches; these keep the original
# definitions so the two routes can be compared verdict for verdict.


def _highs_max_t(A_eq, b_eq, A_ub, free):
    """max t over (x, t) with A_eq (x, t) = b_eq, A_ub (x, t) <= 0,
    x_j >= 0 off `free` and 0 <= t <= 1; None when infeasible."""
    nx = A_eq.shape[1] - 1
    c = np.zeros(nx + 1)
    c[-1] = -1.0
    bounds = [(None, None) if j in free else (0.0, None) for j in range(nx)]
    res = linprog(c, A_ub=A_ub if len(A_ub) else None,
                  b_ub=np.zeros(len(A_ub)) if len(A_ub) else None,
                  A_eq=A_eq if len(A_eq) else None, b_eq=b_eq if len(A_eq) else None,
                  bounds=bounds + [(0.0, 1.0)], method="highs")
    if res.status == 2:
        return None
    if res.status != 0:
        raise RuntimeError(f"HiGHS: {res.message}")
    return -res.fun


def _max_margin(columns, rhs, free, strict, eps):
    """Is sum_j x_j columns[j] = rhs solvable with x_j >= 0 off `free`
    and x_j >= t >= eps on `strict`?  (t capped at 1)"""
    X = np.column_stack(columns)
    strict = list(strict)
    A_eq = np.hstack([X, np.zeros((X.shape[0], 1))])
    # t - x_j <= 0 on every strict column
    A_ub = np.hstack([-np.eye(X.shape[1])[strict], np.ones((len(strict), 1))])
    margin = _highs_max_t(A_eq, np.asarray(rhs, dtype=float), A_ub, set(free))
    return margin is not None and (not strict or margin >= eps)


def direction_margin(n, eq_rows, geq_rows, strict_rows):
    """max t over directions d with eq.d = 0, geq.d >= 0, strict.d >= t,
    t capped at 1: 1 when some direction makes every strict row
    positive and 0 otherwise, up to rounding."""
    def block(rows):
        return np.reshape(np.asarray(rows, dtype=float), (-1, n))

    eq, geq, strict = block(eq_rows), block(geq_rows), block(strict_rows)
    A_eq = np.hstack([eq, np.zeros((len(eq), 1))])
    A_ub = np.vstack([np.hstack([-geq, np.zeros((len(geq), 1))]),
                      np.hstack([-strict, np.ones((len(strict), 1))])])
    return _highs_max_t(A_eq, np.zeros(len(eq)), A_ub, set(range(n)))


def _combination_exists(n, nonneg, free, tol) -> bool:
    """Does a nonzero combination of the rows vanish, with nonnegative
    coefficients on `nonneg`?  A dependence among the free rows alone
    is read off `numerical_rank`, which criterion 09 checks against
    `rational_rank`; otherwise HiGHS decides the system with unit mass
    on the nonneg rows."""
    if free and numerical_rank(np.array(free), tol.rank_rel_tol).rank < len(free):
        return True
    columns = [np.append(r, 1.0) for r in nonneg] + [np.append(r, 0.0) for r in free]
    return bool(nonneg) and _max_margin(columns, [0.0] * n + [1.0],
                                        range(len(nonneg), len(columns)), (), 0.0)


def nnamcq_oracle(ev, pattern, tol) -> str:
    """NNAMCQ over all 3^k branches: both multipliers strictly positive,
    gamma = 0 or nu = 0 on each biactive pair."""
    for branch in itertools.product(range(3), repeat=len(pattern.I_GH)):
        nonneg = [ev.g_grads[i] for i in pattern.I_g]
        strict = []
        free = ([ev.h_grads[j] for j in range(ev.dims.p)]
                + [-ev.G_grads[i] for i in pattern.I_G]
                + [-ev.H_grads[i] for i in pattern.I_H])
        for i, c in zip(pattern.I_GH, branch):
            if c == 0:
                strict += [-ev.G_grads[i], -ev.H_grads[i]]
            else:
                free.append(-(ev.H_grads[i] if c == 1 else ev.G_grads[i]))
        if not strict:
            exists = _combination_exists(ev.dims.n, nonneg, free, tol)
        else:
            # unit 1-norm with free rows split in two nonneg parts
            rows = nonneg + strict + free + [-r for r in free]
            columns = [np.append(r, 1.0) for r in rows]
            first = len(nonneg)
            exists = _max_margin(columns, [0.0] * ev.dims.n + [1.0], (),
                                 range(first, first + len(strict)),
                                 STRICT_MARGIN)
        if exists:
            return "fails"
    return "holds"


def gmfcq_oracle(ev, pattern, tol) -> tuple:
    """GMFCQ over every partition, one direction LP per cone row in (i).
    Returns (status, failing condition or None)."""
    failure = gmfcq_oracle_failure(ev, pattern, tol)
    return ("holds", None) if failure is None else ("fails", failure[0])


def gmfcq_oracle_failure(ev, pattern, tol):
    """First failing (condition, P, Q, R), or None.  Partitions are taken
    in the package's search order: (i) choosing R, P, Q per pair, then
    (ii) choosing P, Q."""
    n, k = ev.dims.n, len(pattern.I_GH)
    h_rows = [ev.h_grads[j] for j in range(ev.dims.p)]
    g_neg = [-ev.g_grads[i] for i in pattern.I_g]

    def split(assign, sides):
        return ([i for i, c in zip(pattern.I_GH, assign) if c == side] for side in sides)

    def eq_rows(P, Q):
        return (h_rows + [ev.G_grads[i] for i in sorted(pattern.I_G + tuple(Q))]
                + [ev.H_grads[i] for i in sorted(pattern.I_H + tuple(P))])

    for assign in itertools.product("RPQ", repeat=k):
        P, Q, R = split(assign, "PQR")
        if not R:
            continue
        eq = eq_rows(P, Q)
        cone = [ev.G_grads[i] for i in R] + [ev.H_grads[i] for i in R]
        if not any(direction_margin(n, eq, g_neg + cone[:j] + cone[j + 1:], [cone[j]])
                   >= STRICT_MARGIN for j in range(len(cone))):
            return "i", P, Q, R
    for assign in itertools.product("PQ", repeat=k):
        P, Q = split(assign, "PQ")
        eq = eq_rows(P, Q)
        if eq and numerical_rank(np.vstack(eq), tol.rank_rel_tol).rank < len(eq):
            return "ii-independence", P, Q, []
        if g_neg and direction_margin(n, eq, [], g_neg) < STRICT_MARGIN:
            return "ii-direction", P, Q, []
    return None


def stationarity_oracle(ev, pattern, grad_f, tol) -> str:
    """Strongest class, with M over all 3^k and C over all 2^k branches."""
    def feasible(modes):
        columns = [ev.g_grads[i] for i in pattern.I_g]
        free = ([ev.h_grads[j] for j in range(ev.dims.p)]
                + [-ev.G_grads[i] for i in pattern.I_G]
                + [-ev.H_grads[i] for i in pattern.I_H])
        strict = []
        for i, pair in zip(pattern.I_GH, modes):
            for mode, row in zip(pair, (-ev.G_grads[i], -ev.H_grads[i])):
                if mode == "free":
                    free.append(row)
                elif mode != "zero":
                    if mode == "strict":
                        strict.append(len(columns))
                    columns.append(-row if mode == "nonpos" else row)
        first = len(columns)
        return _max_margin(columns + free, -np.asarray(grad_f, dtype=float),
                           range(first, first + len(free)), strict,
                           STRICT_MARGIN)

    k = len(pattern.I_GH)
    if not feasible([("free", "free")] * k):
        return "not_stationary"
    if feasible([("nonneg", "nonneg")] * k):
        return "strong"
    m_branches = [("strict", "strict"), ("zero", "free"), ("free", "zero")]
    if any(feasible(b) for b in itertools.product(m_branches, repeat=k)):
        return "M"
    c_branches = [("nonneg", "nonneg"), ("nonpos", "nonpos")]
    if any(feasible(b) for b in itertools.product(c_branches, repeat=k)):
        return "C"
    return "weak"


# ------------------------------------------------------------------
# Lower-level box QP by plain projected gradient, the package's solver
# before it took exact steps on the current face.


def projected_gradient_qp(K, C, tol=1e-9, budget=100000):
    """min 0.5 a.K.a - sum(a) s.t. 0 <= a <= C; returns (alpha, converged).

    Fixed step 1 / (1.1 lambda_max(K)), halved while the objective would
    increase, until the natural-map residual is at most `tol`.  Returns
    the last iterate when the budget runs out.
    """
    K = np.asarray(K, dtype=float)
    alpha = np.zeros(K.shape[0])
    step = 1.0 / max(1.1 * float(np.linalg.eigvalsh(K)[-1]), 1e-12)
    obj = 0.0
    for _ in range(budget):
        grad = K @ alpha - 1.0
        if np.abs(alpha - np.clip(alpha - grad, 0.0, C)).max() <= tol:
            return alpha, True
        new = np.clip(alpha - step * grad, 0.0, C)
        new_obj = 0.5 * float(new @ (K @ new)) - float(new.sum())
        if new_obj > obj + 1e-12 * (1.0 + abs(obj)):
            step *= 0.5
            continue
        alpha, obj = new, new_obj
    return alpha, False


def face_projected_gradient_qp(K, C, tol=1e-9, budget=100000):
    """The same box QP by gradient projection with exact face steps.

    Moré and Toraldo 1991, the package's solver before it read alpha(C)
    off the regularization path.  Each outer iteration takes one
    projected-gradient step of length 1 / (1.1 trace(K)), halved while
    the objective would increase, then minimises over the face it lands
    on: the least-squares Newton step on the free set F when K_FF d = -g_F
    is consistent, else the zero-curvature direction -r of its residual,
    each cut at the first bound.  Returns alpha at natural-map residual
    at most `tol`; raises RuntimeError when the budget runs out or an
    outer iteration leaves alpha unchanged.
    """
    K = np.asarray(K, dtype=float)
    m = K.shape[0]

    def objective(a):
        return 0.5 * float(a @ (K @ a)) - float(a.sum())

    def face_steps(alpha, obj):
        for _ in range(m + 1):
            F = np.flatnonzero((alpha > 0.0) & (alpha < C))
            if F.size == 0:
                break
            K_FF = K[np.ix_(F, F)]
            g_F = K[F] @ alpha - 1.0
            d = np.linalg.lstsq(K_FF, -g_F, rcond=None)[0]
            r = K_FF @ d + g_F
            newton = np.abs(r).max() <= tol
            if not newton:
                d = -r
            a_F = alpha[F]
            with np.errstate(divide="ignore"):
                room = np.where(d > 0.0, (C - a_F) / d,
                                np.where(d < 0.0, -a_F / d, np.inf))
            block = int(np.argmin(room))
            t_max = float(room[block])
            if not np.isfinite(t_max):
                break
            full = newton and t_max > 1.0
            new = alpha.copy()
            new[F] = np.clip(a_F + (1.0 if full else t_max) * d, 0.0, C)
            if not full:
                new[F[block]] = C if d[block] > 0.0 else 0.0
            new_obj = objective(new)
            if new_obj > obj:
                break
            alpha, obj = new, new_obj
            if full:
                break
        return alpha, obj

    step = 1.0 / max(1.1 * float(np.trace(K)), 1e-12)
    alpha = np.zeros(m)
    obj = 0.0
    for _ in range(budget):
        grad = K @ alpha - 1.0
        if np.abs(alpha - np.clip(alpha - grad, 0.0, C)).max() <= tol:
            return alpha
        new = np.clip(alpha - step * grad, 0.0, C)
        new_obj = objective(new)
        if new_obj > obj + 1e-12 * (1.0 + abs(obj)):
            step *= 0.5
            continue
        new, new_obj = face_steps(new, new_obj)
        if np.array_equal(new, alpha):
            raise RuntimeError("face-step projected gradient stalled above tol")
        alpha, obj = new, new_obj
    raise RuntimeError(f"face-step projected gradient used its budget of {budget}")


# ------------------------------------------------------------------
# Misclassification count one sample at a time, the package's oracle
# before it took one product per fold.


def loop_misclassification(dataset, split, alphas) -> float:
    """Share of validation samples with negative margin under each fold's
    primal normal vector, accumulated from the training samples one at a
    time."""
    wrong = 0
    for t in range(split.T):
        w = np.zeros(dataset.n_features)
        for r, k in enumerate(split.training[t]):
            w += alphas[t][r] * dataset.labels[k] * dataset.features[k]
        for k in split.validation[t]:
            margin = dataset.labels[k] * float(dataset.features[k] @ w)
            if margin < 0:
                wrong += 1
    return wrong / (split.T * split.m1)
