"""Deterministic numeric kernels: rank, definiteness, and small dense LPs.

Every qualification and stationarity test in this package reduces to a
question about a finite collection of gradient rows: is the collection
linearly independent, does a sign-constrained null combination exist, is
a direction with prescribed strict margins available.  The kernels here
answer those questions with explicit certificates, and every certificate
is re-verified arithmetically before it is returned, so callers never
have to trust the solver internals.

The LP engine is a dense two-phase simplex with Bland's rule.  The
problems are tiny (tens of rows) and the priority is determinism and
witness extraction, which rules out floating pivoting heuristics and
external solvers.  A system with no sign-constrained column and no
objective is a range question, A x = b with x free (`range_solve`).  It
is answered first from the SVD of A^T that the rank kernel keeps, and
only when that solution fails the residual test by equilibrated least
squares, with a re-verified Farkas ray when there is no solution.
`numerical_rank` keeps the results of its last two distinct inputs, so
a multiplier system whose A^T is a gradient bundle already factored
for a rank test costs no second factorization.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import WitnessVerificationError

# Residual slack allowed when re-verifying any returned witness.
WITNESS_RESIDUAL_SLACK = 1e-6

_PIVOT_TOL = 1e-10
# Phase 1 cannot be unbounded in exact arithmetic.  When it reports so,
# Bland's index tie-break on a degenerate ratio test has pivoted on a
# rounding-noise entry, and phase 1 is rerun once treating entries up
# to this size as zero.
_RETRY_PIVOT_TOL = 1e-8
_ENTER_TOL = 1e-10
_DRIVE_TOL = 1e-9
# an equilibrated system A x = b is solvable when the 1-norm of its
# least residual is at most this times max(1, rows)
_INFEASIBLE_TOL = 1e-8


@dataclass(frozen=True)
class SimplexResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    x: np.ndarray | None
    objective: float | None


def _pivot(T: np.ndarray, z: np.ndarray | None, i: int, j: int) -> None:
    T[i] = T[i] / T[i, j]
    col = T[:, j].copy()
    col[i] = 0.0
    T -= np.outer(col, T[i])
    if z is not None:
        z -= z[j] * T[i]


def _pivot_loop(T, basis, z, max_iter, pivot_tol):
    ncols = T.shape[1] - 1
    for _ in range(max_iter):
        cand = np.nonzero(z[:ncols] < -_ENTER_TOL)[0]
        if cand.size == 0:
            return "optimal"
        j = int(cand[0])  # Bland: smallest eligible index
        col = T[:, j]
        pos = np.nonzero(col > pivot_tol)[0]
        if pos.size == 0:
            return "unbounded"
        ratios = T[pos, -1] / col[pos]
        rmin = ratios.min()
        ties = pos[ratios <= rmin + 1e-12 * (1.0 + abs(rmin))]
        i = int(ties[np.argmin(basis[ties])])
        _pivot(T, z, i, j)
        basis[i] = j
    raise RuntimeError("simplex did not terminate within the iteration cap")


def _equilibrate(A, b):
    """Rows scaled to unit inf-norm over [A | b]; returns (A, b, scale)."""
    scale = np.maximum(np.abs(A).max(axis=1, initial=0.0), np.abs(b))
    scale = np.where(scale < 1e-300, 1.0, scale)
    return A / scale[:, None], b / scale, scale


def simplex_solve(A, b, c, *, max_iter: int = 100000) -> SimplexResult:
    """Solve min c.x subject to A x = b, x >= 0.

    Dense tableau, phase 1 with artificial variables, Bland's rule in
    both phases (guarantees termination on degenerate tableaus).  Rows
    are equilibrated to unit inf-norm first; that rescaling does not
    change the feasible set.  A phase 1 that reports unbounded is rerun
    once at the stricter pivot tolerance `_RETRY_PIVOT_TOL`.
    """
    A = np.array(A, dtype=float, ndmin=2)
    b = np.array(b, dtype=float).ravel()
    c = np.array(c, dtype=float).ravel()
    m, n = A.shape
    if b.shape[0] != m or c.shape[0] != n:
        raise ValueError("inconsistent LP dimensions")
    if m == 0:
        if np.all(c >= -_ENTER_TOL):
            return SimplexResult("optimal", np.zeros(n), 0.0)
        return SimplexResult("unbounded", None, None)

    A, b, _ = _equilibrate(A, b)
    neg = b < 0
    A[neg] *= -1.0
    b[neg] *= -1.0

    for pivot_tol in (_PIVOT_TOL, _RETRY_PIVOT_TOL):
        T = np.hstack([A, np.eye(m), b[:, None]])
        basis = np.arange(n, n + m)
        z = np.zeros(n + m + 1)
        z[:n] = -T[:, :n].sum(axis=0)
        z[-1] = -b.sum()
        status = _pivot_loop(T, basis, z, max_iter, pivot_tol)
        if status == "optimal":
            break
    else:  # phase 1 is always bounded below by 0
        raise RuntimeError("phase 1 reported " + status)
    if -z[-1] > _INFEASIBLE_TOL * max(1.0, m):
        return SimplexResult("infeasible", None, None)

    # Drive artificials out of the basis; rows that cannot pivot on an
    # original column are redundant equalities and are dropped.
    drop = []
    for i in range(m):
        if basis[i] >= n:
            row = np.abs(T[i, :n])
            cand = np.nonzero(row > _DRIVE_TOL)[0]
            if cand.size:
                _pivot(T, None, i, int(cand[0]))
                basis[i] = int(cand[0])
            else:
                drop.append(i)
    keep = [i for i in range(m) if i not in drop]
    T = np.hstack([T[keep][:, :n], T[keep][:, -1:]])
    basis = basis[keep]

    z = np.concatenate([c, [0.0]])
    for i, bi in enumerate(basis):
        z -= c[bi] * T[i]
    status = _pivot_loop(T, basis, z, max_iter, pivot_tol)
    if status == "unbounded":
        return SimplexResult("unbounded", None, None)
    x = np.zeros(n)
    x[basis] = np.maximum(T[:, -1], 0.0)
    return SimplexResult("optimal", x, float(c @ x))


def verify_farkas_ray(A, b, ray) -> float:
    """Re-check that `ray` proves A x = b has no solution with x free.

    For every x, b.y = (b - A x).y + x.(A^T y), so a ray y with b.y > 0
    and A^T y = 0 rules every x out.  Returns the lean
    ||A^T y||_inf / b.y and raises WitnessVerificationError when b.y is
    not positive or the lean exceeds WITNESS_RESIDUAL_SLACK.
    """
    A = np.array(A, dtype=float, ndmin=2)
    y = np.asarray(ray, dtype=float)
    gap = float(np.asarray(b, dtype=float) @ y)
    if not gap > 0.0:
        raise WitnessVerificationError(f"Farkas ray gap {gap:.3e} is not positive")
    lean = float(np.abs(y @ A).max(initial=0.0)) / gap
    if lean > WITNESS_RESIDUAL_SLACK:
        raise WitnessVerificationError(f"Farkas ray lean {lean:.3e} too large")
    return lean


def range_solve(A, b):
    """Decide A x = b with every x free.

    Returns (x, None) with a solution x, or (None, ray) with a verified
    Farkas ray when there is none.

    Rows are equilibrated as in `simplex_solve`, and the system counts as
    solvable when the equilibrated residual passes the test phase 1
    applies.  The first candidate is the least-norm solution read off
    the SVD of A^T = U S V^T from `numerical_rank`, x = U_r S_r^-1 V_r^T b,
    which is a memo hit when A^T was just factored for a rank test.  That
    SVD is of the unequilibrated A, so a candidate that fails the test
    decides nothing: the system is then solved again by least squares on
    the equilibrated rows.  If that residual fails too, it is a Farkas
    ray.  It carries rounding of size eps * |A| |x|, which can outweigh a
    small residual, so the ray is that residual projected off the range
    of A once more.
    """
    A = np.array(A, dtype=float, ndmin=2)
    b = np.array(b, dtype=float).ravel()
    m = A.shape[0]
    if b.shape[0] != m:
        raise ValueError("inconsistent system dimensions")
    As, bs, scale = _equilibrate(A, b)
    tol = _INFEASIBLE_TOL * max(1.0, m)
    rr = numerical_rank(A.T)
    x = rr.left_basis @ ((rr.right_basis @ b) / rr.singular_values[:rr.rank])
    if np.abs(bs - As @ x).sum() <= tol:
        return x, None
    x = np.linalg.lstsq(As, bs, rcond=None)[0]
    r = bs - As @ x
    if np.abs(r).sum() <= tol:
        return x, None
    y = r - As @ np.linalg.lstsq(As, r, rcond=None)[0]
    ray = y / scale
    verify_farkas_ray(A, b, ray)
    return None, ray


class LinearProgram:
    """The equality system A x = b with x >= 0 except on the `free` columns.

    Each free column is split into a plus part and a minus part, placed
    side by side; callers see one signed value per column.  A system
    with every column free and no objective goes to `range_solve`.
    """

    # bound on a maximized column, which keeps every LP here bounded
    CAP = 1.0

    def __init__(self, A, b, free=()):
        self.A = np.array(A, dtype=float, ndmin=2)
        self.b = np.array(b, dtype=float).ravel()
        self.free = np.zeros(self.A.shape[1], dtype=bool)
        self.free[list(free)] = True

    def solve(self, maximize: int | None = None):
        """Return (feasible, values, objective_value).

        With `maximize`, phase 2 maximizes that column, bounded by CAP
        through a slack in an extra last row and last column.
        """
        if maximize is None and self.free.all():
            x, _ = range_solve(self.A, self.b)
            return (False, None, None) if x is None else (True, x, 0.0)
        counts = 1 + self.free
        plus = np.cumsum(counts) - counts
        source = np.repeat(np.arange(counts.size), counts)
        sign = np.ones(source.size)
        sign[plus[self.free] + 1] = -1.0
        m, n = self.A.shape[0], source.size
        capped = int(maximize is not None)
        A = np.zeros((m + capped, n + capped))
        A[:m, :n] = self.A[:, source] * sign
        b, c = self.b, np.zeros(n + capped)
        if capped:
            parts = np.flatnonzero(source == maximize)
            A[m, parts] = sign[parts]
            A[m, n] = 1.0
            b = np.append(b, self.CAP)
            c[parts] = -sign[parts]
        res = simplex_solve(A, b, c)
        if res.status == "infeasible":
            return False, None, None
        values = res.x[plus]
        values[self.free] -= res.x[plus[self.free] + 1]
        obj = values[maximize] if maximize is not None else 0.0
        return True, values, float(obj)


@dataclass(frozen=True)
class RankResult:
    rank: int
    singular_values: np.ndarray
    null_witness: np.ndarray | None  # left-null combination over the rows
    # orthonormal basis of the left null space, one column per dependence
    null_basis: np.ndarray
    # M = U S V^T truncated at the rank: U[:, :rank] spans the column
    # space of M, V^T[:rank] its row space
    left_basis: np.ndarray | None = None
    right_basis: np.ndarray | None = None

    def __post_init__(self):
        # results are shared between callers (see numerical_rank)
        for arr in (self.singular_values, self.null_witness, self.null_basis,
                    self.left_basis, self.right_basis):
            if arr is not None:
                arr.setflags(write=False)


def numerical_rank(matrix, rank_rel_tol: float = 1e-12) -> RankResult:
    """SVD rank with relative threshold, plus a row-dependence witness.

    rank = #{sigma > rank_rel_tol * sigma_max * max(rows, cols)}.  When
    the rows are dependent the witness w satisfies ||w.M||_inf below the
    same threshold, has unit 1-norm, and a positive leading entry.  The
    null basis holds the left singular vectors past the rank: row j of
    it is zero exactly when row j of M lies outside the span of the
    other rows.

    The results of the last two distinct (matrix bytes, threshold) inputs
    are kept and handed out again: the CQ checks at one point factor the
    same gradient bundle several times.  The SVD is deterministic and the
    arrays of a RankResult are read-only, so a kept result is bitwise
    what recomputing would give.
    """
    M = np.array(matrix, dtype=float, ndmin=2)
    return _svd_rank(M.shape, rank_rel_tol, M.tobytes())


@functools.lru_cache(maxsize=2)
def _svd_rank(shape, rank_rel_tol, data) -> RankResult:
    M = np.frombuffer(data).reshape(shape)
    k, ncol = M.shape
    if k == 0:
        return RankResult(0, np.zeros(0), None, np.zeros((0, 0)),
                          np.zeros((0, 0)), np.zeros((0, ncol)))
    if ncol == 0 or not np.any(M):
        w = np.zeros(k)
        w[0] = 1.0
        return RankResult(0, np.zeros(min(k, ncol)), w, np.eye(k),
                          np.zeros((k, 0)), np.zeros((0, ncol)))
    U, sigma, Vt = np.linalg.svd(M, full_matrices=True)
    thresh = rank_rel_tol * sigma[0] * max(k, ncol)
    rank = int(np.sum(sigma > thresh))
    witness = None
    if rank < k:
        w = U[:, rank]
        w = w / np.abs(w).sum()
        lead = np.nonzero(np.abs(w) > 1e-12)[0]
        if lead.size and w[lead[0]] < 0:
            w = -w
        resid = float(np.abs(w @ M).max())
        if resid > thresh * (1.0 + 1e-6) + 1e-15:
            raise WitnessVerificationError(
                f"null witness residual {resid:.3e} exceeds threshold {thresh:.3e}")
        witness = w
    return RankResult(rank, sigma, witness, U[:, rank:], U[:, :rank], Vt[:rank])


def is_positive_definite(matrix, pd_eps: float = 1e-10) -> bool:
    """Symmetric positive definiteness with a relative eigenvalue floor.

    The empty 0x0 matrix counts as positive definite.  Asymmetry beyond
    slack is a structural error, not a numeric verdict.
    """
    M = np.array(matrix, dtype=float, ndmin=2)
    if M.size == 0:
        return True
    if M.shape[0] != M.shape[1]:
        raise ValueError("definiteness is only defined for square matrices")
    scale = np.abs(M).max()
    if np.abs(M - M.T).max() > 1e-8 * (1.0 + scale):
        raise ValueError("matrix is not symmetric within slack")
    S = 0.5 * (M + M.T)
    eigs = np.linalg.eigvalsh(S)
    k = M.shape[0]
    return bool(eigs[0] > pd_eps * (1.0 + np.trace(S) / k))


@dataclass(frozen=True)
class SignedCombinationQuery:
    """Rows grouped by the sign class of their combination coefficient.

    nonneg: coefficient >= 0; zero: fixed at zero (kept for provenance
    only); free: unconstrained.
    """

    nonneg: np.ndarray
    zero: np.ndarray
    free: np.ndarray
    labels: tuple = field(default=(), compare=False)

    @property
    def dim(self) -> int:
        for block in (self.nonneg, self.zero, self.free):
            if block.shape[0]:
                return block.shape[1]
        return self.nonneg.shape[1]


def make_query(dim: int, nonneg=None, zero=None, free=None,
               labels=()) -> SignedCombinationQuery:
    def block(rows):
        if rows is None or len(rows) == 0:
            return np.zeros((0, dim))
        out = np.array(rows, dtype=float, ndmin=2)
        if out.shape[1] != dim:
            raise ValueError("row dimension mismatch in query")
        return out

    return SignedCombinationQuery(block(nonneg), block(zero), block(free),
                                  tuple(labels))


@dataclass(frozen=True)
class CombinationWitness:
    exists: bool
    # aligned with query rows in block order nonneg, zero, free
    coefficients: np.ndarray | None
    residual: float | None


def verify_combination(query: SignedCombinationQuery, coefficients) -> float:
    """Re-check a combination witness arithmetically; returns the residual.

    Raises WitnessVerificationError if the coefficients violate their
    sign classes, are essentially zero, or fail to annihilate the rows.
    """
    coeffs = np.asarray(coefficients, dtype=float)
    kn, kz, kf = query.nonneg.shape[0], query.zero.shape[0], query.free.shape[0]
    if coeffs.shape[0] != kn + kz + kf:
        raise WitnessVerificationError("witness length does not match query")
    a = coeffs[:kn]
    zc = coeffs[kn:kn + kz]
    f = coeffs[kn + kz:]
    if np.any(a < -1e-9):
        raise WitnessVerificationError("nonneg coefficient is negative")
    if np.any(np.abs(zc) > 1e-12):
        raise WitnessVerificationError("zero-class coefficient is nonzero")
    total = np.abs(coeffs).sum()
    if total < 0.5:
        raise WitnessVerificationError("witness is essentially zero")
    combo = np.zeros(query.dim)
    if kn:
        combo += a @ query.nonneg
    if kf:
        combo += f @ query.free
    residual = float(np.abs(combo).max()) if query.dim else 0.0
    if residual > WITNESS_RESIDUAL_SLACK:
        raise WitnessVerificationError(f"witness residual {residual:.3e} too large")
    return residual


def signed_combination_exists(query: SignedCombinationQuery, *,
                              rank_rel_tol: float = 1e-12) -> CombinationWitness:
    """Decide whether a nonzero sign-respecting null combination exists.

    Existence is invariant under positive rescaling of any row.  The
    returned coefficients are normalized to unit 1-norm and re-verified
    before being handed back; zero-class rows always get coefficient 0.

    Decision procedure: a dependence among the free rows alone settles
    the question via the rank kernel (the only route that cannot be
    polluted by the split-variable artifact); otherwise any witness
    carries nonneg mass, and an LP normalized to unit nonneg mass
    decides.
    """
    kn, kz, kf = query.nonneg.shape[0], query.zero.shape[0], query.free.shape[0]

    def assemble(a, f):
        coeffs = np.concatenate([a, np.zeros(kz), f])
        coeffs = coeffs / np.abs(coeffs).sum()
        residual = verify_combination(query, coeffs)
        return CombinationWitness(True, coeffs, residual)

    if kf:
        rr = numerical_rank(query.free, rank_rel_tol)
        if rr.rank < kf:
            return assemble(np.zeros(kn), rr.null_witness)
    if kn == 0:
        return CombinationWitness(False, None, None)
    # the rows combine to zero, and the nonneg mass is one
    A = np.zeros((query.dim + 1, kn + kf))
    A[:-1] = np.hstack([query.nonneg.T, query.free.T])
    A[-1, :kn] = 1.0
    b = np.append(np.zeros(query.dim), 1.0)
    feasible, values, _ = LinearProgram(A, b, range(kn, kn + kf)).solve()
    if not feasible:
        return CombinationWitness(False, None, None)
    return assemble(values[:kn], values[kn:kn + kf])
