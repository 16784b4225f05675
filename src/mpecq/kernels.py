"""Deterministic numeric kernels: rank, definiteness and linear feasibility.

Every qualification and stationarity test in this package reduces to a
question about a finite collection of gradient rows: is the collection
linearly independent, does a sign-constrained null combination exist,
is a multiplier system solvable, is a direction with prescribed strict
signs available.  The kernels here answer those questions with explicit
certificates, and every certificate is re-verified arithmetically before
it is returned, so callers never have to trust the solver internals.

Each of the last three is one feasibility system, A x = b with x >= 0
except on the free columns (`LinearProgram`).  The combination and
direction questions share one of them, `cone_combination`:
`null_combination` asks it for unit mass on the signed rows, and a
direction question is posed through its Motzkin alternative.  Every
system is decided by Lawson-Hanson NNLS on equilibrated rows, which
returns either a solution that passes the residual test or a Farkas ray
that passes `verify_farkas_ray`.
`numerical_rank` keeps the results of its last two distinct inputs, so
a multiplier system whose A^T is a gradient bundle already factored for
a rank test costs no second factorization.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, WitnessVerificationError

# Residual slack allowed when re-verifying any returned witness.
WITNESS_RESIDUAL_SLACK = 1e-6

# an equilibrated system A x = b is solvable when the 1-norm of its
# least residual is at most this times max(1, rows)
_INFEASIBLE_TOL = 1e-8
# a column enters the passive set only when its dual entry exceeds this
# times max(rows, cols); smaller entries are rounding noise
_DUAL_TOL = 1e-14


def _equilibrate(A, b):
    """Rows scaled to unit inf-norm over [A | b]; returns (A, b, scale)."""
    scale = np.maximum(np.abs(A).max(axis=1, initial=0.0), np.abs(b))
    scale = np.where(scale < 1e-300, 1.0, scale)
    return A / scale[:, None], b / scale, scale


def verify_farkas_ray(A, b, ray, free) -> float:
    """Re-check that `ray` proves A x = b has no solution with x >= 0
    except on the `free` columns.

    For every x, b.y = (b - A x).y + x.(A^T y), so a ray y with b.y > 0,
    A_F^T y = 0 on the free columns and A_N^T y <= 0 on the others rules
    every such x out.  Returns the lean, the largest of |A_F^T y| and
    A_N^T y (and 0) over b.y, and raises WitnessVerificationError when
    b.y is not positive or the lean exceeds WITNESS_RESIDUAL_SLACK.
    """
    A = np.array(A, dtype=float, ndmin=2)
    y = np.asarray(ray, dtype=float)
    gap = float(np.asarray(b, dtype=float) @ y)
    if not gap > 0.0:
        raise WitnessVerificationError(f"Farkas ray gap {gap:.3e} is not positive")
    lean = y @ A
    lean[free] = np.abs(lean[free])
    lean = float(lean.max(initial=0.0)) / gap
    if lean > WITNESS_RESIDUAL_SLACK:
        raise WitnessVerificationError(f"Farkas ray lean {lean:.3e} too large")
    return lean


def _lstsq(A, b, columns):
    """Least-squares solution over `columns`, zero on the others."""
    x = np.zeros(A.shape[1])
    x[columns] = np.linalg.lstsq(A[:, columns], b, rcond=None)[0]
    return x


class LinearProgram:
    """The system A x = b with x >= 0 except on the `free` columns."""

    def __init__(self, A, b, free=()):
        self.A = np.array(A, dtype=float, ndmin=2)
        self.b = np.array(b, dtype=float).ravel()
        if self.b.shape[0] != self.A.shape[0]:
            raise ValueError("inconsistent system dimensions")
        self.free = np.zeros(self.A.shape[1], dtype=bool)
        self.free[list(free)] = True

    def solve(self):
        """Return (x, None) with a solution x, or (None, ray) with a
        verified Farkas ray (`verify_farkas_ray`) when there is none.

        Rows are equilibrated to unit inf-norm over [A | b], which
        changes neither the solutions nor the rays up to row scaling.
        A system with every column free first tries the least-norm
        solution read off the SVD of A^T that `numerical_rank` keeps,
        x = U_r S_r^-1 V_r^T b, a memo hit when A^T was just factored
        for a rank test.  Every system then runs Lawson & Hanson's NNLS
        (Solving Least Squares Problems, 1974, ch. 23) on the
        equilibrated rows, starting from the passive set of free
        columns, which never leave it; with every column free that is
        one least-squares solve.  A candidate x counts as a solution
        when its equilibrated residual has 1-norm at most
        _INFEASIBLE_TOL * max(1, rows).  At the NNLS optimum the
        residual r has A_P^T r = 0 on the passive columns, A_Z^T r <= 0
        on the others and b.r = |r|^2 > 0, so it is a Farkas ray.  It
        carries rounding of size eps * |A| |x|, which can outweigh a
        small residual, so it is projected off the range of the passive
        columns once more before it is re-checked.  Raises
        ConvergenceError after 3 * cols + 10 outer iterations.
        """
        A, b, free = self.A, self.b, self.free
        m, n = A.shape
        As, bs, scale = _equilibrate(A, b)
        tol = _INFEASIBLE_TOL * max(1.0, m)
        if free.all():
            rr = numerical_rank(A.T)
            x = rr.left_basis @ ((rr.right_basis @ b) / rr.singular_values[:rr.rank])
            if np.abs(bs - As @ x).sum() <= tol:
                return x, None
        passive = free.copy()
        x = _lstsq(As, bs, passive)
        dual_tol = _DUAL_TOL * max(m, n)
        for _ in range(3 * n + 10):
            r = bs - As @ x
            if np.abs(r).sum() <= tol:
                return x, None
            if passive.all():
                break
            dual = np.where(passive, -np.inf, r @ As)
            j = int(np.argmax(dual))
            if dual[j] <= dual_tol:
                break
            passive[j] = True
            z = _lstsq(As, bs, passive)
            if z[j] <= 0.0:  # the dual entry was rounding noise
                passive[j] = False
                break
            while True:
                blocked = np.flatnonzero(passive & ~free & (z <= 0.0))
                if not blocked.size:
                    break
                # step from x toward z until the first constrained value hits 0
                steps = x[blocked] / (x[blocked] - z[blocked])
                x += steps.min() * (z - x)
                x[blocked[np.argmin(steps)]] = 0.0
                passive &= free | (x > 0.0)
                x[~passive] = 0.0
                z = _lstsq(As, bs, passive)
            x = z
        else:
            raise ConvergenceError("NNLS did not reach its optimum",
                                   float(np.abs(r).sum()), 3 * n + 10)
        y = r - As @ _lstsq(As, r, passive)
        ray = y / scale
        verify_farkas_ray(A, b, ray, free)
        return None, ray


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


def cone_combination(rows, free, mass):
    """A y with y @ rows = 0, y >= 0 off the `free` rows and unit sum over
    the `mass` rows, or None once `LinearProgram.solve` has verified the
    Farkas ray that rules every such y out.

    Every combination question is this system: `null_combination` asks
    for unit mass on its signed rows, and a direction question is asked
    through its Motzkin alternative.  Row j of `rows` is column j of the
    system, so y comes back in the order of `rows`.
    """
    rows = np.asarray(rows, dtype=float)
    k, n = rows.shape
    A = np.zeros((n + 1, k))
    A[:n] = rows.T
    A[n, list(mass)] = 1.0
    b = np.zeros(n + 1)
    b[n] = 1.0
    return LinearProgram(A, b, free).solve()[0]


def null_combination(rows, signed, rank_rel_tol: float):
    """A nonzero combination of `rows` that vanishes, nonnegative on the
    `signed` rows (a boolean mask) and free on the others.

    Returns None, or (y, residual): y weighs the signed rows first, then
    the free ones, each in the order of `rows`, and has unit 1-norm;
    residual is |y @ rows|_inf.  Existence is invariant under positive
    rescaling of any row.  A dependence among the free rows alone
    settles the question via the rank kernel; otherwise any combination
    carries signed mass, and `cone_combination` with unit signed mass
    decides.  y is re-verified before it is returned: signs, nonzero
    mass and residual, which raises WitnessVerificationError.
    """
    nonneg, free = rows[signed], rows[~signed]
    kn, kf = len(nonneg), len(free)
    y = None
    if kf:
        rr = numerical_rank(free, rank_rel_tol)
        if rr.rank < kf:
            y = np.concatenate([np.zeros(kn), rr.null_witness])
    if y is None and kn:
        y = cone_combination(np.concatenate([nonneg, free]), range(kn, kn + kf), range(kn))
    if y is None:
        return None
    total = np.abs(y).sum()
    if not total > 0.0:
        raise WitnessVerificationError("combination is essentially zero")
    y = y / total
    if np.any(y[:kn] < -1e-9):
        raise WitnessVerificationError("nonneg coefficient is negative")
    # the signed block's product plus the free block's: one product over
    # all rows would round the certificate residual differently
    residual = float(np.abs(y[:kn] @ nonneg + y[kn:] @ free).max(initial=0.0))
    if residual > WITNESS_RESIDUAL_SLACK:
        raise WitnessVerificationError(f"combination residual {residual:.3e} too large")
    return y, residual
