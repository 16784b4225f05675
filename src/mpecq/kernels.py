"""Deterministic numeric kernels: rank and linear feasibility.

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
`numerical_rank` eliminates in two exact phases before it factors:
first the unit rows, the free column singletons of presolve, then,
round by round, every block column with a single nonzero, which leaves
with that row.  Only the block they leave is factored; in a bilevel SVC
bundle most rows are unit rows from the box on alpha, and the column
phase leaves little more than the Gram block over the free support
vectors.  It keeps its last two results, returned again for an input
equal bit for bit at the same cutoff, each with the block factorization
behind it.
That is the package's one factorization memo: a multiplier system whose
A^T is a gradient bundle just factored for a rank test costs no second
factorization.  `LinearProgram.solve`
likewise keeps its last two NNLS answers, returned again for a system
(A, b, free) equal bit for bit: MFCQ-TNLP's system is the NNAMCQ
root's, MFCQ-RNLP's the all-`nonneg` NNAMCQ leaf's, and the strong
stationarity system can be the KKT system of `verify_kkt_equivalence`.
"""

from __future__ import annotations

import collections
import math
from dataclasses import dataclass, field
from typing import NamedTuple

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
# `numerical_rank` eliminates a unit row's column only when |a| is at
# least this share of the column's 2-norm; the unit rows of the bilevel
# SVC bundles and biactive records in the tests clear it 40 times over
_PIVOT_SHARE = 1e-3


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
    """The system A x = b with x >= 0 except on the `free` columns.

    `rank_rel_tol` is the cutoff of the rank test behind an all-free
    system's first candidate (`solve`); pass the caller's, so the kept
    rank result of A^T is found.
    """

    def __init__(self, A, b, free=(), rank_rel_tol: float = 1e-12):
        self.A = np.array(A, dtype=float, ndmin=2)
        self.b = np.array(b, dtype=float).ravel()
        if self.b.shape[0] != self.A.shape[0]:
            raise ValueError("inconsistent system dimensions")
        self.free = np.zeros(self.A.shape[1], dtype=bool)
        self.free[list(free)] = True
        self.rank_rel_tol = rank_rel_tol

    def solve(self):
        """Return (x, None) with a solution x, or (None, ray) with a
        verified Farkas ray (`verify_farkas_ray`) when there is none.

        A system with every column free first tries the solution read
        off the presolve and block SVD of A^T that `numerical_rank`
        keeps (`_Presolve.solve`), a memo hit when A^T was just factored
        for a rank test; it counts when it passes `_nnls`'s residual
        test.  Every other system, and one whose candidate fails, is
        decided by `_nnls`.  Its last two
        answers are kept with their (A, b, free): a system equal to one
        of those bit for bit gets the kept answer back, whose arrays are
        read-only and shared by every caller.  The key is built only
        after the all-free candidate has failed.
        """
        A, b, free = self.A, self.b, self.free
        if free.all():
            x = numerical_rank(A.T, self.rank_rel_tol).presolve.solve(b)
            As, bs, _ = _equilibrate(A, b)
            if np.abs(bs - As @ x).sum() <= _INFEASIBLE_TOL * max(1.0, A.shape[0]):
                return x, None
        key = (A.shape, A.tobytes(), b.tobytes(), free.tobytes())
        return _recall(_recent_answers, key, lambda: _nnls(A, b, free))


# ((shape, A bytes, b bytes, free bytes), answer) of the two most recently
# used systems that `_nnls` decided, most recent first
_recent_answers = collections.deque(maxlen=2)


def _recall(kept, key, compute):
    """The result kept with `key` in the two-entry deque `kept`, which
    becomes the most recently used, or compute() kept with it in front."""
    for i, (seen, result) in enumerate(kept):
        if seen == key:
            if i:  # the least recently used entry becomes the most recent
                kept.rotate()
            return result
    result = compute()
    kept.appendleft((key, result))
    return result


def _nnls(A, b, free):
    """(x, None) or (None, ray) for A x = b, x >= 0 off the boolean mask
    `free`; the returned array is read-only.

    Rows are equilibrated to unit inf-norm over [A | b], which changes
    neither the solutions nor the rays up to row scaling.  Lawson &
    Hanson's NNLS (Solving Least Squares Problems, 1974, ch. 23) runs on
    the equilibrated rows, starting from the passive set of free
    columns, which never leave it; with every column free that is one
    least-squares solve.  A candidate x counts as a solution when its
    equilibrated residual has 1-norm at most _INFEASIBLE_TOL * max(1,
    rows).  At the NNLS optimum the residual r has A_P^T r = 0 on the
    passive columns, A_Z^T r <= 0 on the others and b.r = |r|^2 > 0, so
    it is a Farkas ray.  It carries rounding of size eps * |A| |x|,
    which can outweigh a small residual, so it is projected off the
    range of the passive columns once more before it is re-checked.
    Raises ConvergenceError after 3 * cols + 10 outer iterations.
    """
    m, n = A.shape
    As, bs, scale = _equilibrate(A, b)
    tol = _INFEASIBLE_TOL * max(1.0, m)
    passive = free.copy()
    x = _lstsq(As, bs, passive)
    dual_tol = _DUAL_TOL * max(m, n)
    for _ in range(3 * n + 10):
        r = bs - As @ x
        if np.abs(r).sum() <= tol:
            x.setflags(write=False)
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
    ray.setflags(write=False)
    return None, ray


class _Presolve(NamedTuple):
    """M split into its eliminated rows and the block (`numerical_rank`).

    Unit row `units[j]` holds `values[j]` in column `pivots[j]` and is
    zero elsewhere.  Singleton row `singles[j]`, row `single_rows[j]` of
    M, is the only block row with a nonzero in column `heads[j]` when
    its round, `singles[rounds[t]:rounds[t + 1]]`, is eliminated.  The
    other rows, `dense` = M[rows], keep every column; the block
    dense[:, cols] drops the pivot and head columns and is factored as
    U S V^T, truncated at its rank.
    """
    rows: np.ndarray   # boolean mask of the rows left in the block
    cols: np.ndarray   # boolean mask of the columns left in the block
    units: np.ndarray
    pivots: np.ndarray
    values: np.ndarray
    dense: np.ndarray
    singles: np.ndarray
    heads: np.ndarray
    rounds: np.ndarray
    single_rows: np.ndarray
    U: np.ndarray
    sigma: np.ndarray
    Vt: np.ndarray

    def solve(self, b):
        """An x with x @ M = b when b is in the row space of M.

        Each head column's equation fixes its singleton row's entry once
        the earlier rounds' are known, so the singleton rows are solved
        by forward substitution, one diagonal round at a time.  The
        block rows then take the least-norm solution of the block's
        columns, U S^-1 V^T b', with b' what the singleton rows leave of
        b; each pivot column's equation then fixes the sum of a x over
        its unit rows, which is spread over them in proportion to their
        a (the least-norm split).
        """
        b = np.asarray(b, dtype=float)
        x = np.zeros(self.rows.size)
        xs = np.zeros(self.singles.size)
        for lo, hi in zip(self.rounds[:-1], self.rounds[1:]):
            heads = self.heads[lo:hi]
            xs[lo:hi] = ((b[heads] - xs[:lo] @ self.single_rows[:lo, heads])
                         / self.single_rows[np.arange(lo, hi), heads])
        x[self.singles] = xs
        b = b - xs @ self.single_rows
        x[self.rows] = self.U @ ((self.Vt @ b[self.cols]) / self.sigma)
        x[self.units] = self.spread(b[self.pivots] - x[self.rows] @ self.dense[:, self.pivots])
        return x

    def spread(self, need):
        """Unit-row entries whose sum of a x on each pivot column is `need`
        (last axis, one entry per unit row), least-norm per column."""
        norms = np.bincount(self.pivots, self.values * self.values)
        return need * (self.values / norms[self.pivots])


@dataclass(frozen=True)
class RankResult:
    rank: int
    null_witness: np.ndarray | None  # left-null combination over the rows
    # orthonormal basis of the left null space, one column per dependence
    null_basis: np.ndarray
    # the elimination and block factorization behind them, which
    # `LinearProgram.solve` reuses for systems whose A^T is the matrix
    presolve: _Presolve = field(repr=False, compare=False)

    def __post_init__(self):
        for arr in (self.null_witness, self.null_basis):
            if arr is not None:
                arr.setflags(write=False)


def numerical_rank(matrix, rank_rel_tol: float = 1e-12) -> RankResult:
    """Rank with a relative threshold, after exact elimination of unit
    rows and column singletons, plus a row-dependence witness.

    A unit row, one nonzero a in column c, is a free column singleton
    (Andersen & Andersen, Math. Programming 71, 1995).  Row operations
    with it clear column c from every other row, so the unit rows on c
    add exactly 1 to the rank, and those rows and column c are dropped;
    the unit rows on c beyond the first are exact multiples of it.  In
    the block left, a column with one nonzero a, in row r, is a column
    singleton: no vanishing combination of the block rows can weigh
    row r, so row r and that column leave and add exactly 1 to the
    rank, with no fill-in.  That repeats, round by round, until no
    block column has a single nonzero.  Only the reduced block that
    remains is factored by SVD:

        rank = #pivot columns + #singleton rows + #{sigma(block) > thresh},
        thresh = rank_rel_tol * max(rows, cols) * s,

    with rows, cols those of the full matrix and s the larger of
    sigma_max(block) and the largest 2-norm of a column of M.  Both are
    at most sigma_max(M), and ||M||_F <= sqrt(cols) s, so sigma_max(M) /
    sqrt(cols) <= s <= sigma_max(M): the cutoff stays relative to the
    whole matrix.  With
    no singleton eliminated, every other column of M is a block column
    padded with zeros, s is the larger of sigma_max(block) and the
    largest pivot column norm, and sigma_max(M) / sqrt(1 + #pivot
    columns) <= s.

    Both phases pivot on thresholds, as in sparse LU.  A unit row is
    eliminated only while |a| > thresh and |a| >= _PIVOT_SHARE *
    ||M[:, c]||, so clearing its column adds at most 1 / _PIVOT_SHARE
    times a unit row to any other row.  A column singleton is
    eliminated only while |a| > thresh and the product over rounds of
    each round's largest ||row r over the block columns|| / |a| stays at
    most 1 / _PIVOT_SHARE, which caps the growth of the column
    operations that clear the singleton rows' entries on the block
    columns.  Any other pivot goes back into the block, which is
    factored again.

    The null basis is orthonormal, and exactly zero on the singleton
    rows.  Each left-null vector z of the block is extended to the unit
    rows by back-substitution, y_u = -a_u (z . M[block rows, c]) / (sum
    of a^2 over the unit rows on c), and the extensions are
    re-orthonormalized; each pivot column with several unit rows adds an
    orthonormal basis of a^perp over them.  Row j of the basis is zero
    exactly when row j of M lies outside the span of the other rows.
    When the rows are dependent, the witness is the first basis column
    scaled to unit 1-norm and a positive leading entry, and ||w.M||_inf
    is verified below thresh.

    The last two results are kept with their inputs: an input equal to
    one of those bit for bit, at the same tolerance, gets the kept
    result back, whose arrays are read-only and shared by every caller.
    A kept result carries its block factorization (`presolve`), which
    `LinearProgram.solve` reuses, so the CQ checks and the stationarity
    system at one point factor their shared gradient bundle once; it is
    the package's only factorization memo.
    """
    M = np.atleast_2d(np.asarray(matrix, dtype=float))
    key = (M.shape, rank_rel_tol, M.tobytes())
    return _recall(_recent_results, key, lambda: _presolved_rank(M, rank_rel_tol))


# ((shape, rank_rel_tol, bytes) of the input, result) of the two most
# recently used `numerical_rank` inputs, most recent first
_recent_results = collections.deque(maxlen=2)


def _presolved_rank(M, rank_rel_tol):
    """`numerical_rank` of the 2-D float array M, computed afresh."""
    k, n = M.shape
    nonzero = M != 0.0
    units = (nonzero.sum(axis=1) == 1).nonzero()[0]
    pivots = nonzero[units].argmax(axis=1) if units.size else units  # no argmax over 0 columns
    values = M[units, pivots]
    size = np.abs(values)
    column_norms = np.sqrt(np.einsum("ij,ij->j", M, M))
    largest = column_norms.max(initial=0.0)
    scale = rank_rel_tol * max(k, n)
    keep = size >= _PIVOT_SHARE * column_norms[pivots]
    barred = np.zeros(n, dtype=bool)  # columns no singleton row is eliminated on
    while True:
        # a column stays eliminated while one of its unit rows is kept
        if not keep.all():
            kept = np.isin(pivots, pivots[keep])
            units, pivots, values, size = units[kept], pivots[kept], values[kept], size[kept]
        rows = np.ones(k, dtype=bool)  # the rows left in the block
        rows[units] = False
        cols = np.ones(n, dtype=bool)
        cols[pivots] = False
        singles, heads, rounds = _column_singletons(M, nonzero, rows, cols,
                                                    scale * largest, barred)
        dense = M[rows]
        U, sigma, Vt = np.linalg.svd(dense[:, cols])
        thresh = scale * max(largest, sigma[0] if sigma.size else 0.0)
        keep = size > thresh
        small = np.abs(M[singles, heads]) <= thresh
        barred[heads[small]] = True
        if not small.any() and (keep.all() or np.isin(pivots, pivots[keep]).all()):
            break
    block_rank = int((sigma > thresh).sum())
    presolve = _Presolve(rows, cols, units, pivots, values, dense, singles, heads, rounds,
                         M[singles], U[:, :block_rank], sigma[:block_rank], Vt[:block_rank])
    for arr in presolve:
        arr.setflags(write=False)
    pivot_count = n - int(cols.sum()) - singles.size
    rank = pivot_count + singles.size + block_rank
    if rank == k:
        return RankResult(rank, None, np.zeros((k, 0)), presolve)

    basis = np.zeros((k, k - rank))
    Z = U[:, block_rank:]
    nz = Z.shape[1]
    basis[rows, :nz] = Z
    if nz and units.size:
        basis[units, :nz] = -presolve.spread(Z.T @ dense[:, pivots]).T
        basis[:, :nz] = np.linalg.qr(basis[:, :nz])[0]
    shared = (np.bincount(pivots) > 1).nonzero()[0] if units.size > pivot_count else ()
    for c in shared:
        on = (pivots == c).nonzero()[0]
        # the Householder reflection I - v v^T / |v_0| maps a/|a| to -+e_0,
        # so its other columns are an orthonormal basis of a^perp
        v = values[on] / math.sqrt(values[on] @ values[on])
        v[0] += math.copysign(1.0, v[0])
        basis[units[on], nz:nz + on.size - 1] = (np.eye(on.size)[:, 1:]
                                                 - v[:, None] * (v[1:] / abs(v[0])))
        nz += on.size - 1

    w = basis[:, 0] / np.abs(basis[:, 0]).sum()
    if w[(np.abs(w) > 1e-12).argmax()] < 0:  # the leading entry
        w = -w
    resid = float(np.abs(w @ M).max(initial=0.0))
    if resid > thresh * (1.0 + 1e-6) + 1e-15:
        raise WitnessVerificationError(
            f"null witness residual {resid:.3e} exceeds threshold {thresh:.3e}")
    return RankResult(rank, w, basis, presolve)


def _column_singletons(M, nonzero, rows, cols, floor, barred):
    """Eliminate the block's column singletons of M, round by round.

    A round takes every block column, off the boolean mask `barred`,
    with exactly one nonzero a among the block rows, one column per row
    (its largest |a|), and clears those rows and columns from the masks
    `rows` and `cols` in place.  A pivot is taken only when |a| > floor,
    a lower bound of the rank cutoff, and the product over rounds of
    each round's largest ||row over the block columns|| / |a| stays at
    most 1 / _PIVOT_SHARE.  Returns (singles, heads, rounds) as
    `_Presolve` holds them.
    """
    singles, heads, rounds = [_NO_ROWS], [_NO_ROWS], [0]
    if not rows.any():  # only unit rows, as in every biactive record
        return _NO_ROWS, _NO_ROWS, _ONE_ROUND
    growth = 1.0
    count = nonzero[rows].sum(axis=0)
    while True:
        found = (cols & ~barred & (count == 1)).nonzero()[0]
        if not found.size:
            break
        row = (nonzero[:, found] & rows[:, None]).argmax(axis=0)
        size = np.abs(M[row, found])
        order = np.argsort(-size, kind="stable")
        order = order[np.unique(row[order], return_index=True)[1]]
        row, found, size = row[order], found[order], size[order]
        on_block = M[row][:, cols]
        ratio = np.sqrt(np.einsum("ij,ij->i", on_block, on_block)) / size
        take = (size > floor) & (growth * ratio * _PIVOT_SHARE <= 1.0)
        if not take.any():
            break
        growth *= ratio[take].max()
        row, found = row[take], found[take]
        rows[row] = False
        cols[found] = False
        count -= nonzero[row].sum(axis=0)
        singles.append(row)
        heads.append(found)
        rounds.append(rounds[-1] + row.size)
    return np.concatenate(singles), np.concatenate(heads), np.array(rounds)


# the elimination of a block without rows, read-only and shared
_NO_ROWS = np.zeros(0, dtype=np.intp)
_ONE_ROUND = np.zeros(1, dtype=np.intp)
for _arr in (_NO_ROWS, _ONE_ROUND):
    _arr.setflags(write=False)


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
