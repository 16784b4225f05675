"""Point-evaluation model for MPECs.

An MPEC is

    min f(v)  s.t.  g(v) <= 0,  h(v) = 0,
                    G(v) >= 0,  H(v) >= 0,  G(v) * H(v) = 0  (componentwise),

with m inequality, p equality, and l complementarity pairs over R^n.
The toolkit never differentiates anything: callers supply values and
gradients at a single point as an evaluation record, and every verdict
is a statement about those finitely many rows.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import numbers
from dataclasses import dataclass, fields

import numpy as np

from .errors import ClassificationError, InputError


@dataclass(frozen=True)
class Tolerances:
    """Numeric thresholds shared across all checks; all finite and
    strictly positive.

    activity_eps    absolute activity threshold |value| <= eps
    rank_rel_tol    relative SVD cutoff for numerical rank, which also
                    decides a Gram block's definiteness (full rank)
    feas_eps        feasibility residual tolerance
    """

    activity_eps: float = 1e-8
    rank_rel_tol: float = 1e-12
    feas_eps: float = 1e-6

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if (isinstance(value, bool) or not isinstance(value, (int, float))
                    or not (math.isfinite(value) and value > 0)):
                raise InputError(f"tolerance {f.name} must be finite and strictly positive")


@dataclass(frozen=True)
class MpecDimensions:
    n: int  # variables
    m: int  # inequalities g <= 0
    p: int  # equalities h = 0
    l: int  # complementarity pairs

    def __post_init__(self):
        if self.n < 1:
            raise InputError("n must be at least 1")
        if self.m < 0 or self.p < 0:
            raise InputError("m and p must be nonnegative")
        if self.l < 1:
            raise InputError("a genuine MPEC needs at least one pair (l >= 1)")


def record_field(data, key: str, record: str, convert=lambda value: value):
    """`convert(data[key])` of an input record; a missing key, or a value
    `convert` cannot read, is an InputError naming the field."""
    if not isinstance(data, dict):
        raise InputError(f"{record} record must be a JSON object")
    if key not in data:
        raise InputError(f"{record} record is missing key '{key}'")
    try:
        return convert(data[key])
    except (TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"{record} record: {key}: {exc}") from None


def as_count(value) -> int:
    """A record's count as an int: an integer, or a float with an integral
    value such as 3.0; anything else, such as 2.5, true or "3", is a
    ValueError."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    raise ValueError(f"expected an integer, got {value!r}")


def as_floats(value, name: str) -> np.ndarray:
    """`value` as a new float array; a value that is not a number or a
    rectangular nest of numbers is an InputError naming the field."""
    try:
        return np.array(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InputError(f"{name} must hold numbers in a rectangular array: {exc}") from None


def _as_matrix(value, rows: int, cols: int, name: str) -> np.ndarray:
    # a read-only float64 array that owns its buffer (the BHO instance's P
    # and Q) cannot change under the evaluation, so it is shared, not copied
    if (type(value) is np.ndarray and value.dtype == np.float64
            and not value.flags.writeable and value.flags.owndata):
        arr = value
    else:
        arr = as_floats(value, name)
    if rows == 0:
        arr = arr.reshape(0, cols)
    if arr.ndim == 1 and rows == 1:
        arr = arr.reshape(1, -1)
    if arr.shape != (rows, cols):
        raise InputError(f"{name} must have shape ({rows}, {cols}), got {arr.shape}")
    if not np.isfinite(arr).all():
        raise InputError(f"{name} contains non-finite entries")
    arr.setflags(write=False)
    return arr


def as_vector(value, length: int, name: str) -> np.ndarray:
    """`value` as a read-only, finite float vector of `length` entries."""
    arr = as_floats(value, name).ravel()
    if arr.shape != (length,):
        raise InputError(f"{name} must have length {length}, got {arr.shape}")
    if not np.isfinite(arr).all():
        raise InputError(f"{name} contains non-finite entries")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class PointEvaluation:
    """Values and gradients of all constraint functions at one point.

    Every array is read-only.  The evaluation also keeps the tightened
    bundle that `gradient_bundle_tnlp` last built for it without modes,
    for one pattern.
    """

    dims: MpecDimensions
    point: np.ndarray
    g_vals: np.ndarray
    h_vals: np.ndarray
    G_vals: np.ndarray
    H_vals: np.ndarray
    g_grads: np.ndarray  # (m, n)
    h_grads: np.ndarray  # (p, n)
    G_grads: np.ndarray  # (l, n)
    H_grads: np.ndarray  # (l, n)

    def __post_init__(self):
        d = self.dims
        object.__setattr__(self, "point", as_vector(self.point, d.n, "point"))
        object.__setattr__(self, "g_vals", as_vector(self.g_vals, d.m, "g_vals"))
        object.__setattr__(self, "h_vals", as_vector(self.h_vals, d.p, "h_vals"))
        object.__setattr__(self, "G_vals", as_vector(self.G_vals, d.l, "G_vals"))
        object.__setattr__(self, "H_vals", as_vector(self.H_vals, d.l, "H_vals"))
        object.__setattr__(self, "g_grads", _as_matrix(self.g_grads, d.m, d.n, "g_grads"))
        object.__setattr__(self, "h_grads", _as_matrix(self.h_grads, d.p, d.n, "h_grads"))
        object.__setattr__(self, "G_grads", _as_matrix(self.G_grads, d.l, d.n, "G_grads"))
        object.__setattr__(self, "H_grads", _as_matrix(self.H_grads, d.l, d.n, "H_grads"))
        # (pattern, bundle) of the last no-modes `gradient_bundle_tnlp` call
        object.__setattr__(self, "_tnlp_bundle", None)

    @classmethod
    def from_dict(cls, data: dict) -> "PointEvaluation":
        dims = MpecDimensions(*(record_field(data, key, "evaluation", as_count)
                                for key in ("n", "m", "p", "l")))
        return cls(dims, *(record_field(data, key, "evaluation") for key in (
            "point", "g_vals", "h_vals", "G_vals", "H_vals",
            "g_grads", "h_grads", "G_grads", "H_grads")))

    def to_dict(self) -> dict:
        d = self.dims
        return {
            "n": d.n, "m": d.m, "p": d.p, "l": d.l,
            "point": self.point.tolist(),
            "g_vals": self.g_vals.tolist(), "h_vals": self.h_vals.tolist(),
            "G_vals": self.G_vals.tolist(), "H_vals": self.H_vals.tolist(),
            "g_grads": self.g_grads.tolist(), "h_grads": self.h_grads.tolist(),
            "G_grads": self.G_grads.tolist(), "H_grads": self.H_grads.tolist(),
        }


@dataclass(frozen=True)
class FeasibilityReport:
    feasible: bool
    max_violation: float
    violations: tuple  # (family, index, residual) triples

    def to_dict(self) -> dict:
        return {"feasible": self.feasible,
                "max_violation": self.max_violation,
                "violations": [[fam, int(i), float(r)]
                               for fam, i, r in self.violations]}


def check_feasibility(ev: PointEvaluation, tol: Tolerances) -> FeasibilityReport:
    """Residual test of every constraint family at the evaluated point."""
    return feasibility_of(ev.g_vals, ev.h_vals, ev.G_vals, ev.H_vals, tol)


def feasibility_of(g_vals, h_vals, G_vals, H_vals, tol: Tolerances) -> FeasibilityReport:
    """`check_feasibility` on constraint values given without an evaluation."""
    table = (("g", g_vals), ("h", abs(h_vals)), ("G", -G_vals),
             ("H", -H_vals), ("GH", abs(G_vals * H_vals)))
    violations = [(family, i, float(residual[i])) for family, residual in table
                  for i in (residual > tol.feas_eps).nonzero()[0].tolist()]
    worst = max((v[2] for v in violations), default=0.0)
    return FeasibilityReport(not violations, worst, tuple(violations))


@dataclass(frozen=True)
class ActivePattern:
    """Active index sets at a feasible point (0-based).

    I_G collects pairs where only G is active (G=0 < H), I_H pairs where
    only H is active, I_GH the biactive pairs.
    """

    I_g: tuple
    I_G: tuple
    I_H: tuple
    I_GH: tuple

    @functools.cached_property
    def G_active(self) -> tuple:
        """Pairs whose G is active: I_G and I_GH, ascending."""
        return tuple(sorted(set(self.I_G) | set(self.I_GH)))

    @functools.cached_property
    def H_active(self) -> tuple:
        """Pairs whose H is active: I_H and I_GH, ascending."""
        return tuple(sorted(set(self.I_H) | set(self.I_GH)))

    def to_dict(self) -> dict:
        return {"I_g": list(self.I_g), "I_G": list(self.I_G),
                "I_H": list(self.I_H), "I_GH": list(self.I_GH)}


def classify_active(ev: PointEvaluation, tol: Tolerances) -> ActivePattern:
    """Partition constraints into activity classes.

    Requires a feasible point.  A pair with both values above the
    activity threshold contradicts complementarity at the stated
    tolerances and raises ClassificationError.
    """
    eps = tol.activity_eps
    I_g = tuple(i for i, val in enumerate(ev.g_vals) if abs(val) <= eps)
    I_G, I_H, I_GH = [], [], []
    for i in range(ev.dims.l):
        g_active = abs(ev.G_vals[i]) <= eps
        h_active = abs(ev.H_vals[i]) <= eps
        if g_active and h_active:
            I_GH.append(i)
        elif g_active:
            I_G.append(i)
        elif h_active:
            I_H.append(i)
        else:
            raise ClassificationError(
                f"pair {i} has G={ev.G_vals[i]:.3e} and H={ev.H_vals[i]:.3e}, "
                "both above the activity threshold; tolerances are inconsistent "
                "with complementarity at this point")
    return ActivePattern(I_g, tuple(I_G), tuple(I_H), tuple(I_GH))


@dataclass(frozen=True)
class GradientBundle:
    """Stacked gradient rows with sign-constraint flags, provenance and
    sign labels.

    signed[i] is True when the coefficient of row i is sign-constrained
    and False when it is free; provenance[i] is (family, index); a
    coefficient c on row i is the multiplier signs[i] * c of that
    constraint (see `gradient_bundle_tnlp`).
    """

    rows: np.ndarray
    signed: np.ndarray
    provenance: tuple
    signs: np.ndarray


# biactive multiplier mode -> (sign, signed) of its row, which is -sign * gradient
_MODES = {"free": (-1.0, False), "nonneg": (1.0, True), "nonpos": (-1.0, True)}


def gradient_bundle_tnlp(ev: PointEvaluation, pattern: ActivePattern,
                         modes: dict | None = None) -> GradientBundle:
    """Active-constraint gradients of the tightened NLP, and the rows of
    the multiplier systems of the CQ and stationarity checks.

    Rows come in bundle order: grad g on I_g (signed), grad h, grad G on
    I_G and I_GH, grad H on I_H and I_GH (free).  The tightened problem
    pins G and H to zero wherever they are active, so with no `modes`
    every biactive pair contributes both rows as equalities.  In the
    multiplier equation

        sum lambda grad g + sum mu grad h - sum gamma grad G - sum nu grad H

    a coefficient c on row i stands for the multiplier signs[i] * c:
    +1 on the g and h rows, -1 on a row +grad G or +grad H, and +1 on
    a row -grad G or -grad H.

    `modes` maps a biactive index to the modes of its (gamma, nu):
    'free' keeps +grad as a free row (the default), 'nonneg' enters
    -grad as a signed row, 'nonpos' +grad as a signed row, and 'zero'
    drops the row.  Every pair 'nonneg' gives the relaxed NLP, whose
    signed G and H rows are the inward normals of G >= 0 and H >= 0.

    Without modes the bundle is built once per evaluation: its arrays
    are read-only, and `ev` keeps it for the pattern it was built for,
    so the CQ checks and the stationarity classifier at one point share
    it.  A call with modes always builds its own.
    """
    if not modes:
        kept = ev._tnlp_bundle
        if kept is not None and kept[0] == pattern:
            return kept[1]
    G_idx, H_idx = pattern.G_active, pattern.H_active
    rows = np.concatenate([ev.g_grads.take(pattern.I_g, axis=0), ev.h_grads,
                           ev.G_grads.take(G_idx, axis=0), ev.H_grads.take(H_idx, axis=0)])
    provenance = [(family, i) for family, idx in (("g", pattern.I_g), ("h", range(ev.dims.p)),
                                                  ("G", G_idx), ("H", H_idx)) for i in idx]
    ng, start = len(pattern.I_g), len(pattern.I_g) + ev.dims.p
    signed = np.arange(len(provenance)) < ng
    signs = np.ones(len(provenance))
    signs[start:] = -1.0
    dropped = []
    for i, pair in (modes or {}).items():
        if i not in pattern.I_GH:
            raise ValueError(f"pair {i} is not biactive")
        for r, mode in zip((start + G_idx.index(i), start + len(G_idx) + H_idx.index(i)),
                           pair):
            if mode == "zero":
                dropped.append(r)
            elif mode in _MODES:
                signs[r], signed[r] = _MODES[mode]
            else:
                raise ValueError(f"unknown multiplier mode {mode!r}")
    if modes:
        rows[start:] *= -signs[start:, None]
    if dropped:
        keep = np.ones(len(provenance), dtype=bool)
        keep[dropped] = False
        rows, signed, signs = rows[keep], signed[keep], signs[keep]
        provenance = [pv for pv, kept in zip(provenance, keep) if kept]
    bundle = GradientBundle(rows, signed, tuple(provenance), signs)
    if not modes:
        for arr in (rows, signed, signs):
            arr.setflags(write=False)
        object.__setattr__(ev, "_tnlp_bundle", (pattern, bundle))
    return bundle


def canonical_json(obj) -> str:
    """Stable serialization used for digests and byte-deterministic reports."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


def digest(obj) -> str:
    return hashlib.sha256(canonical_json(obj).encode()).hexdigest()[:16]
