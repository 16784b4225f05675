"""Layer spans recorded from outside the package.

`install` wraps every public function of the traced modules, plus
`LinearProgram.solve`, and puts the wrapper at every module attribute
that refers to the original, which is the name each caller looks up
(`cq.numerical_rank`, `fuzz.run_all_checks`, `bho.largest_eigenvalue`,
...).  The package itself is not modified; `uninstall` puts the
originals back.

Spans are kept in memory as flat records and reduced by `aggregate`,
which is a pure function so that its self-time arithmetic can be
tested on hand-made spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

TRACED_MODULES = ("kernels", "model", "cq", "stationarity", "bho", "fuzz", "cli")
SIMPLEX = "kernels.simplex_solve"


def _simplex_info(args, kwargs, result):
    shape = getattr(args[0], "shape", None) if args else None
    rows, cols = (shape if shape is not None and len(shape) == 2 else (0, 0))
    return {"rows": rows, "cols": cols, "tableau_cells": rows * (cols + rows + 1),
            "infeasible": int(result.status == "infeasible")}


def _status_undecided(args, kwargs, result):
    return {"undecided": int(result.status == "undecided")}


def _classes_undecided(args, kwargs, result):
    return {"undecided": sum(1 for v in result.classes.values() if v == "undecided")}


# Counters read off a call's arguments or result, per span name.
ANNOTATE = {
    SIMPLEX: _simplex_info,
    "kernels.signed_combination_exists":
        lambda args, kwargs, result: {"found": int(result.exists)},
    "cq.check_mpec_licq": _status_undecided,
    "cq.check_mpec_mfcq_t": _status_undecided,
    "cq.check_mpec_mfcq_r": _status_undecided,
    "cq.check_nnamcq": _status_undecided,
    "cq.check_mpec_gmfcq": _status_undecided,
    "cq.check_acq_affine": _status_undecided,
    "stationarity.classify_stationarity": _classes_undecided,
}


def _mode_of(args, kwargs):
    return kwargs.get("mode", args[1] if len(args) > 1 else None)


# Span names that take a suffix from an argument.
SUFFIX = {"fuzz.gen_bho_case": _mode_of}


class Tracer:
    """Records spans (name, start, end, parent, request, error, info)."""

    def __init__(self):
        self.spans: list[list] = []
        self.request = None
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.request,
                           False, None])
        self._stack.append(sid)
        return sid

    def close(self, sid: int, error: bool = False, info: dict | None = None) -> None:
        span = self.spans[sid]
        span[2] = time.perf_counter()
        span[5] = error
        span[6] = info
        self._stack.pop()

    def wrap(self, name: str, fn):
        annotate = ANNOTATE.get(name)
        suffix = SUFFIX.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name if suffix is None else f"{name}.{suffix(args, kwargs)}"
            sid = self.open(label)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.close(sid, error=True)
                raise
            self.close(sid, info=annotate(args, kwargs, result) if annotate else None)
            return result

        return traced


def install(tracer: Tracer, package: str = "mpecq"):
    """Wrap the public functions of the traced modules; returns an undo list."""
    modules = [importlib.import_module(f"{package}.{m}") for m in TRACED_MODULES]
    wrappers = {}
    for mod in modules:
        short = mod.__name__.rsplit(".", 1)[1]
        for name, obj in vars(mod).items():
            if (not name.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__):
                wrappers[obj] = tracer.wrap(f"{short}.{name}", obj)
    undo = []
    lookup_sites = [importlib.import_module(package)] + modules
    for site in lookup_sites:
        for name, obj in list(vars(site).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                setattr(site, name, wrappers[obj])
                undo.append((site, name, obj))
    kernels = modules[TRACED_MODULES.index("kernels")]
    solve = kernels.LinearProgram.solve
    kernels.LinearProgram.solve = tracer.wrap("kernels.LinearProgram.solve", solve)
    undo.append((kernels.LinearProgram, "solve", solve))
    return undo


def uninstall(undo) -> None:
    for owner, name, original in reversed(undo):
        setattr(owner, name, original)


def aggregate(spans, by_request: bool = False) -> dict:
    """Per-name totals over closed spans.

    self_s is a span's duration minus the durations of its direct
    children (children run inside their parent on one thread, so they
    never overlap); lps counts simplex spans in the subtree, including
    the span itself.  Info counters are summed per name.  With
    by_request the keys are (request, name) pairs.
    """
    n = len(spans)
    child_time = [0.0] * n
    lps = [0] * n
    for sid in range(n - 1, -1, -1):
        name, start, end, parent = spans[sid][:4]
        if name == SIMPLEX:
            lps[sid] += 1
        if parent >= 0:
            child_time[parent] += end - start
            lps[parent] += lps[sid]
    out: dict = {}
    for sid, (name, start, end, parent, request, error, info) in enumerate(spans):
        key = (request, name) if by_request else name
        entry = out.get(key)
        if entry is None:
            entry = out[key] = {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                 "errors": 0, "lps": 0, "durations": [],
                                 "top_level_s": 0.0}
        dur = end - start
        entry["calls"] += 1
        entry["total_s"] += dur
        entry["self_s"] += dur - child_time[sid]
        entry["errors"] += int(error)
        entry["lps"] += lps[sid]
        entry["durations"].append(dur)
        if parent < 0:
            entry["top_level_s"] += dur
        if info:
            for key, value in info.items():
                entry[key] = entry.get(key, 0) + value
    return out

