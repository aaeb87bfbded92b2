"""Traced run: spans around rarecc's public functions, and per-layer metrics.

:class:`Tracer` replaces each function in :data:`WRAPS` at the name the
*consuming* module looks up (``rarecc.methods.solve_lp``, not
``rarecc.lpsolve.solve_lp``), records one span per call and restores the
originals on :meth:`Tracer.uninstall`.  Spans live in per-thread lists and
are only recorded while :attr:`Tracer.active` is set, i.e. inside a timed
answer.
Counts are read from the returned objects, so they repeat exactly.

A layer's self time is the duration of its spans minus the part of each
span that its child spans cover.
"""

from __future__ import annotations

import gzip
import importlib
import itertools
import json
import math
import os
import statistics
import threading
import time
from collections import defaultdict


def _draws(args, kwargs, res):
    return {"sampler.calls": 1, "sampler.draws": len(res)}


def _phi(args, kwargs, res):
    return {"model.phi_many.calls": 1, "model.phi_many.rows": len(res)}


def _lp(args, kwargs, res):
    lp = args[0]
    # tableau rows: constraints plus finite upper bounds; columns: variables
    # plus one slack per row (phase-1 artificials are left out)
    rows = lp.A.shape[0] + sum(1 for v in lp.hi if math.isfinite(v))
    cols = lp.A.shape[1] + rows
    return {"lpsolve.solves": 1, "lpsolve.pivots": res.iterations, "lpsolve.rows_max": rows,
            "lpsolve.cells": (rows + 1) * (cols + 1) * res.iterations,
            "lpsolve.active": len(res.active_rows),
            "lpsolve.constraint_rows": lp.A.shape[0],
            "lpsolve.residual_max": res.residual}


def _cvar(args, kwargs, res):
    return {"methods.cvar.rounds": res.meta["outer_iterations"],
            "methods.cvar.kept_rows": res.meta["kept_scenarios"]}


def _scenario(args, kwargs, res):
    problem, batch = args[0], args[1]
    return {"methods.scenario.candidates": res.meta["binding_candidates"],
            "methods.scenario.rows_in": batch.count * problem.d}


def _limit_solve(args, kwargs, res):
    return {"limits.solves": 1, "limits.residual_max": res.residual}


def _count(key):
    return lambda args, kwargs, res: {key: 1}


def _write_report(args, kwargs, res):
    return {"cli.bytes_out": os.path.getsize(args[1])}


# (module, attribute, layer, counter).  The span name is "<module>.<attribute>".
_SAMPLER = [(mod, attr, "sampler", _draws)
            for mod, attr in (("rarecc.sampler", "draws_range"),
                              ("rarecc.methods", "draws_range"),
                              ("rarecc.experiments", "draws_range"),
                              ("rarecc.experiments", "heavy_radii_range"))]
_SAMPLER += [(mod, "sample_tail", "sampler", None)
             for mod in ("rarecc.sampler", "rarecc.experiments")]
_METHODS = [(mod, attr, "methods", counter)
            for mod in ("rarecc.methods", "rarecc.experiments")
            for attr, counter in (("cvar_solve", _cvar), ("scenario_solve", _scenario),
                                  ("ccp_oracle", None), ("violation_prob", None))]
_LIMITS = [(mod, attr, "limits", _limit_solve)
           for mod in ("rarecc.limits", "rarecc.experiments", "rarecc.cli")
           for attr in ("solve_lt_limit", "solve_ht_limit")]
_LIMITS += [(mod, attr, "limits", None)
            for mod in ("rarecc.limits", "rarecc.experiments")
            for attr in ("limit_to_decision",)]
WRAPS = _SAMPLER + _METHODS + _LIMITS + [
    ("rarecc.methods", "phi_many", "model", _phi),
    ("rarecc.experiments", "phi_many", "model", _phi),
    ("rarecc.methods", "solve_lp", "lpsolve", _lp),
    ("rarecc.search", "maximize_over_simplex", "search", _count("search.calls")),
    ("rarecc.search", "nelder_mead", "search", _count("search.nm_runs")),
    ("rarecc.limits", "rate_J", "limits", _count("limits.rate_calls")),
    ("rarecc.experiments", "angular_moment", "limits", None),
    ("rarecc.experiments", "_run_grid", "experiments", None),
    ("rarecc.cli", "run_experiment", "experiments", None),
    ("rarecc.cli", "write_report", "cli", _write_report),
    ("rarecc.cli", "cli_main", "cli", _count("cli.calls")),
]

#: Per-layer metrics in output order, with units.
PER_LAYER = {
    "sampler.calls": "count", "sampler.draws": "count", "sampler.self_s": "s",
    "sampler.ns_per_draw": "ns",
    "model.phi_many.calls": "count", "model.phi_many.rows": "count", "model.self_s": "s",
    "lpsolve.solves": "count", "lpsolve.pivots": "count", "lpsolve.rows_max": "count",
    "lpsolve.cells": "count", "lpsolve.self_s": "s", "lpsolve.s_per_pivot": "s",
    "lpsolve.active_ratio": "ratio", "lpsolve.residual_max": "1",
    "methods.cvar.self_s": "s", "methods.cvar.rounds": "count",
    "methods.cvar.kept_rows": "count", "methods.scenario.self_s": "s",
    "methods.scenario.filter_ratio": "ratio", "methods.oracle.self_s": "s",
    "methods.violation.self_s": "s",
    "search.calls": "count", "search.evals": "count", "search.nm_runs": "count",
    "search.self_s": "s",
    "limits.solves": "count", "limits.rate_calls": "count", "limits.self_s": "s",
    "limits.residual_max": "1",
    "experiments.tasks": "count", "experiments.self_s": "s", "experiments.speedup_w2": "ratio",
    "cli.calls": "count", "cli.self_s": "s", "cli.bytes_out": "bytes",
    "trace.wall_s": "s", "trace.overhead_s": "s",
}

#: Counts that must repeat exactly between traced passes and runs.
EXACT_COUNTS = ("lpsolve.pivots", "sampler.draws", "model.phi_many.rows", "search.evals",
                "methods.cvar.rounds", "limits.rate_calls")

# span names whose self time is reported on its own
_NAMED_SELF = {"methods.cvar.self_s": "cvar_solve", "methods.scenario.self_s": "scenario_solve",
               "methods.oracle.self_s": "ccp_oracle",
               "methods.violation.self_s": "violation_prob"}


class Tracer:
    """Wraps the functions in :data:`WRAPS` and records spans while active."""

    def __init__(self):
        self.active = False
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list[list] = []        # one span list per thread
        self._counts: dict[str, float] = defaultdict(float)
        self._patched: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def _state(self):
        loc = self._local
        if not hasattr(loc, "spans"):
            loc.spans, loc.stack, loc.answer = [], [], None
            with self._lock:
                self._threads.append(loc.spans)
        return loc

    def set_answer(self, answer) -> None:
        self._state().answer = answer

    def _add(self, counts: dict) -> None:
        with self._lock:
            for key, val in counts.items():
                if key.endswith("_max"):
                    self._counts[key] = max(self._counts[key], val)
                else:
                    self._counts[key] += val

    def _call(self, name, layer, fn, args, kwargs, counter):
        loc = self._state()
        parent = loc.stack[-1] if loc.stack else None
        sid = next(self._ids)
        loc.stack.append(sid)
        args = self._wrap_args(name, args)
        t0 = time.perf_counter()
        try:
            res = fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            loc.stack.pop()
            loc.spans.append((sid, parent, name, layer, t0, t1, loc.answer,
                              threading.get_ident()))
        if counter is not None:
            self._add(counter(args, kwargs, res))
        return res

    def _wrap_args(self, name, args):
        """Trace the callables handed to search and to the experiment grid."""
        if name == "rarecc.search.maximize_over_simplex":
            value_fn = args[0]

            def traced_value(u):
                return self._call("rarecc.limits.value_fn", "limits", value_fn, (u,), {},
                                  _count("search.evals"))
            return (traced_value,) + tuple(args[1:])
        if name == "rarecc.experiments._run_grid":
            cfg, grid, task, agg = args

            def traced_task(*job):
                return self._call("rarecc.experiments.task", "experiments", task, job, {},
                                  _count("experiments.tasks"))
            return (cfg, grid, traced_task, agg)
        return args

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        for modname, attr, layer, counter in WRAPS:
            mod = importlib.import_module(modname)
            orig = getattr(mod, attr)
            setattr(mod, attr, self._wrapper(f"{modname}.{attr}", layer, orig, counter))
            self._patched.append((mod, attr, orig))

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._patched):
            setattr(mod, attr, orig)
        self._patched.clear()

    def _wrapper(self, name, layer, fn, counter):
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            return self._call(name, layer, fn, args, kwargs, counter)
        return wrapper

    # -- results -----------------------------------------------------------

    def take(self) -> tuple[list, dict]:
        """Spans and counts recorded since the last call, then reset."""
        with self._lock:
            spans = [s for lst in self._threads for s in lst]
            for lst in self._threads:
                lst.clear()
            counts = dict(self._counts)
            self._counts.clear()
        return spans, counts


def self_times(spans: list) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for sid, parent, _, _, t0, t1, *_ in spans:
        if parent is not None:
            children[parent].append((t0, t1))
    out = {}
    for sid, _, _, _, t0, t1, *_ in spans:
        covered, end = 0.0, t0
        for c0, c1 in sorted(children.get(sid, ())):
            c0, c1 = max(c0, end), min(c1, t1)
            if c1 > c0:
                covered += c1 - c0
                end = c1
        out[sid] = (t1 - t0) - covered
    return out


def layer_times(spans: list) -> dict[str, float]:
    """Self seconds per layer and per named method span."""
    own = self_times(spans)
    out = defaultdict(float)
    for sid, _, name, layer, *_ in spans:
        out[f"{layer}.self_s"] += own[sid]
        out[name.rsplit(".", 1)[1]] += own[sid]
    return out


def per_layer_metrics(times: list[dict], counts: dict, traced_walls: list,
                      overhead_s: float, speedup_w2: float) -> dict:
    """Assemble :data:`PER_LAYER` from per-pass self times (medians over the
    traced passes), the counts of one traced pass, and the paired trace
    overhead and pool speedup measured by the harness."""
    def med(key):
        return statistics.median(t.get(key, 0.0) for t in times)

    m = {}
    for key, unit in PER_LAYER.items():
        value = counts.get(key, 0)
        m[key] = int(value) if unit in ("count", "bytes") else float(value)
    for key in ("sampler.self_s", "model.self_s", "lpsolve.self_s", "search.self_s",
                "limits.self_s", "experiments.self_s", "cli.self_s"):
        m[key] = med(key)
    for key, fn_name in _NAMED_SELF.items():
        m[key] = med(fn_name)
    draws, pivots = counts.get("sampler.draws", 0), counts.get("lpsolve.pivots", 0)
    m["sampler.ns_per_draw"] = 1e9 * m["sampler.self_s"] / draws if draws else 0.0
    m["lpsolve.s_per_pivot"] = m["lpsolve.self_s"] / pivots if pivots else 0.0
    rows = counts.get("lpsolve.constraint_rows", 0)
    m["lpsolve.active_ratio"] = counts.get("lpsolve.active", 0) / rows if rows else 0.0
    rows_in = counts.get("methods.scenario.rows_in", 0)
    m["methods.scenario.filter_ratio"] = (
        counts.get("methods.scenario.candidates", 0) / rows_in if rows_in else 0.0)
    m["experiments.speedup_w2"] = speedup_w2
    m["trace.wall_s"] = statistics.median(traced_walls)
    m["trace.overhead_s"] = overhead_s
    return m


def write_spans(spans: list, path) -> None:
    """Gzipped JSON lines, one object per span, in start order."""
    keys = ("id", "parent", "name", "layer", "start", "end", "answer", "thread")
    with gzip.open(path, "wt") as fh:
        for span in sorted(spans, key=lambda s: s[4]):
            fh.write(json.dumps(dict(zip(keys, span))) + "\n")
