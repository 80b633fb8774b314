"""Span tracer for the traced benchmark run, installed from outside the package.

`Tracer.install` wraps every public function of each gflab module (the layers)
at every name it is bound to, e.g. `series.eval_v` and the `eval_v` that
`analysis` imported from it, so calls between modules are seen too.  Spans
(name, start, end, parent, work) stay in memory and are written once, by
`dump`, when the job ends.  `job_metrics` turns one job's spans into
per-layer metrics in the parent; a layer's self time is its spans' durations
minus the part their child spans cover.

Functions that are called thousands of times with tiny bodies are counted,
not timed: `solver.step` (the isolated step cost is calibrated separately),
`analysis.r_of`, and calls of the two model density functions on a scalar or
a one-element array (the weak-test integrand makes 10^5 of them).  A count is
attributed to the innermost open span.
"""

from __future__ import annotations

import array
import functools
import importlib
import inspect
import json
import math
import time

import numpy as np

LAYERS = ("analysis", "cli", "config", "mellin", "model", "series", "solver", "svg")
ROOT = "job.run"
COUNTED = frozenset({"solver.step", "analysis.r_of"})
VECTOR_ONLY = frozenset({"model.profile_eval_y", "model.density_from_log_x"})
FIELDS = 5  # name id, start ns, end ns, parent index (-1 for a root), work count


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans = array.array("q")
        self.stack = [-1]
        self.counts: dict[tuple[int, int], int] = {}
        self.notes: dict[int, dict] = {}
        self.originals: dict[str, object] = {}
        self._cutoffs: dict[tuple[float, float], int] = {}

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def install(self) -> None:
        import gflab

        mods = {layer: importlib.import_module(f"gflab.{layer}") for layer in LAYERS}
        holders = [gflab, *mods.values()]
        for layer, mod in mods.items():
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                qual = f"{layer}.{attr}"
                self.originals[qual] = fn
                wrapper = self._wrap(qual, fn)
                for holder in holders:
                    for name, val in list(vars(holder).items()):
                        if val is fn:
                            setattr(holder, name, wrapper)

    def _count(self, nid: int) -> None:
        key = (nid, self.stack[-1])
        self.counts[key] = self.counts.get(key, 0) + 1

    def _wrap(self, qual: str, fn):
        nid = self.name_id(qual)
        if qual in COUNTED:
            def counted(*args, **kwargs):
                self._count(nid)
                return fn(*args, **kwargs)
            return functools.wraps(fn)(counted)

        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns
        note = _NOTES.get(qual)
        scalar_id = self.name_id(qual + "[scalar]") if qual in VECTOR_ONLY else None

        def timed(*args, **kwargs):
            if scalar_id is not None and np.size(args[1]) == 1:
                self._count(scalar_id)
                return fn(*args, **kwargs)
            idx = len(spans) // FIELDS
            spans.extend((nid, clock(), 0, stack[-1], 0))
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                spans[idx * FIELDS + 2] = clock()
                stack.pop()
                self._error(idx, qual, exc)
                if note is not None:
                    self._note(note, idx, args, kwargs, None, exc)
                raise
            spans[idx * FIELDS + 2] = clock()
            stack.pop()
            if note is not None:
                self._note(note, idx, args, kwargs, result, None)
            return result

        return functools.wraps(fn)(timed)

    def _note(self, note, idx, args, kwargs, result, exc) -> None:
        work, extra = note(self, args, kwargs, result, exc)
        self.spans[idx * FIELDS + 4] = int(work)
        if extra:
            self.notes.setdefault(idx, {}).update(extra)

    def _error(self, idx: int, qual: str, exc: BaseException) -> None:
        """Record an exception once per layer it passes through (at its innermost span)."""
        layer = qual.split(".")[0]
        seen = getattr(exc, "_perfbench_layers", None)
        if seen is None:
            seen = set()
            try:
                exc._perfbench_layers = seen
            except AttributeError:
                pass
        if layer not in seen:
            seen.add(layer)
            self.notes.setdefault(idx, {})["error"] = type(exc).__name__

    def run_root(self, fn, *args):
        """Run fn(*args) inside the root span that every other span descends from."""
        idx = len(self.spans) // FIELDS
        self.spans.extend((self.name_id(ROOT), time.perf_counter_ns(), 0, -1, 0))
        self.stack.append(idx)
        try:
            return fn(*args)
        finally:
            self.spans[idx * FIELDS + 2] = time.perf_counter_ns()
            self.stack.pop()

    def dump(self, prefix: str) -> None:
        with open(prefix + ".bin", "wb") as fh:
            self.spans.tofile(fh)
        meta = {"names": self.names,
                "counts": [[n, s, c] for (n, s), c in self.counts.items()],
                "notes": {str(k): v for k, v in self.notes.items()}}
        with open(prefix + ".json", "w", encoding="utf-8") as fh:
            json.dump(meta, fh)

    # --- work counts, derived from public functions -------------------------

    def poisson_cutoff(self, lam: float, eps: float) -> int:
        key = (lam, eps)
        if key not in self._cutoffs:
            self._cutoffs[key] = self.originals["series.poisson_cutoff"](lam, eps)
        return self._cutoffs[key]


def _arg(args, kwargs, i, name, default=None):
    return args[i] if len(args) > i else kwargs.get(name, default)


def _node_terms(tr, args, kwargs, result, exc):
    """eval_n_series: nodes x (K + 1) terms, K as the series truncation rule gives it."""
    if exc is not None:
        return 0, None
    from gflab import series

    p, alpha, t = args[0], args[1], args[2]
    y = np.asarray(_arg(args, kwargs, 3, "y"))
    if t == 0.0:
        return y.size, None
    trunc = _arg(args, kwargs, 4, "trunc", series.DEFAULT_TRUNCATION)
    hi = tr.originals["model.support_y"](p)[1]
    k_cap = max(tr.poisson_cutoff(t, trunc.eps),
                int(math.ceil(max(0.0, (hi - float(np.min(y))) / math.log(alpha)))))
    return y.size * (k_cap + 1), None


def _contour_nodes(tr, args, kwargs, result, exc):
    """inverse_mellin_v: fine plus coarse trapezoid nodes of its ContourQuad."""
    from gflab.errors import QuadratureError
    from gflab.mellin import ContourQuad

    if exc is not None and not isinstance(exc, QuadratureError):
        return 0, None
    cq = _arg(args, kwargs, 4, "cq")
    if cq is None:
        cq = ContourQuad.for_gaussian(args[0], args[1], args[2])
    return cq.n_nodes + max(2, cq.n_nodes // 2), None


def _source(tr, args, kwargs, result, exc):
    extra = {"source": type(args[0]).__name__}
    if result is not None and hasattr(result, "times"):
        return len(result.times), extra
    return 0, extra


def _solve(tr, args, kwargs, result, exc):
    if result is None:
        return args[0].n_nodes, None
    return args[0].n_nodes, {"records": int(result.diagnostics.times.size),
                             "snapshots": int(result.times.size)}


def _line_plot(tr, args, kwargs, result, exc):
    curves = _arg(args, kwargs, 0, "curves")
    points = sum(len(xs) for _, xs, _ in curves)
    return points, ({"bytes": len(result.encode("utf-8"))} if result is not None else None)


_NOTES = {
    "series.eval_n_series": _node_terms,
    "mellin.inverse_mellin_v": _contour_nodes,
    "analysis.weak_test": _source,
    "analysis.line_probe": _source,
    "analysis.compare_methods": lambda tr, a, k, r, e: (len(a[2]) * len(a[3]), None),
    "solver.build_grid": lambda tr, a, k, r, e: (r.n_nodes if r is not None else 0, None),
    "solver.solve_n": _solve,
    "svg.line_plot": _line_plot,
    "model.profile_eval_y": lambda tr, a, k, r, e: (np.size(a[1]), None),
    "model.density_from_log_x": lambda tr, a, k, r, e: (np.size(a[1]), None),
}


# --- parent side ------------------------------------------------------------


class TraceError(Exception):
    """The recorded spans are not properly nested."""


def job_metrics(prefix: str, wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced job, from the spans `dump` wrote.

    Raises TraceError unless every child span lies inside its parent and no
    span's children cover more than the span itself, so that each nanosecond
    of the root span is attributed to exactly one layer's self time; what the
    root span does not cover (interpreter start, imports, writing the spans)
    is `trace.unattributed_s`.  Per-unit costs are 0 where the layer did no
    such work.
    """
    with open(prefix + ".json", encoding="utf-8") as fh:
        meta = json.load(fh)
    raw = np.fromfile(prefix + ".bin", dtype=np.int64).reshape(-1, FIELDS)
    names = meta["names"]
    nid, start, end, parent, work = raw.T
    dur = end - start
    nested = parent >= 0
    if np.any(dur < 0):
        raise TraceError("span ends before it starts")
    if np.any(start[nested] < start[parent[nested]]) or np.any(end[nested] > end[parent[nested]]):
        raise TraceError("child span outside its parent")
    covered = np.zeros(len(raw), dtype=np.int64)
    np.add.at(covered, parent[nested], dur[nested])
    self_ns = dur - covered
    if np.any(self_ns < 0):
        raise TraceError("child spans overlap")
    layer_of = np.array([n.split(".")[0] for n in names])[nid]
    notes = {int(k): v for k, v in meta["notes"].items()}
    ids = {n: i for i, n in enumerate(names)}
    counts = np.array(meta["counts"], dtype=np.int64).reshape(-1, 3)

    def spans(name: str, source: str | None = None) -> np.ndarray:
        sel = nid == ids.get(name, -1)
        if source is not None:
            for i in np.nonzero(sel)[0]:
                sel[i] = notes.get(int(i), {}).get("source") == source
        return sel

    def count(name: str, under: np.ndarray | None = None) -> int:
        sel = counts[:, 0] == ids.get(name, -1)
        if under is not None:
            sel &= (counts[:, 1] >= 0) & under[np.maximum(counts[:, 1], 0)]
        return int(counts[sel, 2].sum())

    def secs(sel: np.ndarray) -> float:
        return float(dur[sel].sum()) / 1e9

    def per(num: float, den: float) -> float:
        return num / den if den else 0.0

    def errors(layer: str, name: str) -> int:
        return sum(1 for i, v in notes.items() if v.get("error") == name and layer_of[i] == layer)

    solve, grid = spans("solver.solve_n"), spans("solver.build_grid")
    step_counts = counts[(counts[:, 0] == ids.get("solver.step", -1)) & (counts[:, 1] >= 0)]
    node_steps = int(sum(n * work[s] for _, s, n in step_counts if solve[s]))
    eval_v, ens = spans("series.eval_v"), spans("series.eval_n_series")
    inverse = spans("mellin.inverse_mellin_v")
    asymp = spans("mellin.asymp_v_theta") | spans("mellin.asymp_v_poisson") | spans("mellin.asymp_u")
    period = spans("analysis.estimate_period")
    weak_grid = spans("analysis.weak_test", "GridSource")
    weak_series = spans("analysis.weak_test", "SeriesSource")
    probe = spans("analysis.line_probe", "SeriesSource")
    compare = spans("analysis.compare_methods")
    plot = spans("svg.line_plot")
    pey = spans("model.profile_eval_y")
    self_s = {layer: float(self_ns[layer_of == layer].sum()) / 1e9 for layer in (*LAYERS, "job")}
    terms = int(work[ens].sum())
    nodes_c = int(work[inverse].sum())
    svg_points = int(work[plot].sum())
    pey_points = int(work[pey].sum())
    out = {
        "solver.nodes": int(work[grid].sum()),
        "solver.steps": count("solver.step"),
        "solver.node_steps": node_steps,
        "solver.records": sum(notes.get(int(i), {}).get("records", 0) for i in np.nonzero(solve)[0]),
        "solver.snapshots": sum(notes.get(int(i), {}).get("snapshots", 0) for i in np.nonzero(solve)[0]),
        "solver.build_grid_s": secs(grid),
        "solver.solve_n_s": secs(solve),
        "solver.ns_per_node_step": per(secs(solve) * 1e9, node_steps),
        "series.eval_v_calls": int(eval_v.sum()),
        "series.eval_v_us_per_call": per(secs(eval_v) * 1e6, eval_v.sum()),
        "series.eval_n_series_calls": int(ens.sum()),
        "series.node_terms": terms,
        "series.ns_per_node_term": per(secs(ens) * 1e9, terms),
        "series.truncation_errors": errors("series", "TruncationError"),
        "mellin.inverse_calls": int(inverse.sum()),
        "mellin.contour_nodes": nodes_c,
        "mellin.ns_per_contour_node": per(secs(inverse) * 1e9, nodes_c),
        "mellin.quadrature_errors": errors("mellin", "QuadratureError"),
        "mellin.asymp_calls": int(asymp.sum()),
        "mellin.asymp_us_per_call": per(secs(asymp) * 1e6, asymp.sum()),
        "analysis.estimate_period_ms": per(secs(period) * 1e3, period.sum()),
        "analysis.weak_test_grid_ms": secs(weak_grid) * 1e3,
        "analysis.weak_test_series_s": secs(weak_series),
        "analysis.weak_integrand_evals": count("analysis.r_of", weak_series),
        "analysis.series_probe_ms_per_point": per(secs(probe) * 1e3, work[probe].sum()),
        "analysis.compare_cells": int(work[compare].sum()),
        "analysis.compare_methods_s": secs(compare),
        "svg.line_plot_s": secs(plot),
        "svg.points": svg_points,
        "svg.us_per_point": per(secs(plot) * 1e6, svg_points),
        "svg.bytes": sum(notes.get(int(i), {}).get("bytes", 0) for i in np.nonzero(plot)[0]),
        "model.profile_eval_y_points": pey_points,
        "model.profile_eval_y_ns_per_point": per(secs(pey) * 1e9, pey_points),
        "model.density_scalar_calls": count("model.density_from_log_x[scalar]"),
        "trace.wall_s": wall_s,
        "trace.unattributed_s": wall_s - float(self_ns.sum()) / 1e9,
    }
    out.update({f"{layer}.self_s": s for layer, s in self_s.items()})
    return out
