"""Child-process entry points of the benchmark; each job runs in a fresh interpreter.

  python3 perfbench/jobs.py routes OUT_JSON --seed N [--setup-only]
      the routes-pointwise library job (or only its set-up: import gflab,
      build the profiles, the point table and the grid nodes)
  python3 perfbench/jobs.py trace SPANS_PREFIX cli ARGS...
  python3 perfbench/jobs.py trace SPANS_PREFIX routes OUT_JSON --seed N
      the same jobs with every public gflab function wrapped by the tracer
  python3 perfbench/jobs.py calibrate WORKLOAD OUT_JSON
      isolated solver unit costs on the workload's grid

The CLI workloads run untraced as `python3 -m gflab ...`, not through here.
gflab is imported from the checkout's src/ (PYTHONPATH set by run.py).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

import numpy as np
from gflab.errors import GFLabError

import workloads


def _attempt(fn, *args):
    """Call one route; a raised gflab error is recorded as the outcome, not propagated."""
    try:
        return float(fn(*args))
    except GFLabError as exc:
        return {"error": type(exc).__name__, "message": str(exc)}


def routes_setup(seed: int):
    from gflab import config, model

    cfg = config.RunConfig()
    heav = model.parse_profile(workloads.HEAVISIDE)
    nodes, dy = workloads.grid_nodes(cfg)
    return cfg.profile, heav, workloads.point_table(seed), nodes, dy


def routes_pass(gauss, heav, table, nodes, dy) -> dict:
    """The timed pass.  Functions are looked up on their modules at call time,
    so a tracer installed before this runs sees every call."""
    from gflab import analysis, mellin, series

    alpha = workloads.ALPHA
    points = []
    for t, y in table:
        x = math.exp(y * t)
        points.append({
            "t": t, "y": y,
            "series": _attempt(series.eval_v, gauss, alpha, t, x),
            "heaviside": _attempt(series.eval_v, heav, alpha, t, x),
            "contour": _attempt(mellin.inverse_mellin_v, gauss, alpha, t, x),
            "theta": _attempt(mellin.asymp_v_theta, gauss, alpha, t, x),
            "poisson": _attempt(mellin.asymp_v_poisson, gauss, alpha, t, x),
        })
    node_rows = []
    weak_trapz = math.nan
    for t in workloads.NODE_TIMES:
        n = series.eval_n_series(gauss, alpha, t, nodes)
        node_rows.append({"t": t, "mass": workloads.trapz(n, dy)})
        if t == workloads.WEAK_T:
            weak_trapz = workloads.trapz(n * np.cos(nodes / t), dy)
    src = analysis.SeriesSource(gauss, alpha)
    ray = -math.log(alpha)
    probe = analysis.line_probe(src, ray, workloads.PROBE_TIMES)
    weak = analysis.weak_test(src, math.cos, workloads.WEAK_T)
    x25 = alpha ** -workloads.ASYMP_T
    gate = {
        "series": series.eval_v(gauss, alpha, workloads.ASYMP_T, x25),
        "theta": mellin.asymp_v_theta(gauss, alpha, workloads.ASYMP_T, x25),
        "poisson": mellin.asymp_v_poisson(gauss, alpha, workloads.ASYMP_T, x25),
    }
    return {
        "points": points,
        "nodes": node_rows,
        "weak": {"t": workloads.WEAK_T, "value": weak, "trapz": weak_trapz},
        "probe": {"y": ray, "times": [float(t) for t in probe.times],
                  "values": [float(v) for v in probe.values]},
        "asymp_gate": gate,
    }


def routes_main(out_path: str, seed: int, setup_only: bool = False) -> int:
    setup = routes_setup(seed)
    if setup_only:
        return 0
    result = routes_pass(*setup)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


def trace_main(prefix: str, job: list[str]) -> int:
    import tracer

    tr = tracer.Tracer()
    tr.install()
    if job[0] == "cli":
        from gflab import cli

        code = tr.run_root(cli.main, job[1:])
    else:
        ns = _routes_parser().parse_args(job[1:])
        code = tr.run_root(routes_main, ns.out, ns.seed)
    tr.dump(prefix)
    return code


def calibrate_main(workload: str, out_path: str) -> int:
    """Isolated step() cost and per-record probe cost on the workload's grid.

    step: 100 steps of size dt, best of 5.  record: solve_n to t = 10 with the
    workload's probe rays minus without, best of 7 each (interleaved), per
    record.
    """
    from gflab import solver

    cfg = workloads.run_config(workload)
    grid = solver.build_grid(cfg.profile, cfg.params.alpha, cfg.resolved_y_min(),
                             cfg.resolved_y_max(), cfg.m)
    n_steps = 100
    best = math.inf
    for _ in range(5):
        g = grid
        t0 = time.perf_counter_ns()
        for _ in range(n_steps):
            g = solver.step(g, cfg.dt)
        best = min(best, time.perf_counter_ns() - t0)
    step_ns = best / (n_steps * grid.n_nodes)

    rays = cfg.resolved_rays()
    best_with = best_without = math.inf
    for _ in range(7):
        for probe_rays in (rays, ()):
            t0 = time.perf_counter()
            traj = solver.solve_n(grid, 10.0, cfg.dt, probe_rays=probe_rays)
            elapsed = time.perf_counter() - t0
            if probe_rays:
                best_with = min(best_with, elapsed)
            else:
                best_without = min(best_without, elapsed)
    records = traj.diagnostics.times.size
    out = {"nodes": grid.n_nodes, "step_ns_per_node_step": step_ns,
           "record_us_per_record": (best_with - best_without) / records * 1e6}
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


def _routes_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="jobs.py routes")
    ap.add_argument("out")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--setup-only", action="store_true")
    return ap


def main(argv: list[str]) -> int:
    if argv and argv[0] == "routes":
        ns = _routes_parser().parse_args(argv[1:])
        return routes_main(ns.out, ns.seed, ns.setup_only)
    if len(argv) >= 3 and argv[0] == "trace":
        return trace_main(argv[1], argv[2:])
    if len(argv) == 3 and argv[0] == "calibrate":
        return calibrate_main(argv[1], argv[2])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
