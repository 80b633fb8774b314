"""Command-line front end: evaluate, solve, figures, analyze, compare.

Exit-code contract: 0 success, 2 domain/precondition error, 3 numerical guard
trip (mass leak, truncation, quadrature, overflow), 4 a failed analyze check
(measured value above its tolerance or not a number; flagged route-table cells
fail too).
Data files are deterministic: identical configuration gives byte-identical
CSV output (fixed summation orders, 17 significant digits, no wall-clock
content).  Float cells are exactly the text of "%.17g" % x: the g17 kernel
renders a whole column at once, exactly, and falls back to "%.17g" per value
outside the range where its rounding is proven (zero, non-finite, |x| outside
[1e-280, 1e280], fractions within 1e-12 of a tie).  A run of equal bit
patterns in a float column is rendered once and its text repeated, which is
exact because the text is a function of the bits; on piecewise constant data
the solver's nodes between two breakpoints are such runs.  CSV tables are
streamed to the file a bounded number of rows (_ROWS) at a time, so no
whole-file or whole-block text is ever held in memory.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import math
import sys
from pathlib import Path

import numpy as np

from . import analysis, config, g17, mellin, series, solver, svg
from .errors import DomainError, GFLabError, NumericsError, ThresholdError
from .model import Dirac, LogGaussian, moment

# figure id -> (profile line, kind); probe figures track the three standard
# rays, profile figures export sqrt(t) n(t, y) at the snapshot ladder
_FIGURES = {
    "1": ("loggaussian mu=0 sigma=0.1 mass=1", "probes"),
    "2": ("loggaussian mu=0 sigma=0.1 mass=1", "profiles"),
    "3": ("loggaussian mu=0 sigma=0.2 mass=1", "probes"),
    "4": ("loggaussian mu=0 sigma=0.2 mass=1", "profiles"),
    "5": ("loggaussian mu=0 sigma=0.5 mass=1", "profiles"),
    "6": ("logheaviside a=-0.2 b=0 height=1", "probes"),
    "7": ("logheaviside a=-0.2 b=0 height=1", "profiles"),
    "8": ("logheaviside a=-1 b=0 height=1", "probes"),
    "9": ("logheaviside a=-1 b=0 height=1", "profiles"),
    "11": ("logheaviside a=-5 b=0 height=1", "profiles"),
}
_ROWS = 2048    # rows of a table laid out as cells at a time


def _cells(col, lo: int, hi: int) -> np.ndarray:
    """Fixed-width cells of rows lo:hi of one column, each ending in a
    separator column; a float in place of the column gives its one cell.

    NUL bytes are padding.  A column whose first value is a float is rendered
    by the g17 kernel as "%.17g" would, once per run of equal bit patterns:
    equal bits give equal text, and bits (not ==) keep -0.0 apart from 0.0.
    Any other column (text without NUL characters, ints, bools) is rendered
    by str, right-aligned so that its separator too is the last column.
    """
    if isinstance(col, float):
        return g17.cells(np.array([col]))
    if isinstance(col[0], float):
        x = np.asarray(col[lo:hi], dtype=np.float64)
        bits = x.view(np.int64)
        repeats = bits[1:] == bits[:-1]
        if not np.count_nonzero(repeats):
            return g17.cells(x)
        # the widest cell's width, not the least, keeps the chunks one size, so the
        # allocator reuses their memory (the least width grew the peak RSS of the
        # dense heaviside solve by 3 MB)
        heads = np.flatnonzero(np.r_[True, ~repeats])
        cells = _narrow(g17.cells(x[heads]), g17.TEXT)
        return np.repeat(cells, np.diff(np.r_[heads, x.size]), axis=0)
    part = col[lo:hi]
    part = part.tolist() if isinstance(part, np.ndarray) else part
    text = [str(v).encode() + b"," for v in part]
    width = max(map(len, text))
    chars = np.frombuffer(b"".join(t.rjust(width, b"\0") for t in text), dtype=np.uint8)
    return chars.reshape(len(text), width)


def _narrow(cells: np.ndarray, width: int | None = None) -> np.ndarray:
    """The same cells right-aligned in `width` columns (by default the least
    width), for cells copied to many rows."""
    shown = cells != 0
    sizes = shown.sum(axis=1)
    narrow = np.zeros((len(cells), width or sizes.max()), dtype=np.uint8)
    narrow[np.arange(narrow.shape[1]) >= narrow.shape[1] - sizes[:, None]] = cells[shown]
    return narrow


def _write_csv(path: Path | None, header: list[str], blocks) -> None:
    """Write a CSV table to path (stdout when None), streaming _ROWS rows at a time.

    A block is a list of equal-length columns; a float in place of a column
    repeats it on every row of the block.  The cells of each _ROWS rows are
    laid side by side and their NUL padding dropped (see _cells for how a
    value is written).  A float, and a column that is the same object as in
    the previous block (the nodes of a snapshot table), is rendered once.
    """
    if path is not None:
        path.parent.mkdir(parents=True, exist_ok=True)
    with (contextlib.nullcontext(sys.stdout) if path is None
          else path.open("w", encoding="utf-8", newline="\n")) as out:
        out.write(",".join(header) + "\n")
        prev, memo = [], {}
        for block in blocks:
            once = [isinstance(col, float) or (j < len(prev) and col is prev[j])
                    for j, col in enumerate(block)]
            memo = {(j, lo): cells for (j, lo), cells in memo.items()
                    if j < len(block) and block[j] is prev[j]}
            prev = block
            n_rows = max((len(col) for col in block if not isinstance(col, float)), default=0)
            for lo in range(0, n_rows, _ROWS):
                hi = min(lo + _ROWS, n_rows)
                parts = []
                for j, col in enumerate(block):
                    if not once[j]:
                        parts.append(_cells(col, lo, hi))
                        continue
                    key = (j, 0 if isinstance(col, float) else lo)
                    if key not in memo:
                        memo[key] = _narrow(_cells(col, lo, hi))
                    parts.append(np.broadcast_to(memo[key], (hi - lo, memo[key].shape[1])))
                chars = np.concatenate(parts, axis=1)
                chars[:, -1] = ord("\n")
                out.write(chars.tobytes().translate(None, b"\0").decode("utf-8"))
    if path is not None:
        print(f"wrote {path}")


def _write_svg(path: Path, curves, title: str, xlabel: str, ylabel: str) -> None:
    doc = svg.line_plot(curves, title=title, xlabel=xlabel, ylabel=ylabel)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(doc, encoding="utf-8")
    print(f"wrote {path}")


def _write_snapshots(traj: solver.Trajectory, out_dir: Path, stem: str, formats) -> None:
    """<stem>.csv with t, y, n and sqrt(t) n at every node of every snapshot,
    and <stem>.svg with the rescaled profiles sqrt(t) n(t, y)."""
    ys = traj.grid.y_nodes()
    times = traj.times.tolist()
    if "csv" in formats:
        blocks = ([t, ys, snap, math.sqrt(t) * snap] for t, snap in zip(times, traj.snapshots))
        _write_csv(out_dir / f"{stem}.csv", ["t", "y", "n", "sqrt_t_n"], blocks)
    if "svg" in formats:
        keep = slice(None, None, max(1, ys.size // 2000))
        curves = [(f"t={t:g}", ys[keep], math.sqrt(t) * snap[keep])
                  for t, snap in zip(times, traj.snapshots)]
        _write_svg(out_dir / f"{stem}.svg", curves, title="rescaled profiles sqrt(t) n(t, y)",
                   xlabel="y = log x", ylabel="sqrt(t) n")


def _write_compare(path: Path | None, tbl: analysis.MethodComparison) -> None:
    header = ["method_a", "method_b", "t", "x", "val_a", "val_b", "rel_err"]
    _write_csv(path, header, [[[getattr(r, name) for r in tbl.rows] for name in header]])


def _load_config(args) -> config.RunConfig:
    cfg = config.load(args.config) if args.config else config.RunConfig()
    texts = {}
    for _, key, *_ in config.FIELDS:
        flag = getattr(args, key, None)
        if flag is not None:
            texts[key] = ",".join(flag) if isinstance(flag, list) else flag  # --probe-y repeats
    return config.with_texts(cfg, texts)


def _solve_run(cfg: config.RunConfig, *, argmax: bool = False) -> solver.Trajectory:
    """Solve the configured run; the argmax track is recorded only when asked,
    for `solve`, the one command that writes it."""
    grid = solver.build_grid(cfg.profile, cfg.params.alpha,
                             cfg.resolved_y_min(), cfg.resolved_y_max(), cfg.m)
    return solver.solve_n(grid, cfg.t_end, cfg.dt, snapshot_times=cfg.resolved_snapshots(),
                          probe_rays=cfg.resolved_rays(),
                          record_every=cfg.record_every, argmax=argmax)


def _flag_floats(flag: str, text: str) -> tuple[float, ...]:
    """The numbers of a comma-separated --t or --x list; all must be finite."""
    try:
        values = config.parse_floats(text)
    except ValueError as exc:
        raise DomainError(f"--{flag}: {exc}") from exc
    if not values or not all(math.isfinite(v) for v in values):
        raise DomainError(f"--{flag} needs finite numbers, got {text!r}")
    return values


# --- subcommands ---------------------------------------------------------


def cmd_evaluate(args) -> int:
    cfg = _load_config(args)
    ts, xs = _flag_floats("t", args.t), _flag_floats("x", args.x)
    rows = [(t, x, analysis.route_u(args.method, cfg.params, cfg.profile, t, x), args.method)
            for t in ts for x in xs]
    out = Path(args.out) if args.out else None
    _write_csv(out, ["t", "x", "value", "method"], [list(zip(*rows))])
    return 0


def cmd_solve(args) -> int:
    cfg = _load_config(args)
    traj = _solve_run(cfg, argmax=True)
    out_dir = Path(cfg.directory)
    _write_snapshots(traj, out_dir, "snapshots", cfg.formats)
    if "csv" in cfg.formats:
        diag = traj.diagnostics
        header = ["t", "mass", "argmax_y"] + [f"n_ray={y:.6g}" for y in diag.probes]
        _write_csv(out_dir / "diagnostics.csv", header,
                   [[diag.times, diag.mass, diag.argmax_y, *diag.probes.values()]])
    return 0


def cmd_figures(args) -> int:
    cfg = _load_config(args)
    fig_id = args.id
    if fig_id not in _FIGURES:
        raise DomainError(f"unknown figure id {fig_id!r} (available: {sorted(_FIGURES, key=int)})")
    profile_line, kind = _FIGURES[fig_id]
    cfg = config.with_texts(cfg, {"profile": profile_line})
    out_dir = Path(cfg.directory)
    traj = _solve_run(cfg)
    if kind == "profiles":
        _write_snapshots(traj, out_dir, f"figure{fig_id}", cfg.formats)
        return 0
    src = analysis.GridSource(traj)
    probes = [analysis.line_probe(src, y) for y in cfg.resolved_rays()]
    if "csv" in cfg.formats:
        _write_csv(out_dir / f"figure{fig_id}.csv",
                   ["t"] + [f"f_y={p.y:.6g}" for p in probes],
                   [[probes[0].times, *(p.values for p in probes)]])
    if "svg" in cfg.formats:
        _write_svg(out_dir / f"figure{fig_id}.svg",
                   [(f"y={p.y:.4g}", p.times, p.values) for p in probes],
                   title="line values sqrt(t) exp(-Psi(y) t) n(t, y t)",
                   xlabel="t", ylabel="f_y(t)")
    return 0


def cmd_analyze(args) -> int:
    cfg = _load_config(args)
    p, params = cfg.profile, cfg.params
    if isinstance(p, Dirac):
        raise DomainError("analysis runs need a density profile, not a dirac atom")
    # each check is (report line or None, measured, tolerance, violation); one without
    # a tolerance only reports, the others pass only if measured <= tolerance (NaN fails)
    checks: list[tuple] = []
    traj = _solve_run(cfg)
    src = analysis.GridSource(traj)
    u0_mass = moment(p, 1.0)

    # period law along each tracked ray
    period_rows = []
    for y in cfg.resolved_rays():
        probe = analysis.line_probe(src, y, t_min=cfg.t_min, t_max=cfg.t_end)  # refuses y >= 0
        expected = -params.log_alpha / y
        est = analysis.estimate_period(probe, expected_period=expected,
                                       amp_threshold=cfg.amp_threshold)
        period_rows.append((y, expected, est.period, est.amplitude,
                            est.confidence, est.n_cycles, est.oscillating))
        if est.oscillating:
            err = abs(est.period - expected) / expected
            checks.append((f"ray y={y:.6g}: period {est.period:.4f} (law {expected:.4f}, "
                           f"rel err {err:.2e}, amp {est.amplitude:.3e})", err, cfg.period_tol,
                           f"period law violated on ray y={y:.6g}: measured {est.period:.4f}, "
                           f"law {expected:.4f}, tolerance {cfg.period_tol}"))
        else:
            checks.append((f"ray y={y:.6g}: no oscillation (amplitude {est.amplitude:.3e})",
                           math.nan, None, ""))

    # mass functional; absolute for smooth data, drift for sampled jumps
    mass = traj.diagnostics.mass
    ref = u0_mass if isinstance(p, LogGaussian) else mass[0]
    mass_err = float(np.max(np.abs(mass - ref))) / u0_mass
    checks.append((f"mass functional: max relative deviation {mass_err:.3e}", mass_err,
                   cfg.mass_tol, f"mass conservation violated: {mass_err:.3e} > {cfg.mass_tol}"))

    # weak limit against cos (smooth data only)
    weak_rows = []
    if isinstance(p, LogGaussian):
        t_w = float(traj.times[-1])
        val = analysis.weak_test(src, math.cos, t_w)
        target = u0_mass * math.cos(params.log_alpha)
        weak_err = abs(val - target) / abs(target)
        weak_rows.append((t_w, val, target, weak_err))
        checks.append((f"weak cos functional at t={t_w:g}: {val:.6g} (limit {target:.6g}, "
                       f"rel err {weak_err:.2e})", weak_err, cfg.weak_tol,
                       f"weak limit violated: cos functional off by {weak_err:.3e} > "
                       f"{cfg.weak_tol}"))

    # route agreement: solver vs series on the grid nodes themselves (no
    # interpolation in the comparison), contour inversion pointwise
    t_cmp = [float(t) for t in traj.times if 0.5 <= t <= 10.0] or [float(traj.times[-1])]
    ys = traj.grid.y_nodes()
    node_errs = []
    for t in t_cmp:
        exact = series.eval_n_series(p, params.alpha, t, ys)
        snap = traj.snapshots[traj.snapshot_index(t)]
        node_errs.append(np.max(np.abs(snap - exact)) / np.max(np.abs(exact)))
    pde_err = float(np.max(node_errs))  # np.max, unlike max(), keeps a NaN
    checks.append((f"solver vs series on nodes at t in {t_cmp}: max scaled error {pde_err:.3e}",
                   pde_err, cfg.pde_tol,
                   f"series vs solver mismatch {pde_err:.3e} > {cfg.pde_tol}"))
    cmp_tbl = analysis.compare_methods(
        p, params, t_cmp, (0.25, 0.5, 0.75), traj=traj,
        tol={frozenset({"series", "mellin"}): cfg.mellin_tol})
    checks.append((cmp_tbl.summary(), math.nan, None, ""))
    for (a, b), tol in {(r.method_a, r.method_b): r.tol for r in cmp_tbl.rows}.items():
        err = cmp_tbl.max_rel_err(a, b)  # NaN, and only reported, if no cell evaluates
        pair = "series vs contour inversion" if (a, b) == ("series", "mellin") else f"{a} vs {b}"
        checks.append((None, err, None if math.isnan(err) else tol,
                       f"{pair} mismatch {err:.3e} > {tol}"))

    # asymptotics on the concentration line (smooth data only), at unit mass:
    # by linearity the relative error does not depend on it, and v cannot overflow
    if isinstance(p, LogGaussian):
        unit = dataclasses.replace(p, mass=1.0)
        tx = [(t, params.alpha ** (-t)) for t in (10.0, 15.0, 20.0, 25.0, 30.0)]
        exact = np.array([series.eval_v(unit, params.alpha, t, x) for t, x in tx])
        approx = np.array([mellin.asymp_v_poisson(unit, params.alpha, t, x) for t, x in tx])
        errs = np.abs(approx - exact) / np.abs(exact)
        checks.append(("asymptotic relative error on x = alpha^-t at t = 10..30: "
                       + ", ".join(f"{e:.3e}" for e in errs), errs[3], cfg.asymp_tol,
                       f"asymptotics violated: relative error {errs[3]:.3e} at t=25 > "
                       f"{cfg.asymp_tol}"))
        checks.append((None, np.max(errs[1:] - errs[:-1] * (1.0 + 1e-9)), 0.0,
                       "asymptotics violated: error not monotone non-increasing"))

    out_dir = Path(cfg.directory)
    if "csv" in cfg.formats:
        _write_csv(out_dir / "periods.csv", ["y", "expected", "period", "amplitude", "confidence",
                                             "n_cycles", "oscillating"], [list(zip(*period_rows))])
        if weak_rows:
            _write_csv(out_dir / "weak.csv", ["t", "value", "limit", "rel_err"],
                       [list(zip(*weak_rows))])
        _write_compare(out_dir / "compare.csv", cmp_tbl)
    print("\n".join(line for line, *_ in checks if line is not None))
    failed = [why for _, measured, tol, why in checks if tol is not None and not measured <= tol]
    if failed:
        raise ThresholdError("; ".join(failed))
    print("all checks passed")
    return 0


def cmd_compare(args) -> int:
    cfg = _load_config(args)
    ts = (1.0, 5.0) if args.t is None else _flag_floats("t", args.t)
    xs = (0.25, 0.5, 0.75) if args.x is None else _flag_floats("x", args.x)
    # the horizon sizes the grid for the run; the requested times are its snapshots
    traj = _solve_run(dataclasses.replace(cfg, t_end=max(ts), snapshots=ts))
    tbl = analysis.compare_methods(cfg.profile, cfg.params, ts, xs, traj=traj)
    out = Path(cfg.directory) / "compare.csv" if "csv" in cfg.formats else None
    _write_compare(out, tbl)
    print(tbl.summary())
    return 0


# --- argument parsing -----------------------------------------------------


def _add_common(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--config", help="config file; flags override its values")
    sp.add_argument("--profile", help='e.g. "loggaussian mu=0 sigma=0.1 mass=1"')
    sp.add_argument("--alpha")
    sp.add_argument("--b")
    sp.add_argument("--g")
    sp.add_argument("--m", help="grid cells per log(alpha)")
    sp.add_argument("--y-min")
    sp.add_argument("--y-max")
    sp.add_argument("--t-end")
    sp.add_argument("--dt")
    sp.add_argument("--snapshots", help="comma-separated times")
    sp.add_argument("--record-every")
    sp.add_argument("--probe-y", dest="rays", metavar="PROBE_Y", action="append",
                    help="ray slope y < 0; repeatable")
    sp.add_argument("--out-dir", dest="directory", metavar="OUT_DIR")
    sp.add_argument("--period-tol")
    sp.add_argument("--mass-tol")
    sp.add_argument("--weak-tol")
    sp.add_argument("--asymp-tol")
    sp.add_argument("--t-min", help="start of the probe analysis window")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="gflab",
                                 description="growth-fragmentation equation laboratory")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("evaluate", help="evaluate u(t, x) by one route, emit CSV")
    _add_common(sp)
    sp.add_argument("--method", required=True, choices=list(analysis.ROUTES))
    sp.add_argument("--t", required=True, help="comma-separated times")
    sp.add_argument("--x", required=True, help="comma-separated sizes")
    sp.add_argument("--out", help="CSV path (default: stdout)")
    sp.set_defaults(func=cmd_evaluate)

    sp = sub.add_parser("solve", help="run the log-grid solver, write snapshots and diagnostics")
    _add_common(sp)
    sp.set_defaults(func=cmd_solve)

    sp = sub.add_parser("figures", help="reproduce a figure analog as CSV plus SVG")
    _add_common(sp)
    sp.add_argument("--id", required=True, help=f"one of {sorted(_FIGURES, key=int)}")
    sp.set_defaults(func=cmd_figures)

    sp = sub.add_parser("analyze", help="period, weak-limit and cross-route checks; "
                                        "nonzero exit on violation")
    _add_common(sp)
    sp.set_defaults(func=cmd_analyze)

    sp = sub.add_parser("compare", help="cross-route value table at chosen (t, x) points")
    _add_common(sp)
    sp.add_argument("--t", help="comma-separated times")
    sp.add_argument("--x", help="comma-separated sizes")
    sp.set_defaults(func=cmd_compare)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ThresholdError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 4
    except NumericsError as exc:
        print(f"numerical guard: {exc}", file=sys.stderr)
        return 3
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except GFLabError as exc:  # pragma: no cover - safety net
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())
