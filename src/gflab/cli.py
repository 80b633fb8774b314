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
[1e-280, 1e280], fractions within 1e-12 of a tie).  CSV tables are streamed
to the file as bytes, a bounded number of rows (_ROWS) at a time, so no
whole-file or whole-block text is held.

A snapshot table renders its y column once, as texts shared by all its blocks.
Each block is laid out in one of two ways, chosen from its own run count (rows
over which n and sqrt_t_n keep their bits, cut every _ROWS rows): with at most
one run per two rows (piecewise constant data, about 300 runs in 9,806 rows)
each run is one bytes.join of its y texts, joined by the run's own tail
",n,sqrt_t_n\n" and the next row's head "t,"; otherwise (smooth data, a run
per row) the block's cells are laid side by side, _ROWS rows at a time.  Both
give the same bytes.  On the dense heaviside table (30 blocks, 294,180 rows,
20 MB) the joined layout takes the write from a median 105 to 54 ms of CPU
time (2 vCPUs).  Runs of equal bits matter only to the joined layout (and to
the SVG points): a float column laid out as cells is rendered chunk by chunk,
runs or none.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import math
import re
import sys
from pathlib import Path

import numpy as np

from . import analysis, config, g17, mellin, solver, svg
from .errors import DomainError, GFLabError, NumericsError, ThresholdError

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


class _Texts:
    """A column rendered once for every block that shares it (the y nodes of
    a snapshot table): as narrowed cells, for blocks laid out as cells, and
    as byte strings without separators, for blocks joined run by run."""

    def __init__(self, x: np.ndarray):
        self.cells = _narrow(_column(x)(0, x.size))

    @functools.cached_property
    def texts(self) -> list[bytes]:
        return self.cells.tobytes().translate(None, b"\0").split(b",")[:-1]

    def __len__(self) -> int:
        return len(self.cells)


def _column(col):
    """The cells of one column of a block: a function of (lo, hi) that gives
    rows lo:hi as fixed-width cells, each ending in a separator column.

    NUL bytes are padding.  A float stands for a column of one value, and a
    _Texts for a column rendered already.  A float column is rendered by the
    g17 kernel as "%.17g" would, chunk by chunk: its runs of equal values are
    not looked for here, only where a layout reuses their text (_run_starts).
    Any other column (text without NUL characters, ints, bools) is rendered
    by str, right-aligned like the rest.
    """
    if isinstance(col, float):
        cell = _narrow(g17.cells(np.array([col])))
        return lambda lo, hi: np.broadcast_to(cell, (hi - lo, cell.shape[1]))
    if isinstance(col, _Texts):
        return lambda lo, hi: col.cells[lo:hi]
    if not isinstance(col[0], float):
        values = col.tolist() if isinstance(col, np.ndarray) else col
        return lambda lo, hi: g17.text_cells([str(v).encode() + b"," for v in values[lo:hi]])
    x = np.asarray(col, dtype=np.float64)
    return lambda lo, hi: g17.cells(x[lo:hi])


def _narrow(cells: np.ndarray) -> np.ndarray:
    """The same cells right-aligned in the least width, for cells copied to many rows."""
    shown = cells != 0
    sizes = shown.sum(axis=1)
    narrow = np.zeros((len(cells), sizes.max()), dtype=np.uint8)
    narrow[np.arange(narrow.shape[1]) >= narrow.shape[1] - sizes[:, None]] = cells[shown]
    return narrow


def _run_starts(block, n_rows: int) -> np.ndarray | None:
    """The first row of each run of a block to be joined run by run, or None
    for a block to be laid out as cells.

    A block is joined when one column is a _Texts, neither first nor last,
    the others are floats and float arrays, and its rows fall into at most
    n_rows / 2 runs: rows over which no float array changes its bits (bits,
    not ==, keep -0.0 apart from 0.0), cut every _ROWS rows.
    """
    texts = sum(isinstance(col, _Texts) for col in block)
    floats = sum(isinstance(col, float) for col in block)
    arrays = [col for col in block if isinstance(col, np.ndarray) and col.dtype == np.float64]
    if (texts != 1 or isinstance(block[0], _Texts) or isinstance(block[-1], _Texts)
            or texts + floats + len(arrays) != len(block)):
        return None
    new = np.zeros(n_rows, dtype=bool)
    new[::_ROWS] = True
    for x in arrays:
        bits = x.view(np.int64)
        new[1:] |= bits[1:] != bits[:-1]
    starts = np.flatnonzero(new)
    return starts if starts.size <= n_rows / 2 else None


def _lines(cells: np.ndarray) -> list[bytes]:
    """Rows of cells (rows x columns x g17.WIDTH) as byte strings without
    their last separator."""
    chars = cells.reshape(len(cells), -1)
    chars[:, -1] = ord("\n")
    return chars.tobytes().translate(None, b"\0").split(b"\n")[:-1]


def _write_joined(out, block, starts: np.ndarray) -> None:
    """Write a block run by run: a run's texts of the _Texts column joined by
    the run's tail (the cells after that column and the newline) and head
    (the cells before it).  Heads and tails are rendered by one g17.cells
    call per _ROWS values, and the text is written about every _ROWS rows."""
    j = next(i for i, col in enumerate(block) if isinstance(col, _Texts))
    texts = block[j].texts
    others = block[:j] + block[j + 1:]
    ends = [*starts[1:].tolist(), len(texts)]
    step = _ROWS // len(others)
    pieces, rows = [], 0
    for lo in range(0, starts.size, step):
        heads = starts[lo:lo + step]
        values = np.stack([np.full(heads.size, col) if isinstance(col, float) else col[heads]
                           for col in others], axis=1)
        cells = g17.cells(values.ravel()).reshape(heads.size, len(others), g17.WIDTH)
        for a, b, pre, post in zip(heads.tolist(), ends[lo:lo + step],
                                   _lines(cells[:, :j]), _lines(cells[:, j:])):
            head, tail = pre + b",", b"," + post + b"\n"
            pieces += head, (tail + head).join(texts[a:b]), tail
            rows += b - a
            if rows >= _ROWS:
                out.write(b"".join(pieces))
                pieces, rows = [], 0
    out.write(b"".join(pieces))


def _write_csv(path: Path | None, header: list[str], blocks) -> None:
    """Write a CSV table to path (stdout when None), streaming _ROWS rows at a time.

    A block is a list of equal-length columns; a float in place of a column
    is rendered once and repeats on every row of the block.  A block whose
    rows fall into runs is joined run by run (see _run_starts).  Otherwise
    the cells of each _ROWS rows are laid side by side, their NUL padding
    dropped, and the bytes written (see _column for how a value is written).
    """
    if path is None:
        sys.stdout.flush()      # text printed before goes first
    else:
        path.parent.mkdir(parents=True, exist_ok=True)
    with (contextlib.nullcontext(sys.stdout.buffer) if path is None else path.open("wb")) as out:
        out.write((",".join(header) + "\n").encode())
        for block in blocks:
            n_rows = max((len(col) for col in block if not isinstance(col, float)), default=0)
            starts = _run_starts(block, n_rows)
            if starts is not None:
                _write_joined(out, block, starts)
                continue
            columns = [_column(col) for col in block] if n_rows else []
            for lo in range(0, n_rows, _ROWS):
                hi = min(lo + _ROWS, n_rows)
                chars = np.concatenate([cells(lo, hi) for cells in columns], axis=1)
                chars[:, -1] = ord("\n")
                out.write(chars.tobytes().translate(None, b"\0"))
    if path is not None:
        print(f"wrote {path}")


def _write_svg(path: Path, curves, title: str, xlabel: str, ylabel: str) -> None:
    doc = svg.line_plot(curves, title=title, xlabel=xlabel, ylabel=ylabel)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(doc, encoding="utf-8")
    print(f"wrote {path}")


def _write_snapshots(traj: solver.Trajectory, out_dir: Path, stem: str) -> None:
    """<stem>.csv with t, y, n and sqrt(t) n at every node of every snapshot,
    and <stem>.svg with the rescaled profiles sqrt(t) n(t, y)."""
    ys = traj.grid.y_nodes()
    times = traj.times.tolist()
    y_texts = _Texts(ys)        # the y column, rendered once for every block
    blocks = ([t, y_texts, snap, math.sqrt(t) * snap] for t, snap in zip(times, traj.snapshots))
    _write_csv(out_dir / f"{stem}.csv", ["t", "y", "n", "sqrt_t_n"], blocks)
    keep = slice(None, None, max(1, ys.size // 2000))
    curves = [(f"t={t:g}", ys[keep], math.sqrt(t) * snap[keep])
              for t, snap in zip(times, traj.snapshots)]
    _write_svg(out_dir / f"{stem}.svg", curves, title="rescaled profiles sqrt(t) n(t, y)",
               xlabel="y = log x", ylabel="sqrt(t) n")


def _write_compare(path: Path, tbl: analysis.MethodComparison) -> None:
    header = ["method_a", "method_b", "t", "x", "val_a", "val_b", "rel_err"]
    _write_csv(path, header, [[[getattr(r, name) for r in tbl.rows] for name in header]])


def _load_config(args) -> config.RunConfig:
    """The --config file (any key of any section, since commands share files)
    with the flags of the keys the command reads set over it."""
    cfg = config.load(args.config) if args.config else config.RunConfig()
    texts = {}
    for key in _READS[args.command]:
        flag = getattr(args, key)
        if flag is not None:
            texts[key] = ",".join(flag) if isinstance(flag, list) else flag  # --probe-y repeats
    return config.with_texts(cfg, texts)


def _grid(cfg: config.RunConfig) -> solver.LogGrid:
    """The configured run's grid; the grid commands solve at unit rates (b = 1, g = 0)."""
    if (cfg.params.b, cfg.params.g) != (1.0, 0.0):
        raise DomainError(f"the grid commands solve at b = 1, g = 0 (got b = {cfg.params.b!r}, "
                          f"g = {cfg.params.g!r}); evaluate applies other rates")
    return solver.build_grid(cfg.profile, cfg.params.alpha,
                             cfg.resolved_y_min(), cfg.resolved_y_max(), cfg.m)


def _solve_run(cfg: config.RunConfig, grid: solver.LogGrid | None = None,
               probes: bool = True) -> solver.Trajectory:
    """Solve the configured run (on its grid, unless one is given): v at b = 1, g = 0,
    recording the configured probe rays if `probes` (the rays size the grid either way)."""
    return solver.solve_n(grid or _grid(cfg), cfg.t_end, cfg.dt,
                          snapshot_times=cfg.resolved_snapshots(),
                          probe_rays=cfg.resolved_rays() if probes else (),
                          record_every=cfg.record_every)


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
    traj = _solve_run(cfg)
    out_dir = Path(cfg.directory)
    _write_snapshots(traj, out_dir, "snapshots")
    diag = traj.diagnostics
    header = ["t", "mass"] + [f"n_ray={y:.6g}" for y in diag.probes]
    _write_csv(out_dir / "diagnostics.csv", header,
               [[diag.times, diag.mass, *diag.probes.values()]])
    return 0


def cmd_figures(args) -> int:
    cfg = _load_config(args)
    fig_id = args.id
    if fig_id not in _FIGURES:
        raise DomainError(f"unknown figure id {fig_id!r} (available: {sorted(_FIGURES, key=int)})")
    profile_line, kind = _FIGURES[fig_id]
    cfg = config.with_texts(cfg, {"profile": profile_line})
    out_dir = Path(cfg.directory)
    traj = _solve_run(cfg, probes=kind == "probes")
    if kind == "profiles":
        _write_snapshots(traj, out_dir, f"figure{fig_id}")
        return 0
    src = analysis.GridSource(traj)
    probes = [analysis.line_probe(src, y) for y in cfg.resolved_rays()]
    _write_csv(out_dir / f"figure{fig_id}.csv", ["t"] + [f"f_y={p.y:.6g}" for p in probes],
               [[probes[0].times, *(p.values for p in probes)]])
    _write_svg(out_dir / f"figure{fig_id}.svg",
               [(f"y={p.y:.4g}", p.times, p.values) for p in probes],
               title="line values sqrt(t) exp(-Psi(y) t) n(t, y t)", xlabel="t", ylabel="f_y(t)")
    return 0


def cmd_analyze(args) -> int:
    cfg = _load_config(args)
    # refuse before solving, in this order: the grid, each ray, the probe window
    grid = _grid(cfg)
    for y in cfg.resolved_rays():
        mellin.psi(cfg.params.alpha, y)
    if not cfg.t_min < cfg.t_end:
        raise DomainError(f"t_min = {cfg.t_min} must be below t_end = {cfg.t_end}: "
                          "the probe window [t_min, t_end] is empty")
    checks, period_rows, weak_row, cmp_tbl = analysis.checks(cfg, _solve_run(cfg, grid))
    out_dir = Path(cfg.directory)
    _write_csv(out_dir / "periods.csv", ["y", "expected", "period", "amplitude", "confidence",
                                         "n_cycles", "oscillating"], [list(zip(*period_rows))])
    if weak_row is not None:
        _write_csv(out_dir / "weak.csv", ["t", "value", "limit", "rel_err"],
                   [[[v] for v in weak_row]])
    _write_compare(out_dir / "compare.csv", cmp_tbl)
    print("\n".join(c.line for c in checks if c.line is not None))
    failed = [f"{c.label} {c.measured:.3e} > {c.tol}" for c in checks if c.failed]
    if failed:
        raise ThresholdError("; ".join(failed))
    print("all checks passed")
    return 0


def cmd_compare(args) -> int:
    cfg = _load_config(args)
    ts = (1.0, 5.0) if args.t is None else _flag_floats("t", args.t)
    if min(ts) < 0.0:
        raise DomainError(f"--t needs times >= 0, got {args.t!r}")
    xs = analysis.COMPARE_X if args.x is None else _flag_floats("x", args.x)
    if min(xs) <= 0.0:
        raise DomainError(f"--x needs sizes > 0, got {args.x!r}")
    # the horizon sizes the grid for the run; the requested times are its snapshots
    traj = _solve_run(cfg._replace(t_end=max(ts), snapshots=ts), probes=False)
    tbl = analysis.compare_methods(cfg.profile, cfg.params, ts, xs, traj=traj)
    _write_compare(Path(cfg.directory) / "compare.csv", tbl)
    print(tbl.summary())
    return 0


# --- argument parsing -----------------------------------------------------


# the config keys each command reads, in config.FIELDS order: those a valid
# value of which can change an output file, a report line or the exit code
# (figures: the union over its ids).  figures sets each figure's profile, and
# compare solves to its largest --t with a snapshot at each.  Any other config
# flag is a usage error; a --config file, which commands share, may hold any key.
_MODEL = ("alpha", "b", "g", "profile")
_READS = {
    "evaluate": _MODEL,
    "solve": (*_MODEL, "m", "y_min", "y_max", "t_end", "dt", "snapshots", "record_every",
              "rays", "directory"),
    "figures": ("alpha", "b", "g", "m", "y_min", "y_max", "t_end", "dt", "snapshots",
                "record_every", "rays", "directory"),
    "analyze": tuple(key for _, key, *_ in config.FIELDS),
    "compare": (*_MODEL, "m", "y_min", "y_max", "dt", "rays", "directory"),
}
# flags named otherwise than --key-name, and the help of those that have one
_FLAG_NAMES = {"rays": "probe-y", "directory": "out-dir"}
_HELP = {"profile": 'e.g. "loggaussian mu=0 sigma=0.1 mass=1"', "m": "grid cells per log(alpha)",
         "snapshots": "comma-separated times", "rays": "ray slope y < 0; repeatable",
         "t_min": "start of the probe analysis window"}


# an argument that argparse reads as a negative number, a flag's value and not
# a flag; its own pattern, ^-\d+$|^-\d*\.\d+$, takes no exponent, so it read
# "--y-min -1e2" as a flag without its value
_NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")


def build_parser(commands=None) -> argparse.ArgumentParser:
    """The gflab parser.  Every subcommand is registered, but only those in
    `commands` (every one when None) get their flags: argparse hands the rest
    of argv to the subcommand argv names, so main builds that one's alone."""
    # no abbreviations: a prefix such as --t would pick a flag without a word
    ap = argparse.ArgumentParser(prog="gflab", allow_abbrev=False,
                                 description="growth-fragmentation equation laboratory")
    sub = ap.add_subparsers(dest="command", required=True)

    def add(command: str, func, summary: str) -> argparse.ArgumentParser | None:
        """A command's parser: --config, then a flag per config key it reads
        (--probe-y repeats); None for a command not in `commands`."""
        sp = sub.add_parser(command, help=summary, allow_abbrev=False)
        if commands is not None and command not in commands:
            return None
        sp._negative_number_matcher = _NEGATIVE_NUMBER
        sp.set_defaults(func=func)
        sp.add_argument("--config", help="config file; flags override its values")
        for key in _READS[command]:
            name = _FLAG_NAMES.get(key, key.replace("_", "-"))
            sp.add_argument(f"--{name}", dest=key, metavar=name.replace("-", "_").upper(),
                            action="append" if key == "rays" else "store", help=_HELP.get(key))
        return sp

    if sp := add("evaluate", cmd_evaluate, "evaluate u(t, x) by one route, emit CSV"):
        sp.add_argument("--method", required=True, choices=list(analysis.ROUTES))
        sp.add_argument("--t", required=True, help="comma-separated times")
        sp.add_argument("--x", required=True, help="comma-separated sizes")
        sp.add_argument("--out", help="CSV path (default: stdout)")

    add("solve", cmd_solve, "run the log-grid solver, write snapshots and diagnostics")

    if sp := add("figures", cmd_figures, "reproduce a figure analog as CSV plus SVG"):
        sp.add_argument("--id", required=True, help=f"one of {sorted(_FIGURES, key=int)}")

    add("analyze", cmd_analyze,
        "period, weak-limit and cross-route checks; nonzero exit on violation")

    if sp := add("compare", cmd_compare, "cross-route value table at chosen (t, x) points"):
        sp.add_argument("--t", help="comma-separated times")
        sp.add_argument("--x", help="comma-separated sizes")
    return ap


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv).parse_args(argv)
    try:
        return args.func(args)
    except ThresholdError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 4
    except NumericsError as exc:
        print(f"numerical guard: {exc}", file=sys.stderr)
        return 3
    except GFLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    """The console script and `python -m gflab`.  Once the command has
    returned, its objects (the numpy and gflab import graph) go to the
    permanent generation, so the interpreter's final collections at exit skip
    them; atexit handlers, stdio flushing and module teardown still run.  The
    library never freezes: a host program's exit is its own."""
    code = main()
    gc.freeze()
    sys.exit(code)
