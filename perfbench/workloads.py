"""Workload definitions and the checks that decide whether a job's output is correct.

Three workloads, chosen to stress different layers (see README.md):

  analyze-default        `gflab analyze` at the default config: solver-bound,
                         plus import and the analysis instruments.
  solve-dense-snapshots  `gflab solve` on heaviside data with a dense snapshot
                         ladder: CSV/SVG writers and memory, solver second.
  routes-pointwise       library job over a seeded (t, x) table: series
                         kernel, contour quadrature and asymptotics; no solver.

The two CLI workloads are fixed configs; only routes-pointwise draws inputs
from the seed.  Every check returns a Verdict.  Gate values are the ROADMAP
accuracy gates, written here rather than read from the program, so that a
change which loosens a program default cannot loosen the benchmark.  gflab is
imported inside the functions that need it, after run.py has put the
checkout's src/ on the path.
"""

from __future__ import annotations

import csv
import json
import math
import random
import re
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

ALPHA = 2.0
HEAVISIDE = "logheaviside a=-1 b=0 height=1"
# 20 snapshots at t <= 10 (checked against the series) and 10 to the horizon
SNAPSHOT_LADDER = tuple(0.5 * k for k in range(1, 21)) + tuple(float(t) for t in range(15, 61, 5))

# ROADMAP accuracy gates
PERIOD_GATE = 0.02
WEAK_GATE = 0.02
CONTOUR_GATE = 1e-6
NODE_GATE = 1e-7
ASYMP_PAIR_GATE = 1e-6
ASYMP_GATE = 0.10
# two implementations of the same series sum, and trapezoid sums of
# spectrally resolved integrands: both agree far below these
KERNEL_GATE = 1e-9
MASS_GATE = 1e-9
WEAK_TRAPZ_GATE = 1e-6

WORKLOADS = ("analyze-default", "solve-dense-snapshots", "routes-pointwise")
CLI_ARGS = {
    "analyze-default": ("analyze",),
    "solve-dense-snapshots": ("solve", "--profile", HEAVISIDE, "--t-end", "60",
                              "--snapshots", ",".join(repr(t) for t in SNAPSHOT_LADDER)),
}

# routes-pointwise: a stratified table of N_T x N_Y cells over t in [T_LO, T_HI]
# and rays y = log(x) / t in the default probe-ray span [-2, -1/2] log(alpha),
# one jittered point per cell, so that the share of points in any region (and
# so the contour refusal rate) hardly depends on the seed
N_T, N_Y = 20, 10
T_LO, T_HI = 0.5, 60.0
NODE_TIMES = (1.0, 5.0, 10.0, 20.0, 40.0, 60.0)
WEAK_T = 10.0
PROBE_TIMES = tuple(20.0 + 0.4 * i for i in range(101))
ASYMP_T = 25.0


@dataclass
class Verdict:
    """Outcome of checking one job: operations attempted and the failures among them.

    `ops` maps each failure message to the number of operations it fails; a
    message names its operation (route and point, file, gate), so the same
    failure seen in two jobs of a run is one failure.  `incorrect` marks a
    value the program returned as a success that failed its check (or a CLI
    job that exited non-zero); a guard refusal such as a QuadratureError is a
    failed operation, but not an incorrect output.
    """

    attempted: int
    ops: dict[str, int] = field(default_factory=dict)
    incorrect: bool = False

    def fail(self, message: str, incorrect: bool = True, ops: int = 1) -> None:
        self.ops[message] = self.ops.get(message, 0) + ops
        self.incorrect = self.incorrect or incorrect

    @property
    def failures(self) -> list[str]:
        return list(self.ops)

    @property
    def failed(self) -> int:
        return min(self.attempted, sum(self.ops.values()))

    def copy(self) -> "Verdict":
        return Verdict(self.attempted, dict(self.ops), self.incorrect)


def merge(verdicts: list[Verdict]) -> Verdict:
    """The verdict of a run.  Its jobs repeat the same operations on the same
    inputs, so the run attempts one job's operations, and an operation fails if
    it failed in any job.  The counts then depend on the seed alone, not on how
    many jobs fitted into the run."""
    run = Verdict(attempted=max(v.attempted for v in verdicts))
    for v in verdicts:
        for msg, n in v.ops.items():
            run.ops[msg] = max(run.ops.get(msg, 0), n)
        run.incorrect = run.incorrect or v.incorrect
    return run


def run_config(workload: str):
    """The gflab RunConfig whose grid the workload uses (for calibration and checks)."""
    from gflab import config, model

    if workload == "solve-dense-snapshots":
        return config.RunConfig(profile=model.parse_profile(HEAVISIDE), snapshots=SNAPSHOT_LADDER)
    return config.RunConfig()


def point_table(seed: int) -> list[tuple[float, float]]:
    """The seeded (t, y) table of routes-pointwise; x = exp(y t)."""
    rng = random.Random(seed)
    la = math.log(ALPHA)
    y_lo, y_hi = -2.0 * la, -0.5 * la
    table = []
    for i in range(N_T):
        for j in range(N_Y):
            t = T_LO + (i + rng.random()) * (T_HI - T_LO) / N_T
            y = y_lo + (j + rng.random()) * (y_hi - y_lo) / N_Y
            table.append((t, y))
    return table


def grid_nodes(cfg) -> tuple[np.ndarray, float]:
    """Nodes of the solver grid `cfg` resolves to, built without the solver."""
    dy = math.log(cfg.params.alpha) / cfg.m
    j_lo = int(math.floor(cfg.resolved_y_min() / dy + 1e-12))
    j_hi = int(math.ceil(cfg.resolved_y_max() / dy - 1e-12))
    return (j_lo + np.arange(j_hi - j_lo + 1)) * dy, dy


def trapz(values: np.ndarray, dy: float) -> float:
    return dy * (float(np.sum(values)) - 0.5 * float(values[0] + values[-1]))


def _rel(a: float, b: float) -> float:
    denom = max(abs(a), abs(b))
    return 0.0 if denom == 0.0 else abs(a - b) / denom


def _read_csv(path: Path) -> list[dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


# --- analyze-default -----------------------------------------------------

_NODE_LINE = re.compile(r"solver vs series on nodes at t in \[[^\]]*\]: max scaled error (\S+)")


def check_analyze(out_dir: Path, stdout: str, exit_code: int) -> Verdict:
    """Exit 0 and the ROADMAP gates re-checked from the job's CSVs.

    The node gate (solver vs series) is not in any CSV, so it is read from the
    report line on standard output.
    """
    v = Verdict(attempted=1)
    if exit_code != 0:
        v.fail(f"exit code {exit_code}")
        return v
    try:
        periods = _read_csv(out_dir / "periods.csv")
        weak = _read_csv(out_dir / "weak.csv")
        compare = _read_csv(out_dir / "compare.csv")
    except (OSError, csv.Error) as exc:
        v.fail(f"unreadable output: {exc}")
        return v
    try:
        if len(periods) != 3:
            v.fail(f"expected 3 probe rays, got {len(periods)}")
        for row in periods:
            if row["oscillating"] != "True":
                v.fail(f"ray {row['y']} reported no oscillation")
                continue
            err = abs(float(row["period"]) - float(row["expected"])) / float(row["expected"])
            if not err <= PERIOD_GATE:
                v.fail(f"period on ray {row['y']} off by {err:.3e}")
        if len(weak) != 1:
            v.fail(f"expected one weak-limit row, got {len(weak)}")
        for row in weak:
            err = abs(float(row["value"]) - float(row["limit"])) / abs(float(row["limit"]))
            if not err <= WEAK_GATE:
                v.fail(f"weak limit off by {err:.3e}")
        pairs = [r for r in compare if {r["method_a"], r["method_b"]} == {"series", "mellin"}]
        if not pairs:
            v.fail("no series vs contour rows")
        for row in pairs:
            err = _rel(float(row["val_a"]), float(row["val_b"]))
            if not err <= CONTOUR_GATE:
                v.fail(f"series vs contour at t={row['t']} x={row['x']} off by {err:.3e}")
    except (KeyError, ValueError, ZeroDivisionError) as exc:
        v.fail(f"malformed CSV: {exc!r}")
    m = _NODE_LINE.search(stdout)
    if m is None:
        v.fail("solver vs series node error missing from the report")
    else:
        try:
            err = float(m.group(1))
        except ValueError:
            err = math.nan
        if not err <= NODE_GATE:
            v.fail(f"solver vs series on nodes off by {m.group(1)}")
    return v


# --- solve-dense-snapshots -----------------------------------------------


def check_solve(out_dir: Path, exit_code: int) -> Verdict:
    """Exit 0; snapshots at t <= 10 match the series on the same nodes within the node gate.

    Every row is also checked for grid geometry (y on the workload's nodes),
    for sqrt_t_n == sqrt(t) n exactly, and for positivity; the diagnostics for
    mass drift; the SVG for one curve per snapshot.
    """
    from gflab import model, series, solver

    v = Verdict(attempted=1)
    if exit_code != 0:
        v.fail(f"exit code {exit_code}")
        return v
    snap_path = out_dir / "snapshots.csv"
    try:
        header = snap_path.open(encoding="utf-8").readline().strip()
        table = np.loadtxt(snap_path, delimiter=",", skiprows=1, ndmin=2)
        diag = np.loadtxt(out_dir / "diagnostics.csv", delimiter=",", skiprows=1, ndmin=2)
        doc = ET.parse(out_dir / "snapshots.svg").getroot()
    except (OSError, ValueError, ET.ParseError) as exc:
        v.fail(f"unreadable output: {exc}")
        return v
    if header != "t,y,n,sqrt_t_n" or table.shape[1] != 4:
        v.fail(f"unexpected snapshot columns {header!r}")
        return v
    cfg = run_config("solve-dense-snapshots")
    grid = solver.build_grid(cfg.profile, cfg.params.alpha, cfg.resolved_y_min(),
                             cfg.resolved_y_max(), cfg.m)
    ys = grid.y_nodes()
    p = model.parse_profile(HEAVISIDE)
    ts = table[:, 0]
    if table.shape[0] != len(SNAPSHOT_LADDER) * ys.size:
        v.fail(f"{table.shape[0]} snapshot rows, expected {len(SNAPSHOT_LADDER)} x {ys.size}")
        return v
    blocks = table.reshape(len(SNAPSHOT_LADDER), ys.size, 4)
    for k, t in enumerate(SNAPSHOT_LADDER):
        blk = blocks[k]
        if not np.all(blk[:, 0] == t):
            v.fail(f"snapshot block {k} is not at t={t}")
            continue
        if not np.array_equal(blk[:, 1], ys):
            v.fail(f"snapshot t={t}: y column is not the grid")
        n = blk[:, 2]
        if not np.array_equal(blk[:, 3], math.sqrt(t) * n):
            v.fail(f"snapshot t={t}: sqrt_t_n != sqrt(t) n")
        if not (np.all(np.isfinite(n)) and np.all(n >= 0.0)):
            v.fail(f"snapshot t={t}: negative or non-finite values")
        if t <= 10.0:
            exact = series.eval_n_series(p, ALPHA, t, ys)
            err = float(np.max(np.abs(n - exact)) / np.max(np.abs(exact)))
            if not err <= NODE_GATE:
                v.fail(f"snapshot t={t}: solver vs series off by {err:.3e}")
    if not np.all(np.diff(ts) >= 0.0):
        v.fail("snapshot times not ascending")
    mass = diag[:, 1]
    drift = float(np.max(np.abs(mass - mass[0]))) / mass[0] if mass.size else math.inf
    if not drift <= 1e-6:
        v.fail(f"mass drift {drift:.3e}")
    if diag.size == 0 or diag[-1, 0] != 60.0 or not np.all(np.diff(diag[:, 0]) > 0.0):
        v.fail("diagnostics do not run monotonically to t=60")
    curves = doc.findall("{http://www.w3.org/2000/svg}polyline")
    if len(curves) != len(SNAPSHOT_LADDER):
        v.fail(f"SVG has {len(curves)} curves, expected {len(SNAPSHOT_LADDER)}")
    return v


# --- routes-pointwise ----------------------------------------------------


def check_routes(result_text: str, seed: int) -> Verdict:
    """Check a routes-pointwise result file; one operation per check.

    Per point: series vs contour (a refusal fails the operation without being
    an incorrect output), theta vs Poisson asymptotics, and the scalar series
    kernel (eval_v) against the vector kernel (eval_n_series) for both
    profiles.  Then: mass of eval_n_series on the grid nodes, every series
    line-probe sample against eval_v, the series weak test against a trapezoid
    sum of eval_n_series on the nodes, and asymptotics vs series at t=25 on
    x = alpha^-t.
    """
    from gflab import config, mellin, model, series

    try:
        res = json.loads(result_text)
        points = res["points"]
    except (ValueError, KeyError, TypeError) as exc:
        v = Verdict(attempted=1)
        v.fail(f"unreadable result: {exc!r}")
        return v
    gauss = config.RunConfig().profile
    heav = model.parse_profile(HEAVISIDE)
    table = point_table(seed)
    v = Verdict(attempted=4 * len(table) + len(NODE_TIMES) + len(PROBE_TIMES) + 3)
    if len(points) != len(table):
        v.fail(f"{len(points)} points, expected {len(table)}", ops=v.attempted)
        return v

    def value(rec, key):
        """(value, None) for a finite float; (None, (message, incorrect)) otherwise."""
        val = rec.get(key)
        if isinstance(val, float) and math.isfinite(val):
            return val, None
        if isinstance(val, dict):  # the route raised: a refusal, not a wrong value
            return None, (f"{key} raised {val.get('error')}", False)
        return None, (f"{key} returned {val!r}", True)

    def pair(rec, key_a, key_b, gate, where):
        (a, bad_a), (b, bad_b) = value(rec, key_a), value(rec, key_b)
        bad = bad_a or bad_b
        if bad is not None:
            v.fail(f"{bad[0]} at {where}", incorrect=bad[1])
        elif not _rel(a, b) <= gate:
            v.fail(f"{key_a} vs {key_b} at {where}: {_rel(a, b):.3e}")

    for (t, y), rec in zip(table, points):
        where = f"t={t!r} y={y!r}"
        if rec.get("t") != t or rec.get("y") != y:
            v.fail(f"point {where} does not match the table", ops=4)
            continue
        pair(rec, "series", "contour", CONTOUR_GATE, where)
        pair(rec, "theta", "poisson", ASYMP_PAIR_GATE, where)
        for prof, key in ((gauss, "series"), (heav, "heaviside")):
            got, bad = value(rec, key)
            if bad is not None:
                v.fail(f"{bad[0]} at {where}", incorrect=bad[1])
                continue
            n = series.eval_n_series(prof, ALPHA, t, np.array([y * t]))[0]
            ref = float(n) * math.exp(-2.0 * y * t)
            if not _rel(got, ref) <= KERNEL_GATE:
                v.fail(f"{key} eval_v vs eval_n_series at {where}: {_rel(got, ref):.3e}")
    try:
        nodes = res["nodes"]
        weak = res["weak"]
        probe = res["probe"]
        gate = res["asymp_gate"]
    except KeyError as exc:
        v.fail(f"result lacks {exc}", ops=v.attempted)
        return v
    if [n.get("t") for n in nodes] != list(NODE_TIMES):
        v.fail("node series times differ from the workload")
    for n in nodes:
        if not abs(n.get("mass", math.nan) - 1.0) <= MASS_GATE:
            v.fail(f"eval_n_series mass at t={n.get('t')}: {n.get('mass')!r}")
    if not _rel(weak["value"], weak["trapz"]) <= WEAK_TRAPZ_GATE:
        v.fail(f"series weak test {weak['value']!r} vs node trapezoid {weak['trapz']!r}")
    psi_y = mellin.psi(ALPHA, probe["y"])[0]
    if probe["times"] != list(PROBE_TIMES) or len(probe["values"]) != len(PROBE_TIMES):
        v.fail("probe times differ from the workload")
    else:
        for t, got in zip(PROBE_TIMES, probe["values"]):
            x = math.exp(probe["y"] * t)
            ref = math.sqrt(t) * math.exp(-psi_y * t) * x * x * series.eval_v(gauss, ALPHA, t, x)
            if not _rel(got, ref) <= KERNEL_GATE:
                v.fail(f"series probe at t={t:g}: {got!r} vs {ref!r}")
    exact = gate["series"]
    for key in ("theta", "poisson"):
        err = abs(gate[key] - exact) / abs(exact)
        if not err <= ASYMP_GATE:
            v.fail(f"{key} asymptotics at t={ASYMP_T:g}: relative error {err:.3e}")
    return v


def check_digests(ref: dict[str, str], got: dict[str, str]) -> list[str]:
    """Outputs of jobs in one run must be byte-identical."""
    if got == ref:
        return []
    names = sorted(set(ref) | set(got))
    return [f"{name} differs from the first job of the run" for name in names
            if ref.get(name) != got.get(name)]
