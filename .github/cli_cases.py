"""CI's byte-identity cases: every CLI command it checks, run into one tree.

    PYTHONPATH=src python .github/cli_cases.py OUT_DIR

Each case runs `python -m gflab ARGV --out-dir NAME` from OUT_DIR (evaluate
writes to stdout instead; a case named dir/NAME runs from OUT_DIR/dir) and
leaves its files in NAME/ and its stdout, stderr and exit code in NAME.out,
NAME.err and NAME.exit, so two runs of one commit give trees that `diff -r`
finds equal.  The gflab under test is the one that PYTHONPATH finds.  Prints
each case's exit code and wall time; fails where an exit code is not the
table's, an exit-2 refusal wrote files, an exit-0 case wrote to stderr, a
--config case differs from the plain command, a snapshot table cell is not
%.17g text, or an SVG is not XML.
"""
import math
import os
import subprocess
import sys
import time
import xml.etree.ElementTree as ET
from pathlib import Path

import gflab
from gflab import config

H = "logheaviside a=-1 b=0 height=1"
# the benchmark's dense snapshot ladder, and times by sizes over the rays, tails and support
LADDER = ",".join(map(repr, [0.5 * k for k in range(1, 21)] + [float(t) for t in range(15, 61, 5)]))
T, X = "0.5,1,2.5,5,10,25,60", "1e-30,1e-12,2.98e-8,1e-4,0.01,0.1,0.25,0.5,0.75,0.9"
CASES = [  # (name, expected exit code, argv)
    ("analyze", 0, ["analyze"]),
    ("analyze-heaviside", 0, ["analyze", "--profile", H]),   # no weak or asymptotic rows
    ("analyze-m4", 4, ["analyze", "--m", "4"]),   # too coarse for the mass row's gate
    ("analyze-alpha3", 0, ["analyze", "--alpha", "3"]),
    ("analyze-alpha4", 3, ["analyze", "--alpha", "4"]),   # the contour refuses x = 0.5
    ("solve", 0, ["solve"]),
    ("solve-heaviside", 0, ["solve", "--profile", H, "--t-end", "60", "--snapshots", LADDER]),
    # partial steps to the snapshots, and records every third step
    ("solve-off", 0, ["solve", "--dt", "0.03", "--record-every", "3",
                      "--snapshots", "1,5,7.31,20,33.3,60"]),
    ("solve-leak", 3, ["solve", "--y-min", "-30"]),   # the one path that evaluates exact heads
    *((f"figures-{i}", 0, ["figures", "--id", i]) for i in "11 9 8 7 6 5 4 3 2 1".split()),
    ("compare", 0, ["compare"]),
    ("compare-heaviside", 0, ["compare", "--profile", H]),
    ("compare-below", 0, ["compare", "--t", "1,5", "--x", "1e-30,0.5"]),   # NaN pde cells
    ("evaluate", 0, ["evaluate", "--method", "series", "--t", "1,5", "--x", "0.25,0.5"]),
    ("evaluate-mellin", 0, ["evaluate", "--method", "mellin", "--t", "1", "--x", "0.5"]),
    ("evaluate-poisson", 0, ["evaluate", "--method", "asymp-poisson", "--t", "25",
                             "--x", "2.98e-8"]),
    ("evaluate-theta", 0, ["evaluate", "--method", "asymp-theta", "--t", "25", "--x", "2.98e-8"]),
    # lam = 12,000 puts the Poisson bulk past the series' 10,000-term cap
    ("evaluate-cap", 3, ["evaluate", "--method", "series", "--t", "3000", "--x", "0.5"]),
    *((f"grid-{m}", 0, ["evaluate", "--method", m, "--t", T, "--x", X])
      for m in ("series", "mellin", "asymp-theta", "asymp-poisson")),
    ("grid-series-heaviside", 0, ["evaluate", "--method", "series", "--profile", H,
                                  "--t", T, "--x", X]),
    # refusals: a config flag the command does not read, a gate as a flag, theta on
    # heaviside data, a log-gaussian scale that overflows
    ("refused-evaluate-m", 2, ["evaluate", "--method", "series", "--t", "1", "--x", "0.5",
                               "--m", "3"]),
    ("refused-solve-t-min", 2, ["solve", "--t-min", "5"]),
    ("refused-compare-t-min", 2, ["compare", "--t-min", "5"]),
    ("refused-period-tol", 2, ["analyze", "--period-tol", "0.02"]),
    ("refused-theta", 2, ["evaluate", "--method", "asymp-theta", "--profile", H,
                          "--t", "10", "--x", "0.0009765625"]),
    ("refused-scale", 2, ["analyze", "--profile", "loggaussian mu=0.3 sigma=0.1 mass=1e308"]),
    # the default config, written by config.dumps and read back: the plain commands' outputs
    ("config/analyze", 0, ["analyze", "--config", "default.cfg"]),
    ("config/solve", 0, ["solve", "--config", "default.cfg"]),
]
RECORDS = ("out", "err", "exit")


def outputs(cwd: Path, name: str) -> dict:
    """A case's files and records, by their paths relative to cwd."""
    paths = [cwd / f"{name}.{r}" for r in RECORDS] + sorted((cwd / name).rglob("*"))
    return {str(p.relative_to(cwd)): p.read_bytes() for p in paths if p.is_file()}


def main(root: Path) -> None:
    env = {**os.environ, "PYTHONPATH": str(Path(gflab.__file__).resolve().parents[1])}
    (root / "config").mkdir(parents=True)
    (root / "config" / "default.cfg").write_text(config.dumps(config.RunConfig()))
    faults = []
    for case, code, argv in CASES:
        cwd, name = root / Path(case).parent, Path(case).name
        out = [] if argv[0] == "evaluate" else ["--out-dir", name]
        start = time.perf_counter()
        run = subprocess.run([sys.executable, "-m", "gflab", *argv, *out], cwd=cwd, env=env,
                             capture_output=True)
        print(f"{case:24} exit {run.returncode}  {(time.perf_counter() - start) * 1e3:6.0f} ms")
        for record, data in zip(RECORDS, (run.stdout, run.stderr, b"%d\n" % run.returncode)):
            (cwd / f"{name}.{record}").write_bytes(data)
        if run.returncode != code:
            faults.append(f"{case}: exit {run.returncode}, the table says {code}")
        if code == 2 and (cwd / name).exists():
            faults.append(f"{case}: refused, but wrote {name}/")
        if code == 0 and run.stderr:
            faults.append(f"{case}: exit 0, but wrote to stderr")
        # a case run from a subdirectory repeats the plain case of its name byte for byte
        if cwd != root and outputs(cwd, name) != outputs(root, name):
            faults.append(f"{case}: outputs differ from {name}'s")
    if faults:
        sys.exit("\n".join(faults))
    # every float cell reads back as Python's own "%.17g" of its value, and
    # sqrt_t_n is that of sqrt(t) times n, to the last bit
    for path in ("solve-heaviside/snapshots.csv", "figures-9/figure9.csv", "figures-2/figure2.csv"):
        header, *rows = [row.split(",") for row in (root / path).read_text().splitlines()]
        if header != ["t", "y", "n", "sqrt_t_n"] or not all(
                all(cell == "%.17g" % float(cell) for cell in row)
                and row[3] == "%.17g" % (math.sqrt(float(row[0])) * float(row[2])) for row in rows):
            faults.append(f"{path}: not every cell is its value's %.17g text")
    for svg in root.rglob("*.svg"):   # the writer writes SVG text itself
        try:
            ET.parse(svg)
        except ET.ParseError as exc:
            faults.append(f"{svg.relative_to(root)}: {exc}")
    sys.exit("\n".join(faults) or None)


if __name__ == "__main__":
    main(Path(sys.argv[1]))
