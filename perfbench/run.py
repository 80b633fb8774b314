"""The gflab benchmark: one workload, a closed loop of jobs, one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from anywhere inside a gflab checkout; the program is imported from the
checkout's src/ and nothing outside the checkout is read or written (work
files go to .bench_build/perfbench/).  One client runs one job at a time, each
in a fresh interpreter with single-threaded BLAS/OpenMP, and starts the next
job when the previous one has exited.  Every job's output is checked.

--trace 0  measures end-to-end metrics: jobs, before each job the
           reference job (fixed work, no gflab code), and before every other
           job a set-up probe (a fresh interpreter that only imports gflab,
           plus for routes-pointwise its table set-up).  wall_s and setup_s
           are medians of job and probe times, each scaled to the nominal
           machine speed by the reference time of its own iteration;
           peak_rss_mb is a median.
--trace 1  alternates an untraced and a traced job and reports the per-layer
           metrics of the fastest traced job, the CPU time of the fastest
           untraced job and the tracing overhead between the two.
--smoke    one iteration, no warm-up: a quick end-to-end check of a workload.

The last line of standard output is {"correct", "attempted", "failed",
"metrics"}.  The jobs of a run repeat the same operations, so `attempted` is
one job's operations and an operation is `failed` if it failed in any job;
both depend on the seed alone, not on how many jobs fitted in.  The lines
before it describe the run and its environment, which is also written with
all samples to .bench_build/perfbench/results/.  See README.md for the
workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / ".bench_build" / "perfbench"
PY = sys.executable
JOBS = str(Path(__file__).resolve().parent / "jobs.py")
REFERENCE = str(Path(__file__).resolve().parent / "reference.py")
# median time of reference.py on the machine the benchmark was built on (2 vCPUs
# of an Intel Xeon under KVM); timings are reported at this machine speed
REFERENCE_NOMINAL_S = 0.78
JOB_TIMEOUT_S = 150
MIN_ITERATIONS = 3
SETUP_EVERY = 2
THREAD_VARS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "pass_rate": "ratio"}
PER_LAYER = {
    "solver.nodes": "count", "solver.steps": "count", "solver.node_steps": "count",
    "solver.records": "count", "solver.snapshots": "count",
    "solver.build_grid_s": "s", "solver.solve_n_s": "s", "solver.ns_per_node_step": "ns",
    "solver.step_ns_per_node_step": "ns", "solver.record_us_per_record": "us",
    "solver.self_s": "s",
    "series.eval_v_calls": "count", "series.eval_v_us_per_call": "us",
    "series.eval_n_series_calls": "count", "series.node_terms": "count",
    "series.ns_per_node_term": "ns", "series.truncation_errors": "count", "series.self_s": "s",
    "mellin.inverse_calls": "count", "mellin.contour_nodes": "count",
    "mellin.ns_per_contour_node": "ns", "mellin.quadrature_errors": "count",
    "mellin.asymp_calls": "count", "mellin.asymp_us_per_call": "us", "mellin.self_s": "s",
    "analysis.estimate_period_ms": "ms", "analysis.weak_test_grid_ms": "ms",
    "analysis.weak_test_series_s": "s", "analysis.weak_integrand_evals": "count",
    "analysis.series_probe_ms_per_point": "ms", "analysis.compare_cells": "count",
    "analysis.compare_methods_s": "s", "analysis.self_s": "s",
    "cli.self_s": "s", "cli.csv_bytes": "bytes", "cli.csv_rows": "count",
    "cli.csv_mb_per_s": "MB/s",
    "svg.line_plot_s": "s", "svg.points": "count", "svg.us_per_point": "us",
    "svg.bytes": "bytes", "svg.self_s": "s",
    "model.profile_eval_y_points": "count", "model.profile_eval_y_ns_per_point": "ns",
    "model.density_scalar_calls": "count", "model.self_s": "s",
    "config.self_s": "s",
    "job.self_s": "s", "job.cpu_s": "s", "job.cpu_per_wall": "ratio", "job.fail_rate": "ratio",
    "trace.wall_s": "s", "trace.unattributed_s": "s", "trace.overhead_pct": "%",
}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


@dataclass
class Sample:
    wall_s: float
    cpu_s: float
    rss_mb: float
    exit_code: int


class Runner:
    """Spawns one child at a time and measures it from spawn to exit."""

    def __init__(self):
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0", **THREAD_VARS)
        self.active: int | None = None

    def spawn(self, argv: list[str], cwd: Path, log: Path) -> Sample:
        if self.active is not None:
            raise RuntimeError(f"job {self.active} is still running")
        with open(log, "wb") as out, open(log.with_suffix(".err"), "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=cwd, env=self.env, stdin=subprocess.DEVNULL,
                                    stdout=out, stderr=err)
            self.active = proc.pid
            try:
                status, usage = self._wait(proc.pid)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                self.active = None
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Sample(wall_s=wall, cpu_s=usage.ru_utime + usage.ru_stime,
                      rss_mb=usage.ru_maxrss / 1024.0, exit_code=proc.returncode)

    @staticmethod
    def _wait(pid: int):
        """wait4 for the child's own rusage, killing it after JOB_TIMEOUT_S."""
        fd = os.pidfd_open(pid)
        try:
            ready, _, _ = select.select([fd], [], [], JOB_TIMEOUT_S)
            if not ready:
                signal.pidfd_send_signal(fd, signal.SIGKILL)
        finally:
            os.close(fd)
        _, status, usage = os.wait4(pid, 0)
        return status, usage


def _digests(out_dir: Path, stdout: Path | None) -> dict[str, str]:
    files = sorted(p for p in out_dir.rglob("*") if p.is_file())
    if stdout is not None:
        files.append(stdout)
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in files}


class Workload:
    """Runs and checks the jobs of one workload; identical outputs share one verdict."""

    def __init__(self, name: str, seed: int, runner: Runner):
        self.name, self.seed, self.runner = name, seed, runner
        self.work = BENCH / "work"
        self.out = self.work / "out"
        self.ref: dict[str, str] | None = None
        self.verdicts: dict[tuple, workloads.Verdict] = {}

    def _fresh_out(self) -> None:
        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir(parents=True)

    def setup_probe(self) -> Sample:
        if self.name == "routes-pointwise":
            argv = [PY, JOBS, "routes", str(self.out / "unused.json"), "--seed", str(self.seed),
                    "--setup-only"]
        else:
            argv = [PY, "-c", "import gflab"]
        return self.runner.spawn(argv, self.work, self.work / "setup.log")

    def reference(self) -> Sample:
        sample = self.runner.spawn([PY, REFERENCE], self.work, self.work / "reference.log")
        if sample.exit_code != 0:
            raise RuntimeError(f"reference job exited with {sample.exit_code}")
        return sample

    def job_argv(self, trace_prefix: str | None) -> list[str]:
        if self.name == "routes-pointwise":
            job = ["routes", str(self.out / "result.json"), "--seed", str(self.seed)]
            untraced = [PY, JOBS, *job]
        else:
            job = ["cli", *workloads.CLI_ARGS[self.name], "--out-dir", str(self.out)]
            untraced = [PY, "-m", "gflab", *job[1:]]
        return untraced if trace_prefix is None else [PY, JOBS, "trace", trace_prefix, *job]

    def run(self, trace_prefix: str | None = None) -> tuple[Sample, workloads.Verdict]:
        self._fresh_out()
        log = self.work / "stdout.log"
        sample = self.runner.spawn(self.job_argv(trace_prefix), self.work, log)
        cli = self.name != "routes-pointwise"
        digests = _digests(self.out, log if cli else None)
        key = (sample.exit_code, tuple(sorted(digests.items())))
        if key not in self.verdicts:
            self.verdicts[key] = self._check(sample.exit_code, log)
        verdict = self.verdicts[key].copy()
        if self.ref is None:
            self.ref = digests
        for msg in workloads.check_digests(self.ref, digests):
            verdict.fail(msg)
        return sample, verdict

    def _check(self, exit_code: int, log: Path) -> workloads.Verdict:
        if self.name == "analyze-default":
            return workloads.check_analyze(self.out, log.read_text(encoding="utf-8"), exit_code)
        if self.name == "solve-dense-snapshots":
            return workloads.check_solve(self.out, exit_code)
        result = self.out / "result.json"
        if exit_code != 0 or not result.is_file():
            v = workloads.Verdict(attempted=1)
            v.fail(f"exit code {exit_code}")
            return v
        return workloads.check_routes(result.read_text(encoding="utf-8"), self.seed)

    def csv_totals(self) -> tuple[int, int]:
        files = list(self.out.rglob("*.csv"))
        size = sum(p.stat().st_size for p in files)
        rows = sum(max(0, p.read_bytes().count(b"\n") - 1) for p in files)
        return size, rows


def _median(values) -> float:
    return float(statistics.median(values))


def timed_run(wl: Workload, seconds: float, smoke: bool) -> dict:
    """Closed loop of jobs, each checked, until the next one would end past `seconds`.

    Each iteration runs a set-up probe (every other iteration), the reference
    job and the workload's job.  wall_s and setup_s are the medians of job and
    probe times each divided by the reference time of its iteration, times
    REFERENCE_NOMINAL_S: the machine's speed drifts by tens of per cent within
    minutes with its neighbours' load, and the reference drifts with it
    (README.md).  peak_rss_mb is the median of the jobs' peak RSS.
    """
    if not smoke:
        wl.setup_probe()
        wl.reference()
        wl.run()  # warm-up: page cache, bytecode; later jobs must match its outputs
    setups, jobs, verdicts = [], [], []
    t_start = time.perf_counter()
    while True:
        probe = wl.setup_probe() if len(jobs) % SETUP_EVERY == 0 else None
        ref = wl.reference()
        sample, verdict = wl.run()
        if probe is not None:
            setups.append((probe, ref))
        jobs.append((sample, ref))
        verdicts.append(verdict)
        elapsed = time.perf_counter() - t_start
        if smoke or (len(jobs) >= MIN_ITERATIONS and elapsed * (1 + 1 / len(jobs)) > seconds):
            break
    verdict = workloads.merge(verdicts)

    def scaled(pairs):
        return _median(s.wall_s / ref.wall_s for s, ref in pairs) * REFERENCE_NOMINAL_S

    raw = {"wall_s": _median(s.wall_s for s, _ in jobs),
           "setup_s": _median(s.wall_s for s, _ in setups),
           "reference_s": _median(ref.wall_s for _, ref in jobs)}
    metrics = {
        "wall_s": scaled(jobs),
        "setup_s": scaled(setups),
        "peak_rss_mb": _median(s.rss_mb for s, _ in jobs),
        "pass_rate": 1.0 - verdict.failed / verdict.attempted,
    }
    return {"metrics": metrics, "verdict": verdict, "raw_medians": raw,
            "samples": {"jobs": [vars(s) for s, _ in jobs], "setup": [vars(s) for s, _ in setups],
                        "reference": [vars(ref) for _, ref in jobs]}}


def traced_run(wl: Workload, seconds: float, smoke: bool) -> dict:
    """Alternate untraced and traced jobs; per-layer metrics from the traced ones."""
    import tracer

    if not smoke:
        wl.run()
    calib_path = wl.work / "calibration.json"
    calib = wl.runner.spawn([PY, JOBS, "calibrate", wl.name, str(calib_path)], wl.work,
                            wl.work / "calibrate.log")
    if calib.exit_code != 0:
        raise RuntimeError(f"calibration exited with {calib.exit_code}")
    calibration = json.loads(calib_path.read_text(encoding="utf-8"))
    plain, traced, layer_rows, verdicts = [], [], [], []
    prefix = str(wl.work / "spans")
    t_start = time.perf_counter()
    while True:
        t_it = time.perf_counter()
        sample, verdict = wl.run()
        plain.append(sample)
        verdicts.append(verdict)
        for suffix in (".bin", ".json"):
            Path(prefix + suffix).unlink(missing_ok=True)
        sample, verdict = wl.run(trace_prefix=prefix)
        verdicts.append(verdict)
        if sample.exit_code == 0:
            row = tracer.job_metrics(prefix, sample.wall_s)
            size, rows = wl.csv_totals()
            cli_s = row["cli.self_s"]
            row.update({"cli.csv_bytes": size, "cli.csv_rows": rows,
                        "cli.csv_mb_per_s": size / 1e6 / cli_s if size and cli_s else 0.0})
            traced.append(sample)
            layer_rows.append(row)
        now = time.perf_counter()
        if smoke or (len(plain) >= MIN_ITERATIONS and now - t_start + (now - t_it) > seconds):
            break
    verdict = workloads.merge(verdicts)
    if not traced:
        raise RuntimeError("no traced job exited cleanly")
    # all span metrics from one job, so that its self times add up to its wall
    fastest = min(range(len(traced)), key=lambda i: traced[i].wall_s)
    base = min(plain, key=lambda s: s.wall_s)
    metrics = dict(layer_rows[fastest])
    metrics.update({
        "solver.step_ns_per_node_step": calibration["step_ns_per_node_step"],
        "solver.record_us_per_record": calibration["record_us_per_record"],
        "job.cpu_s": base.cpu_s,
        "job.cpu_per_wall": base.cpu_s / base.wall_s,
        "job.fail_rate": verdict.failed / verdict.attempted,
        "trace.overhead_pct": (traced[fastest].wall_s / base.wall_s - 1.0) * 100.0,
    })
    return {"metrics": metrics, "verdict": verdict, "calibration": calibration,
            "samples": {"plain": [vars(s) for s in plain], "traced": [vars(s) for s in traced],
                        "layers": layer_rows}}


def _git_revision() -> str:
    if not (ROOT / ".git").exists():
        return "unavailable (not a git checkout)"
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                          text=True, check=False)
    return proc.stdout.strip() or "unavailable"


def _source_digest() -> str:
    h = hashlib.sha256()
    for p in sorted((ROOT / "src" / "gflab").glob("*.py")):
        h.update(p.name.encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(args, runner: Runner) -> dict:
    import numpy
    import scipy

    return {
        "workload": args.workload, "seed": args.seed,
        "seed_use": ("draws the (t, x) table" if args.workload == "routes-pointwise"
                     else "unused: fixed CLI config"),
        "seconds": args.seconds, "trace": args.trace, "smoke": args.smoke,
        "git_revision": _git_revision(), "source_sha256": _source_digest(),
        "python": platform.python_version(), "numpy": numpy.__version__, "scipy": scipy.__version__,
        "nproc": os.cpu_count(), "cpu_model": _cpu_model(),
        "thread_env": {k: runner.env[k] for k in THREAD_VARS},
        "loop": "closed, one client, one job at a time",
    }


def preflight(runner: Runner) -> None:
    """Refuse to run without gflab sources in this checkout; compile them once."""
    init = ROOT / "src" / "gflab" / "__init__.py"
    if not init.is_file():
        raise BenchError(f"no gflab sources under {ROOT / 'src'}; run from a gflab checkout")
    BENCH.mkdir(parents=True, exist_ok=True)
    (BENCH / "work").mkdir(exist_ok=True)
    proc = subprocess.run([PY, "-m", "compileall", "-q", str(init.parent)], env=runner.env,
                          capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise BenchError(f"gflab does not compile:\n{proc.stdout}{proc.stderr}")
    proc = subprocess.run([PY, "-c", "import gflab; print(gflab.__file__)"], env=runner.env,
                          cwd=BENCH / "work", capture_output=True, text=True, check=False)
    if proc.returncode != 0 or Path(proc.stdout.strip()).resolve() != init.resolve():
        raise BenchError(f"gflab does not import from {init.parent}:\n{proc.stdout}{proc.stderr}")
    sys.path.insert(0, str(ROOT / "src"))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true", help="one iteration, no warm-up")
    args = ap.parse_args(argv)

    runner = Runner()
    try:
        preflight(runner)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    wl = Workload(args.workload, args.seed, runner)
    run = (traced_run if args.trace else timed_run)(wl, args.seconds, args.smoke)
    verdict = run.pop("verdict")
    failures = sorted(verdict.failures)
    names = PER_LAYER if args.trace else END_TO_END
    result = {
        "correct": not verdict.incorrect,
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "metrics": {name: {"value": run["metrics"][name], "unit": unit} for name, unit in names.items()},
    }
    env = environment(args, runner)
    (BENCH / "results").mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(BENCH / "results" / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump({"environment": env, "result": result, "failures": failures, **run}, fh, indent=1)
    for msg in failures[:20]:
        print(f"failure: {msg}")
    if len(failures) > 20:
        print(f"... {len(failures) - 20} more failure messages in results/{stem}.json")
    if "raw_medians" in run:
        print("unscaled medians: " + json.dumps(run["raw_medians"], sort_keys=True))
    print("environment: " + json.dumps(env, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
