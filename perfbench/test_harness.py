"""Self-tests of the benchmark harness: every check must reject corrupted output.

    python3 -m pytest perfbench        (about a minute; runs real jobs)
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import jobs  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **run.THREAD_VARS)


def _cli(out_dir: Path, *args: str) -> tuple[int, str]:
    proc = subprocess.run([sys.executable, "-m", "gflab", *args, "--out-dir", str(out_dir)],
                          env=ENV, capture_output=True, text=True, check=False)
    return proc.returncode, proc.stdout


def _flip_digit(path: Path, line_no: int, column: int) -> None:
    """Change the first digit of one CSV field (1-based data line, 0-based column)."""
    lines = path.read_text(encoding="utf-8").split("\n")
    fields = lines[line_no].split(",")
    f = fields[column]
    i = next(k for k, ch in enumerate(f) if ch.isdigit() and ch != "0")
    fields[column] = f[:i] + ("1" if f[i] != "1" else "2") + f[i + 1:]
    lines[line_no] = ",".join(fields)
    path.write_text("\n".join(lines), encoding="utf-8")


@pytest.fixture(scope="module")
def analyze_out(tmp_path_factory):
    out = tmp_path_factory.mktemp("analyze")
    code, stdout = _cli(out, *workloads.CLI_ARGS["analyze-default"])
    return out, stdout, code


@pytest.fixture(scope="module")
def solve_out(tmp_path_factory):
    out = tmp_path_factory.mktemp("solve")
    code, _ = _cli(out, *workloads.CLI_ARGS["solve-dense-snapshots"])
    return out, code


@pytest.fixture(scope="module")
def routes_result():
    return jobs.routes_pass(*jobs.routes_setup(seed=1))


def _copy(src: Path, tmp_path: Path) -> Path:
    dst = tmp_path / "out"
    shutil.copytree(src, dst)
    return dst


class TestAnalyzeCheck:
    def test_accepts_real_output(self, analyze_out):
        out, stdout, code = analyze_out
        v = workloads.check_analyze(out, stdout, code)
        assert (v.attempted, v.failed, v.failures, v.incorrect) == (1, 0, [], False)

    def test_rejects_flipped_period_digit(self, analyze_out, tmp_path):
        out, stdout, code = analyze_out
        bad = _copy(out, tmp_path)
        _flip_digit(bad / "periods.csv", 1, 2)
        v = workloads.check_analyze(bad, stdout, code)
        assert v.failed == 1 and v.incorrect and "period" in v.failures[0]

    def test_rejects_flipped_contour_digit(self, analyze_out, tmp_path):
        out, stdout, code = analyze_out
        bad = _copy(out, tmp_path)
        text = (bad / "compare.csv").read_text(encoding="utf-8").split("\n")
        line = next(i for i, s in enumerate(text) if s.startswith("series,mellin"))
        _flip_digit(bad / "compare.csv", line, 5)
        assert workloads.check_analyze(bad, stdout, code).failed == 1

    def test_rejects_nonzero_exit(self, analyze_out):
        out, stdout, _ = analyze_out
        v = workloads.check_analyze(out, stdout, 4)
        assert v.failed == 1 and v.incorrect

    def test_rejects_node_error_over_gate(self, analyze_out):
        out, stdout, code = analyze_out
        bad = stdout.replace("max scaled error", "max scaled error 2e-07 was")
        assert "node" in workloads.check_analyze(out, bad, code).failures[0]


class TestSolveCheck:
    def test_accepts_real_output(self, solve_out):
        v = workloads.check_solve(*solve_out)
        assert (v.attempted, v.failed, v.failures) == (1, 0, [])

    @pytest.mark.parametrize("line_no, column", [(5000, 2), (250000, 2), (250000, 3), (7, 1)])
    def test_rejects_flipped_snapshot_digit(self, solve_out, tmp_path, line_no, column):
        out, code = solve_out
        bad = _copy(out, tmp_path)
        _flip_digit(bad / "snapshots.csv", line_no, column)
        v = workloads.check_solve(bad, code)
        assert v.failed == 1 and v.incorrect

    def test_rejects_nonzero_exit(self, solve_out):
        assert workloads.check_solve(solve_out[0], 3).failed == 1


class TestRoutesCheck:
    def test_refusals_fail_without_being_incorrect(self, routes_result):
        v = workloads.check_routes(json.dumps(routes_result), seed=1)
        refused = [p for p in routes_result["points"] if isinstance(p["contour"], dict)]
        assert v.failed == len(refused) > 0
        assert not v.incorrect
        assert all("raised QuadratureError" in msg for msg in v.failures)

    @pytest.mark.parametrize("key, factor", [("contour", 1 + 1e-5), ("theta", 1 - 1e-5),
                                             ("heaviside", 1 + 1e-8), ("series", 1 + 1e-8)])
    def test_rejects_perturbed_route_value(self, routes_result, key, factor):
        res = json.loads(json.dumps(routes_result))
        base = workloads.check_routes(json.dumps(res), seed=1).failed
        point = next(p for p in res["points"] if isinstance(p["contour"], float))
        point[key] *= factor
        v = workloads.check_routes(json.dumps(res), seed=1)
        assert v.failed > base and v.incorrect

    def test_rejects_perturbed_weak_and_probe(self, routes_result):
        res = json.loads(json.dumps(routes_result))
        res["weak"]["value"] *= 1 + 1e-4
        res["probe"]["values"][3] *= 1 + 1e-7
        v = workloads.check_routes(json.dumps(res), seed=1)
        assert sum("weak" in m for m in v.failures) == 1
        assert sum("probe" in m for m in v.failures) == 1

    def test_rejects_other_seed(self, routes_result):
        v = workloads.check_routes(json.dumps(routes_result), seed=2)
        assert v.incorrect and "does not match the table" in v.failures[0]

    def test_table_is_seeded(self):
        assert workloads.point_table(7) == workloads.point_table(7)
        assert workloads.point_table(7) != workloads.point_table(8)


def test_run_counts_each_operation_once():
    job = workloads.Verdict(attempted=910)
    job.fail("contour raised QuadratureError at t=50.0 y=-1.0", incorrect=False)
    odd = job.copy()
    odd.fail("result.json differs from the first job of the run")
    run = workloads.merge([job, job.copy(), odd, job.copy()])
    assert (run.attempted, run.failed, run.incorrect) == (910, 2, True)
    assert workloads.merge([job, job.copy()]).failed == job.failed == 1


def test_digests_must_match_first_job():
    assert workloads.check_digests({"a.csv": "1"}, {"a.csv": "1"}) == []
    assert workloads.check_digests({"a.csv": "1"}, {"a.csv": "2"}) == [
        "a.csv differs from the first job of the run"]


def _write_spans(prefix: Path, names, rows, counts=()):
    np.asarray(rows, dtype=np.int64).tofile(str(prefix) + ".bin")
    Path(str(prefix) + ".json").write_text(json.dumps(
        {"names": names, "counts": [list(c) for c in counts], "notes": {}}), encoding="utf-8")


class TestTracer:
    def test_self_times_and_remainder_add_up_to_wall(self, tmp_path):
        names = ["job.run", "cli.main", "series.eval_v", "model.profile_eval_y"]
        rows = [[0, 0, 1000, -1, 0],      # root 1000 ns
                [1, 100, 900, 0, 0],      # cli 800 ns, children 500
                [2, 200, 500, 1, 0],      # series 300 ns, child 100
                [3, 300, 400, 2, 7],      # model 100 ns
                [2, 600, 800, 1, 0]]      # series 200 ns
        _write_spans(tmp_path / "s", names, rows)
        m = tracer.job_metrics(str(tmp_path / "s"), wall_s=2e-6)
        assert m["job.self_s"] == pytest.approx(200e-9)
        assert m["cli.self_s"] == pytest.approx(300e-9)
        assert m["series.self_s"] == pytest.approx(400e-9)
        assert m["model.self_s"] == pytest.approx(100e-9)
        assert m["series.eval_v_calls"] == 2
        assert m["model.profile_eval_y_points"] == 7
        layers = sum(v for k, v in m.items() if k.endswith(".self_s"))
        assert layers + m["trace.unattributed_s"] == pytest.approx(2e-6)

    @pytest.mark.parametrize("bad", [[[0, 0, 100, -1, 0], [1, 50, 150, 0, 0]],
                                     [[0, 0, 100, -1, 0], [1, 10, 80, 0, 0], [1, 20, 90, 0, 0]]])
    def test_rejects_improper_nesting(self, tmp_path, bad):
        _write_spans(tmp_path / "s", ["job.run", "series.eval_v"], bad)
        with pytest.raises(tracer.TraceError):
            tracer.job_metrics(str(tmp_path / "s"), wall_s=1e-6)

    def test_wraps_every_binding_and_counts_work(self, tmp_path):
        prefix = tmp_path / "spans"
        out = tmp_path / "values.csv"
        proc = subprocess.run(
            [sys.executable, str(HERE / "jobs.py"), "trace", str(prefix), "cli", "evaluate",
             "--method", "mellin", "--t", "1,5", "--x", "0.25,0.5", "--out", str(out)],
            env=ENV, capture_output=True, text=True, check=False)
        assert proc.returncode == 0, proc.stderr
        m = tracer.job_metrics(str(prefix), wall_s=10.0)
        assert m["mellin.inverse_calls"] == 4
        assert m["mellin.contour_nodes"] > 4 * 1000
        check = ("import sys; sys.path.insert(0, %r); import tracer; tracer.Tracer().install(); "
                 "import gflab; from gflab import analysis, series; "
                 "assert analysis.eval_v is series.eval_v is gflab.eval_v; "
                 "assert series.eval_v.__wrapped__.__module__ == 'gflab.series'" % str(HERE))
        proc = subprocess.run([sys.executable, "-c", check], env=ENV, capture_output=True,
                              text=True, check=False)
        assert proc.returncode == 0, proc.stderr


def test_benchmark_json_matches_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_prints_result_line(workload):
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", "3", "--seconds", "1", "--trace", "0", "--smoke"],
                          capture_output=True, text=True, check=False)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(math.isfinite(m["value"]) and m["value"] > 0 for m in result["metrics"].values())


def test_reference_job_runs_no_gflab_code():
    env = dict(ENV, PYTHONPATH="")
    check = ("import runpy, sys; runpy.run_path(%r, run_name='__main__'); "
             "assert not any(m.startswith('gflab') for m in sys.modules)" % run.REFERENCE)
    proc = subprocess.run([sys.executable, "-c", check], env=env, capture_output=True,
                          text=True, check=False)
    assert proc.returncode == 0, proc.stderr


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "analyze-default",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, check=False, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
