"""Front end: config round trip, exit codes, CSV/SVG emission, determinism."""

import math
import os
import pathlib
import re
import subprocess
import sys
import tempfile
import tracemalloc
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gflab
from gflab import analysis, cli, config, series, solver, svg
from gflab.analysis import LineProbe, estimate_period
from gflab.cli import main
from gflab.errors import DomainError
from gflab.model import LogGaussian, LogHeaviside, ModelParams

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"

CONFIG_TEXT = """\
[model]
alpha = 2.0
b = 1.0
g = 0.0
profile = loggaussian mu=0 sigma=0.1 mass=1

[grid]
m = 64
y_min = auto
y_max = auto

[time]
t_end = 30.0
dt = 0.01
snapshots = 1, 5, 10, 30

[probes]
rays = -0.6931471805599453

[output]
directory = out
formats = csv, svg

[analyze]
period_tol = 0.02
asymp_tol = 0.1
"""


DEFAULT_DUMPS = """\
[model]
alpha = 2.0
b = 1.0
g = 0.0
profile = loggaussian mu=0.0 sigma=0.1 mass=1.0

[grid]
m = 64
y_min = auto
y_max = auto

[time]
t_end = 60.0
dt = 0.01
record_every = 1

[probes]

[output]
directory = out
formats = csv, svg

[analyze]
period_tol = 0.02
mass_tol = 1e-06
weak_tol = 0.02
pde_tol = 1e-07
mellin_tol = 1e-06
asymp_tol = 0.1
amp_threshold = 0.001
t_min = 20.0
"""

CONFIG_DUMPS = DEFAULT_DUMPS.replace(
    "t_end = 60.0\ndt = 0.01\n",
    "t_end = 30.0\ndt = 0.01\nsnapshots = 1.0, 5.0, 10.0, 30.0\n").replace(
    "[probes]\n", "[probes]\nrays = -0.6931471805599453\n")


def oracle_csv(header, rows) -> bytes:
    """The per-row writer the block writer replaced: float cells with 17
    significant digits, any other cell by str, the whole text joined at once."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(f"{v:.17g}" if isinstance(v, float) else str(v) for v in row))
    return ("\n".join(lines) + "\n").encode("utf-8")


class TestConfig:
    def test_round_trip_is_identity(self):
        cfg = config.loads(CONFIG_TEXT)
        assert config.loads(config.dumps(cfg)) == cfg

    def test_defaults_round_trip(self):
        cfg = config.RunConfig()
        assert config.loads(config.dumps(cfg)) == cfg

    def test_values_parsed(self):
        cfg = config.loads(CONFIG_TEXT)
        assert cfg.profile == LogGaussian(0.0, 0.1, 1.0)
        assert cfg.t_end == 30.0
        assert cfg.snapshots == (1.0, 5.0, 10.0, 30.0)
        assert cfg.rays == (-0.6931471805599453,)

    def test_unknown_key_rejected(self):
        with pytest.raises(DomainError, match="unknown key"):
            config.loads("[model]\nalpha = 2\nzeta = 3\n")

    def test_unknown_section_rejected(self):
        with pytest.raises(DomainError, match="unknown config section"):
            config.loads("[modle]\nalpha = 2\n")

    def test_component_invariants_revalidated(self):
        with pytest.raises(DomainError):
            config.loads("[model]\nalpha = 0.5\n")
        with pytest.raises(DomainError):
            config.loads("[model]\nprofile = loggaussian mu=0 sigma=-1 mass=1\n")

    def test_dumps_bytes_are_pinned(self):
        # the canonical text as written before the config field table
        assert config.dumps(config.RunConfig()) == DEFAULT_DUMPS
        assert config.dumps(config.loads(CONFIG_TEXT)) == CONFIG_DUMPS

    def test_auto_grid_covers_probe_rays(self):
        cfg = config.loads(CONFIG_TEXT)
        assert cfg.resolved_y_min() <= -0.6931471805599453 * 30.0
        assert cfg.resolved_y_max() >= 1.2


class TestEvaluate:
    def test_initial_value_row(self, capsys):
        assert main(["evaluate", "--method", "series", "--t", "0", "--x", "1"]) == 0
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert lines[0] == "t,x,value,method"
        t, x, value, method = lines[1].split(",")
        assert float(value) == pytest.approx(3.989422804014327, rel=1e-12)
        assert method == "series"

    def test_series_and_mellin_rows_agree(self, capsys):
        assert main(["evaluate", "--method", "series", "--t", "1", "--x", "0.5"]) == 0
        v1 = float(capsys.readouterr().out.strip().splitlines()[1].split(",")[2])
        assert main(["evaluate", "--method", "mellin", "--t", "1", "--x", "0.5"]) == 0
        v2 = float(capsys.readouterr().out.strip().splitlines()[1].split(",")[2])
        assert v2 == pytest.approx(v1, rel=1e-6)

    def test_mellin_rejects_heaviside_with_exit_2(self, capsys):
        code = main(["evaluate", "--method", "mellin",
                     "--profile", "logheaviside a=-0.2 b=0 height=1",
                     "--t", "1", "--x", "0.5"])
        assert code == 2
        assert "decays too slowly" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.parametrize("method", list(analysis.ROUTES))
    def test_overflowing_value_exits_3(self, method, capsys):
        # v(15, 2^-15) is about 4.4e308 at this mass: no route may print inf
        code = main(["evaluate", "--method", method, "--t", "15", "--x", "3.0517578125e-05",
                     "--profile", "loggaussian mu=0 sigma=0.1 mass=1e300"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.err.startswith("numerical guard: ")
        assert "inf" not in captured.out

    def test_point_grid(self, capsys):
        assert main(["evaluate", "--method", "series", "--t", "0.5,1", "--x", "0.4,0.6"]) == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 5

    def test_deterministic_output(self, capsys):
        main(["evaluate", "--method", "series", "--t", "1,2", "--x", "0.3,0.9"])
        first = capsys.readouterr().out
        main(["evaluate", "--method", "series", "--t", "1,2", "--x", "0.3,0.9"])
        assert capsys.readouterr().out == first


class TestRouteTable:
    """evaluate reads u off the route table by the characteristic rescaling."""

    @staticmethod
    def values(capsys, *args):
        assert main(["evaluate", *args]) == 0
        return [line.split(",")[2] for line in capsys.readouterr().out.splitlines()[1:]]

    @pytest.mark.parametrize("method", list(analysis.ROUTES))
    def test_division_rate_rescales_time(self, method, capsys):
        xs = "0.25,0.5,1e-3"
        fast = self.values(capsys, "--method", method, "--b", "2", "--t", "5", "--x", xs)
        slow = self.values(capsys, "--method", method, "--b", "1", "--t", "10", "--x", xs)
        assert fast == slow

    def test_growth_asymptotics_match_direct_derivation(self, capsys):
        # the growth-case theta form as derived directly, before the rescaling, at g = 0.5
        want = [("5", "0.25", 2.9631617361338449), ("10", "1e-3", 3494436.0097525832),
                ("25", "0.5", 173679.02296866526), ("25", "3e-8", 3.490583697972599e+17)]
        for t, x, value in want:
            got = self.values(capsys, "--method", "asymp-theta", "--g", "0.5",
                              "--t", t, "--x", x)
            assert float(got[0]) == pytest.approx(value, rel=1e-13, abs=0.0)

    def test_unknown_method_fails(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["evaluate", "--method", "magic", "--t", "1", "--x", "0.5"])
        assert exc.value.code == 2
        with pytest.raises(DomainError, match="magic"):
            analysis.route_u("magic", ModelParams(), LogGaussian(0.0, 0.1), 1.0, 0.5)


class TestRefusals:
    """Malformed or non-finite numbers, from a flag or the config file, exit 2
    with a message that names the field."""

    @pytest.mark.parametrize("args, config_text, names", [
        (["solve", "--t-end", "inf"], None, "t_end"),
        (["evaluate", "--alpha", "inf", "--method", "series", "--t", "1", "--x", "0.5"],
         None, "alpha"),
        (["solve"], "[time]\nt_end = abc\n", "[time] t_end"),
        (["solve"], "[grid]\nm = 2.5\n", "[grid] m"),
        (["solve"], "[model]\nalpha = x\n", "[model] alpha"),
        (["solve", "--snapshots", "1,abc"], None, "snapshots"),
        (["solve", "--t-end", "nan"], None, "t_end"),
        (["solve", "--y-min", "nan"], None, "y_min"),
        (["solve", "--g", "nan"], None, "g must be finite"),
        (["solve", "--probe-y=-inf"], None, "rays"),
        (["solve", "--t-min", "nan"], None, "t_min"),
        (["evaluate", "--method", "series", "--t", "abc", "--x", "1"], None, "--t"),
        (["evaluate", "--method", "series", "--t", "nan", "--x", "1"], None, "--t"),
        (["evaluate", "--method", "series", "--t", "1", "--x", "inf"], None, "--x"),
        (["compare", "--t", "1,abc"], None, "--t"),
        (["compare", "--x", "0.5,-inf"], None, "--x"),
        (["analyze", "--t-end", "5", "--probe-y", "0"], None, "rays y < 0, got 0.0"),
        (["analyze", "--t-end", "5", "--probe-y=-0.0"], None, "rays y < 0, got -0.0"),
    ])
    def test_exit_2_names_the_field(self, args, config_text, names, tmp_path, capsys):
        extra = ["--out-dir", str(tmp_path / "o")]
        if config_text is not None:
            (tmp_path / "run.cfg").write_text(config_text)
            extra += ["--config", str(tmp_path / "run.cfg")]
        assert main(args + extra) == 2
        assert names in capsys.readouterr().err

    def test_grid_past_the_node_limit(self, tmp_path, capsys, monkeypatch):
        # the limit lowered, so that no run of this test can ask for the 3e9 nodes
        monkeypatch.setattr(solver, "_MAX_NODES", 10**5)
        assert main(["analyze", "--t-end", "5", "--alpha", "1.0000001",
                     "--out-dir", str(tmp_path / "o")]) == 2
        assert ("grid of 3136000157 nodes for alpha = 1.0000001, m = 64 over y in [-3.2, "
                in capsys.readouterr().err)

    def test_snapshot_past_the_horizon(self, tmp_path, capsys):
        assert main(["solve", "--t-end", "5", "--snapshots", "7",
                     "--out-dir", str(tmp_path / "o")]) == 2
        assert "7" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


class TestConfigMerging:
    def test_flags_win_over_config_file(self, tmp_path, capsys):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(CONFIG_TEXT)
        # config says sigma = 0.1; the flag overrides the whole profile line
        assert main(["evaluate", "--config", str(cfg_file),
                     "--profile", "loggaussian mu=0 sigma=0.2 mass=1",
                     "--method", "series", "--t", "0", "--x", "1"]) == 0
        value = float(capsys.readouterr().out.strip().splitlines()[1].split(",")[1 + 1])
        peak_02 = 1.0 / (0.2 * math.sqrt(2.0 * math.pi))
        assert value == pytest.approx(peak_02, rel=1e-12)

    def test_config_file_values_used_without_flags(self, tmp_path, capsys):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(CONFIG_TEXT)
        assert main(["evaluate", "--config", str(cfg_file),
                     "--method", "series", "--t", "0", "--x", "1"]) == 0
        value = float(capsys.readouterr().out.strip().splitlines()[1].split(",")[2])
        assert value == pytest.approx(3.989422804014327, rel=1e-12)

    def test_malformed_config_exits_2(self, tmp_path, capsys):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("[model]\nalpha = 2\nbogus = 1\n")
        assert main(["evaluate", "--config", str(cfg_file),
                     "--method", "series", "--t", "0", "--x", "1"]) == 2
        assert "unknown key" in capsys.readouterr().err


class TestSolve:
    def test_zero_horizon_initial_snapshot(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert main(["solve", "--t-end", "0", "--snapshots", "0",
                     "--out-dir", str(out)]) == 0
        capsys.readouterr()
        text = (out / "snapshots.csv").read_text()
        lines = text.strip().splitlines()
        assert lines[0] == "t,y,n,sqrt_t_n"
        assert all(line.split(",")[0] == "0" for line in lines[1:])

    def test_mass_leak_exits_3(self, tmp_path, capsys):
        code = main(["solve", "--t-end", "30", "--y-min", "-12",
                     "--out-dir", str(tmp_path / "o")])
        assert code == 3
        assert "left grid edge" in capsys.readouterr().err

    def test_leak_in_a_residue_class_right_of_the_first_ten_nodes_exits_3(self, tmp_path, capsys):
        # the diagnostics mass of this run fell from 0.2058 to 0.0044 while the
        # leftmost 10 nodes alone stayed below the threshold
        code = main(["solve", "--profile", "logheaviside a=-0.2 b=0 height=1", "--y-min", "-8",
                     "--t-end", "20", "--snapshots", "20", "--out-dir", str(tmp_path / "o")])
        assert code == 3
        assert "leftmost 64 nodes, one per residue class" in capsys.readouterr().err

    @pytest.mark.parametrize("command, trip", [
        (["analyze"], "0.36"),
        (["compare"], "0.36"),
        (["figures", "--id", "1"], "0.37"),     # a probe figure, on its own profile
        (["figures", "--id", "2"], "0.37"),     # a profile figure, no tracks at all
    ])
    def test_leak_exits_3_whatever_the_command_tracks(self, command, trip, tmp_path, capsys):
        # the run above: commands that record no argmax trip the same monitor
        code = main(command + ["--profile", "logheaviside a=-0.2 b=0 height=1", "--y-min", "-8",
                               "--t-end", "20", "--snapshots", "20",
                               "--out-dir", str(tmp_path / "o")])
        assert code == 3
        err = capsys.readouterr().err
        assert f"left grid edge at t = {trip} " in err
        assert "leftmost 64 nodes, one per residue class" in err

    @pytest.mark.parametrize("command, argmax", [
        (["solve"], True),
        (["analyze"], False),
        (["figures", "--id", "1"], False),
        (["figures", "--id", "2"], False),
        (["compare", "--t", "1"], False),
    ])
    def test_only_solve_records_the_argmax(self, command, argmax, tmp_path, capsys, monkeypatch):
        runs, solve_n = [], solver.solve_n

        def spy(*args, **kwargs):
            runs.append(solve_n(*args, **kwargs))
            return runs[-1]

        monkeypatch.setattr(solver, "solve_n", spy)
        main(command + ["--t-end", "2", "--snapshots", "1,2", "--out-dir", str(tmp_path / "o")])
        capsys.readouterr()
        assert (runs[0].diagnostics.argmax_y is not None) == argmax

    def test_y_min_inside_the_support_exits_2(self, tmp_path, capsys):
        # the fault is the cut initial data, not mass reaching the edge later
        code = main(["solve", "--y-min", "-0.5", "--t-end", "1",
                     "--out-dir", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert "y_min = -0.5" in err and "needs y_min <= -1.2" in err
        assert not (tmp_path / "o").exists()

    def test_byte_identical_reruns(self, tmp_path, capsys):
        args = ["solve", "--t-end", "2", "--snapshots", "1,2", "--record-every", "10"]
        main(args + ["--out-dir", str(tmp_path / "a")])
        main(args + ["--out-dir", str(tmp_path / "b")])
        capsys.readouterr()
        for name in ("snapshots.csv", "diagnostics.csv", "snapshots.svg"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_diagnostics_mass_column(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert main(["solve", "--t-end", "2", "--snapshots", "2",
                     "--out-dir", str(out)]) == 0
        capsys.readouterr()
        rows = (out / "diagnostics.csv").read_text().strip().splitlines()
        assert rows[0].startswith("t,mass,argmax_y")
        masses = [float(r.split(",")[1]) for r in rows[1:]]
        assert max(abs(m - 1.0) for m in masses) < 1e-6


class TestWriters:
    """The block CSV writer and the array-built SVG points against per-row and
    per-point oracles, byte for byte."""

    def test_solve_tables_match_row_oracle(self, tmp_path, capsys, monkeypatch):
        runs, solve_run = [], cli._solve_run

        def spy(*args, **kwargs):
            runs.append(solve_run(*args, **kwargs))
            return runs[-1]

        monkeypatch.setattr(cli, "_solve_run", spy)
        out = tmp_path / "o"
        assert main(["solve", "--t-end", "2", "--snapshots", "0.5,1,2", "--record-every", "10",
                     "--out-dir", str(out)]) == 0
        capsys.readouterr()
        traj = runs[0]
        ys = traj.grid.y_nodes()
        rows = [(float(t), float(y), float(n), math.sqrt(t) * float(n))
                for t, snap in zip(traj.times, traj.snapshots) for y, n in zip(ys, snap)]
        assert (out / "snapshots.csv").read_bytes() == oracle_csv(["t", "y", "n", "sqrt_t_n"], rows)
        diag = traj.diagnostics
        header = ["t", "mass", "argmax_y"] + [f"n_ray={y:.6g}" for y in diag.probes]
        drows = [(float(t), float(diag.mass[i]), float(diag.argmax_y[i]),
                  *[float(diag.probes[y][i]) for y in diag.probes])
                 for i, t in enumerate(diag.times)]
        assert (out / "diagnostics.csv").read_bytes() == oracle_csv(header, drows)

    @pytest.mark.parametrize("profile", ["loggaussian mu=0 sigma=0.1 mass=1",
                                         "loggaussian mu=0 sigma=0.5 mass=1"])
    def test_analyze_tables_match_row_oracle(self, profile, tmp_path, capsys, monkeypatch):
        periods, tables, compare_methods = [], [], analysis.compare_methods

        def period_spy(probe, **kwargs):
            est = estimate_period(probe, **kwargs)
            periods.append((probe.y, kwargs["expected_period"], est.period, est.amplitude,
                            est.confidence, est.n_cycles, est.oscillating))
            return est

        def compare_spy(*args, **kwargs):
            tables.append(compare_methods(*args, **kwargs))
            return tables[-1]

        monkeypatch.setattr(analysis, "estimate_period", period_spy)
        monkeypatch.setattr(analysis, "compare_methods", compare_spy)
        out = tmp_path / "o"
        assert main(["analyze", "--t-end", "40", "--profile", profile,
                     "--out-dir", str(out)]) == 0
        capsys.readouterr()
        header = ["y", "expected", "period", "amplitude", "confidence", "n_cycles", "oscillating"]
        assert (out / "periods.csv").read_bytes() == oracle_csv(header, periods)
        cmp_header = ["method_a", "method_b", "t", "x", "val_a", "val_b", "rel_err"]
        cmp_rows = [(r.method_a, r.method_b, r.t, r.x, r.val_a, r.val_b, r.rel_err)
                    for r in tables[0].rows]
        assert (out / "compare.csv").read_bytes() == oracle_csv(cmp_header, cmp_rows)

    def test_compare_table_with_nan_matches_row_oracle(self, tmp_path, capsys):
        # x = 1.5 lies outside the asymptotic formulas' domain: NaN cells
        tbl = analysis.compare_methods(LogGaussian(0.0, 0.1, 1.0), ModelParams(alpha=2.0),
                                       [20.0], [2.0**-20, 1.5],
                                       methods=["series", "asymp-poisson"])
        cli._write_compare(tmp_path / "compare.csv", tbl)
        capsys.readouterr()
        rows = [(r.method_a, r.method_b, r.t, r.x, r.val_a, r.val_b, r.rel_err) for r in tbl.rows]
        assert any(math.isnan(r[-1]) for r in rows)
        header = ["method_a", "method_b", "t", "x", "val_a", "val_b", "rel_err"]
        assert (tmp_path / "compare.csv").read_bytes() == oracle_csv(header, rows)

    def test_mixed_cells_match_row_oracle(self, tmp_path, capsys):
        header = ["f", "i", "b", "s", "g"]
        rows = [(math.nan, 3, True, "series", np.float64(0.1)),
                (math.inf, -7, np.bool_(False), "pde", -0.0),
                (-math.inf, 10**15, False, "mellin", 5e-324),
                (1.0 / 3.0, 0, True, "x,y", 1e300)]
        cli._write_csv(tmp_path / "mixed.csv", header, [list(zip(*rows))])
        cli._write_csv(tmp_path / "empty.csv", header, [[]])
        capsys.readouterr()
        assert (tmp_path / "mixed.csv").read_bytes() == oracle_csv(header, rows)
        assert (tmp_path / "empty.csv").read_bytes() == oracle_csv(header, [])

    def test_float_runs_match_row_oracle(self, tmp_path, capsys):
        # a run of equal bit patterns is rendered once: runs across the _ROWS
        # boundaries, whole-chunk runs and runs of length 1, -0.0 next to 0.0,
        # runs of nan (two bit patterns), +-inf and subnormals, in a column
        # shared by two blocks as well as in ordinary columns
        assert cli._ROWS == 2048
        rng = np.random.default_rng(5)
        n = 3 * 2048 + 5
        pool = [0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324, -2.5e-310,
                1e-300, 0.1, 1.0 / 3.0, -7.25, 123456789.0, 1e-5, 1e300]
        runs = []
        while sum(map(len, runs)) < n:
            runs.append([pool[rng.integers(len(pool))]] * int(rng.choice([1, 1, 2, 3, 17, 900])))
        mixed = np.concatenate(runs)[:n]
        mixed[2040:2056] = math.inf                 # across the first boundary
        mixed[4090:4100] = 5e-324                   # across the second
        whole = np.r_[np.full(2048, 1.5), np.full(2048, -0.0), rng.random(n - 4096)]
        signed = np.where(np.arange(n) % 3 == 0, -0.0, 0.0)
        nans = np.where(np.arange(n) % 7 < 4, math.nan, -math.inf)
        ints = rng.integers(-5, 5, n).tolist()
        blocks = [[2.0, mixed, whole, signed, ints], [-0.0, mixed, nans, whole[::-1].copy(), ints]]
        header = ["t", "mixed", "a", "b", "i"]
        cli._write_csv(tmp_path / "runs.csv", header, blocks)
        capsys.readouterr()
        rows = [(b[0], *values) for b in blocks
                for values in zip(*(col.tolist() if isinstance(col, np.ndarray) else col
                                    for col in b[1:]))]
        assert (tmp_path / "runs.csv").read_bytes() == oracle_csv(header, rows)

    def test_rows_in_flight_are_bounded(self, tmp_path, capsys):
        # 30 blocks of 10k rows shaped like a snapshot table: 4 float columns,
        # 56-byte cells.  Whole blocks as cells peak at about 6.9 MB; chunks of
        # cli._ROWS = 2048 rows at about 1.4 MB.
        rng = np.random.default_rng(3)
        ys = np.linspace(-40.0, 0.0, 10_000)
        blocks = []
        for k in range(30):
            n = rng.random(10_000) ** 40
            blocks.append([0.5 * (k + 1), ys, n, math.sqrt(0.5 * (k + 1)) * n])
        tracemalloc.start()
        try:
            cli._write_csv(tmp_path / "big.csv", ["t", "y", "n", "sqrt_t_n"], blocks)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        capsys.readouterr()
        assert peak < 2e6, peak
        rows = [(b[0], float(y), float(n), float(s)) for b in blocks[::29]
                for y, n, s in zip(*b[1:])]
        text = (tmp_path / "big.csv").read_bytes().split(b"\n")
        assert (b"\n".join(text[:10_001] + text[-10_001:])
                == oracle_csv(["t", "y", "n", "sqrt_t_n"], rows))

    @pytest.mark.parametrize("method", ["series", "asymp-theta"])
    def test_evaluate_stdout_matches_row_oracle(self, method, capsys):
        ts, xs = [0.5, 1.0, 5.0], [0.25, 0.5, 1e-3]
        assert main(["evaluate", "--method", method, "--t", "0.5,1,5",
                     "--x", "0.25,0.5,1e-3"]) == 0
        cfg = config.RunConfig()

        rows = [(t, x, analysis.route_u(method, cfg.params, cfg.profile, t, x), method)
                for t in ts for x in xs]
        assert capsys.readouterr().out.encode() == oracle_csv(["t", "x", "value", "method"], rows)

    def test_svg_breaks_curves_like_point_oracle(self):
        xs = np.linspace(-2.0, 3.0, 40)
        ys = np.sin(xs)
        ys[[0, 5, 7, 8, 20, 39]] = [np.nan, np.inf, np.nan, -np.inf, np.nan, np.nan]
        xs[30] = np.inf  # leaves isolated finite points at 6 and 31
        ys[32] = np.nan
        curves = [("a", xs, ys), ("b", np.array([0.0, 1.0]), np.array([2.0, -1.0]))]
        doc = ET.fromstring(svg.line_plot(curves).split("\n", 1)[1])
        got = [pl.get("points") for pl in doc.iter("{http://www.w3.org/2000/svg}polyline")]

        ok = [np.isfinite(cx) & np.isfinite(cy) for _, cx, cy in curves]
        fx = np.concatenate([cx[k] for (_, cx, _), k in zip(curves, ok)])
        fy = np.concatenate([cy[k] for (_, _, cy), k in zip(curves, ok)])
        x_lo, x_hi = float(fx.min()), float(fx.max())
        y_lo, y_hi = float(fy.min()), float(fy.max())
        pad = 0.05 * (y_hi - y_lo)
        y_lo, y_hi = y_lo - pad, y_hi + pad
        expected = []
        for (_, cx, cy), keep in zip(curves, ok):
            pts = []
            for k, x, y in zip(keep, cx, cy):
                if k:
                    px = 64 + (float(x) - x_lo) / (x_hi - x_lo) * 640
                    py = 28 + (y_hi - float(y)) / (y_hi - y_lo) * 408
                    pts.append(f"{px:.6g},{py:.6g}")
                    continue
                if len(pts) >= 2:
                    expected.append(" ".join(pts))
                pts = []
            if len(pts) >= 2:
                expected.append(" ".join(pts))
        assert got == expected
        assert len(got) == 5

    def test_svg_runs_and_shared_x_like_point_oracle(self):
        # runs of equal y (and so of equal screen y) are formatted once, and the
        # x text once for consecutive curves with equal finite x: "b" shares
        # "a"'s x, "c" too but with a nan that drops one x, "d" has "c"'s x again
        xs = np.linspace(-2.0, 3.0, 60)
        steps = np.repeat([0.0, 1.5, 1.5, -0.5, 2.0, 0.0], 10)
        holed = steps.copy()
        holed[23] = np.nan
        curves = [("a", xs, steps), ("b", xs, 2.0 * steps), ("c", xs, holed),
                  ("d", xs, holed[::-1].copy()), ("e", xs, np.zeros(60))]
        doc = ET.fromstring(svg.line_plot(curves).split("\n", 1)[1])
        got = [pl.get("points") for pl in doc.iter("{http://www.w3.org/2000/svg}polyline")]
        fy = np.concatenate([cy[np.isfinite(cy)] for _, _, cy in curves])
        pad = 0.05 * (fy.max() - fy.min())
        y_lo, y_hi = float(fy.min()) - pad, float(fy.max()) + pad
        expected = []
        for _, cx, cy in curves:
            pts = []
            for x, y in zip(cx.tolist(), cy.tolist()):
                if math.isfinite(y):
                    px = 64 + (x + 2.0) / 5.0 * 640
                    py = 28 + (y_hi - y) / (y_hi - y_lo) * 408
                    pts.append(f"{px:.6g},{py:.6g}")
                    continue
                expected.append(" ".join(pts))
                pts = []
            expected.append(" ".join(pts))
        assert got == expected
        assert len(got) == 7

    def test_profile_figure_and_solve_share_one_writer(self, tmp_path, capsys):
        ladder = ["--t-end", "2", "--snapshots", "0.5,1,2"]
        assert main(["figures", "--id", "9", *ladder, "--out-dir", str(tmp_path / "f")]) == 0
        assert main(["solve", "--profile", "logheaviside a=-1 b=0 height=1", *ladder,
                     "--out-dir", str(tmp_path / "s")]) == 0
        capsys.readouterr()
        for fig, snap in (("figure9.csv", "snapshots.csv"), ("figure9.svg", "snapshots.svg")):
            assert (tmp_path / "f" / fig).read_bytes() == (tmp_path / "s" / snap).read_bytes()


class TestFigures:
    def test_unknown_id_exits_2(self, tmp_path, capsys):
        assert main(["figures", "--id", "10", "--out-dir", str(tmp_path)]) == 2
        assert "unknown figure id" in capsys.readouterr().err

    def test_probe_figure_periods(self, tmp_path, capsys):
        out = tmp_path / "fig"
        assert main(["figures", "--id", "1", "--t-end", "40",
                     "--out-dir", str(out)]) == 0
        capsys.readouterr()
        rows = (out / "figure1.csv").read_text().strip().splitlines()
        header = rows[0].split(",")
        assert header[0] == "t"
        data = np.array([[float(v) for v in r.split(",")] for r in rows[1:]])
        window = (data[:, 0] >= 20.0) & (data[:, 0] <= 40.0)
        expected = {"f_y=-1.38629": 0.5, "f_y=-0.693147": 1.0, "f_y=-0.346574": 2.0}
        for col, name in enumerate(header[1:], start=1):
            probe = LineProbe(y=-1.0, times=data[window, 0], values=data[window, col])
            est = estimate_period(probe, expected_period=expected[name])
            assert est.oscillating
            assert abs(est.period - expected[name]) / expected[name] < 0.02
        ET.parse(out / "figure1.svg")  # valid XML

    def test_profile_figure_columns(self, tmp_path, capsys):
        out = tmp_path / "fig"
        assert main(["figures", "--id", "7", "--t-end", "10", "--snapshots", "5,10",
                     "--out-dir", str(out)]) == 0
        capsys.readouterr()
        rows = (out / "figure7.csv").read_text().strip().splitlines()
        assert rows[0] == "t,y,n,sqrt_t_n"
        t, y, n, stn = (float(v) for v in rows[1].split(","))
        assert stn == pytest.approx(math.sqrt(t) * n, rel=1e-15)
        ET.parse(out / "figure7.svg")

    def test_heaviside_figure_oscillates(self, tmp_path, capsys):
        out = tmp_path / "fig"
        assert main(["figures", "--id", "8", "--t-end", "30",
                     "--out-dir", str(out)]) == 0
        capsys.readouterr()
        rows = (out / "figure8.csv").read_text().strip().splitlines()
        data = np.array([[float(v) for v in r.split(",")] for r in rows[1:]])
        window = (data[:, 0] >= 20.0) & (data[:, 0] <= 30.0)
        probe = LineProbe(y=-1.0, times=data[window, 0], values=data[window, 1])
        est = estimate_period(probe, expected_period=1.0)
        assert est.oscillating and est.amplitude > 1e-3


class TestCompare:
    def test_compare_writes_table_and_summary(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert main(["compare", "--t", "1,5", "--x", "0.25,0.5",
                     "--out-dir", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "pairwise max relative errors" in stdout
        rows = (out / "compare.csv").read_text().strip().splitlines()
        assert rows[0] == "method_a,method_b,t,x,val_a,val_b,rel_err"
        assert len(rows) > 1


class TestAnalyze:
    def test_default_run_passes(self, tmp_path, capsys):
        assert main(["analyze", "--t-end", "40", "--out-dir", str(tmp_path / "o")]) == 0
        out = capsys.readouterr().out
        assert "all checks passed" in out
        assert (tmp_path / "o" / "periods.csv").exists()
        assert (tmp_path / "o" / "compare.csv").exists()

    def test_weak_line_fits_at_any_mass(self, tmp_path, capsys):
        # six significant digits, not six decimals: 7.64653e+299 at mass 1e300
        assert main(["analyze", "--t-end", "40", "--out-dir", str(tmp_path / "big"),
                     "--profile", "loggaussian mu=0 sigma=0.1 mass=1e300"]) == 0
        weak = [line for line in capsys.readouterr().out.splitlines() if line.startswith("weak")]
        assert len(weak) == 1 and len(weak[0]) <= 120, weak
        assert main(["analyze", "--out-dir", str(tmp_path / "default")]) == 0
        assert ("weak cos functional at t=60: 0.766174 (limit 0.769239, rel err 3.98e-03)"
                in capsys.readouterr().out.splitlines())

    def test_tampered_tolerance_exits_4(self, tmp_path, capsys):
        code = main(["analyze", "--t-end", "40", "--asymp-tol", "1e-12",
                     "--out-dir", str(tmp_path / "o")])
        assert code == 4
        assert "asymptotics violated" in capsys.readouterr().err

    def test_wide_gaussian_reports_no_oscillation(self, tmp_path, capsys):
        code = main(["analyze", "--t-end", "40",
                     "--profile", "loggaussian mu=0 sigma=0.5 mass=1",
                     "--out-dir", str(tmp_path / "o")])
        out = capsys.readouterr().out
        assert code == 0
        assert "no oscillation" in out

    def test_period_law_flag_override(self, tmp_path, capsys):
        code = main(["analyze", "--t-end", "40", "--probe-y", "-0.6931471805599453",
                     "--alpha", "2", "--out-dir", str(tmp_path / "o")])
        out = capsys.readouterr().out
        assert code == 0
        assert "period 1.00" in out or "period 0.99" in out

    def test_record_every_gives_uniform_probes(self, tmp_path, capsys):
        # records follow the step clock, so a coarser record stride still
        # samples uniformly; the unit ray has 33 samples per cycle at 3 * dt
        code = main(["analyze", "--record-every", "3", "--probe-y", "-0.6931471805599453",
                     "--out-dir", str(tmp_path / "o")])
        assert code == 0
        assert "all checks passed" in capsys.readouterr().out

    def test_snapshots_between_steps_keep_probes_uniform(self, tmp_path, capsys):
        # dt = 0.03 does not divide 1, 5, 10 or 25; records stay on the step clock
        code = main(["analyze", "--t-end", "30", "--dt", "0.03",
                     "--probe-y", "-0.6931471805599453", "--snapshots", "1,5,10,25,30",
                     "--out-dir", str(tmp_path / "o")])
        assert code == 0
        assert "all checks passed" in capsys.readouterr().out

    def test_contour_agrees_with_series_at_late_times(self, tmp_path, capsys):
        # at t = 60 the comparison points x = 0.25, 0.5, 0.75 hold values down
        # to 1e-21, which the contour on the line nu = 2 could not resolve
        code = main(["analyze", "--t-end", "60", "--snapshots", "60",
                     "--out-dir", str(tmp_path / "o")])
        captured = capsys.readouterr()
        assert code == 0, captured.err
        assert "all checks passed" in captured.out

    @pytest.mark.parametrize("argv, config_text, check", [
        (["--period-tol", "1e-9"], None, "period law violated on ray"),
        (["--mass-tol", "1e-20"], None, "mass conservation violated"),
        (["--weak-tol", "1e-9"], None, "weak limit violated"),
        ([], "[analyze]\npde_tol = 1e-20\n", "series vs solver mismatch"),
        ([], "[analyze]\nmellin_tol = 1e-20\n", "series vs contour inversion mismatch"),
    ], ids=["period_tol", "mass_tol", "weak_tol", "pde_tol", "mellin_tol"])
    def test_each_threshold_exits_4_naming_its_check(self, tmp_path, capsys,
                                                      argv, config_text, check):
        if config_text is not None:
            (tmp_path / "run.cfg").write_text(config_text)
            argv = argv + ["--config", str(tmp_path / "run.cfg")]
        assert main(["analyze", "--t-end", "40", *argv, "--out-dir", str(tmp_path / "o")]) == 4
        err = capsys.readouterr().err
        assert err.startswith("check failed: ")
        violations = err.removeprefix("check failed: ").rstrip("\n").split("; ")
        assert all(v.startswith(check) for v in violations), err

    def test_asymptotics_verdict_does_not_depend_on_the_mass(self, tmp_path, capsys):
        # at mass 1e300 v itself overflows to inf; the check runs at unit mass
        codes, lines = [], set()
        for mass in ("1", "1e300"):
            for tol in ("0.1", "1e-12"):
                codes.append(main(["analyze", "--t-end", "40", "--asymp-tol", tol,
                                   "--profile", f"loggaussian mu=0 sigma=0.1 mass={mass}",
                                   "--out-dir", str(tmp_path / "o")]))
                lines |= {line for line in capsys.readouterr().out.splitlines()
                          if line.startswith("asymptotic relative error")}
        assert codes == [0, 4, 0, 4]
        assert len(lines) == 1 and "nan" not in lines.pop()

    def test_flagged_route_cells_fail(self, tmp_path, capsys):
        # at m = 8 the solver's off-node values miss the pde pair tolerance 2e-3
        assert main(["analyze", "--t-end", "40", "--m", "8",
                     "--out-dir", str(tmp_path / "o")]) == 4
        captured = capsys.readouterr()
        assert "6 cell(s) above tolerance" in captured.out
        assert "all checks passed" not in captured.out
        assert captured.err == ("check failed: series vs pde mismatch 6.758e-01 > 0.002; "
                                "pde vs mellin mismatch 6.758e-01 > 0.002\n")

    def test_nan_node_error_fails(self, tmp_path, capsys, monkeypatch):
        # a NaN at one comparison time must not be dropped by the maximum over times
        eval_n_series = series.eval_n_series
        monkeypatch.setattr(series, "eval_n_series", lambda p, alpha, t, ys: (
            np.full_like(ys, np.nan) if t == 5.0 else eval_n_series(p, alpha, t, ys)))
        assert main(["analyze", "--t-end", "40", "--out-dir", str(tmp_path / "o")]) == 4
        captured = capsys.readouterr()
        assert "max scaled error nan" in captured.out
        assert captured.err == "check failed: series vs solver mismatch nan > 1e-07\n"

    def test_unevaluable_route_pair_only_reports(self, tmp_path, capsys, monkeypatch):
        def refuse(*args):
            raise DomainError("contour refused")
        monkeypatch.setattr(analysis, "inverse_mellin_v", refuse)
        assert main(["analyze", "--t-end", "40", "--out-dir", str(tmp_path / "o")]) == 0
        out = capsys.readouterr().out
        assert "  series vs mellin: nan" in out and "  pde vs mellin: nan" in out
        assert "all checks passed" in out

    def test_record_every_too_coarse_names_the_sampling(self, tmp_path, capsys):
        # the default fast ray has period 0.5: 16.7 samples per cycle at 3 * dt
        code = main(["analyze", "--record-every", "3", "--out-dir", str(tmp_path / "o")])
        assert code == 2
        assert "sampling too coarse: 16.7 samples per expected cycle" in capsys.readouterr().err


class TestImportCost:
    def test_package_import_leaves_scipy_unloaded(self):
        code = "import sys, gflab; sys.exit('scipy' in sys.modules)"
        env = {**os.environ, "PYTHONPATH": str(pathlib.Path(gflab.__file__).resolve().parents[1])}
        assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0

    def test_every_command_runs_without_scipy(self, tmp_path):
        # scipy is a test-only dependency: with its import blocked, every route of
        # evaluate, compare, a probe figure, analyze and the README sketch still run
        sketch = re.search(r"## Library sketch\n.*?```python\n(.*?)```",
                           README.read_text(encoding="utf-8"), re.S).group(1)
        code = ("import sys\n"
                "sys.modules['scipy'] = None\n"
                "from gflab import analysis\n"
                "from gflab.cli import main\n"
                "out = sys.argv[1]\n"
                "codes = [main(['evaluate', '--method', m, '--t', '1', '--x', '0.5'])\n"
                "         for m in analysis.ROUTES]\n"
                "codes += [main([cmd, *extra, '--out-dir', out]) for cmd, *extra in\n"
                "          (['compare'], ['figures', '--id', '1'], ['analyze'])]\n"
                "exec(sys.argv[2])\n"
                "print(codes)\n")
        env = {**os.environ, "PYTHONPATH": str(pathlib.Path(gflab.__file__).resolve().parents[1])}
        run = subprocess.run([sys.executable, "-c", code, str(tmp_path), sketch], env=env,
                             capture_output=True, text=True)
        assert run.returncode == 0, run.stderr
        assert run.stdout.splitlines()[-1] == str([0] * (len(analysis.ROUTES) + 3))

    def test_cli_import_leaves_xml_unloaded(self):
        # the SVG writer writes its elements as text
        code = "import sys, gflab.cli; sys.exit(any(m.startswith('xml') for m in sys.modules))"
        env = {**os.environ, "PYTHONPATH": str(pathlib.Path(gflab.__file__).resolve().parents[1])}
        assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


_PROFILES = st.one_of(
    st.builds("loggaussian mu={!r} sigma={!r} mass={!r}".format,
              st.floats(-1.0, 1.0), st.floats(0.05, 1.0), st.floats(0.1, 10.0)),
    st.builds(lambda a, w, h: f"logheaviside a={a!r} b={a + w!r} height={h!r}",
              st.floats(-2.0, 0.0), st.floats(0.05, 2.0), st.floats(0.1, 10.0)),
    st.builds("dirac x0={!r} weight={!r}".format, st.floats(0.2, 5.0), st.floats(0.1, 10.0)))


@st.composite
def cli_argv(draw):
    """A command line with a small horizon and grid; the default formats write
    both csv and svg."""
    command = draw(st.sampled_from(["solve", "figures", "analyze", "compare"]))
    argv = [command, "--profile", draw(_PROFILES),
            "--alpha", repr(draw(st.floats(1.2, 4.0))),
            "--m", str(draw(st.sampled_from([1, 2, 4, 8]))),
            "--t-end", repr(draw(st.floats(0.0, 2.5))),
            "--dt", repr(draw(st.floats(1e-3, 0.7))),
            "--record-every", str(draw(st.integers(1, 5)))]
    if draw(st.booleans()):
        times = draw(st.lists(st.floats(0.0, 2.5), min_size=1, max_size=4))
        argv += ["--snapshots", ",".join(map(repr, times))]
    if draw(st.booleans()):
        argv.append(f"--y-min={draw(st.floats(-40.0, 0.0))!r}")
    if draw(st.booleans()):
        argv.append(f"--probe-y={draw(st.floats(-3.0, -0.05))!r}")
    if draw(st.booleans()):
        argv += ["--t-min", repr(draw(st.floats(0.0, 2.5)))]
    if command == "figures":
        argv += ["--id", str(draw(st.integers(1, 11)))]
    return argv


class TestRandomConfigs:
    @settings(max_examples=80, deadline=None)
    @given(argv=cli_argv())
    def test_exit_code_and_valid_svg(self, argv):
        # a config works (0), names its fault (2), trips a numerical guard (3)
        # or fails a check (4); it never ends in a traceback
        with tempfile.TemporaryDirectory() as out:
            assert main([*argv, "--out-dir", out]) in (0, 2, 3, 4)
            for path in pathlib.Path(out).glob("*.svg"):
                ET.parse(path)
