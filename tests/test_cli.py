"""Front end: config round trip, exit codes, CSV/SVG emission, determinism."""

import math
import os
import pathlib
import subprocess
import sys
import xml.etree.ElementTree as ET

import numpy as np
import pytest

import gflab
from gflab import config
from gflab.analysis import LineProbe, estimate_period
from gflab.cli import main
from gflab.errors import DomainError
from gflab.model import LogGaussian, LogHeaviside

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

    def test_point_grid(self, capsys):
        assert main(["evaluate", "--method", "series", "--t", "0.5,1", "--x", "0.4,0.6"]) == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 5

    def test_deterministic_output(self, capsys):
        main(["evaluate", "--method", "series", "--t", "1,2", "--x", "0.3,0.9"])
        first = capsys.readouterr().out
        main(["evaluate", "--method", "series", "--t", "1,2", "--x", "0.3,0.9"])
        assert capsys.readouterr().out == first


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
