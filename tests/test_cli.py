"""Front end: config round trip, exit codes, CSV/SVG emission, determinism."""

import copy
import gc
import math
import os
import pathlib
import pickle
import re
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gflab
from conftest import run_solver
from gflab import analysis, cli, config, g17, series, solver, svg
from gflab.analysis import LineProbe, estimate_period
from gflab.cli import main
from gflab.errors import DomainError, QuadratureError
from gflab.model import LogGaussian, LogHeaviside, ModelParams

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"
DATA = pathlib.Path(__file__).resolve().parent / "data"
DIRAC = "dirac x0=1 weight=1"

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

[analyze]
t_min = 20.0
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

[analyze]
t_min = 20.0
"""

# the config keys each command reads, in config.FIELDS order, and their flags
READS = {
    "evaluate": ["alpha", "b", "g", "profile"],
    "solve": ["alpha", "b", "g", "profile", "m", "y_min", "y_max", "t_end", "dt", "snapshots",
              "record_every", "rays", "directory"],
    "figures": ["alpha", "b", "g", "m", "y_min", "y_max", "t_end", "dt", "snapshots",
                "record_every", "rays", "directory"],
    "analyze": [key for _, key, *_ in config.FIELDS],
    "compare": ["alpha", "b", "g", "profile", "m", "y_min", "y_max", "dt", "rays", "directory"],
}
FLAGS = {key: {"rays": "--probe-y", "directory": "--out-dir"}.get(key, "--" + key.replace("_", "-"))
         for _, key, *_ in config.FIELDS}

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

    def test_written_file_loads_back(self, tmp_path):
        for cfg in (config.RunConfig(), config.loads(CONFIG_TEXT)):
            (tmp_path / "run.cfg").write_text(config.dumps(cfg), encoding="utf-8")
            assert config.load(str(tmp_path / "run.cfg")) == cfg


# the default config's repr, as the dataclass wrote it
DEFAULT_REPR = (
    "RunConfig(profile=LogGaussian(mu=0.0, sigma=0.1, mass=1.0), "
    "params=ModelParams(g=0.0, b=1.0, alpha=2.0), m=64, y_min=None, y_max=None, t_end=60.0, "
    "dt=0.01, snapshots=(), record_every=1, rays=(), directory='out', t_min=20.0)")


class TestRunConfigValue:
    """RunConfig behaves as the frozen dataclass it was: fields, order, defaults,
    equality, hash, repr, copies, pickles and its refusals."""

    FIELDS = ("profile", "params", "m", "y_min", "y_max", "t_end", "dt", "snapshots",
              "record_every", "rays", "directory", "t_min")

    def test_fields_cannot_be_assigned(self):
        cfg = config.RunConfig()
        for name in self.FIELDS:
            with pytest.raises(AttributeError):
                setattr(cfg, name, 3.0)
        assert cfg == config.RunConfig()

    def test_equal_fields_give_equal_objects_and_hashes(self):
        a, b = config.loads(CONFIG_TEXT), config.loads(CONFIG_TEXT)
        assert a is not b and a == b and not a != b and hash(a) == hash(b)
        assert a != config.loads(CONFIG_TEXT.replace("t_end = 30.0", "t_end = 30.5"))
        assert a != config.RunConfig()
        assert config.RunConfig() != tuple(getattr(config.RunConfig(), f) for f in self.FIELDS)

    def test_repr_is_the_dataclass_text(self):
        assert repr(config.RunConfig()) == DEFAULT_REPR

    def test_copies_and_pickles_are_equal(self):
        cfg = config.loads(CONFIG_TEXT)
        for other in (copy.copy(cfg), copy.deepcopy(cfg), pickle.loads(pickle.dumps(cfg))):
            assert type(other) is config.RunConfig and other == cfg and repr(other) == repr(cfg)

    def test_positional_and_keyword_construction_agree(self):
        cfg = config.loads(CONFIG_TEXT)
        values = [getattr(cfg, f) for f in self.FIELDS]
        assert config.RunConfig(*values) == config.RunConfig(**dict(zip(self.FIELDS, values))) == cfg
        assert config.RunConfig(LogGaussian(0.0, 0.1), ModelParams(), 32) == config.RunConfig(m=32)

    @pytest.mark.parametrize("changes, message", [
        ({"m": 0}, "grid cells per log(alpha) must be >= 1, got 0"),
        ({"t_end": -1.0}, "horizon must be nonnegative, got -1.0"),
        ({"dt": 0.0}, "step size must be positive, got 0.0"),
        ({"record_every": 0}, "record_every must be >= 1, got 0"),
        ({"t_end": math.inf}, "t_end must be finite, got inf"),
        ({"y_min": -math.inf}, "y_min must be finite, got -inf"),
        ({"t_min": math.inf}, "t_min must be finite, got inf"),
        ({"y_max": math.nan}, "y_max must be finite, got nan"),
        ({"snapshots": (1.0, math.inf)}, "snapshots must be finite, got (1.0, inf)"),
        ({"rays": (-math.inf,)}, "rays must be finite, got (-inf,)"),
    ])
    def test_refusals_keep_their_messages(self, changes, message):
        with pytest.raises(DomainError) as exc:
            config.RunConfig(**changes)
        assert str(exc.value) == message

    def test_replace_changes_fields_and_validates(self):
        cfg = config.RunConfig()
        assert cfg._replace(t_end=5.0, snapshots=(1.0,)) == config.RunConfig(t_end=5.0,
                                                                             snapshots=(1.0,))
        assert cfg == config.RunConfig()
        with pytest.raises(DomainError, match="step size must be positive, got 0.0"):
            cfg._replace(dt=0.0)
        with pytest.raises(TypeError):
            cfg._replace(formats="csv")


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

    @pytest.mark.parametrize("profile, t, x, want", [
        ("logheaviside a=-1 b=0 height=1", "10", "0.0009765625", 2),
        ("dirac x0=1 weight=1", "10", "0.0009765625", 2),
        ("loggaussian mu=0 sigma=0.01 mass=1", "25", repr(math.exp(-20.0)), 3),
    ])
    def test_theta_refusals_exit_codes(self, profile, t, x, want, capsys):
        code = main(["evaluate", "--method", "asymp-theta", "--profile", profile,
                     "--t", t, "--x", x])
        assert code == want
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("method", list(analysis.ROUTES))
    def test_overflowing_value_exits_3(self, method, capsys):
        # v(15, 2^-15) is about 4.4e308 at this mass: no route may print inf
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["evaluate", "--method", method, "--t", "15", "--x", "3.0517578125e-05",
                         "--profile", "loggaussian mu=0 sigma=0.1 mass=1e300"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.err.startswith("numerical guard: ")
        assert "v(15, 3.05176e-05) = inf is not finite" in captured.err
        assert "inf" not in captured.out
        # the guard line alone: no numpy overflow warning before it
        assert len(captured.err.splitlines()) == 1
        assert not caught

    @pytest.mark.parametrize("t, terms, bound",
                             [("3000", 12848, None), ("2400", 10359, "2.565e-05")],
                             ids=["bulk-past-cap", "tail-past-cap"])
    def test_series_past_its_term_cap_exits_3(self, t, terms, bound, capsys):
        # lam = alpha^2 t: at t = 3000 the Poisson bulk lies past the cap, and the
        # tail bound the message reports is a tail probability, so at most 1
        assert main(["evaluate", "--method", "series", "--t", t, "--x", "0.5"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"series needs {terms} terms but the cap is 10000" in captured.err
        achieved = re.search(r"achieved tail bound (\S+)\)$", captured.err.strip()).group(1)
        assert float(achieved) <= 1.0
        if bound is not None:
            assert achieved == bound

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
        (["analyze", "--t-min", "nan"], None, "t_min"),
        (["evaluate", "--method", "series", "--t", "abc", "--x", "1"], None, "--t"),
        (["evaluate", "--method", "series", "--t", "nan", "--x", "1"], None, "--t"),
        (["evaluate", "--method", "series", "--t", "1", "--x", "inf"], None, "--x"),
        (["compare", "--t", "1,abc"], None, "--t"),
        (["compare", "--x", "0.5,-inf"], None, "--x"),
        (["analyze", "--t-end", "5", "--probe-y", "0"], None, "rays y < 0, got 0.0"),
        (["analyze", "--t-end", "5", "--probe-y=-0.0"], None, "rays y < 0, got -0.0"),
        (["solve"], "[output]\nformats = csv\n", "unknown key 'formats' in section [output]"),
        (["solve", "--b", "2"], None, "got b = 2.0, g = 0.0"),
        (["analyze", "--g", "0.5"], None, "got b = 1.0, g = 0.5"),
        (["figures", "--id", "1"], "[model]\ng = 0.5\n", "got b = 1.0, g = 0.5"),
        (["figures", "--id", "1", "--t-end", "5", "--probe-y", "0"], None, "rays y < 0, got 0.0"),
        (["compare", "--t", "-1"], None, "--t needs times >= 0, got '-1'"),
        (["compare", "--t=-1,5"], None, "--t needs times >= 0, got '-1,5'"),
        (["compare", "--t", "1", "--x", "0"], None, "--x needs sizes > 0, got '0'"),
        (["compare", "--x=-1,0.5"], None, "--x needs sizes > 0, got '-1,0.5'"),
        (["analyze", "--snapshots", "0"], None, "snapshots, which must be at t > 0, got 0.0"),
        (["solve", "--m", "0"], None, "grid cells per log(alpha) must be >= 1, got 0"),
        (["solve", "--t-end", "-1"], None, "horizon must be nonnegative"),
        (["solve", "--dt", "0"], None, "step size must be positive"),
        (["solve", "--record-every", "0"], None, "record_every must be >= 1"),
        (["analyze"], "[analyze]\nweak_tol = 0\n", "unknown key 'weak_tol' in section [analyze]"),
        (["solve", "--profile", ""], None, "empty profile specification"),
        (["solve", "--profile", "loggaussian mu=0 sigma=0.1 mass=0"], None, "must be positive"),
        (["solve", "--profile", "logheaviside a=-1 b=0 height=0"], None, "must be positive"),
        (["solve", "--y-min", "5"], None, "empty grid domain"),
        (["solve"], "[grid\nm = 64\n", "malformed config"),
        # dirac data: only the library's series.support_set takes it
        (["evaluate", "--method", "series", "--t", "1", "--x", "0.5", "--profile", DIRAC], None,
         "dirac initial data is measure-valued"),
        (["evaluate", "--method", "mellin", "--t", "1", "--x", "0.5", "--profile", DIRAC], None,
         "requires a log-gaussian profile, got Dirac"),
        (["evaluate", "--method", "asymp-poisson", "--t", "1", "--x", "0.5", "--profile", DIRAC],
         None, "dirac initial data has no pointwise density"),
        (["solve", "--profile", DIRAC], None, "dirac initial data cannot be sampled on a grid"),
        (["analyze", "--profile", DIRAC], None, "dirac initial data cannot be sampled on a grid"),
        (["compare", "--profile", DIRAC], None, "dirac initial data cannot be sampled on a grid"),
        # the period-2 ray needs 3 periods to detrend over and 3 more to measure
        (["analyze", "--t-end", "8", "--t-min", "2"], None,
         "window too short: [2, 8] leaves 0.00 cycles of the expected period 2"),
        # a --config file that cannot be read as text
        (["solve", "--config", str(DATA / "missing.cfg")], None,
         "missing.cfg': No such file or directory"),
        (["solve", "--config", str(DATA)], None, "data': Is a directory"),
        (["solve", "--config", str(DATA / "latin1.cfg")], None,
         "latin1.cfg': not UTF-8 text ('utf-8' codec can't decode byte 0xe9"),
    ])
    def test_exit_2_names_the_field(self, args, config_text, names, tmp_path, capsys):
        extra = ["--out-dir", str(tmp_path / "o")] if "directory" in READS[args[0]] else []
        if config_text is not None:
            (tmp_path / "run.cfg").write_text(config_text)
            extra += ["--config", str(tmp_path / "run.cfg")]
        assert main(args + extra) == 2
        assert names in capsys.readouterr().err

    @pytest.mark.parametrize("path, reason", [
        (DATA / "missing.cfg", "No such file or directory"),
        (DATA, "Is a directory"),
        (DATA / "latin1.cfg", "not UTF-8 text ("),
    ], ids=["missing", "directory", "latin1"])
    def test_unreadable_config_file_writes_nothing(self, path, reason, tmp_path, capsys):
        assert main(["solve", "--config", str(path), "--out-dir", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith(
            f"error: cannot read config file {str(path)!r}: {reason}")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("args, flag", [
        (["figures", "--id", "1", "--profile", DIRAC], "--profile"),
        (["compare", "--t-end", "3"], "--t-end"),
        (["compare", "--snapshots", "2"], "--snapshots"),
    ])
    def test_flags_a_command_sets_itself_are_refused(self, args, flag, tmp_path, capsys):
        # the command would overwrite the flag's value, so it has no such flag;
        # from a shared config file the same key is accepted (and overwritten)
        with pytest.raises(SystemExit) as exc:
            main(args + ["--t-end", "2"] * (args[0] == "figures")
                 + ["--out-dir", str(tmp_path / "o")])
        assert exc.value.code == 2
        assert f"error: unrecognized arguments: {flag} " in capsys.readouterr().err
        assert not (tmp_path / "o").exists()
        key = {"--profile": "[model]\nprofile", "--t-end": "[time]\nt_end",
               "--snapshots": "[time]\nsnapshots"}[flag]
        (tmp_path / "run.cfg").write_text(f"{key} = {args[-1]}\n")
        assert main(args[:-2] + ["--t-end", "2"] * (args[0] == "figures")
                    + ["--config", str(tmp_path / "run.cfg"), "--out-dir", str(tmp_path / "o")]) == 0
        capsys.readouterr()

    @pytest.mark.parametrize("key", ["period_tol", "mass_tol", "weak_tol", "pde_tol",
                                     "mellin_tol", "asymp_tol", "amp_threshold"])
    def test_gates_are_neither_flags_nor_config_keys(self, key, tmp_path, capsys):
        # analyze's gates are constants of gflab.analysis, which no input sets
        flag = "--" + key.replace("_", "-")
        with pytest.raises(SystemExit) as exc:
            main(["analyze", flag, "0.02", "--out-dir", str(tmp_path / "o")])
        assert exc.value.code == 2
        assert f"error: unrecognized arguments: {flag} 0.02\n" in capsys.readouterr().err
        (tmp_path / "run.cfg").write_text(f"[analyze]\n{key} = 0.02\n")
        assert main(["analyze", "--config", str(tmp_path / "run.cfg"),
                     "--out-dir", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == f"error: unknown key '{key}' in section [analyze]\n"
        assert not (tmp_path / "o").exists()

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

    def test_every_config_key_has_its_flag(self):
        # a value other than the default for every config key, as config-file text
        texts = {
            "alpha": "3.0", "b": "2.0", "g": "0.5", "profile": "logheaviside a=-1 b=0 height=1",
            "m": "32", "y_min": "-50.0", "y_max": "2.5", "t_end": "30.0", "dt": "0.02",
            "snapshots": "1.0, 2.5", "record_every": "3", "rays": "-0.5", "directory": "elsewhere",
            "t_min": "10.0",
        }
        assert list(texts) == READS["analyze"]
        parser = cli.build_parser()
        for section, key, *_ in config.FIELDS:
            from_file = config.loads(f"[{section}]\n{key} = {texts[key]}\n")
            assert from_file != config.RunConfig(), key
            # analyze reads every key
            args = parser.parse_args(["analyze", f"{FLAGS[key]}={texts[key]}"])
            assert cli._load_config(args) == from_file, key

    def test_malformed_config_exits_2(self, tmp_path, capsys):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("[model]\nalpha = 2\nbogus = 1\n")
        assert main(["evaluate", "--config", str(cfg_file),
                     "--method", "series", "--t", "0", "--x", "1"]) == 2
        assert "unknown key" in capsys.readouterr().err


class TestParser:
    """Each subcommand takes --config, a flag per config key it reads, then its own flags."""

    OWN = {"evaluate": ["--method", "--t", "--x", "--out"], "solve": [], "figures": ["--id"],
           "analyze": [], "compare": ["--t", "--x"]}

    def test_top_level_help_lists_the_subcommands(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "{evaluate,solve,figures,analyze,compare}" in out
        assert "--config" not in out

    @pytest.mark.parametrize("command", list(OWN))
    def test_help_lists_config_then_fields_then_own_flags(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        flags = re.findall(r"^  (--[\w-]+)", capsys.readouterr().out, re.M)
        assert flags == ["--config", *(FLAGS[key] for key in READS[command]), *self.OWN[command]]

    NAMESPACES = [
        (["analyze"], "analyze", {}),
        (["evaluate", "--method", "series", "--t", "1", "--x", "0.5", "--b", "2"], "evaluate",
         {"method": "series", "t": "1", "x": "0.5", "out": None, "b": "2"}),
        (["solve", "--config", "x.cfg", "--m", "32", "--probe-y", "-1", "--probe-y=-0.5"], "solve",
         {"config": "x.cfg", "m": "32", "rays": ["-1", "-0.5"]}),
        (["compare", "--probe-y", "-2", "--dt", "0.02", "--out-dir", "o", "--t", "1"], "compare",
         {"rays": ["-2"], "dt": "0.02", "directory": "o", "t": "1", "x": None}),
        (["figures", "--id", "3", "--alpha", "3"], "figures", {"id": "3", "alpha": "3"}),
    ]

    @pytest.mark.parametrize("argv, command, given", NAMESPACES)
    def test_parse_args_namespaces(self, argv, command, given):
        want = {"command": command, "func": getattr(cli, f"cmd_{command}"), "config": None,
                **{key: None for key in READS[command]}, **given}
        parser = cli.build_parser()
        assert vars(parser.parse_args(argv)) == want
        # a second parse starts afresh
        assert vars(parser.parse_args(argv)) == want
        assert parser.parse_args(["solve"]).rays is None

    @pytest.mark.parametrize("argv", [argv for argv, _, _ in NAMESPACES])
    def test_main_parses_as_the_full_parser(self, argv, monkeypatch):
        # main builds the flags of the named subcommand alone; its namespace is the full one
        seen = []
        monkeypatch.setattr(cli, f"cmd_{argv[0]}", lambda args: seen.append(vars(args)) or 0)
        assert main(argv) == 0
        assert seen == [vars(cli.build_parser().parse_args(argv))]

    def test_unknown_command_and_top_level_help_are_unchanged(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bogus", "--alpha", "3"])
        assert exc.value.code == 2
        assert "argument command: invalid choice: 'bogus' (choose from " in capsys.readouterr().err
        with pytest.raises(SystemExit):
            main(["--help"])
        assert capsys.readouterr().out == cli.build_parser().format_help()

    @pytest.mark.parametrize("value", ["-1e2", "-2.5e-1", "-1E+2"])
    @pytest.mark.parametrize("key", ["y_min", "y_max", "rays"])
    def test_negative_exponent_values_after_a_space(self, key, value):
        # argparse's own pattern for negative numbers takes no exponent
        for command in (c for c in READS if key in READS[c]):
            extra = ["--id", "1"] if command == "figures" else []
            spaced = cli.build_parser().parse_args([command, *extra, FLAGS[key], value])
            joined = cli.build_parser().parse_args([command, *extra, f"{FLAGS[key]}={value}"])
            assert getattr(spaced, key) == getattr(joined, key) == ([value] if key == "rays" else value)

    @pytest.mark.parametrize("value", ["-e2", "-1e", "-1e2x", "-inf", "--1e2"])
    def test_negative_non_numbers_are_still_flags(self, value, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--y-min", value])
        assert exc.value.code == 2
        assert "argument --y-min: expected one argument" in capsys.readouterr().err

    def test_negative_exponent_solve_exits_0(self, tmp_path, capsys):
        argv = ["solve", "--t-end", "2", "--snapshots", "1,2", "--probe-y", "-1e-1"]
        assert main([*argv, "--y-min", "-4e1", "--out-dir", str(tmp_path / "a")]) == 0
        assert main([*argv, "--y-min=-40", "--out-dir", str(tmp_path / "b")]) == 0
        for name in ("snapshots.csv", "diagnostics.csv", "snapshots.svg"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


class TestFlagTable:
    """The subcommand x config-flag table: each config flag a command takes
    changes an output file, a report line or the exit code against the
    command's baseline run; any other is a usage error that names the flag."""

    # one config file for every baseline, holding keys that some commands do
    # not read: two rays and the window [2, 12], so that analyze passes at m = 8
    # (its weak row is 2.3e-2 off at t = 10 and 1.95e-2 at t = 12)
    CONFIG = ("[grid]\nm = 8\n[time]\nt_end = 12\n"
              "[probes]\nrays = -1.3862943611198906, -0.6931471805599453\n"
              "[analyze]\nt_min = 2\n")
    BASE = {"evaluate": [["evaluate", "--method", "series", "--t", "1", "--x", "0.5"]],
            "solve": [["solve"]],
            "figures": [["figures", "--id", "1"], ["figures", "--id", "2"]],  # probes, profiles
            "analyze": [["analyze"]],
            "compare": [["compare", "--t", "1,5", "--x", "1e-20,0.5"]]}
    # a valid value of each key, set over the baseline by its flag
    VALUES = {"alpha": "3", "b": "2", "g": "0.5", "profile": "loggaussian mu=0 sigma=0.1 mass=2",
              "m": "16", "y_min": "-60", "y_max": "3", "t_end": "15", "dt": "0.005",
              "snapshots": "1,10", "record_every": "2", "rays": "-1", "directory": "elsewhere",
              "t_min": "1"}
    # compare reads its pde cells off the weight rows, so m and y_max reach it
    # through the grid's refusals (the node limit, a cut of the initial data),
    # and a ray through the automatic y_min, which then covers x = 1e-20
    COMPARE = {"m": "1000000", "y_max": "0", "rays": "-10"}
    # at y_min = -60 analyze differs from its baseline only in the last digits of
    # weak.csv; at -20 the leak monitor trips (t = 4.75) and it exits 3
    ANALYZE = {"y_min": "-20"}

    @staticmethod
    def runs(argvs, tmp_path, capsys, monkeypatch):
        """Exit code, stdout, stderr and the files written of each command
        line, run in a fresh working directory (the default --out-dir is relative)."""
        got = []
        for argv in argvs:
            cwd = pathlib.Path(tempfile.mkdtemp(dir=tmp_path))
            monkeypatch.chdir(cwd)
            code = main(argv)
            files = {str(p.relative_to(cwd)): p.read_bytes() for p in cwd.rglob("*") if p.is_file()}
            got.append((code, *capsys.readouterr(), files))
        return got

    @pytest.mark.parametrize("command", list(READS))
    def test_each_flag_a_command_takes_changes_its_run(self, command, tmp_path, capsys,
                                                       monkeypatch):
        (tmp_path / "run.cfg").write_text(self.CONFIG)
        argvs = [argv + ["--config", str(tmp_path / "run.cfg")] for argv in self.BASE[command]]
        base = self.runs(argvs, tmp_path, capsys, monkeypatch)
        assert [run[0] for run in base] == [0] * len(argvs), base
        unchanged = []
        for key in READS[command]:
            value = {"compare": self.COMPARE, "analyze": self.ANALYZE}.get(command, {}).get(
                key, self.VALUES[key])
            if self.runs([argv + [FLAGS[key], value] for argv in argvs],
                         tmp_path, capsys, monkeypatch) == base:
                unchanged.append(key)
        assert unchanged == []

    @pytest.mark.parametrize("command", ["evaluate", "solve", "figures", "compare"])
    def test_every_other_config_flag_is_refused(self, command, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        refused = [key for key in READS["analyze"] if key not in READS[command]]
        assert len(refused) == 14 - len(READS[command])
        for key in refused:
            with pytest.raises(SystemExit) as exc:
                main(self.BASE[command][-1] + [FLAGS[key], self.VALUES[key]])
            assert exc.value.code == 2
            err = capsys.readouterr().err
            assert f"error: unrecognized arguments: {FLAGS[key]} {self.VALUES[key]}\n" in err, key
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [["solve", "--t", "5"], ["solve", "--t-e", "2"],
                                      ["solve", "--snap", "1,2"], ["compare", "--pro", DIRAC]])
    def test_flags_are_not_abbreviated(self, argv, tmp_path, capsys, monkeypatch):
        # solve --t was ambiguous between --t-end and --t-min; now it would be --t-end
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"error: unrecognized arguments: {' '.join(argv[1:])}\n" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


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
        (["analyze", "--t-min", "10"], "0.36"),   # a probe window, so that it solves
        (["compare"], "0.36"),
        (["figures", "--id", "1"], "0.37"),     # a probe figure, on its own profile
        (["figures", "--id", "2"], "0.37"),     # a profile figure, no tracks at all
    ])
    def test_leak_exits_3_whatever_the_command_tracks(self, command, trip, tmp_path, capsys):
        # the run above: every command that solves trips the same monitor; the
        # settings come from a config file, which a command that sets some of
        # them itself (figures the profile, compare the horizon) still accepts
        (tmp_path / "run.cfg").write_text("[model]\nprofile = logheaviside a=-0.2 b=0 height=1\n"
                                          "[grid]\ny_min = -8\n[time]\nt_end = 20\nsnapshots = 20\n")
        code = main(command + ["--config", str(tmp_path / "run.cfg"),
                               "--out-dir", str(tmp_path / "o")])
        assert code == 3
        err = capsys.readouterr().err
        assert f"left grid edge at t = {trip} " in err
        assert "leftmost 64 nodes, one per residue class" in err

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
        assert rows[0] == "t,mass," + ",".join(
            f"n_ray={y:.6g}" for y in config.RunConfig().resolved_rays())
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
        header = ["t", "mass"] + [f"n_ray={y:.6g}" for y in diag.probes]
        drows = [(float(t), float(diag.mass[i]), *[float(diag.probes[y][i]) for y in diag.probes])
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
        # x = 1e-30 lies below the grid of a run to t = 1: NaN pde cells
        traj = run_solver(LogGaussian(0.0, 0.1, 1.0), 2.0, 1.0, 0.01, snapshots=[1.0], rays=[])
        tbl = analysis.compare_methods(LogGaussian(0.0, 0.1, 1.0), ModelParams(alpha=2.0),
                                       [1.0], [1e-30, 0.5], traj)
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
        # the same table shaped like heaviside data: about 300 runs of n per
        # block, the y texts shared by every block, so each block is joined
        # run by run (the y texts rendered within the bound too)
        lengths = rng.multinomial(10_000 - 300, np.full(300, 1 / 300)) + 1
        y_texts = cli._Texts(ys)
        for k, block in enumerate(blocks):
            block[1] = y_texts
            block[2] = np.repeat(rng.random(300) ** 40, lengths)
            block[3] = math.sqrt(0.5 * (k + 1)) * block[2]
        tracemalloc.start()
        try:
            cli._write_csv(tmp_path / "runs.csv", ["t", "y", "n", "sqrt_t_n"], blocks)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        capsys.readouterr()
        assert peak < 2e6, peak
        rows = [(b[0], float(y), float(n), float(s)) for b in blocks[::29]
                for y, n, s in zip(ys, *b[2:])]
        text = (tmp_path / "runs.csv").read_bytes().split(b"\n")
        assert (b"\n".join(text[:10_001] + text[-10_001:])
                == oracle_csv(["t", "y", "n", "sqrt_t_n"], rows))

    def test_joined_blocks_match_row_oracle(self, tmp_path, capsys, monkeypatch):
        # blocks whose rows fall into runs are joined run by run, the others
        # laid out as cells, in one table: runs across the _ROWS cuts, a run
        # over a whole block, runs of length 1, -0.0 next to 0.0, runs of
        # subnormals and zeros ("%.17g" per value), a run ending on the last
        # row, a one-row block, a block at t = 0, and blocks whose text column
        # comes first or last, which leaves no head or no tail to join runs by
        rng = np.random.default_rng(7)
        n = 3 * cli._ROWS + 5
        ys = np.linspace(-30.0, 2.0, n)
        pool = [0.0, -0.0, 5e-324, -2.5e-310, 1e-300, 0.1, 1.0 / 3.0, 0.75, 1e300]
        runs = []
        while sum(map(len, runs)) < n:
            runs.append([pool[rng.integers(len(pool))]] * int(rng.choice([1, 1, 2, 40, 300])))
        steps = np.concatenate(runs)[:n]
        steps[2040:2056] = 0.25                     # across the first _ROWS cut
        steps[-3:] = 5e-324                         # a run ending on the last row
        signed = np.repeat(np.resize([0.0, -0.0, 5e-324, 0.0], 200), n // 200 + 1)[:n]
        y_texts, y_one = cli._Texts(ys), cli._Texts(ys[:1])
        columns = [(0.0, y_texts, steps), (1.5, y_texts, np.full(n, 0.25)),
                   (2.0, y_texts, rng.random(n)), (4.0, y_one, np.array([0.5])),
                   (3.0, y_texts, signed), (6.0, y_texts, steps[::-1].copy())]
        blocks = [[t, y, col, math.sqrt(t) * col] for t, y, col in columns]
        blocks += [[y_texts, steps, 2.0, steps], [0.5, steps, steps, y_texts]]
        joined, write_joined = [], cli._write_joined
        monkeypatch.setattr(cli, "_write_joined",
                            lambda out, block, starts: joined.append(block[0])
                            or write_joined(out, block, starts))
        header = ["t", "y", "n", "sqrt_t_n"]
        cli._write_csv(tmp_path / "mixed.csv", header, blocks)
        capsys.readouterr()
        assert joined == [0.0, 1.5, 3.0, 6.0]       # not the smooth, one-row or end-text blocks
        rows = [(t, float(y), float(v), math.sqrt(t) * float(v)) for t, y_col, col in columns
                for y, v in zip(ys if y_col is y_texts else ys[:1], col)]
        rows += [(y, v, 2.0, v) for y, v in zip(ys.tolist(), steps.tolist())]
        rows += [(0.5, v, v, y) for y, v in zip(ys.tolist(), steps.tolist())]
        assert (tmp_path / "mixed.csv").read_bytes() == oracle_csv(header, rows)

    @pytest.mark.parametrize("profile, joined", [
        ("logheaviside a=-1 b=0 height=1", [0.0, 0.5, 1.0, 2.0]),
        # the initial gaussian underflows to 0 on most nodes, then no two are equal
        ("loggaussian mu=0 sigma=0.1 mass=1", [0.0])])
    def test_heaviside_snapshots_take_the_joined_layout(self, profile, joined, tmp_path, capsys,
                                                        monkeypatch):
        # piecewise constant data gives each snapshot block runs, smooth data
        # none; the diagnostics table has no shared text column
        blocks, write_joined = [], cli._write_joined
        monkeypatch.setattr(cli, "_write_joined",
                            lambda out, block, starts: blocks.append(block[0])
                            or write_joined(out, block, starts))
        assert main(["solve", "--profile", profile, "--t-end", "2", "--snapshots", "0,0.5,1,2",
                     "--out-dir", str(tmp_path)]) == 0
        capsys.readouterr()
        assert blocks == joined

    def test_cell_columns_are_rendered_chunk_by_chunk(self, tmp_path, capsys, monkeypatch):
        # a block that is not joined renders each float column with one
        # g17.cells call per _ROWS rows and narrows none of it, whether the
        # column has 300 runs, more than _ROWS runs or none
        rng = np.random.default_rng(11)
        n = 3 * cli._ROWS
        runs = np.repeat(rng.random(300) * 10.0 ** rng.integers(-300, 300, 300),
                         rng.multinomial(n - 300, np.full(300, 1 / 300)) + 1)
        many = np.repeat(rng.random(cli._ROWS + 1), 2)[:n]
        plain = rng.random(n)
        sizes, narrowed, cells, narrow = [], [], g17.cells, cli._narrow
        monkeypatch.setattr(g17, "cells", lambda x: sizes.append(len(x)) or cells(x))
        monkeypatch.setattr(cli, "_narrow", lambda c: narrowed.append(len(c)) or narrow(c))
        for name, col, calls in (("runs", runs, [cli._ROWS] * 3),
                                 ("many", many, [cli._ROWS] * 2 + [2]),
                                 ("plain", plain, [cli._ROWS] * 3)):
            sizes.clear()
            cli._write_csv(tmp_path / f"{name}.csv", ["v"], [[col]])
            assert sizes == calls, name
            assert narrowed == [], name
            assert (tmp_path / f"{name}.csv").read_bytes() == oracle_csv(["v"], zip(col.tolist()))
        capsys.readouterr()

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

    @pytest.mark.parametrize("argv, rays", [
        (["figures", "--id", "2", "--t-end", "2"], 0), (["figures", "--id", "1", "--t-end", "2"], 3),
        (["compare", "--t", "1"], 0), (["solve", "--t-end", "2"], 3)])
    def test_only_probe_readers_record_rays(self, argv, rays, tmp_path, capsys, monkeypatch):
        # compare and the profile figures never read a probe track; the rays
        # still size the grid, so it is the default config's grid either way
        # (figures 1 and 2 take the default profile)
        seen, solve_n = [], solver.solve_n

        def spy(grid, *args, **kwargs):
            seen.append((grid.y_min, len(kwargs["probe_rays"])))
            return solve_n(grid, *args, **kwargs)

        monkeypatch.setattr(solver, "solve_n", spy)
        assert main([*argv, "--out-dir", str(tmp_path)]) == 0
        capsys.readouterr()
        grid = cli._grid(config.RunConfig(t_end=1.0 if argv[0] == "compare" else 2.0))
        assert seen == [(grid.y_min, rays)]


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

    def test_refused_cell_keeps_the_table(self, tmp_path, capsys):
        # the contour refuses this narrow-gaussian point; series and solver evaluate it
        t, x = "22.373234198704946", "1.6189689404792748e-07"
        assert main(["compare", "--profile", "loggaussian mu=0 sigma=0.05 mass=1",
                     "--t", t, "--x", x, "--out-dir", str(tmp_path / "o")]) == 0
        stdout = capsys.readouterr().out
        assert (f"mellin refused t={t}, x={x}: contour quadrature did not converge"
                in stdout)
        rows = [r.split(",") for r in
                (tmp_path / "o" / "compare.csv").read_text().strip().splitlines()[1:]]
        assert len(rows) == 3
        assert [r[:2] for r in rows] == [["series", "pde"], ["series", "mellin"],
                                         ["pde", "mellin"]]
        assert rows[0][4] == "182324.43261981182"
        assert all(r[5] == "nan" and r[6] == "nan" for r in rows[1:])

    def test_pde_cells_below_the_grid_are_nan(self, tmp_path, capsys):
        assert main(["compare", "--t", "1,5", "--x", "1e-30,0.5",
                     "--out-dir", str(tmp_path / "o")]) == 0
        captured = capsys.readouterr()
        assert "all cells within tolerance" in captured.out and captured.err == ""
        rows = [r.split(",") for r in
                (tmp_path / "o" / "compare.csv").read_text().strip().splitlines()[1:]]
        pde = [r for r in rows if "pde" in r[:2] and float(r[3]) == 1e-30]
        assert len(pde) == 4 and all(r[6] == "nan" for r in pde)

    def test_narrow_data_cells_within_tolerance(self, tmp_path, capsys):
        # sigma = 0.05 at m = 64: a node interpolation put the pde cells 5e-2 off
        assert main(["compare", "--profile", "loggaussian mu=0 sigma=0.05 mass=1",
                     "--m", "64", "--out-dir", str(tmp_path / "o")]) == 0
        assert "all cells within tolerance" in capsys.readouterr().out


class TestAnalyze:
    def test_snapshot_at_0_passes_without_a_weak_row(self, tmp_path, capsys):
        # only smooth data reads the last snapshot for its weak row
        assert main(["analyze", "--snapshots", "0", "--profile", "logheaviside a=-1 b=0 height=1",
                     "--out-dir", str(tmp_path / "o")]) == 0
        assert "all checks passed" in capsys.readouterr().out
        assert not (tmp_path / "o" / "weak.csv").exists()

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

    def test_tampered_tolerance_exits_4(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(analysis, "ASYMP_TOL", 1e-12)
        code = main(["analyze", "--t-end", "40", "--out-dir", str(tmp_path / "o")])
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

    @pytest.mark.parametrize("gate, tol, check", [
        ("PERIOD_TOL", 1e-9, "period law violated on ray"),
        ("MASS_TOL", 1e-20, "mass conservation violated"),
        ("WEAK_TOL", 1e-9, "weak limit violated"),
        ("PDE_TOL", 1e-20, "series vs solver mismatch"),
        ("MELLIN_TOL", 1e-20, "series vs contour inversion mismatch"),
        ("ASYMP_TOL", 1e-12, "asymptotics violated: relative error at t=25"),
    ], ids=["period_tol", "mass_tol", "weak_tol", "pde_tol", "mellin_tol", "asymp_tol"])
    def test_each_threshold_exits_4_naming_its_check(self, tmp_path, capsys, monkeypatch,
                                                      gate, tol, check):
        monkeypatch.setattr(analysis, gate, tol)
        assert main(["analyze", "--t-end", "40", "--out-dir", str(tmp_path / "o")]) == 4
        err = capsys.readouterr().err
        assert err.startswith("check failed: ")
        violations = err.removeprefix("check failed: ").rstrip("\n").split("; ")
        assert all(v.startswith(check) for v in violations), err
        # each violation is its label, the measured value and the gate as set
        assert all(v.endswith(f" > {tol}") for v in violations), err

    def test_asymptotics_verdict_does_not_depend_on_the_mass(self, tmp_path, capsys,
                                                             monkeypatch):
        # at mass 1e300 v itself overflows to inf; the check runs at unit mass
        codes, lines = [], set()
        for mass in ("1", "1e300"):
            for tol in (0.1, 1e-12):
                monkeypatch.setattr(analysis, "ASYMP_TOL", tol)
                codes.append(main(["analyze", "--t-end", "40",
                                   "--profile", f"loggaussian mu=0 sigma=0.1 mass={mass}",
                                   "--out-dir", str(tmp_path / "o")]))
                lines |= {line for line in capsys.readouterr().out.splitlines()
                          if line.startswith("asymptotic relative error")}
        assert codes == [0, 4, 0, 4]
        assert len(lines) == 1 and "nan" not in lines.pop()

    def test_flagged_route_cells_fail(self, tmp_path, capsys, monkeypatch):
        # pde values 1% off at t = 5 miss the pde pair tolerance 2e-3 in those cells
        v_from_grid = analysis.v_from_grid
        monkeypatch.setattr(analysis, "v_from_grid", lambda traj, t, x: (
            v_from_grid(traj, t, x) * (1.01 if t == 5.0 else 1.0)))
        assert main(["analyze", "--t-end", "40", "--out-dir", str(tmp_path / "o")]) == 4
        captured = capsys.readouterr()
        assert "6 cell(s) above tolerance" in captured.out
        assert "all checks passed" not in captured.out
        assert captured.err == ("check failed: series vs pde mismatch 9.901e-03 > 0.002; "
                                "pde vs mellin mismatch 9.901e-03 > 0.002\n")

    @pytest.mark.parametrize("alpha", ["1.5", "3"])
    def test_default_config_passes_at_other_alpha(self, alpha, tmp_path, capsys):
        assert main(["analyze", "--alpha", alpha, "--out-dir", str(tmp_path / "o")]) == 0
        assert capsys.readouterr().out.endswith("all checks passed\n")

    def test_alpha_4_is_refused_by_the_contour(self, tmp_path, capsys, monkeypatch):
        # x = 0.5 lies between the dilation copies of the bump, where v is below
        # the contour's rounding floor; the first refusal, at t = 1, is the one
        # reported, as the README states
        refused, inverse = [], analysis.inverse_mellin_v

        def watched(p, alpha, t, x):
            try:
                return inverse(p, alpha, t, x)
            except QuadratureError:
                refused.append((t, x))
                raise
        monkeypatch.setattr(analysis, "inverse_mellin_v", watched)
        assert main(["analyze", "--alpha", "4", "--out-dir", str(tmp_path / "o")]) == 3
        assert capsys.readouterr().err == ("numerical guard: contour quadrature did not "
                                           "converge (error estimate 1.396e-14)\n")
        assert refused == [(1.0, 0.5), (5.0, 0.5), (10.0, 0.5)]

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

    def test_refused_route_cell_exits_3(self, tmp_path, capsys, monkeypatch):
        # compare keeps a refused cell as NaN; analyze keeps the guard's verdict
        def refuse(*args):
            raise QuadratureError("contour refused", 1.0)
        monkeypatch.setattr(analysis, "inverse_mellin_v", refuse)
        assert main(["analyze", "--t-end", "40", "--out-dir", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert err == "numerical guard: contour refused (error estimate 1.000e+00)\n"

    @pytest.mark.parametrize("flags, window", [
        (["--t-end", "10"], "t_min = 20.0 must be below t_end = 10.0"),
        (["--t-min", "70"], "t_min = 70.0 must be below t_end = 60.0"),
    ])
    def test_empty_probe_window_names_t_min_and_t_end(self, flags, window, tmp_path, capsys):
        assert main(["analyze", *flags, "--out-dir", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {window}: the probe window [t_min, t_end] is empty\n"
        # the other grid commands do not read t_min: solve has no --t-min, and
        # runs with the same window from a shared config file
        solve = ["solve", "--snapshots", "1", "--out-dir", str(tmp_path / "s")]
        if flags[0] == "--t-min":
            with pytest.raises(SystemExit) as exc:
                main(solve + flags)
            assert exc.value.code == 2
            assert "error: unrecognized arguments: --t-min 70" in capsys.readouterr().err
            (tmp_path / "run.cfg").write_text("[analyze]\nt_min = 70\n")
            flags = ["--config", str(tmp_path / "run.cfg")]
        assert main(solve + flags) == 0

    def test_record_every_too_coarse_names_the_sampling(self, tmp_path, capsys):
        # the default fast ray has period 0.5: 16.7 samples per cycle at 3 * dt
        code = main(["analyze", "--record-every", "3", "--out-dir", str(tmp_path / "o")])
        assert code == 2
        assert "sampling too coarse: 16.7 samples per expected cycle" in capsys.readouterr().err

    @pytest.mark.parametrize("j", [-30, 0, 30])
    def test_verdicts_do_not_depend_on_the_mass(self, j, tmp_path, capsys, monkeypatch):
        # the equation is linear: scaling the mass by 2^j changes no exit code and
        # no failed check; labels are compared, not values, since the contour puts
        # log(mass) into its exponent
        profile = f"loggaussian mu=0 sigma=0.1 mass={2.0 ** j!r}"
        assert main(["analyze", "--profile", profile, "--out-dir", str(tmp_path / "a")]) == 0
        capsys.readouterr()
        monkeypatch.setattr(analysis, "PERIOD_TOL", 1e-9)
        assert main(["analyze", "--profile", profile, "--out-dir", str(tmp_path / "b")]) == 4
        err = capsys.readouterr().err
        assert err.startswith("check failed: ")
        labels = [re.sub(r" \S+ > \S+$", "", failed)
                  for failed in err[len("check failed: "):].strip().split("; ")]
        assert labels == [f"period law violated on ray y={y}: rel err"
                          for y in ("-1.38629", "-0.693147", "-0.346574")]

    @pytest.mark.parametrize("j", [-64, -7, -1, 1, 7, 64])
    def test_verdicts_do_not_depend_on_whole_cell_shifts(self, j, monkeypatch):
        # mu = j whole grid cells at m = 64 (up to one log-alpha period either
        # way): every check passes at the default gates, and a period gate of
        # 1e-9 fails exactly the three period-law rows
        profile = f"loggaussian mu={j * math.log(2.0) / 64!r} sigma=0.1 mass=1"
        cfg = config.with_texts(config.RunConfig(), {"profile": profile})
        traj = cli._solve_run(cfg)
        rows = analysis.checks(cfg, traj)[0]
        assert [row.label for row in rows if row.failed] == []
        monkeypatch.setattr(analysis, "PERIOD_TOL", 1e-9)
        tight = analysis.checks(cfg, traj)[0]
        assert [row.label for row in tight if row.failed] == [
            f"period law violated on ray y={y}: rel err"
            for y in ("-1.38629", "-0.693147", "-0.346574")]

    def test_repeated_ray_is_tracked_and_reported_once(self, tmp_path, capsys):
        cfg = config.with_texts(config.RunConfig(), {"rays": "-1, -0.5, -1, -0.5"})
        assert cfg.resolved_rays() == (-1.0, -0.5)
        checks, period_rows, _, _ = analysis.checks(cfg, cli._solve_run(cfg))
        assert [row[0] for row in period_rows] == [-1.0, -0.5]
        assert [row.label for row in checks if row.label.startswith("period law")] == [
            "period law violated on ray y=-1: rel err",
            "period law violated on ray y=-0.5: rel err"]
        assert main(["analyze", "--probe-y", "-1", "--probe-y", "-1",
                     "--out-dir", str(tmp_path / "o")]) == 0
        capsys.readouterr()
        assert len((tmp_path / "o" / "periods.csv").read_text().splitlines()) == 2

    def test_rows_give_the_exit_code_and_the_failure_message(self, tmp_path, capsys,
                                                             monkeypatch):
        # the CLI renders the rows: its failure message joins the failed ones
        monkeypatch.setattr(analysis, "PERIOD_TOL", 1e-9)
        cfg = config.with_texts(config.RunConfig(), {"t_end": "40"})
        checks, period_rows, weak_row, cmp_tbl = analysis.checks(cfg, cli._solve_run(cfg))
        assert len(period_rows) == 3 and weak_row[0] == 40.0 and cmp_tbl.rows
        failed = [row for row in checks if row.failed]
        assert [row.tol for row in failed] == [1e-9] * 3
        assert main(["analyze", "--t-end", "40", "--out-dir", str(tmp_path / "o")]) == 4
        assert capsys.readouterr().err == "check failed: " + "; ".join(
            f"{row.label} {row.measured:.3e} > {row.tol}" for row in failed) + "\n"


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

    def test_package_import_leaves_dataclasses_unloaded(self):
        # the value types and records are plain classes and NamedTuples, so no
        # process compiles dataclass methods unless it builds a config.RunConfig
        code = "import sys, gflab; sys.exit('dataclasses' in sys.modules)"
        env = {**os.environ, "PYTHONPATH": str(pathlib.Path(gflab.__file__).resolve().parents[1])}
        assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0

    def test_cli_import_leaves_dataclasses_and_configparser_unloaded(self):
        # RunConfig is a plain frozen class, and only a --config file loads the INI parser
        code = ("import sys, gflab.cli\n"
                "sys.exit(sorted({'dataclasses', 'configparser'} & set(sys.modules)) or None)")
        env = {**os.environ, "PYTHONPATH": str(pathlib.Path(gflab.__file__).resolve().parents[1])}
        run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert run.returncode == 0, run.stderr

    def test_cli_import_leaves_xml_unloaded(self):
        # the SVG writer writes its elements as text
        code = "import sys, gflab.cli; sys.exit(any(m.startswith('xml') for m in sys.modules))"
        env = {**os.environ, "PYTHONPATH": str(pathlib.Path(gflab.__file__).resolve().parents[1])}
        assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


class TestEntry:
    """entry() freezes the interpreter's objects once main has returned, so the
    final collections at exit skip them; main itself never freezes."""

    @pytest.mark.parametrize("code", [0, 2, 3, 4])
    def test_freezes_after_main_and_exits_with_its_code(self, code, monkeypatch):
        calls = []

        def fake_main():
            calls.append("main")
            return code

        monkeypatch.setattr(cli, "main", fake_main)
        monkeypatch.setattr(gc, "freeze", lambda: calls.append("freeze"))
        with pytest.raises(SystemExit) as exc:
            cli.entry()
        assert exc.value.code == code
        assert calls == ["main", "freeze"]

    def test_main_in_process_does_not_freeze(self, capsys):
        frozen = gc.get_freeze_count()
        assert main(["evaluate", "--method", "series", "--t", "1", "--x", "0.5"]) == 0
        assert gc.get_freeze_count() == frozen

    @pytest.mark.parametrize("argv, code", [
        (["evaluate", "--method", "series", "--t", "1,5", "--x", "0.25,0.5"], 0),
        (["evaluate", "--method", "series", "--t", "3000", "--x", "0.5"], 3),
    ])
    def test_exit_keeps_output_and_code(self, argv, code, capsys):
        # python -m gflab goes through entry(): what it prints and its exit code
        # are those of main run in-process
        assert main(argv) == code
        captured = capsys.readouterr()
        env = {**os.environ, "PYTHONPATH": str(pathlib.Path(gflab.__file__).resolve().parents[1])}
        run = subprocess.run([sys.executable, "-m", "gflab", *argv], env=env,
                             capture_output=True, text=True)
        assert (run.returncode, run.stdout, run.stderr) == (code, captured.out, captured.err)
        assert captured.out if code == 0 else captured.err


_PROFILES = st.one_of(
    st.builds("loggaussian mu={!r} sigma={!r} mass={!r}".format,
              st.floats(-1.0, 1.0), st.floats(0.05, 1.0), st.floats(0.1, 10.0)),
    st.builds(lambda a, w, h: f"logheaviside a={a!r} b={a + w!r} height={h!r}",
              st.floats(-2.0, 0.0), st.floats(0.05, 2.0), st.floats(0.1, 10.0)),
    st.builds("dirac x0={!r} weight={!r}".format, st.floats(0.2, 5.0), st.floats(0.1, 10.0)))


@st.composite
def cli_argv(draw):
    """A command line with a small horizon and grid; solve and figures write
    both csv and svg."""
    command = draw(st.sampled_from(["solve", "figures", "analyze", "compare"]))
    reads = READS[command]
    argv = [command, "--alpha", repr(draw(st.floats(1.2, 4.0))),
            "--m", str(draw(st.sampled_from([1, 2, 4, 8]))),
            "--dt", repr(draw(st.floats(1e-3, 0.7)))]
    # only the flags the command reads: figures sets the profile, compare the horizon
    if "record_every" in reads:
        argv += ["--record-every", str(draw(st.integers(1, 5)))]
    if "profile" in reads:
        argv += ["--profile", draw(_PROFILES)]
    if "t_end" in reads:
        argv += ["--t-end", repr(draw(st.floats(0.0, 2.5)))]
    if "snapshots" in reads and draw(st.booleans()):
        times = draw(st.lists(st.floats(0.0, 2.5), min_size=1, max_size=4))
        argv += ["--snapshots", ",".join(map(repr, times))]
    if draw(st.booleans()):
        argv.append(f"--y-min={draw(st.floats(-40.0, 0.0))!r}")
    if draw(st.booleans()):
        argv.append(f"--probe-y={draw(st.floats(-3.0, -0.05))!r}")
    if "t_min" in reads and draw(st.booleans()):
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
