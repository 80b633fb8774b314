"""The README's library sketch runs as written and gives the values it states,
its command lines and flag table are those the parser takes, and its gates
table is analyze's."""

import ast
import math
import pathlib
import re
import shlex

import pytest

from gflab import analysis, cli
from gflab.model import LogGaussian, mellin_U0

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def _run_sketch() -> dict[str, tuple[object, str]]:
    """Run the sketch; map the source of each bare expression to (its value, the
    comment after it)."""
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## Library sketch\n.*?```python\n(.*?)```", text, re.S).group(1)
    lines = block.splitlines()
    ns: dict = {}
    values = {}
    for stmt in ast.parse(block).body:
        code = ast.get_source_segment(block, stmt)
        if isinstance(stmt, ast.Expr):
            values[code] = (eval(code, ns), lines[stmt.end_lineno - 1].partition("#")[2])
        else:
            exec(code, ns)
    return values


def test_library_sketch_states_its_values():
    values = _run_sketch()
    est, note = values["gf.estimate_period(probe, expected_period=1.0)"]
    want, tol = map(float, re.fullmatch(r" -> period ([\d.]+) \+- ([\d.]+)", note).groups())
    assert abs(est.period - want) <= tol

    weak, note = values["gf.weak_test(src, math.cos, 60.0)"]
    pct = float(re.fullmatch(r" -> U0\(2\) cos\(log 2\) \+- (\d+)%", note).group(1))
    limit = mellin_U0(LogGaussian(0.0, 0.1, 1.0), 2.0).real * math.cos(math.log(2.0))
    assert abs(weak - limit) <= pct / 100 * limit


def test_command_lines_parse():
    # so the docs cannot advertise a flag that a command refuses
    lines = re.findall(r"^gflab (.+)$", README.read_text(encoding="utf-8"), re.M)
    assert lines
    parser = cli.build_parser()
    for line in lines:
        parser.parse_args(shlex.split(line))


def test_flag_table_lists_the_config_flags_each_command_takes(capsys):
    table = re.search(r"^\| config flag \|.*?\n\n", README.read_text(encoding="utf-8"),
                      re.M | re.S).group(0)
    header, _, *rows = table.strip().splitlines()
    commands = re.findall(r"`(\w+)`", header)
    taken = {command: set() for command in commands}
    listed = set()
    for row in rows:
        flags, *marks = (cell.strip() for cell in row.strip("|").split("|"))
        flags = set(re.findall(r"`(--[\w-]+)`", flags))
        listed |= flags
        for command, mark in zip(commands, marks, strict=True):
            if mark == "✓":
                taken[command] |= flags
    assert len(listed) == 14
    for command in commands:
        with pytest.raises(SystemExit):
            cli.main([command, "--help"])
        shown = set(re.findall(r"^  (--[\w-]+)", capsys.readouterr().out, re.M))
        assert shown & listed == taken[command], command


def test_gates_table_lists_the_analysis_constants():
    # the gates are the public float constants of gflab.analysis
    table = re.search(r"^\| gate \|.*?\n\n", README.read_text(encoding="utf-8"),
                      re.M | re.S).group(0)
    _, _, *rows = table.strip().splitlines()
    listed = {}
    for row in rows:
        name, value, _ = (cell.strip() for cell in row.strip("|").split("|"))
        listed[name.strip("`")] = float(value)
    gates = {name: value for name, value in vars(analysis).items()
             if not name.startswith("_") and isinstance(value, float)}
    assert listed == gates
