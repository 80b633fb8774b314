"""The README's library sketch runs as written and gives the values it states."""

import ast
import math
import pathlib
import re

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
