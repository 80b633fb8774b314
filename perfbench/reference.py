"""The reference job: fixed work of the kinds gflab jobs do, with no gflab code.

    python3 perfbench/reference.py

It starts an interpreter, imports numpy and scipy.integrate (what `import
gflab` spends most of its time on), then runs a numpy stencil loop (like the
solver's steps), a scalar float loop (like the series kernel) and float
formatting (like the CSV writer).  run.py times it between jobs to measure
how fast the machine is running at that moment; since it runs no gflab code,
no change to gflab can change its time.
"""

import math

import numpy as np
import scipy.integrate  # noqa: F401  (import cost, like gflab's)

STEPS = 400
NODES = 10_000
TERMS = 60_000
ROWS = 20_000


def main() -> None:
    y = np.linspace(-8.0, 8.0, NODES)
    u = np.exp(-y * y)
    for _ in range(STEPS):
        u = u + 0.01 * (np.roll(u, 1) - 2.0 * u + np.roll(u, -1))
    acc = 0.0
    for k in range(TERMS):
        acc += math.exp(-1e-4 * k) * math.cos(1e-3 * k)
    text = "\n".join(f"{a!r},{b!r}" for a, b in zip(y[:ROWS].tolist(), u[:ROWS].tolist()))
    # a result that depends on all the work, so none of it can be skipped
    if not (math.isfinite(acc) and math.isfinite(float(u.sum())) and len(text) > ROWS):
        raise SystemExit(1)


if __name__ == "__main__":
    main()
