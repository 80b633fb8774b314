"""Direct solver for the log-coordinate form d/dt n(t, y) = -n(t, y) + n(t, y + log alpha).

This route never touches the series or the transform: it discretizes nothing
but time.  The grid spacing divides log alpha exactly (dy = log(alpha) / m
with integer m), so the nonlocal term is an exact array shift by m nodes and
the semi-discrete system is the equation restricted to the nodes.  Any
non-commensurate grid would interpolate the shift and the resulting numerical
diffusion would wash out exactly the oscillations under study.

Boundaries: n is identically zero to the right of the initial support,
because a node at y is fed only from y + log alpha (so the zero right
boundary is exact once y_max covers the support).  On the left the domain
must simply be large enough that mass never arrives; a monitor errors out if
the leftmost nodes exceed a threshold proportional to the initial mass.

Time stepping is the classical explicit fourth-order scheme.  The
semi-discrete operator is S - I, with S the shift by m nodes (zero past the
right edge), so one RK4 step of size h is exactly the shift polynomial

    n <- sum_{k=0..4} c_k(h) S^k n,
    c_k(h) = sum_{j=k..4} h^j / j! * C(j, k) * (-1)^(j-k),

obtained by expanding the RK4 Taylor polynomial sum_{j<=4} (h (S - I))^j / j!.
Every c_k is positive for h < 1 (c_3 = h^3 (1 - h) / 6 is the binding one),
so with the cap h <= 0.5 the update is a positive combination of shifts and
node values stay nonnegative.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError, MassLeakError
from .model import Dirac, InitialProfile, profile_eval_y, support_y

MAX_STEP = 0.5          # positivity-preserving cap for the explicit scheme
_LEAK_TOL = 1e-12       # left-edge monitor threshold, relative to the initial mass
_LEAK_NODES = 10


@dataclass(frozen=True)
class LogGrid:
    """Uniform grid in y = log x with spacing dy = log(alpha) / m.

    Nodes sit at y_j = j * dy for j in [j_lo, j_lo + len(values) - 1], so the
    shift y -> y + log alpha is exactly m nodes and y = 0 is on-grid whenever
    it lies inside the domain.  `values` holds n at the nodes; treat it as
    immutable (stepping returns a fresh grid).
    """

    alpha: float
    m: int
    dy: float
    j_lo: int
    values: np.ndarray

    @property
    def n_nodes(self) -> int:
        return self.values.size

    @property
    def y_min(self) -> float:
        return self.j_lo * self.dy

    @property
    def y_max(self) -> float:
        return (self.j_lo + self.n_nodes - 1) * self.dy

    def y_nodes(self) -> np.ndarray:
        return (self.j_lo + np.arange(self.n_nodes)) * self.dy

    def trapezoid(self, f: np.ndarray) -> float:
        """Trapezoid integral over the grid of the node values f."""
        return self.dy * (float(np.sum(f)) - 0.5 * float(f[0] + f[-1]))


def build_grid(p: InitialProfile, alpha: float, y_min: float, y_max: float, m: int) -> LogGrid:
    """Sample n(0, y) = e^{2y} u0(e^y) on a shift-commensurate grid covering [y_min, y_max]."""
    if isinstance(p, Dirac):
        raise DomainError("dirac initial data cannot be sampled on a grid")
    if m < 1:
        raise DomainError(f"cells per log(alpha) must be a positive integer, got {m}")
    if not y_min < y_max:
        raise DomainError(f"empty grid domain [{y_min}, {y_max}]")
    hi = support_y(p)[1]
    if y_max < hi:
        raise DomainError(
            f"right boundary y_max = {y_max} does not cover the initial support "
            f"(needs y_max >= {hi}); the zero boundary would be wrong")
    dy = math.log(alpha) / m
    j_lo = int(math.floor(y_min / dy + 1e-12))
    j_hi = int(math.ceil(y_max / dy - 1e-12))
    values = profile_eval_y(p, (j_lo + np.arange(j_hi - j_lo + 1)) * dy)
    return LogGrid(alpha=alpha, m=m, dy=dy, j_lo=j_lo, values=values)


@lru_cache(maxsize=64)
def _rk4_shift_coeffs(h: float) -> tuple[float, ...]:
    """c_0..c_4 of the RK4 step sum_{j<=4} (h (S - I))^j / j! written in powers of S."""
    return tuple(sum(h**j / math.factorial(j) * math.comb(j, k) * (-1.0) ** (j - k)
                     for j in range(k, 5))
                 for k in range(5))


def step(grid: LogGrid, dt: float) -> LogGrid:
    """One classical fourth-order explicit step of size dt (dt <= 0.5 enforced).

    Evaluated as the shift polynomial sum_k c_k(dt) S^k n of the module
    docstring: five shifted axpys, with S^k n = 0 past the right edge.
    """
    if not 0.0 < dt <= MAX_STEP * (1.0 + 1e-12):
        raise DomainError(f"step size must be in (0, {MAX_STEP}], got {dt}")
    m, v = grid.m, grid.values
    c = _rk4_shift_coeffs(dt)
    out = c[0] * v
    for k in range(1, 5):
        shift = k * m
        if shift >= v.size:
            break
        out[:-shift] += c[k] * v[shift:]
    return LogGrid(grid.alpha, m, grid.dy, grid.j_lo, out)


def _cubic_stencil(n: int, j_lo: int, dy: float, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Node indices and weights, shape y.shape + (4,), of interpolation at log-sizes y.

    Four-point Lagrange interpolation on the uniform grid, linear in the first
    and last cell and exact on a node.  Those branches put zero weights on the
    unused nodes, whose indices are clipped into the grid.  _stencil_sum adds
    the four terms in a fixed order.  The caller checks the range.
    """
    u = np.minimum(np.maximum(y / dy - j_lo, 0.0), float(n - 1))
    i = np.floor(u).astype(np.int64)
    f = u - i
    w = np.stack([-f * (f - 1.0) * (f - 2.0) / 6.0,
                  (f * f - 1.0) * (f - 2.0) / 2.0,
                  -f * (f + 1.0) * (f - 2.0) / 2.0,
                  f * (f * f - 1.0) / 6.0], axis=-1)
    linear = (i == 0) | (i == n - 2)
    w[linear] = np.stack([np.zeros_like(f), 1.0 - f, f, np.zeros_like(f)], axis=-1)[linear]
    w[(f == 0.0) | (i >= n - 1)] = (0.0, 1.0, 0.0, 0.0)
    idx = np.clip(i[..., None] + np.arange(-1, 3), 0, n - 1)
    return idx, w


def _stencil_sum(w: np.ndarray, node_values: np.ndarray) -> np.ndarray:
    terms = w * node_values
    return ((terms[..., 0] + terms[..., 1]) + terms[..., 2]) + terms[..., 3]


@dataclass
class Diagnostics:
    """Per-record scalars collected while stepping."""

    times: np.ndarray
    mass: np.ndarray                      # trapezoid integral of n over the grid
    argmax_y: np.ndarray                  # node location of the current maximum
    probes: dict[float, np.ndarray]       # ray y -> n(t, y t) samples


@dataclass
class Trajectory:
    """Snapshots at requested times plus dense diagnostics; immutable once emitted."""

    grid: LogGrid                         # geometry reference (initial values)
    times: np.ndarray
    snapshots: np.ndarray                 # shape (len(times), n_nodes)
    diagnostics: Diagnostics

    def snapshot_index(self, t: float) -> int:
        idx = int(np.argmin(np.abs(self.times - t)))
        if abs(self.times[idx] - t) > 1e-9 * max(1.0, abs(t)):
            raise DomainError(f"time {t} was not snapshotted (available: {self.times.tolist()})")
        return idx

    def n_at(self, t: float, y: float) -> float:
        """Interpolated n(t, y) from the snapshot at t; zero outside the grid."""
        snap = self.snapshots[self.snapshot_index(t)]
        if y > self.grid.y_max + 1e-12 or y < self.grid.y_min - 1e-12:
            return 0.0
        idx, w = _cubic_stencil(snap.size, self.grid.j_lo, self.grid.dy, np.array([y]))
        return float(_stencil_sum(w, snap[idx])[0])


def solve_n(grid: LogGrid, t_end: float, dt: float,
            snapshot_times=None, probe_rays=(), record_every: int = 1) -> Trajectory:
    """March the shift-coupled system to t_end on the fixed clock t_i = i * dt.

    Diagnostics (mass, argmax location, and the tracked line values n(t, y t)
    for each probe ray) are recorded at t = 0 and after every
    `record_every`-th clock step, i.e. at t = j * record_every * dt, so they
    are uniformly spaced whatever the snapshot times.  A snapshot on the clock
    is a copy of the clock state; one that falls inside a step (or past the
    last full step) is reached by one partial step from a copy, and the clock
    continues unchanged.  A MassLeakError is raised as soon as any of the
    leftmost nodes exceeds _LEAK_TOL times the initial trapezoid mass, since
    mass reaching the left edge would silently break conservation; the
    threshold scales with the data, so the decision does not depend on units.
    """
    if t_end < 0.0:
        raise DomainError(f"horizon must be nonnegative, got {t_end}")
    if not dt > 0.0:
        raise DomainError(f"step size must be positive, got {dt}")
    dt = min(dt, MAX_STEP)
    if snapshot_times is None or len(snapshot_times) == 0:
        snapshot_times = [t_end]
    snaps = sorted(set(float(t) for t in snapshot_times))
    if snaps and (snaps[0] < 0.0 or snaps[-1] > t_end + 1e-12):
        raise DomainError(f"snapshot times {snaps} fall outside [0, {t_end}]")

    rays = [float(y) for y in probe_rays]
    j_lo, dy = grid.j_lo, grid.dy
    n_steps = int(math.floor(t_end / dt + 1e-9))
    # records sit on the clock, so every probe's stencil is known before stepping;
    # a probe outside the grid records 0 through all-zero weights
    rec_t = np.array([i * dt for i in range(0, n_steps + 1, record_every)])
    pos = rec_t[:, None] * np.array(rays)
    probe_idx, probe_w = _cubic_stencil(grid.n_nodes, j_lo, dy, pos)
    probe_w[(pos < grid.y_min) | (pos > grid.y_max)] = 0.0
    probe_idx = probe_idx.reshape(rec_t.size, -1)
    gathered = np.empty(probe_idx.shape)
    rec_mass: list[float] = []
    rec_argmax: list[float] = []

    def record(vals: np.ndarray) -> None:
        j = len(rec_mass)
        rec_mass.append(grid.trapezoid(vals))
        rec_argmax.append((j_lo + int(vals.argmax())) * dy)
        gathered[j] = vals.take(probe_idx[j])

    leak_tol = _LEAK_TOL * grid.trapezoid(grid.values)

    def check_leak(t: float, vals: np.ndarray) -> None:
        head_max = float(vals[:_LEAK_NODES].max())
        if head_max > leak_tol:
            raise MassLeakError(
                f"mass reached the left grid edge at t = {t:.6g} "
                f"(max of leftmost {_LEAK_NODES} nodes is {head_max:.3e}, "
                f"threshold {leak_tol:.3e}); extend y_min")

    out_snaps: list[np.ndarray] = []
    current = grid
    record(current.values)
    on_clock = 1e-9 * dt       # a snapshot this close to a clock time is taken there
    pending = iter(snaps)
    target = next(pending, None)
    for i in range(n_steps + 1):
        t = i * dt
        if i > 0:
            current = step(current, dt)
            check_leak(t, current.values)
            if i % record_every == 0:
                record(current.values)
        t_next = (i + 1) * dt if i < n_steps else math.inf
        while target is not None and target < t_next - on_clock:
            if target <= t + on_clock:
                out_snaps.append(current.values.copy())
            else:
                partial = step(current, target - t)
                check_leak(target, partial.values)
                out_snaps.append(partial.values)
            target = next(pending, None)

    probes = _stencil_sum(probe_w, gathered.reshape(probe_w.shape))
    diag = Diagnostics(
        times=rec_t,
        mass=np.asarray(rec_mass),
        argmax_y=np.asarray(rec_argmax),
        probes={y: probes[:, r].copy() for r, y in enumerate(rays)},
    )
    return Trajectory(grid=grid, times=np.asarray(snaps),
                      snapshots=np.asarray(out_snaps), diagnostics=diag)


def v_from_grid(traj: Trajectory, t: float, x: float) -> float:
    """Recover v(t, x) = e^{-2y} n(t, y) at y = log x from a snapshotted time.

    Above the grid the support argument gives an exact zero; below the grid
    the value is extrapolated as zero with a warning, since the solver only
    guarantees the left tail is negligible, not resolved.
    """
    if not x > 0.0:
        raise DomainError(f"size must be positive, got {x}")
    y = math.log(x)
    n = traj.n_at(t, y)
    if y < traj.grid.y_min - 1e-12:
        warnings.warn(f"log-size {y:.3f} is below the grid; extrapolating v as 0",
                      RuntimeWarning, stacklevel=2)
        return 0.0
    return math.exp(-2.0 * y) * n
