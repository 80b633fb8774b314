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
any of the leftmost m nodes, one per residue class mod m (the classes the
shift keeps apart), exceeds a threshold proportional to the initial mass.

Time stepping is the classical explicit fourth-order scheme.  The
semi-discrete operator is S - I, with S the shift by m nodes (zero past the
right edge), so one RK4 step of size h is exactly the shift polynomial

    n <- sum_{k=0..4} c_k(h) S^k n,
    c_k(h) = sum_{j=k..4} h^j / j! * C(j, k) * (-1)^(j-k),

obtained by expanding the RK4 Taylor polynomial sum_{j<=4} (h (S - I))^j / j!.
Every c_k is positive for h < 1 (c_3 = h^3 (1 - h) / 6 is the binding one),
so with the cap h <= 0.5 the update is a positive combination of shifts and
node values stay nonnegative.  `step` applies it to the field: five shifted
axpys.

Every step is a polynomial in the same S, so i steps give

    n_i = sum_k d_i[k] S^k n_0,    (S^k n_0)[j] = n_0[j + k m],

where d_i, the i-fold convolution of (c_0, ..., c_4), is the discrete twin
of the paper's explicit formula: RK4 weights in place of the Poisson(t)
weights of the exact flow e^{t (S - I)}.  `solve_n` propagates d (one
convolution per step) instead of the field: the same finite sums in another
order, not an approximation.  Only the entries of d that can reach the
nonzero range [lo, hi] of n_0 from a grid node are kept; a convolution moves
weight only to higher k, so dropping the rest changes no kept entry.  Every
node value the solver emits (leak monitor, mass, snapshots) is that sum as
written, read over a run of nodes j0..j1-1 in k-ordered slices: for each k
whose dilate S^k n_0 meets [lo, hi], in increasing k,

    n[j0:j1] += d[k] * n_0[j0 + k m : j1 + k m]    (clipped to [lo, hi]),

so a node gets the same terms in the same order from any run that holds
it.  Between nodes (the probe records, Trajectory.n_at) the same identity is
read at y as sum_k d[k] n_0(y + k log alpha), with n_0 from the profile the
grid sampled: nothing is interpolated.  That sum, `_dilation_sum`, alone
owns the edges: it reads 0 below y_min, and above y_max its window is empty.
`step` stays the oracle the propagator is tested against; d comes only from
the RK4 coefficients and n_0 only from the profile, never from the series, so
the solver stays an independent route.

The step loop only advances the weight row by one np.correlate with the
reversed c(dt) and stores it, _CHUNK clock steps at a time.  The correlate
stays: each of its outputs is one BLAS dot of the five taps, and shifted
axpys, a matmul or precomputed powers of the step would add the same
products in another order and move the bits of every node.  Everything else
is one array pass per chunk over the stored rows: the snapshots are placed by
a sorted search of the chunk's clock, the leak monitor checks the stepped
rows, and the records are read from a strided view of the chunk's table
(every record_every-th row), not a copy.  No value depends on the chunk
size, which only trades the per-chunk call overhead against the memory of
the chunk's tables.
"""

from __future__ import annotations

import math
import numbers
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import DomainError, MassLeakError
from .model import Dirac, InitialProfile, dilation_window, profile_eval_y, support_y

MAX_STEP = 0.5          # positivity-preserving cap for the explicit scheme
_LEAK_TOL = 1e-12       # left-edge monitor threshold, relative to the initial mass
_CHUNK = 256            # clock steps per propagator chunk
_MAX_NODES = 10**7      # largest grid build_grid allocates; the default grid has about 10^4


class LogGrid(NamedTuple):
    """Uniform grid in y = log x with spacing dy = log(alpha) / m.

    Nodes sit at y_j = j * dy for j in [j_lo, j_lo + len(values) - 1], so the
    shift y -> y + log alpha is exactly m nodes and y = 0 is on-grid whenever
    it lies inside the domain.  `values` holds n at the nodes; treat it as
    immutable (stepping returns a fresh grid).  `profile` is the initial data
    build_grid sampled, which solve_n reads between the nodes; a grid of
    hand-set or stepped values has none.
    """

    alpha: float
    m: int
    dy: float
    j_lo: int
    values: np.ndarray
    profile: InitialProfile | None = None

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
    lo, hi = support_y(p)
    if y_max < hi:
        raise DomainError(
            f"right boundary y_max = {y_max} does not cover the initial support "
            f"(needs y_max >= {hi}); the zero boundary would be wrong")
    if y_min > lo:
        raise DomainError(
            f"left boundary y_min = {y_min} cuts the initial support "
            f"(needs y_min <= {lo}); the initial data would be truncated")
    dy = math.log(alpha) / m
    j_lo = int(math.floor(y_min / dy + 1e-12))
    j_hi = int(math.ceil(y_max / dy - 1e-12))
    nodes = j_hi - j_lo + 1
    if nodes > _MAX_NODES:
        raise DomainError(
            f"grid of {nodes} nodes for alpha = {alpha}, m = {m} over y in [{y_min}, {y_max}] "
            f"exceeds the limit of {_MAX_NODES} nodes")
    values = profile_eval_y(p, (j_lo + np.arange(nodes)) * dy)
    return LogGrid(alpha=alpha, m=m, dy=dy, j_lo=j_lo, values=values, profile=p)


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


def _advance(w: np.ndarray, h: float) -> np.ndarray:
    """The shift weights one RK4 step of size h later, truncated to len(w)."""
    return np.correlate(w, _rk4_shift_coeffs(h)[::-1], "full")[:w.size]  # w * c(h)


class _ShiftSum:
    """The shift polynomial sum_k d[k] S^k n_0 at the grid nodes, for weight rows d.

    Only the nonzero range [lo, hi] of n_0 is read.  A weight row as solve_n
    propagates it holds `right` leading zeros and then d, `width` entries in
    all.  The zeros only keep d's bits: np.correlate rounds its partial-overlap
    outputs differently from the full ones.
    """

    def __init__(self, grid: LogGrid):
        v, m = grid.values, grid.m
        nz = np.flatnonzero(v)
        lo, hi = (int(nz[0]), int(nz[-1])) if nz.size else (0, 0)
        self.v, self.m, self.lo, self.hi = v, m, lo, hi
        self.right = (v.size - 1 - lo) // m
        self.width = self.right - (-lo // m) + (hi - lo) // m + 1
        # the leak monitor's nodes, one per residue class, and top, the largest |n_0|
        # over the cell [k m, k m + watch) for each k of the band whose cells meet [lo, hi]
        self.watch = min(m, v.size)
        self.band = slice(-((self.watch - 1 - lo) // m), hi // m + 1)
        self.top = np.array([np.abs(v[max(k * m, lo):k * m + self.watch]).max()
                             for k in range(self.band.start, self.band.stop)])
        # sum_j n[j] = sum_k d[k] sum(n_0[k m:]); the suffix sums from fsums per cell
        cells = [math.fsum(v[max(k * m, lo):min(k * m + m, hi + 1)].tolist())
                 for k in range(lo // m, hi // m + 1)]
        tails = np.array([math.fsum(cells[i:]) for i in range(len(cells))] + [0.0])
        self.suffix = np.zeros(self.width)
        k = np.arange(self.width - self.right)
        self.suffix[self.right:] = tails[np.clip(k - lo // m, 0, len(cells))]

    def nodes(self, D: np.ndarray, j0: int, j1: int) -> np.ndarray:
        """n at the nodes j0..j1-1 for every weight row of D, shape (rows, j1 - j0):
        each S^k n_0 that meets [lo, hi] is added in increasing k."""
        m, lo, hi = self.m, self.lo, self.hi
        n = np.zeros((len(D), j1 - j0))
        for k in range(max(0, -((j1 - 1 - lo) // m)), (hi - j0) // m + 1):
            a, b = max(j0, lo - k * m), min(j1, hi + 1 - k * m)
            n[:, a - j0:b - j0] += D[:, k, None] * self.v[a + k * m:b + k * m]
        return n

    def head_bound(self, D: np.ndarray) -> np.ndarray:
        """For each weight row of D, a bound on |n| over the leftmost `watch` nodes:
        sum_k d[k] top[k] over the band (|n_0| is 0 on the other cells, and a product
        over a whole long row sets BLAS threads on it), raised by more than the rounding
        of the c nonzero products and their additions in either sum (and their
        underflow) can move it."""
        c, f = np.count_nonzero(self.top), np.finfo(float)
        return (D[:, self.band] @ self.top) * (1.0 + 4.0 * c * f.eps) + c * f.smallest_subnormal


def _dilation_sum(grid: LogGrid, D: np.ndarray, rows, y: np.ndarray) -> np.ndarray:
    """n(y) = sum_k D[rows, k] n_0(y + k log alpha) for weight rows D of a run on
    the grid (rows and y broadcast), n_0 the profile it sampled, over the k of
    model.dilation_window clamped to the row, added in k order so that the value
    does not depend on m.  The solver's one edge rule: below y_min n reads 0 (the
    leak monitor bounds it there by 1e-12 of the mass); above y_max the window is
    empty, as n is exactly 0 right of the initial support."""
    p, log_alpha = grid.profile, math.log(grid.alpha)
    first, last = dilation_window(p, log_alpha, y)
    first = np.maximum(first, 0.0)                  # the solver has no weights for k < 0
    last = np.minimum(last, D.shape[1] - 1)         # for y on the grid, later k meet n_0 = 0
    n = np.zeros(np.shape(y))
    for j in range(int(np.max(last - first, initial=-1.0)) + 1):
        k = first + j
        inside = k <= last
        d = D[rows, np.where(inside, k, 0.0).astype(np.intp)]
        n = n + np.where(inside, d * profile_eval_y(p, y + k * log_alpha), 0.0)
    return np.where(y < grid.y_min, 0.0, n)


class Diagnostics(NamedTuple):
    """Per-record scalars collected while stepping."""

    times: np.ndarray
    mass: np.ndarray                      # trapezoid integral of n over the grid
    probes: dict[float, np.ndarray]       # ray y -> n(t, y t) samples


class Trajectory(NamedTuple):
    """Snapshots at requested times plus dense diagnostics; immutable once emitted."""

    grid: LogGrid                         # geometry reference (initial values)
    times: np.ndarray
    snapshots: np.ndarray                 # shape (len(times), n_nodes)
    weights: np.ndarray                   # shape (len(times), K): each snapshot's row d
    diagnostics: Diagnostics

    def snapshot_index(self, t: float) -> int:
        idx = int(np.argmin(np.abs(self.times - t)))
        # scaled by the snapshot's time, so that t = inf fails as t = nan does
        if not abs(self.times[idx] - t) <= 1e-9 * max(1.0, abs(self.times[idx])):
            raise DomainError(f"time {t} was not snapshotted (available: {self.times.tolist()})")
        return idx

    def n_at(self, t: float, y: float) -> float:
        """n(t, y) at any finite y, from the weight row of the snapshot at t and the grid's
        profile, with _dilation_sum's edge rule: zero below and above the grid."""
        if not math.isfinite(y):
            raise DomainError(f"log-size must be finite, got {y}")
        return float(_dilation_sum(self.grid, self.weights, self.snapshot_index(t), np.asarray(y)))


def solve_n(grid: LogGrid, t_end: float, dt: float,
            snapshot_times=None, probe_rays=(), record_every: int = 1) -> Trajectory:
    """March the shift-coupled system to t_end on the fixed clock t_i = i * dt;
    a dt above MAX_STEP is silently capped, so the clock then runs at MAX_STEP.

    Diagnostics (mass and the tracked line values n(t, y t) for each probe
    ray) are recorded at t = 0 and after every `record_every`-th clock step,
    i.e. at t = j * record_every * dt, so they are uniformly spaced whatever
    the snapshot times.  A snapshot on the clock
    is a copy of the clock state; one that falls inside a step (or past the
    last full step) is reached by one partial step from a copy, and the clock
    continues unchanged.  A MassLeakError is raised as soon as any of the
    leftmost m nodes, one per residue class mod m, exceeds _LEAK_TOL times the
    initial trapezoid mass, since mass reaching the left edge would silently
    break conservation; the threshold scales with the data, so the decision
    does not depend on units.  The shift by m nodes never mixes the classes,
    so each one carries its mass to the edge at its own leftmost node.

    The location of the maximum at a snapshot time is read from that
    snapshot, which holds every node.

    The field itself is never stepped: the RK4 shift weights are propagated
    (module docstring) a chunk of _CHUNK = 256 clock steps at a time, and the
    clock and the records (probes summed from the chunk's weight rows) are
    built chunk by chunk, so no table is sized by t_end.  Once a chunk's rows
    are stepped, each pending snapshot is placed by np.searchsorted on the
    chunk's ends (i + 1) dt - on_clock (inf at the last step): the first step
    whose next clock time it falls short of.  There it is that row when
    within on_clock of the step's time, else one partial step from it.
    """
    if grid.profile is None:
        raise DomainError("solve_n needs a grid from build_grid: it reads the sampled profile")
    if t_end < 0.0:
        raise DomainError(f"horizon must be nonnegative, got {t_end}")
    if not dt > 0.0:
        raise DomainError(f"step size must be positive, got {dt}")
    if not (isinstance(record_every, numbers.Integral) and record_every >= 1):
        raise DomainError(f"record_every must be an integer >= 1, got {record_every!r}")
    dt = min(dt, MAX_STEP)
    if snapshot_times is None or len(snapshot_times) == 0:
        snapshot_times = [t_end]
    snaps = sorted(set(float(t) for t in snapshot_times))
    if snaps and (snaps[0] < 0.0 or snaps[-1] > t_end + 1e-12):
        raise DomainError(f"snapshot times {snaps} fall outside [0, {t_end}]")

    rays = np.array([float(y) for y in probe_rays])
    dy = grid.dy
    n_steps = int(math.floor(t_end / dt + 1e-9))
    kernel = _ShiftSum(grid)
    leak_tol = _LEAK_TOL * grid.trapezoid(grid.values)
    watch, right, last = kernel.watch, kernel.right, grid.n_nodes - 1

    def check_leak(times: np.ndarray, heads: np.ndarray) -> None:
        over = np.flatnonzero(heads > leak_tol)
        if over.size:
            k = over[np.argmin(times[over])]
            raise MassLeakError(
                f"mass reached the left grid edge at t = {times[k]:.6g} "
                f"(max of the leftmost {watch} nodes, one per residue class, is {heads[k]:.3e}, "
                f"threshold {leak_tol:.3e}); extend y_min")

    rec: dict[str, list[np.ndarray]] = {"t": [], "mass": [], "probes": []}
    out = np.empty((len(snaps), kernel.width))      # the snapshots' weight rows
    done = 0
    taps = np.array(_rk4_shift_coeffs(dt)[::-1])
    w = np.zeros(kernel.width)
    w[right] = 1.0
    on_clock = 1e-9 * dt       # a snapshot this close to a clock time is taken there
    pending = np.array(snaps)
    for first in range(0, n_steps + 1, _CHUNK):
        clock = np.arange(first, min(first + _CHUNK, n_steps + 1))
        W = np.empty((clock.size, kernel.width))
        for s in range(clock.size):
            if first + s:
                w = np.correlate(w, taps, "full")[:w.size]      # w * c(dt), as _advance
            W[s] = w
        # the float expressions the clock compares a snapshot time with, step by step
        ends = (clock + 1) * dt - on_clock
        if clock[-1] == n_steps:
            ends[-1] = math.inf
        at = np.searchsorted(ends, pending, side="right")
        placed = int(np.count_nonzero(at < clock.size))
        partial_t: list[float] = []
        partial_d: list[np.ndarray] = []
        for target, s in zip(pending[:placed].tolist(), at[:placed].tolist()):
            t = (first + s) * dt
            if target <= t + on_clock:
                out[done] = W[s]
            else:
                out[done] = _advance(W[s], target - t)
                partial_t.append(target)
                partial_d.append(out[done, right:])
            done += 1
        pending = pending[placed:]
        # the leak monitor sees every clock state but the initial one, and every
        # partial step; the kernel runs on its nodes only where a bound cannot clear them
        skip = 1 if first == 0 else 0
        checked, checked_t = W[skip:, right:], clock[skip:] * dt
        if partial_d:
            checked, checked_t = np.vstack([checked, *partial_d]), np.r_[checked_t, partial_t]
        if (kernel.head_bound(checked) > leak_tol).any():
            check_leak(checked_t, kernel.nodes(checked, 0, watch).max(axis=1))

        rows = slice(-first % record_every, None, record_every)   # the chunk's recorded steps
        t_rec = clock[rows] * dt
        if not t_rec.size:
            continue
        Wr = W[rows]
        Dr = Wr[:, right:]
        edges = kernel.nodes(Dr, 0, 1)[:, 0] + kernel.nodes(Dr, last, last + 1)[:, 0]
        rec["t"].append(t_rec)
        rec["mass"].append(dy * (np.sum(Wr * kernel.suffix, axis=1) - 0.5 * edges))
        rec["probes"].append(_dilation_sum(grid, Dr, np.arange(len(Dr))[:, None],
                                           t_rec[:, None] * rays))

    probes = np.concatenate(rec["probes"])
    diag = Diagnostics(
        times=np.concatenate(rec["t"]),
        mass=np.concatenate(rec["mass"]),
        probes={y: probes[:, r].copy() for r, y in enumerate(rays.tolist())},
    )
    D = out[:, right:]
    return Trajectory(grid=grid, times=np.asarray(snaps), snapshots=kernel.nodes(D, 0, last + 1),
                      weights=D, diagnostics=diag)


def v_from_grid(traj: Trajectory, t: float, x: float) -> float:
    """v(t, x) = e^{-2y} n(t, y) at y = log x from a snapshotted time (Trajectory.n_at),
    exactly 0 above the grid.  A size below it raises DomainError: there _dilation_sum
    reads 0, a bound the leak monitor keeps, not a resolved value."""
    if not 0.0 < x < math.inf:
        raise DomainError(f"size must be positive and finite, got {x}")
    y = math.log(x)
    if y < traj.grid.y_min:
        raise DomainError(f"log-size {y:.3f} is below the grid (y_min = {traj.grid.y_min:.3f})")
    return math.exp(-2.0 * y) * traj.n_at(t, y)
