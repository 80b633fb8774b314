"""Grid solver: exactness of the shift, time-stepping order, conservation, boundaries."""

import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gflab.config import RunConfig
from gflab.errors import DomainError, MassLeakError
from gflab.model import (
    Dirac, LogGaussian, LogHeaviside, ModelParams, parse_profile, profile_eval_y, support_y)
from gflab import solver
from gflab.series import eval_n, eval_n_series, eval_v
from gflab.solver import (
    Diagnostics,
    LogGrid,
    Trajectory,
    _advance,
    build_grid,
    solve_n,
    step,
    v_from_grid,
)

LOG2 = math.log(2.0)
GAUSS = LogGaussian(0.0, 0.1, 1.0)
HEAVI = LogHeaviside(-0.2, 0.0, 1.0)


class TestBuildGrid:
    def test_spacing_divides_log_alpha_exactly(self):
        g = build_grid(GAUSS, 2.0, -30.0, 2.0, 64)
        assert g.dy * 64 == LOG2
        assert g.y_min <= -30.0 + 1e-9 and g.y_nodes()[-1] >= 2.0 - 1e-9

    def test_single_cell_spacing(self):
        g = build_grid(GAUSS, 2.0, -10.0, 2.0, 1)
        assert g.dy == LOG2

    def test_gaussian_peak_on_node(self):
        # y = 0 is always a node, so the peak value is exact there
        g = build_grid(GAUSS, 2.0, -30.0, 2.0, 64)
        assert np.max(g.values) == pytest.approx(3.989422804014327, rel=1e-12)
        assert g.y_nodes()[np.argmax(g.values)] == pytest.approx(0.0, abs=1e-15)

    def test_heaviside_values_exact(self):
        g = build_grid(HEAVI, 2.0, -5.0, 1.0, 64)
        ys = g.y_nodes()
        inside = (ys >= -0.2) & (ys <= 0.0)
        assert np.all(g.values[inside] == 1.0)
        assert np.all(g.values[~inside] == 0.0)

    def test_right_boundary_must_cover_support(self):
        with pytest.raises(DomainError, match="support"):
            build_grid(GAUSS, 2.0, -10.0, 1.0, 64)  # needs mu + 12 sigma = 1.2

    def test_left_boundary_must_cover_support(self):
        with pytest.raises(DomainError, match=r"y_min = -1.0 .*needs y_min <= -1.2"):
            build_grid(GAUSS, 2.0, -1.0, 2.0, 64)  # needs mu - 12 sigma = -1.2
        build_grid(HEAVI, 2.0, -0.2, 1.0, 64)  # the edge itself is fine

    def test_node_count_is_checked_before_allocating(self, monkeypatch):
        size = build_grid(GAUSS, 2.0, -30.0, 2.0, 64).values.size
        monkeypatch.setattr(solver, "_MAX_NODES", size)
        build_grid(GAUSS, 2.0, -30.0, 2.0, 64)
        monkeypatch.setattr(solver, "_MAX_NODES", size - 1)
        with pytest.raises(DomainError, match=rf"grid of {size} nodes for alpha = 2.0, m = 64 "
                                              r"over y in \[-30.0, 2.0\]"):
            build_grid(GAUSS, 2.0, -30.0, 2.0, 64)

    def test_dirac_rejected(self):
        with pytest.raises(DomainError):
            build_grid(Dirac(1.0, 1.0), 2.0, -10.0, 2.0, 64)


class TestStep:
    def test_decoupled_node_decays_like_exponential(self):
        # a node fed by nothing follows dn/dt = -n; one step gives the
        # degree-4 Taylor polynomial of e^{-dt}
        g = build_grid(HEAVI, 2.0, -5.0, 2.0, 64)
        i = int(round((-0.1 / g.dy))) - g.j_lo
        assert g.values[i] == 1.0
        dt = 0.1
        out = step(g, dt)
        poly = 1.0 - dt + dt**2 / 2 - dt**3 / 6 + dt**4 / 24
        assert out.values[i] == pytest.approx(poly, rel=1e-15)
        assert abs(out.values[i] - math.exp(-dt)) < dt**5 / 100.0

    def test_uniform_state_is_stationary_in_the_interior(self):
        base = build_grid(GAUSS, 2.0, -5.0, 2.0, 8)
        g = LogGrid(alpha=base.alpha, m=base.m, dy=base.dy, j_lo=base.j_lo,
                    values=np.ones_like(base.values))
        out = step(g, 0.25)
        # each RK stage reaches one shift further, so exact stationarity
        # holds four shifts away from the right edge
        interior = out.values[:-4 * base.m]
        assert np.all(interior == 1.0)

    def test_step_size_cap(self):
        g = build_grid(GAUSS, 2.0, -5.0, 2.0, 8)
        with pytest.raises(DomainError):
            step(g, 0.6)
        with pytest.raises(DomainError):
            step(g, 0.0)


def _rk4_oracle(values: np.ndarray, m: int, h: float) -> np.ndarray:
    """Textbook four-stage RK4 for dn/dt = -n + S n, S the shift by m nodes."""
    def rhs(v):
        out = -v
        if m < v.size:
            out[:-m] += v[m:]
        return out
    k1 = rhs(values)
    k2 = rhs(values + 0.5 * h * k1)
    k3 = rhs(values + 0.5 * h * k2)
    k4 = rhs(values + h * k3)
    return values + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


class TestShiftPolynomialStep:
    @pytest.mark.parametrize("h", [0.5, 0.25, 0.01, 1.0 / 3.0])
    @pytest.mark.parametrize("m", [1, 8, 64])
    def test_matches_four_stage_rk4(self, h, m):
        rng = np.random.default_rng(m)
        # lengths below m, between m and 4m, at 4m and well past it
        for n in sorted({2, m + 1, 3 * m + 1, 4 * m, 4 * m + 1, 9 * m + 5}):
            values = rng.uniform(0.5, 1.5, n)
            g = LogGrid(alpha=2.0, m=m, dy=LOG2 / m, j_lo=-n, values=values)
            before = values.copy()
            got = step(g, h).values
            np.testing.assert_allclose(got, _rk4_oracle(before, m, h), rtol=1e-14, atol=0.0)
            assert np.array_equal(g.values, before)  # the input grid is untouched

    @pytest.mark.parametrize("h", [1e-6, 0.01, 0.1, 0.25, 1.0 / 3.0, 0.49, 0.5])
    def test_shift_coefficients_positive(self, h):
        # the impulse response of one step at m = 1 lists c_0..c_4 leftwards
        values = np.zeros(9)
        values[6] = 1.0
        out = step(LogGrid(alpha=2.0, m=1, dy=LOG2, j_lo=0, values=values), h).values
        coeffs = out[6:1:-1]
        assert np.all(coeffs > 0.0), coeffs
        assert np.count_nonzero(out) == 5
        assert math.fsum(coeffs) == pytest.approx(1.0, abs=1e-15)


class TestAgainstSeries:
    def test_matches_series_on_nodes_at_t5(self):
        g = build_grid(GAUSS, 2.0, -35.0, 1.7, 64)
        traj = solve_n(g, 5.0, 0.005, snapshot_times=[5.0])
        exact = eval_n_series(GAUSS, 2.0, 5.0, g.y_nodes())
        assert np.max(np.abs(traj.snapshots[0] - exact)) < 1e-8

    def test_heaviside_matches_series_on_nodes(self):
        g = build_grid(HEAVI, 2.0, -56.0, 0.8, 64)
        traj = solve_n(g, 20.0, 0.005, snapshot_times=[1.0, 5.0, 10.0, 20.0])
        for t, snap in zip(traj.times, traj.snapshots):
            exact = eval_n_series(HEAVI, 2.0, float(t), g.y_nodes())
            assert np.max(np.abs(snap - exact)) < 1e-7
        # nodes past the initial support never turn on
        beyond = g.y_nodes() > 0.0
        for snap in traj.snapshots:
            assert np.max(np.abs(snap[beyond])) <= 1e-15

    def test_fourth_order_convergence(self):
        # halving dt cuts the node error by about 16x until the rounding floor
        g = build_grid(GAUSS, 2.0, -22.0, 1.7, 64)
        exact = eval_n_series(GAUSS, 2.0, 2.0, g.y_nodes())
        errs = []
        for dt in (0.2, 0.1, 0.05, 0.025):
            traj = solve_n(g, 2.0, dt, snapshot_times=[2.0])
            errs.append(np.max(np.abs(traj.snapshots[0] - exact)))
        orders = [math.log2(e1 / e2) for e1, e2 in zip(errs, errs[1:])]
        assert all(3.7 <= o <= 4.3 for o in orders), (errs, orders)

    def test_concentration_follows_the_ray(self):
        # the maximum sits on the oscillation comb (lattice translates of the
        # initial peak), so it can sit a full tooth away from the envelope
        # center -t log(2); at integer t the two nearest teeth exactly tie
        g = build_grid(GAUSS, 2.0, -85.0, 1.7, 64)
        traj = solve_n(g, 40.0, 0.01, snapshot_times=[40.0])
        peak_y = float(g.y_nodes()[traj.snapshots[traj.snapshot_index(40.0)].argmax()])
        assert abs(peak_y - (-40.0 * LOG2)) <= LOG2 + 3 * g.dy


class TestConservationAndPositivity:
    def test_mass_conserved(self, traj_g01):
        diag = traj_g01.diagnostics
        assert np.max(np.abs(diag.mass - 1.0)) < 1e-8

    def test_nonnegative(self, traj_g01):
        assert min(float(np.min(s)) for s in traj_g01.snapshots) >= -1e-12

    def test_zero_beyond_initial_support(self, traj_g01):
        g = traj_g01.grid
        ys = g.y_nodes()
        beyond = ys > 1.21  # mu + 12 sigma
        for snap in traj_g01.snapshots:
            assert np.max(np.abs(snap[beyond])) <= 1e-15

    def test_mass_leak_monitor(self):
        g = build_grid(GAUSS, 2.0, -12.0, 1.7, 64)
        with pytest.raises(MassLeakError):
            solve_n(g, 30.0, 0.01, snapshot_times=[30.0])

    def test_leak_monitor_scales_with_initial_mass(self):
        # the equation is linear, so the trip time cannot depend on units
        trips = []
        for mass in (1.0, 1e12, 1e-20):
            g = build_grid(LogGaussian(0.0, 0.1, mass), 2.0, -30.0, 1.7, 64)
            with pytest.raises(MassLeakError) as info:
                solve_n(g, 30.0, 0.01, snapshot_times=[30.0])
            trips.append(float(re.search(r"at t = (\S+) ", str(info.value)).group(1)))
        assert max(trips) - min(trips) <= 0.01 + 1e-9, trips

    def test_leak_monitor_watches_one_node_per_residue_class(self):
        # the shift by m nodes never mixes residue classes mod m: here the mass
        # of this narrow heaviside reaches the edge in classes that the
        # leftmost 10 nodes do not hold, while the recorded mass drains away
        cfg = RunConfig(profile=HEAVI, y_min=-8.0, t_end=20.0, snapshots=(20.0,))
        g = build_grid(HEAVI, 2.0, cfg.resolved_y_min(), cfg.resolved_y_max(), cfg.m)
        with pytest.raises(MassLeakError, match="leftmost 64 nodes, one per residue class"):
            solve_n(g, cfg.t_end, cfg.dt, snapshot_times=cfg.resolved_snapshots())


class TestSolveBookkeeping:
    def test_zero_horizon_yields_initial_snapshot(self):
        g = build_grid(GAUSS, 2.0, -10.0, 1.7, 32)
        traj = solve_n(g, 0.0, 0.01, snapshot_times=[0.0])
        assert traj.times.tolist() == [0.0]
        assert np.array_equal(traj.snapshots[0], g.values)

    def test_snapshots_land_exactly(self):
        g = build_grid(GAUSS, 2.0, -22.0, 1.7, 32)
        traj = solve_n(g, 2.0, 0.3, snapshot_times=[0.7, 1.3, 2.0])
        assert traj.times.tolist() == [0.7, 1.3, 2.0]

    def test_records_keep_the_clock_when_snapshots_fall_between_steps(self):
        # 1 and 5 are not multiples of dt = 0.03: each is reached by a partial
        # step from a copy, and the clock (so every record) stays at j * 2 * dt
        g = build_grid(GAUSS, 2.0, -25.0, 1.7, 64)
        traj = solve_n(g, 6.0, 0.03, snapshot_times=[1.0, 5.0, 6.0], probe_rays=[-LOG2],
                       record_every=2)
        times = traj.diagnostics.times
        assert times.size == 101
        np.testing.assert_allclose(times, 0.06 * np.arange(101), rtol=0.0, atol=1e-12)
        assert traj.times.tolist() == [1.0, 5.0, 6.0]
        for t, snap in zip(traj.times, traj.snapshots):
            exact = eval_n_series(GAUSS, 2.0, float(t), g.y_nodes())
            assert np.max(np.abs(snap - exact)) < 1e-7

    def test_grid_without_profile_rejected(self):
        # off-node values read the profile; a stepped grid's values are not its samples
        g = step(build_grid(GAUSS, 2.0, -10.0, 1.7, 32), 0.1)
        with pytest.raises(DomainError, match="needs a grid from build_grid"):
            solve_n(g, 1.0, 0.1)

    def test_snapshots_outside_horizon_rejected(self):
        g = build_grid(GAUSS, 2.0, -10.0, 1.7, 32)
        with pytest.raises(DomainError):
            solve_n(g, 1.0, 0.01, snapshot_times=[2.0])

    @pytest.mark.parametrize("record_every", [0, -2, 2.5])
    def test_record_every_must_be_a_positive_integer(self, record_every):
        g = build_grid(GAUSS, 2.0, -20.0, 1.7, 16)
        with pytest.raises(DomainError, match=re.escape(
                f"record_every must be an integer >= 1, got {record_every!r}")):
            solve_n(g, 1.0, 0.1, record_every=record_every)
        times = solve_n(g, 1.0, 0.1, record_every=np.int64(2)).diagnostics.times
        np.testing.assert_allclose(times, 0.2 * np.arange(6), rtol=0.0, atol=1e-12)

    def test_probe_tracks_recorded(self):
        g = build_grid(GAUSS, 2.0, -22.0, 1.7, 32)
        traj = solve_n(g, 1.0, 0.1, snapshot_times=[1.0], probe_rays=[-LOG2])
        track = traj.diagnostics.probes[-LOG2]
        assert track.size == traj.diagnostics.times.size
        # at t = 0 every ray sits at y = 0, the gaussian peak
        assert track[0] == pytest.approx(3.989422804014327, rel=1e-12)


class TestOffNodeValues:
    """Between nodes the solver sums its weight rows against the profile."""

    def test_recorded_probes_equal_snapshot_values(self):
        # every record time is also a snapshot, so each probe sample must be
        # n_at of that snapshot, bit for bit; the rays leave the grid (recorded
        # as 0) on both sides
        g = build_grid(GAUSS, 2.0, -22.0, 1.7, 32)
        rays = [-LOG2, -1.9, -8.0, 1.0]
        rec_times = [i * 0.05 for i in range(0, 61, 3)]
        traj = solve_n(g, 3.0, 0.05, snapshot_times=rec_times, probe_rays=rays,
                       record_every=3)
        assert traj.diagnostics.times.tolist() == traj.times.tolist()
        for y in rays:
            want = [traj.n_at(t, y * t) if g.y_min <= y * t <= g.y_nodes()[-1] else 0.0
                    for t in traj.times]
            assert traj.diagnostics.probes[y].tolist() == want
        assert traj.diagnostics.probes[-8.0][-1] == 0.0
        assert traj.diagnostics.probes[1.0][-1] == 0.0

    @pytest.mark.parametrize("profile", [
        LogHeaviside(-1.0, 0.0, 1.0), LogGaussian(0.0, 0.05, 1.0), GAUSS],
        ids=["heaviside", "sigma 0.05", "sigma 0.1"])
    def test_probes_match_the_series_pointwise(self, profile):
        # the jumps of heaviside data and a narrow gaussian are where an
        # interpolation of the nodes went wrong
        cfg = RunConfig(profile=profile)
        g = build_grid(profile, 2.0, cfg.resolved_y_min(), cfg.resolved_y_max(), cfg.m)
        traj = solve_n(g, cfg.t_end, cfg.dt, probe_rays=cfg.resolved_rays())
        times = traj.diagnostics.times[::37]
        for y, track in traj.diagnostics.probes.items():
            exact = [eval_n(profile, 2.0, t, y * t) for t in times.tolist()]
            np.testing.assert_allclose(track[::37], exact, rtol=1e-7, atol=0.0)

    def test_probe_tracks_do_not_depend_on_m(self):
        cfg = RunConfig(profile=LogHeaviside(-1.0, 0.0, 1.0), t_end=20.0)
        tracks = []
        for m in (8, 64):
            g = build_grid(cfg.profile, 2.0, cfg.resolved_y_min(), cfg.resolved_y_max(), m)
            probes = solve_n(g, cfg.t_end, cfg.dt, probe_rays=cfg.resolved_rays()).diagnostics.probes
            tracks.append([(y, track.tobytes()) for y, track in probes.items()])
        assert tracks[0] == tracks[1]


@pytest.fixture(scope="module")
def traj2():
    g = build_grid(GAUSS, 2.0, -25.0, 1.7, 64)
    return solve_n(g, 2.0, 0.002, snapshot_times=[2.0])


class TestVFromGrid:
    def test_exact_on_nodes(self, traj2):
        g = traj2.grid
        for j in (-64, -32, 0, 17):
            y = (j - g.j_lo + g.j_lo) * g.dy  # a node
            idx = j - g.j_lo
            if 0 <= idx < g.n_nodes:
                expected = math.exp(-2.0 * y) * traj2.snapshots[0][idx]
                assert v_from_grid(traj2, 2.0, math.exp(y)) == pytest.approx(
                    expected, rel=1e-12, abs=1e-300)

    def test_matches_series_between_nodes(self, traj2):
        g = traj2.grid
        for j in (-96, -64, -13, 5):
            y = (j + 0.37) * g.dy
            got = v_from_grid(traj2, 2.0, math.exp(y))
            ref = eval_v(GAUSS, 2.0, 2.0, math.exp(y))
            assert got == pytest.approx(ref, rel=1e-7, abs=1e-30)

    def test_matches_series_on_node_points(self, traj2):
        g = traj2.grid
        for j in (-96, -64, -13, 5):
            y = j * g.dy
            got = v_from_grid(traj2, 2.0, math.exp(y))
            ref = eval_v(GAUSS, 2.0, 2.0, math.exp(y))
            assert got == pytest.approx(ref, rel=1e-6, abs=1e-30)

    def test_zero_above_grid(self, traj2):
        assert v_from_grid(traj2, 2.0, math.exp(traj2.grid.y_nodes()[-1] + 0.5)) == 0.0

    def test_refuses_below_grid(self, traj2):
        with pytest.raises(DomainError, match="below the grid"):
            v_from_grid(traj2, 2.0, math.exp(traj2.grid.y_min - 1.0))

    def test_unsnapshotted_time_rejected(self, traj2):
        with pytest.raises(DomainError, match="not snapshotted"):
            v_from_grid(traj2, 1.37, 0.5)


def _field_solve(grid, t_end, dt, snapshot_times, probe_rays=(), record_every=1):
    """solve_n's clock, records, snapshots and leak monitor, stepping the whole
    field with `step`: the oracle of the weight propagator.  The probes sum,
    point by point, the weights of a unit impulse stepped by `_advance`
    against the profile at every dilate inside its support."""
    snaps = sorted(set(float(t) for t in snapshot_times))
    n_steps = int(math.floor(t_end / dt + 1e-9))
    rec_t = np.array([i * dt for i in range(0, n_steps + 1, record_every)])
    leak_tol = 1e-12 * grid.trapezoid(grid.values)
    log_alpha, (lo, hi) = math.log(grid.alpha), support_y(grid.profile)
    mass, gathered = [], []

    def off_node(d, y):
        if y < grid.y_min:
            return 0.0
        total = 0.0
        for k in range(d.size):
            if lo <= y + k * log_alpha <= hi:
                total += d[k] * profile_eval_y(grid.profile, y + k * log_alpha)
        return total

    def record(vals, d, t):
        mass.append(grid.trapezoid(vals))
        gathered.append([off_node(d, t * y) for y in probe_rays])

    def check_leak(t, vals):
        if vals[:grid.m].max() > leak_tol:    # one node per residue class
            raise MassLeakError(f"mass reached the left grid edge at t = {t:.6g} ")

    out, out_d, current = [], [], grid
    d = np.zeros(int((hi - grid.y_min) / log_alpha) + 2)    # every k a grid point can reach
    d[0] = 1.0
    record(current.values, d, 0.0)
    pending = iter(snaps)
    target = next(pending, None)
    for i in range(n_steps + 1):
        t = i * dt
        if i > 0:
            current, d = step(current, dt), _advance(d, dt)
            check_leak(t, current.values)
            if i % record_every == 0:
                record(current.values, d, t)
        t_next = (i + 1) * dt if i < n_steps else math.inf
        while target is not None and target < t_next - 1e-9 * dt:
            if target <= t + 1e-9 * dt:
                out.append(current.values.copy())
                out_d.append(d)
            else:
                partial = step(current, target - t)
                check_leak(target, partial.values)
                out.append(partial.values)
                out_d.append(_advance(d, target - t))
            target = next(pending, None)
    probes = np.array(gathered).reshape(rec_t.size, -1)
    diag = Diagnostics(rec_t, np.array(mass), {y: probes[:, r] for r, y in enumerate(probe_rays)})
    return Trajectory(grid, np.array(snaps), np.array(out), np.array(out_d), diag)


def _assert_normal_values_close(got, want, rtol=1e-13):
    """got == want to rtol at every normal-range value; below 1e-300 only absolutely."""
    normal = np.abs(want) >= 1e-300
    np.testing.assert_allclose(got[normal], want[normal], rtol=rtol, atol=0.0)
    assert np.all(np.abs(got[~normal] - want[~normal]) < 1e-300)


_LADDER = tuple(0.5 * k for k in range(1, 21)) + tuple(float(t) for t in range(15, 61, 5))
_ORACLE_CONFIGS = {
    "gaussian sigma 0.1": RunConfig(),
    "heaviside ladder": RunConfig(profile=parse_profile("logheaviside a=-1 b=0 height=1"),
                                  snapshots=_LADDER),
    "gaussian sigma 0.5": RunConfig(profile=parse_profile("loggaussian mu=0 sigma=0.5 mass=1")),
    "dt 0.03 off clock": RunConfig(dt=0.03, record_every=3,
                                   snapshots=(1.0, 5.0, 7.31, 20.0, 33.3, 60.0)),
}


class TestWeightPropagator:
    """solve_n propagates the RK4 shift weights; stepping the field is its oracle."""

    @pytest.mark.parametrize("name", list(_ORACLE_CONFIGS))
    def test_matches_the_field_stepper(self, name):
        cfg = _ORACLE_CONFIGS[name]
        g = build_grid(cfg.profile, cfg.params.alpha, cfg.resolved_y_min(),
                       cfg.resolved_y_max(), cfg.m)
        args = (g, cfg.t_end, cfg.dt, cfg.resolved_snapshots(), cfg.resolved_rays(),
                cfg.record_every)
        got, want = solve_n(*args), _field_solve(*args)
        assert got.times.tolist() == want.times.tolist()
        assert got.diagnostics.times.tolist() == want.diagnostics.times.tolist()
        _assert_normal_values_close(got.diagnostics.mass, want.diagnostics.mass)
        assert list(got.diagnostics.probes) == list(want.diagnostics.probes)
        for y, track in want.diagnostics.probes.items():
            _assert_normal_values_close(got.diagnostics.probes[y], track)
        scale = np.max(np.abs(want.snapshots), axis=1, keepdims=True)
        assert np.max(np.abs(got.snapshots - want.snapshots) / scale) <= 1e-13

    @pytest.mark.parametrize("profile, y_min, dt, snapshots", [
        (GAUSS, -12.0, 0.01, [30.0]),
        (LogGaussian(0.0, 0.1, 1e-20), -30.0, 0.01, [30.0]),
        (GAUSS, -10.0, 0.25, [0.3, 0.9, 2.0]),
        (GAUSS, -10.0, 0.25, [0.3, 0.95, 2.0]),      # the partial step to 0.95 trips first
        (LogHeaviside(-1.0, 0.0, 1.0), -8.0, 0.05, [20.0]),
    ])
    def test_leak_trips_when_the_field_stepper_does(self, profile, y_min, dt, snapshots):
        g = build_grid(profile, 2.0, y_min, 1.7, 64)
        trips = []
        for solve in (solve_n, _field_solve):
            with pytest.raises(MassLeakError) as info:
                solve(g, snapshots[-1], dt, snapshots)
            trips.append(re.search(r"at t = (\S+) ", str(info.value)).group(1))
        assert trips[0] == trips[1]

    def test_clock_is_built_as_it_advances(self):
        # 1e7 steps to the horizon, but the monitor trips within the first hundred;
        # up-front record tables would need some 80 MB per array
        g = build_grid(GAUSS, 2.0, -10.0, 1.7, 64)
        rays = RunConfig().resolved_rays()
        with pytest.raises(MassLeakError) as short:
            solve_n(g, 10.0, 0.01, probe_rays=rays)
        tracemalloc.start()
        try:
            with pytest.raises(MassLeakError) as long:
                solve_n(g, 1e5, 0.01, probe_rays=rays)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(long.value) == str(short.value)
        assert peak < 20e6, peak

    def test_weights_are_the_rk4_twin_of_the_poisson_weights(self):
        # the exact flow e^{t (S - I)} has Poisson(t) weights; RK4's converge to
        # them at fourth order in dt
        t, size = 10.0, 200
        poisson = np.array([math.exp(k * math.log(t) - t - math.lgamma(k + 1.0))
                            for k in range(size)])
        errs = []
        for dt in (0.02, 0.01):
            d = np.zeros(size)
            d[0] = 1.0                        # n_0 = S^0 n_0
            for _ in range(round(t / dt)):
                d = _advance(d, dt)
            assert np.all(d >= 0.0)
            assert abs(math.fsum(d) - 1.0) <= 1e-13
            errs.append(float(np.sum(np.abs(d - poisson))))
        assert 12.0 <= errs[0] / errs[1] <= 20.0, errs


def _bits(traj: Trajectory) -> list:
    """Every array a trajectory emits, as bytes, and the probe rays in order."""
    d = traj.diagnostics
    arrays = [traj.times, traj.snapshots, d.times, d.mass, *d.probes.values()]
    return [list(d.probes)] + [(a.shape, a.tobytes()) for a in arrays]


class TestChunkSize:
    """The chunk size bounds the step loop and the record pass, and moves no bit."""

    # dt = 0.05 and _CHUNK = 7: step 7 starts a chunk and step 6 ends one, a
    # snapshot at 6.5 dt is a partial step from a chunk's last step, and
    # t_end = 2.93 ends in a partial step from the last clock step; 5 divides
    # neither 7 nor 256, so successive chunks start their records at other rows
    @pytest.mark.parametrize("profile, record_every", [
        (GAUSS, 1), (GAUSS, 3), (LogHeaviside(-1.0, 0.0, 1.0), 3), (GAUSS, 5)])
    def test_every_output_is_bitwise_the_same(self, monkeypatch, profile, record_every):
        dt = 0.05
        g = build_grid(profile, 2.0, -25.0, 1.7, 16)
        snaps = [6 * dt, 6.5 * dt, 7 * dt, 14 * dt, 1.0, 2.93]
        runs = []
        for chunk in (1, 7, 256):
            monkeypatch.setattr(solver, "_CHUNK", chunk)
            runs.append(_bits(solve_n(g, 2.93, dt, snaps, (-1.0, -0.5), record_every)))
        assert runs[0] == runs[1] == runs[2]

    @pytest.mark.parametrize("y_min, snaps, trip", [
        (-11.95, [3.0], "1.45"),      # on the clock, at step 29 of the fifth 7-chunk
        (-11.9, [1.33, 3.0], "1.33"),  # a partial step, before step 27 ends its chunk
    ])
    def test_leak_trips_with_the_same_message(self, monkeypatch, y_min, snaps, trip):
        g = build_grid(GAUSS, 2.0, y_min, 1.7, 16)
        messages = []
        for chunk in (1, 7, 256):
            monkeypatch.setattr(solver, "_CHUNK", chunk)
            with pytest.raises(MassLeakError) as info:
                solve_n(g, 3.0, 0.05, snaps, record_every=3)
            messages.append(str(info.value))
        assert messages[0] == messages[1] == messages[2]
        assert f"at t = {trip} " in messages[0]

    def test_default_solve_peak_memory(self):
        # the chunk's weight rows and record tables set the peak: 1.5 MB at 256
        # steps per chunk, 2.4 MB at 512 and 4.4 MB at 1024
        cfg = RunConfig()
        g = build_grid(cfg.profile, cfg.params.alpha, cfg.resolved_y_min(),
                       cfg.resolved_y_max(), cfg.m)
        tracemalloc.start()
        try:
            solve_n(g, cfg.t_end, cfg.dt, cfg.resolved_snapshots(), cfg.resolved_rays(),
                    cfg.record_every)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3.5e6, peak


def _shift_sum(d, values, m):
    """sum_k d[k] S^k n_0 at every node: one shifted axpy per k, from zero."""
    out = np.zeros(values.size)
    for k in range(min(d.size, -(-values.size // m))):
        out[:values.size - k * m] += d[k] * values[k * m:]
    return out


class TestNodeValues:
    """Node values are the shift polynomial of each snapshot's weight row."""

    @pytest.mark.parametrize("cfg", [
        RunConfig(),
        RunConfig(profile=parse_profile("logheaviside a=-1 b=0 height=1")),
        _ORACLE_CONFIGS["dt 0.03 off clock"],
        RunConfig(params=ModelParams(g=0.0, b=1.0, alpha=3.0), m=17),
        _ORACLE_CONFIGS["gaussian sigma 0.5"],
    ], ids=["gaussian", "heaviside", "dt 0.03 off clock", "alpha 3, m 17", "gaussian sigma 0.5"])
    def test_snapshots_are_the_shift_sum_bitwise(self, cfg):
        # a node of the wide gaussian sums about nine dilates, so its bits also
        # pin the order of the terms, which a sum of two cannot show
        g = build_grid(cfg.profile, cfg.params.alpha, cfg.resolved_y_min(),
                       cfg.resolved_y_max(), cfg.m)
        traj = solve_n(g, cfg.t_end, cfg.dt, cfg.resolved_snapshots(), (), cfg.record_every)
        for snapshot, d in zip(traj.snapshots, traj.weights):
            assert snapshot.tobytes() == _shift_sum(d, g.values, g.m).tobytes()

    def test_dense_heaviside_solve_peak_memory(self):
        # the chunk tables, the 30 snapshots' weight rows and one array of their
        # node values set the peak: 3.4 MB
        cfg = _ORACLE_CONFIGS["heaviside ladder"]
        g = build_grid(cfg.profile, cfg.params.alpha, cfg.resolved_y_min(),
                       cfg.resolved_y_max(), cfg.m)
        tracemalloc.start()
        try:
            solve_n(g, cfg.t_end, cfg.dt, cfg.resolved_snapshots(), cfg.resolved_rays(),
                    cfg.record_every)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4.5e6, peak


@pytest.fixture(scope="module", params=[
    (LogHeaviside(-1.0, 0.0, 1.0), -20.3, True),
    (GAUSS, -15.1, False),
], ids=["heaviside", "gaussian"])
def weight_rows(request):
    """A shift sum whose node 0 is not a cell boundary, its grid, whether its data
    are constant, and 800 weight rows d to t = 40, past the left edge."""
    profile, y_min, constant = request.param
    g = build_grid(profile, 2.0, y_min, 1.7, 64)
    kernel = solver._ShiftSum(g)
    w = np.zeros(kernel.width)
    w[kernel.right] = 1.0
    rows = []
    for _ in range(800):
        w = _advance(w, 0.05)
        rows.append(w)
    return kernel, g, constant, np.array(rows)[:, kernel.right:]


class TestKernelScreens:
    """The leak monitor's bound, against the node values."""

    def test_head_bound_covers_the_leftmost_nodes(self, weight_rows):
        kernel, g, constant, D = weight_rows
        assert kernel.lo % kernel.m != 0 and kernel.watch == kernel.m
        heads = np.array([_shift_sum(d, g.values, g.m)[:kernel.m] for d in D])
        bound = kernel.head_bound(D)
        assert np.all(bound >= np.abs(heads).max(axis=1))
        if constant:    # constant data: some node meets every cell at its top
            assert np.any(bound <= np.abs(heads).max(axis=1) * (1.0 + 1e-12))


def _covariance_grid(mu, sigma, mass, shift, m, margin):
    """A log-gaussian on a grid whose bounds sit on nodes, `margin` left of its
    support, shifted by `shift` cells."""
    dy = LOG2 / m
    lo = -math.ceil((12.0 * sigma + margin) / dy)
    hi = math.ceil((mu + 12.0 * sigma + 0.3) / dy)
    return build_grid(LogGaussian(mu + shift * dy, sigma, mass), 2.0,
                      (lo + shift) * dy, (hi + shift) * dy, m)


def _solve_or_trip(grid, t_end, dt):
    """solve_n to the clock time nearest t_end, with a snapshot at each of about
    40 records, or the leak trip time."""
    n_steps = max(1, round(t_end / dt))
    every = max(1, n_steps // 40)
    times = [i * dt for i in range(0, n_steps + 1, every)]
    try:
        return solve_n(grid, n_steps * dt, dt, snapshot_times=times, record_every=every,
                       probe_rays=(-2.0 * LOG2, -LOG2, -0.5 * LOG2))
    except MassLeakError as exc:
        return re.search(r"at t = (\S+) ", str(exc)).group(1)


class TestSolverCovariance:
    """The equation is linear and shift covariant; the solver keeps both exactly."""

    # a margin of 4 trips the leak monitor within t = 0.5, one of 30 never before t = 8
    @settings(max_examples=25, deadline=None)
    @given(c=st.floats(1e-12, 1e12), mu=st.floats(-0.3, 0.3), sigma=st.floats(0.05, 0.3),
           margin=st.floats(4.0, 30.0), t_end=st.floats(0.5, 8.0),
           dt=st.sampled_from([0.01, 0.05, 0.1]), m=st.sampled_from([8, 16, 32]))
    def test_scaling_the_mass_scales_every_value(self, c, mu, sigma, margin, t_end, dt, m):
        base = _solve_or_trip(_covariance_grid(mu, sigma, 1.0, 0, m, margin), t_end, dt)
        scaled = _solve_or_trip(_covariance_grid(mu, sigma, c, 0, m, margin), t_end, dt)
        if isinstance(base, str):             # the leak monitor tripped: at the same time
            assert scaled == base
            return
        d, ds = base.diagnostics, scaled.diagnostics
        assert (scaled.snapshots.argmax(axis=1) == base.snapshots.argmax(axis=1)).all()
        np.testing.assert_allclose(ds.mass, c * d.mass, rtol=1e-13)
        np.testing.assert_allclose(scaled.snapshots, c * base.snapshots, rtol=1e-13,
                                   atol=c * 1e-290)
        # every term of a probe's sum is nonnegative, so the sum scales to rounding
        for y, track in d.probes.items():
            np.testing.assert_allclose(ds.probes[y], c * track, rtol=1e-13)

    @settings(max_examples=25, deadline=None)
    @given(k=st.integers(-40, 40), mu=st.floats(-0.3, 0.3), sigma=st.floats(0.05, 0.3),
           margin=st.floats(4.0, 30.0), t_end=st.floats(0.5, 8.0),
           m=st.sampled_from([8, 16, 32]))
    def test_shifting_by_whole_cells_shifts_the_snapshots(self, k, mu, sigma, margin, t_end, m):
        base = _solve_or_trip(_covariance_grid(mu, sigma, 1.0, 0, m, margin), t_end, 0.05)
        moved = _solve_or_trip(_covariance_grid(mu, sigma, 1.0, k, m, margin), t_end, 0.05)
        if isinstance(base, str):
            assert moved == base
            return
        assert moved.grid.j_lo == base.grid.j_lo + k
        # same node count, each node k cells on: the same values at the same index
        scale = np.max(np.abs(base.snapshots), axis=1, keepdims=True)
        assert np.max(np.abs(moved.snapshots - base.snapshots) / scale) <= 1e-13
