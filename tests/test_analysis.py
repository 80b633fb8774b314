"""Rescalings, line probes, period estimation, weak functionals, route comparison."""

import ast
import math
import os
import pathlib
import subprocess
import sys
import warnings

import numpy as np
import pytest

import gflab
from gflab import analysis

from conftest import run_solver
from gflab.analysis import (
    ROUTES,
    Check,
    GridSource,
    LineProbe,
    SeriesSource,
    compare_methods,
    estimate_period,
    line_probe,
    route_u,
    weak_test,
)
from gflab.errors import DomainError, NumericsError
from gflab.model import Dirac, LogGaussian, LogHeaviside, ModelParams, moment, support_y
from gflab.series import eval_n, eval_n_series, eval_v, poisson_cutoff
from gflab.solver import v_from_grid

LOG2 = math.log(2.0)
GAUSS = LogGaussian(0.0, 0.1, 1.0)


def r_of(source, t: float, y: float) -> float:
    """Rescaled line value r(t, y) = t e^{2ty} v(t, e^{yt}) = t n(t, t y)."""
    if not t > 0.0:
        raise DomainError(f"rescaling needs t > 0, got {t}")
    return t * source.n(t, t * y)


def zoomed(phi, t: float, alpha: float = 2.0):
    """phi of the gaussian zoom z = (y + log alpha) sqrt(t) / log alpha, as a function of y:
    weak_test of it is int phi(z) rtilde(t, z) dz."""
    la = math.log(alpha)
    return lambda y: phi((y + la) * math.sqrt(t) / la)


def r_tilde_of(source, t: float, z: float) -> float:
    """Gaussian-window rescaling of r around y0 = -log alpha with sigma = log alpha."""
    if not t > 0.0:
        raise DomainError(f"rescaling needs t > 0, got {t}")
    la = math.log(source.alpha)
    scale = la / math.sqrt(t)
    return r_of(source, t, -la + scale * z) * scale


class TestRescalings:
    def test_r_is_t_times_n_on_the_ray(self, traj_g01):
        # same identity evaluated through two different sources, on a point
        # where t y lands on a node
        gs = GridSource(traj_g01)
        ss = SeriesSource(GAUSS, 2.0)
        t = 5.0
        g = traj_g01.grid
        j = round(5.0 * (-LOG2) / g.dy)
        y = j * g.dy / t
        r_grid = r_of(gs, t, y)
        r_series = r_of(ss, t, y)
        assert r_grid == pytest.approx(t * float(traj_g01.n_at(t, t * y)), rel=1e-14)
        assert r_series == pytest.approx(t * math.exp(2 * t * y) * eval_v(GAUSS, 2.0, t, math.exp(y * t)),
                                         rel=1e-10)
        assert r_grid == pytest.approx(r_series, rel=1e-10)

    def test_r_integral_is_preserved(self, traj_g01):
        gs = GridSource(traj_g01)
        for t in (1.0, 20.0, 60.0):
            assert weak_test(gs, lambda y: 1.0, t) == pytest.approx(1.0, rel=1e-8)

    def test_r_tilde_center_maps_to_concentration_ray(self, traj_g01):
        gs = GridSource(traj_g01)
        t = 20.0
        scale = LOG2 / math.sqrt(t)
        assert r_tilde_of(gs, t, 0.0) == pytest.approx(scale * r_of(gs, t, -LOG2), rel=1e-14)

    def test_r_tilde_smoothed_approaches_gaussian_limit(self, traj_g01):
        # int phi(z) rtilde(t, z) dz -> U0(2) int phi dG for a unit-width test
        gs = GridSource(traj_g01)
        phi = lambda z: math.exp(-0.5 * z * z)
        got = weak_test(gs, zoomed(phi, 60.0), 60.0)
        limit = moment(GAUSS, 1.0) / math.sqrt(2.0)  # int e^{-z^2/2} dG = 1/sqrt(2)
        assert got == pytest.approx(limit, rel=1e-2)

    def test_needs_positive_time(self, traj_g01):
        with pytest.raises(DomainError):
            r_of(GridSource(traj_g01), 0.0, -LOG2)

    def test_envelope_width_grows_like_sqrt_t(self, traj_g01):
        # gaussian fit by moments: the mass-weighted spread of n(t, .) doubles
        # between t and 4t (the oscillation comb only adds an O(1) offset)
        g = traj_g01.grid
        ys = g.y_nodes()

        def fitted_width(t):
            snap = traj_g01.snapshots[traj_g01.snapshot_index(t)]
            mass = np.trapezoid(snap, dx=g.dy)
            mean = np.trapezoid(ys * snap, dx=g.dy) / mass
            var = np.trapezoid((ys - mean) ** 2 * snap, dx=g.dy) / mass
            return math.sqrt(var)

        ratio = fitted_width(40.0) / fitted_width(10.0)
        assert abs(ratio - 2.0) < 0.10

    def test_envelope_dominates_along_the_ray(self, traj_g01):
        # the maximum of sqrt(t) n(t, .) tracks y = -t log 2; it sits on the
        # oscillation comb, so it can trail the ray by up to one tooth, which
        # stays inside 3 sigma sqrt(t) once t >= 20
        g = traj_g01.grid
        late = traj_g01.times >= 20.0
        t = traj_g01.times[late]
        peak_y = g.y_nodes()[traj_g01.snapshots[late].argmax(axis=1)]
        dist = np.abs(peak_y + t * LOG2)
        bound = 3.0 * 0.1 * np.sqrt(t) + 3.0 * g.dy
        assert np.all(dist <= bound)


class TestLineProbe:
    def test_grid_probe_uses_recorded_track(self, traj_g01):
        probe = line_probe(GridSource(traj_g01), -LOG2, t_min=20.0, t_max=30.0)
        assert probe.times[0] >= 20.0 and probe.times[-1] <= 30.0
        assert probe.values.shape == probe.times.shape
        # f values on the concentration ray hover around U0(2)/(sqrt(2 pi) log 2)
        center = 1.0 / (math.sqrt(2 * math.pi) * LOG2)
        assert np.mean(probe.values) == pytest.approx(center, rel=0.05)

    def test_series_probe_matches_grid_probe(self, traj_g01):
        ts = np.array([10.0, 10.25, 10.5])
        gp = line_probe(GridSource(traj_g01), -LOG2, t_min=10.0, t_max=10.5)
        sp = line_probe(SeriesSource(GAUSS, 2.0), -LOG2, times=ts)
        for t, v in zip(sp.times, sp.values):
            i = int(np.argmin(np.abs(gp.times - t)))
            assert v == pytest.approx(gp.values[i], rel=1e-4)

    def test_rejects_nonnegative_rays(self, traj_g01):
        with pytest.raises(DomainError):
            line_probe(GridSource(traj_g01), 0.1)

    def test_untracked_ray_rejected(self, traj_g01):
        with pytest.raises(DomainError, match="not tracked"):
            line_probe(GridSource(traj_g01), -0.123)

    def test_times_required_for_series(self):
        with pytest.raises(DomainError):
            line_probe(SeriesSource(GAUSS, 2.0), -LOG2)

    def test_series_probe_refuses_a_window(self):
        # the window selects from a recorded track; sample times are not trimmed to it
        with pytest.raises(DomainError, match="t_min = 8.0, t_max = 9.0"):
            line_probe(SeriesSource(GAUSS, 2.0), -LOG2, times=[5.0, 10.0, 30.0],
                       t_min=8.0, t_max=9.0)


class TestEstimatePeriod:
    def make_sine(self, period, t0=0.0, t1=40.0, dt=0.01, amp=0.3, drift=0.0):
        ts = np.arange(t0, t1, dt)
        vals = 1.0 + drift * (ts - t0) + amp * np.sin(2 * math.pi * ts / period)
        return LineProbe(y=-1.0, times=ts, values=vals)

    @pytest.mark.parametrize("period", [0.5, 1.0, 2.3])
    def test_recovers_synthetic_period(self, period):
        probe = self.make_sine(period)
        est = estimate_period(probe, expected_period=period)
        assert est.oscillating
        assert abs(est.period - period) < 0.01  # one sample spacing
        assert est.n_cycles >= 3.0

    def test_detrending_removes_slow_drift(self):
        probe = self.make_sine(1.0, drift=0.004)
        est = estimate_period(probe, expected_period=1.0)
        assert abs(est.period - 1.0) < 0.01

    def test_flat_signal_reports_no_oscillation(self):
        probe = self.make_sine(1.0, amp=1e-5)
        est = estimate_period(probe, expected_period=1.0)
        assert not est.oscillating
        assert math.isnan(est.period)
        assert est.amplitude < 1e-3

    def test_window_too_short(self):
        probe = self.make_sine(1.0, t1=2.5)
        with pytest.raises(DomainError, match="window too short"):
            estimate_period(probe, expected_period=1.0)

    @pytest.mark.parametrize("t1, cycles", [(3.5, "0.49"), (5.0, "1.99"), (5.99, "2.98")])
    def test_window_under_six_periods_is_refused_not_read_as_flat(self, t1, cycles):
        # 3 periods go to the detrending mean and 3 must remain: a flat signal in a
        # shorter window is refused, not reported as "no oscillation"
        probe = self.make_sine(1.0, t1=t1, amp=1e-5)
        with pytest.raises(DomainError, match=f"window too short: .* leaves {cycles} cycles"):
            estimate_period(probe, expected_period=1.0)
        assert not estimate_period(self.make_sine(1.0, t1=6.02, amp=1e-5), 1.0).oscillating

    def test_sampling_too_coarse(self):
        probe = self.make_sine(1.0, dt=0.05)
        with pytest.raises(DomainError, match="too coarse"):
            estimate_period(probe, expected_period=1.0)

    def test_nonuniform_sampling_rejected(self):
        ts = np.array([0.0, 0.1, 0.15, 0.4, 0.6, 1.0] * 10) + np.repeat(np.arange(10), 6)
        probe = LineProbe(y=-1.0, times=ts, values=np.ones_like(ts))
        with pytest.raises(DomainError, match="uniformly"):
            estimate_period(probe, expected_period=1.0)

    def test_measured_periods_follow_the_law(self, traj_g01):
        gs = GridSource(traj_g01)
        for y, expected in ((-2 * LOG2, 0.5), (-LOG2, 1.0), (-0.5 * LOG2, 2.0)):
            probe = line_probe(gs, y, t_min=20.0, t_max=60.0)
            est = estimate_period(probe, expected_period=expected)
            assert est.oscillating
            assert abs(est.period - expected) / expected < 0.02

    @pytest.mark.parametrize("n", [16, 4000, 22001])
    def test_lag_limited_autocorrelation_is_the_full_correlate(self, n):
        # the oracle: every lag of the O(N^2) full correlate, compared bit for bit
        d = np.random.default_rng(n).standard_normal(n) * 1e-3
        d -= d.mean()
        lags = min(n, 400)
        full = np.correlate(d, d, mode="full")[n - 1:][:lags]
        got = analysis._autocorrelation(d, lags)
        assert got.view(np.int64).tolist() == full.view(np.int64).tolist()

    def test_real_probe_estimate_is_the_full_correlates(self, traj_g01, monkeypatch):
        # on the three default rays over [20, 100]: the same bits as with the
        # full correlate in place of the lag-limited one
        probes = [line_probe(GridSource(traj_g01), y, t_min=20.0, t_max=100.0)
                  for y in (-2 * LOG2, -LOG2, -0.5 * LOG2)]
        got = [estimate_period(p, expected_period=e) for p, e in zip(probes, (0.5, 1.0, 2.0))]
        monkeypatch.setattr(analysis, "_autocorrelation",
                            lambda d, lags: np.correlate(d, d, mode="full")[d.size - 1:][:lags])
        want = [estimate_period(p, expected_period=e) for p, e in zip(probes, (0.5, 1.0, 2.0))]
        assert all(g.oscillating for g in got)
        assert got == want

    def test_asymptotic_periodicity_of_line_values(self, traj_g01):
        # f_y(t + T_y) drifts from f_y(t) only through the algebraic
        # corrections; by t = 40 the mismatch is under one percent of the range
        probe = line_probe(GridSource(traj_g01), -LOG2, t_min=40.0, t_max=60.0)
        ts, vals = probe.times, probe.values
        shift = int(round(1.0 / (ts[1] - ts[0])))  # T_y = 1 for y = -log 2
        mismatch = np.max(np.abs(vals[shift:] - vals[:-shift]))
        assert mismatch / np.max(np.abs(vals)) < 0.01


class TestWeakFunctionals:
    def test_series_mass_functional(self):
        ss = SeriesSource(GAUSS, 2.0)
        assert weak_test(ss, lambda y: 1.0, 2.0) == pytest.approx(1.0, rel=1e-6)

    def test_far_bump_integral_vanishes(self):
        ss = SeriesSource(GAUSS, 2.0)

        def bump(y):
            if 1.0 < y < 2.0:
                u = 2.0 * (y - 1.0) - 1.0
                return math.exp(-1.0 / (1.0 - u * u))
            return 0.0

        val = weak_test(ss, bump, 40.0)
        assert abs(val) < 1e-6 * moment(GAUSS, 1.0)

    def test_grid_source_honours_a_window(self, traj_g01):
        # phi vanishes outside its window (1, 2), which no dilate of the grid's
        # weight row reaches, so the functional reads 0 as for the series
        def bump(y):
            if 1.0 < y < 2.0:
                u = 2.0 * (y - 1.0) - 1.0
                return math.exp(-1.0 / (1.0 - u * u))
            return 0.0

        val = weak_test(GridSource(traj_g01), bump, 40.0)
        assert abs(val) < 1e-6 * moment(GAUSS, 1.0)

    @pytest.mark.parametrize("t", [0.0, math.inf, math.nan])
    def test_needs_a_finite_positive_time(self, t):
        with pytest.raises(DomainError, match="finite t > 0"):
            weak_test(SeriesSource(GAUSS, 2.0), math.cos, t)

    def test_dirac_data_is_refused(self):
        # it has no density to integrate the weight row against; it read 0
        with pytest.raises(DomainError, match="no pointwise density"):
            weak_test(SeriesSource(Dirac(1.0), 2.0), math.cos, 1.0)

    def test_cos_functional_converges(self, traj_g01):
        gs = GridSource(traj_g01)
        target = math.cos(LOG2)
        errs = [abs(weak_test(gs, math.cos, t) - target) / target for t in (20.0, 60.0)]
        assert errs[1] < errs[0]
        assert errs[1] < 0.02


def quad_over_r(source, phi, t):
    """Oracle: scipy.quad over pointwise r_of, split where a series term
    crosses an edge of the initial support (r jumps there for heaviside data)."""
    from scipy.integrate import quad

    a, b = support_y(source.profile)
    k_top = poisson_cutoff(t, 1e-16) + 2
    edges = sorted({(e - k * LOG2) / t for k in range(k_top + 1) for e in (a, b)})

    def f(y):
        return phi(y) * r_of(source, t, y)

    return math.fsum(quad(f, lo, hi, epsabs=1e-15, epsrel=1e-12, limit=200)[0]
                     for lo, hi in zip(edges, edges[1:]))


class TestTermwiseWeakFunctional:
    @pytest.mark.parametrize("t", [0.5, 2.0, 10.0, 40.0])
    @pytest.mark.parametrize("rescaled", [False, True])
    @pytest.mark.parametrize("profile", [GAUSS, LogHeaviside(-1.0, 0.0, 1.0)],
                             ids=["gaussian", "heaviside"])
    def test_matches_quadrature_over_r(self, profile, rescaled, t):
        ss = SeriesSource(profile, 2.0)
        phi = zoomed(math.cos, t) if rescaled else math.cos
        assert weak_test(ss, phi, t) == pytest.approx(quad_over_r(ss, phi, t), rel=1e-9)

    def test_matches_node_trapezoid(self):
        # n(10, .) is a sum of gaussians resolved by the node spacing, so the
        # trapezoid sum over nodes covering its support is exact to rounding
        dy = LOG2 / 64
        ys = np.arange(-6000, 200) * dy
        n = eval_n_series(GAUSS, 2.0, 10.0, ys)
        f = n * np.cos(ys / 10.0)
        trapz = dy * (math.fsum(f) - 0.5 * (f[0] + f[-1]))
        got = weak_test(SeriesSource(GAUSS, 2.0), math.cos, 10.0)
        assert got == pytest.approx(trapz, rel=1e-12)

    def test_window_isolates_one_lattice_translate(self):
        # at t = 1 the k-th term of r lives on [-0.2 - k log 2, -k log 2]; the
        # edges of phi's window sit in the gaps, so it picks term k = 1 alone
        ss = SeriesSource(LogHeaviside(-0.2, 0.0, 1.0), 2.0)
        got = weak_test(ss, lambda y: 1.0 if -1.0 < y < -0.5 else 0.0, 1.0)
        assert got == pytest.approx(0.2 * math.exp(-1.0), rel=1e-12)

    def test_jump_inside_the_mass_trips_the_node_guard(self):
        ss = SeriesSource(GAUSS, 2.0)
        with pytest.raises(NumericsError, match="Gauss nodes disagree"):
            weak_test(ss, lambda y: 1.0 if y < -0.6 else 0.0, 10.0)

    @pytest.mark.parametrize("alpha", [2.0, 5.0])
    @pytest.mark.parametrize("profile", [GAUSS, LogGaussian(0.3, 0.5, 2.0),
                                         LogHeaviside(-1.0, 0.0, 1.0)],
                             ids=["gaussian", "wide-gaussian", "heaviside"])
    def test_grid_and_series_agree(self, profile, alpha):
        # one termwise integral over two weight rows, RK4 and Poisson: they differ
        # by the time-stepping error alone, also across the heaviside's jumps
        traj = run_solver(profile, alpha, 60.0, 0.01, snapshots=[1.0, 10.0, 60.0], rays=())
        gs, ss = GridSource(traj), SeriesSource(profile, alpha)
        for t in (1.0, 10.0, 60.0):
            for phi in (math.cos, zoomed(math.cos, t, alpha)):
                err = abs(weak_test(gs, phi, t) - weak_test(ss, phi, t))
                assert err <= 1e-9 * moment(profile, 1.0), (t, phi, err)

    @pytest.mark.parametrize("alpha", [1.5, 2.0, 3.0])
    def test_ufunc_phi_is_the_mapped_one(self, alpha):
        # np.cos over a node array returns math.cos's bits, node for node: a
        # property of the platform's numpy that the analyze weak row relies on
        traj = run_solver(GAUSS, alpha, 60.0, 0.01, snapshots=[1.0, 10.0, 60.0], rays=())
        for source in (GridSource(traj), SeriesSource(GAUSS, alpha)):
            for t in (1.0, 10.0, 60.0):
                assert weak_test(source, np.cos, t) == weak_test(source, math.cos, t), (source, t)

    def test_series_weak_test_leaves_scipy_unloaded(self):
        code = ("import math, sys\n"
                "from gflab.analysis import SeriesSource, weak_test\n"
                "from gflab.model import LogGaussian\n"
                "weak_test(SeriesSource(LogGaussian(0.0, 0.1, 1.0), 2.0), math.cos, 10.0)\n"
                "sys.exit('scipy' in sys.modules)")
        env = {**os.environ, "PYTHONPATH": str(pathlib.Path(gflab.__file__).resolve().parents[1])}
        assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


class TestCompareMethods:
    def test_table_structure_and_agreement(self, traj_g01):
        tbl = compare_methods(GAUSS, ModelParams(alpha=2.0), [1.0, 5.0], [0.25, 0.5],
                              traj=traj_g01)
        # three methods -> three pairs per (t, x) cell
        assert len(tbl.rows) == 3 * 4
        assert tbl.max_rel_err("series", "mellin") < 1e-6
        # x = 0.25 and 0.5 sit on grid nodes, so the solver agrees tightly too
        assert tbl.max_rel_err("series", "pde") < 1e-7
        assert not tbl.flagged
        assert "within tolerance" in tbl.summary()

    def test_compares_the_series_the_solver_and_the_contour(self, traj_g01):
        # the contour joins for log-gaussian data only
        heav = LogHeaviside(-1.0, 0.0, 1.0)
        traj = run_solver(heav, 2.0, 1.0, 0.01, snapshots=[1.0], rays=[])
        for profile, trj, pairs in ((GAUSS, traj_g01, {("series", "pde"), ("series", "mellin"),
                                                       ("pde", "mellin")}),
                                    (heav, traj, {("series", "pde")})):
            tbl = compare_methods(profile, ModelParams(alpha=2.0), [1.0], [0.5], trj)
            assert {(r.method_a, r.method_b) for r in tbl.rows} == pairs

    def test_asymptotic_methods_and_domain_gaps(self):
        # the asymptotic routes, reached by name: 0 < x < 1 is their domain
        params = ModelParams(alpha=2.0)
        x = 2.0**-20
        exact = route_u("series", params, GAUSS, 20.0, x)
        assert route_u("asymp-poisson", params, GAUSS, 20.0, x) == pytest.approx(exact, rel=0.01)
        with pytest.raises(DomainError, match="0 < x < 1"):
            route_u("asymp-poisson", params, GAUSS, 20.0, 1.5)

    def test_unknown_method_rejected(self):
        with pytest.raises(DomainError, match="unknown evaluation method"):
            route_u("magic", ModelParams(alpha=2.0), GAUSS, 1.0, 0.5)

    def test_flags_violations(self, traj_g01, monkeypatch):
        tbl = compare_methods(GAUSS, ModelParams(alpha=2.0), [5.0], [0.5], traj=traj_g01)
        assert not tbl.flagged
        monkeypatch.setattr(analysis, "PDE_CELL_TOL", 1e-16)
        tbl = compare_methods(GAUSS, ModelParams(alpha=2.0), [5.0], [0.5], traj=traj_g01)
        assert tbl.flagged

    def test_rows_carry_their_pair_tolerance(self, traj_g01, monkeypatch):
        # each row holds the gate it was judged by, read when the table is built
        monkeypatch.setattr(analysis, "MELLIN_TOL", 1e-16)
        tbl = compare_methods(GAUSS, ModelParams(alpha=2.0), [5.0], [0.5, 0.6], traj=traj_g01)
        tols = {(r.method_a, r.method_b): r.tol for r in tbl.rows}
        assert tols == {("series", "pde"): 2e-3, ("series", "mellin"): 1e-16,
                        ("pde", "mellin"): 2e-3}
        assert any(r.flagged for r in tbl.rows)
        assert all(r.flagged == (r.rel_err > r.tol) for r in tbl.rows)

    def test_pde_cells_below_the_grid_are_nan(self):
        # the grid of `compare --t 1,5`, solved to t_end = 5: x = 1e-30 lies below it,
        # where the series gives 9.9e-100 and 1.4e-31, so a pde cell of 0 would be flagged
        traj = run_solver(GAUSS, 2.0, 5.0, 0.01, snapshots=[1.0, 5.0], rays=[])
        assert math.log(1e-30) < traj.grid.y_min
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tbl = compare_methods(GAUSS, ModelParams(alpha=2.0), [1.0, 5.0], [1e-30, 0.5],
                                  traj=traj)
        below = [r for r in tbl.rows if "pde" in (r.method_a, r.method_b) and r.x == 1e-30]
        assert len(below) == 4
        assert all(math.isnan(r.rel_err) and not r.flagged for r in below)
        assert all(math.isnan(r.val_a if r.method_a == "pde" else r.val_b) for r in below)
        assert tbl.max_rel_err("series", "mellin") < 1e-6
        assert not tbl.refusals and not tbl.flagged
        assert "all cells within tolerance" in tbl.summary()


class TestRoutes:
    @pytest.mark.parametrize("t, x", [(math.inf, 0.5), (math.nan, 0.5), (1.0, math.inf)],
                             ids=["t=inf", "t=nan", "x=inf"])
    @pytest.mark.parametrize("route", [*ROUTES, "pde", "eval_n", "n_at"])
    def test_non_finite_input_is_a_domain_error(self, traj_g01, route, t, x):
        # every route entry refuses it; none returns a value, overflows or warns
        fns = {**ROUTES, "pde": lambda p, alpha, t, x: v_from_grid(traj_g01, t, x),
               "eval_n": lambda p, alpha, t, x: eval_n(p, alpha, t, math.log(x)),
               "n_at": lambda p, alpha, t, x: traj_g01.n_at(t, math.log(x))}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError):
                fns[route](GAUSS, 2.0, t, x)

    @pytest.mark.parametrize("module", ["solver", "mellin", "series"])
    def test_routes_import_only_errors_and_model(self, module):
        # the routes stay independent: the solver and the contour never import
        # the series, nor the series either of them
        tree = ast.parse((pathlib.Path(gflab.__file__).parent / f"{module}.py").read_text())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("gflab")):
                if node.module in (None, "gflab"):
                    imported |= {alias.name for alias in node.names}
                else:
                    imported.add(node.module.removeprefix("gflab."))
            elif isinstance(node, ast.Import):
                imported |= {a.name.removeprefix("gflab.") for a in node.names
                             if a.name.startswith("gflab")}
        assert imported == {"errors", "model"}


class TestCheck:
    @pytest.mark.parametrize("measured, tol, failed", [
        (1e-3, 1e-2, False), (1e-2, 1e-2, False), (2e-2, 1e-2, True),
        (math.nan, 1e-2, True), (math.inf, 1e-2, True), (math.nan, None, False),
        (1e300, None, False), (np.float64(-1.0), 0.0, False),
    ])
    def test_fails_unless_measured_is_within_tolerance(self, measured, tol, failed):
        # a row without a tolerance only reports; a NaN is never within one
        assert Check("line", "label", measured, tol).failed is failed
