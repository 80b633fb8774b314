"""Acceptance suite: every exit criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass/fail line per
criterion.  Tolerances are fixed here, not calibrated elsewhere.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from conftest import BUILD_SECONDS, LOG2, RAYS_A2, run_solver
from gflab.analysis import GridSource, SeriesSource, estimate_period, line_probe, weak_test
from gflab.mellin import asymp_v_poisson, asymp_v_theta, inverse_mellin_v, psi
from gflab.model import Dirac, LogGaussian, LogHeaviside, ModelParams, moment
from gflab.series import eval_n_series, eval_v, support_set
from gflab.solver import build_grid, solve_n
from test_series import moment_of_v

GAUSS = LogGaussian(0.0, 0.1, 1.0)


@contextmanager
def criterion(num, name):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {num} ({name}): FAIL")
        raise
    print(f"\nACCEPTANCE {num} ({name}): PASS")


def test_01_three_route_agreement():
    with criterion(1, "three-route agreement"):
        start = time.perf_counter()
        # solver vs series on the grid nodes
        grid = build_grid(GAUSS, 2.0, -56.0, 1.7, 64)
        traj = solve_n(grid, 20.0, 0.0025, snapshot_times=[1.0, 5.0, 10.0, 20.0])
        ys = grid.y_nodes()
        for t, snap in zip(traj.times, traj.snapshots):
            exact = eval_n_series(GAUSS, 2.0, float(t), ys)
            err = float(np.max(np.abs(snap - exact)))
            assert err / float(np.max(np.abs(exact))) < 1e-7, (t, err)
            assert err < 1e-7, (t, err)
        # series vs contour inversion, pointwise
        for t in (0.5, 1.0, 2.0):
            for x in (0.25, 0.5, 0.75):
                ref = eval_v(GAUSS, 2.0, t, x)
                got = inverse_mellin_v(GAUSS, 2.0, t, x)
                assert abs(got - ref) / ref < 1e-6, (t, x)
        assert time.perf_counter() - start < 60.0


def test_02_moment_laws(traj_g01):
    with criterion(2, "moment laws"):
        # closed form: first moment of v is time-invariant
        for t in (0.0, 0.5, 3.0, 17.0, 40.0):
            assert abs(moment_of_v(GAUSS, 2.0, 1.0, t) - moment(GAUSS, 1.0)) <= 1e-8
        # solver quadrature conserves it over the whole horizon
        diag = traj_g01.diagnostics
        mask = diag.times <= 40.0
        assert float(np.max(np.abs(diag.mass[mask] - 1.0))) < 1e-6
        # zeroth moment grows like e^{(alpha - 1) t}
        m0 = moment(GAUSS, 0.0)
        for t in (0.5, 1.0, 2.0, 5.0):
            ys = np.arange(-45.0, 1.5, 0.004)
            quadrature = float(np.trapezoid(
                np.exp(-ys) * eval_n_series(GAUSS, 2.0, t, ys), dx=0.004))
            target = m0 * math.exp(t)
            assert abs(quadrature - target) / target < 1e-6
            assert abs(moment_of_v(GAUSS, 2.0, 0.0, t) - target) <= 1e-12 * target


def test_03_period_law(traj_g01, traj_a3):
    with criterion(3, "period law T = -log(alpha)/y"):
        start = time.perf_counter()
        src = GridSource(traj_g01)
        for y, expected in zip(RAYS_A2, (0.5, 1.0, 2.0)):
            probe = line_probe(src, y, t_min=20.0, t_max=100.0)
            est = estimate_period(probe, expected_period=expected)
            assert est.oscillating
            assert abs(est.period - expected) / expected < 0.02, (y, est.period)
        probe3 = line_probe(GridSource(traj_a3), -math.log(3.0), t_min=20.0, t_max=100.0)
        est3 = estimate_period(probe3, expected_period=1.0)
        assert abs(est3.period - 1.0) < 0.02
        elapsed = (time.perf_counter() - start
                   + BUILD_SECONDS.get("g01", 0.0) + BUILD_SECONDS.get("a3", 0.0))
        assert elapsed < 120.0


def test_04_oscillation_visibility(traj_g01, traj_g02, traj_g05):
    with criterion(4, "oscillation visibility vs initial width"):
        amps = {}
        for sigma, traj in ((0.1, traj_g01), (0.2, traj_g02), (0.5, traj_g05)):
            probe = line_probe(GridSource(traj), -LOG2, t_min=35.0, t_max=45.0)
            amps[sigma] = estimate_period(probe, expected_period=1.0).amplitude
        assert amps[0.1] > 1e-3
        assert amps[0.2] > 1e-3
        assert amps[0.1] > amps[0.2]
        assert amps[0.5] < 1e-3, amps


def test_05_weak_convergence(traj_g01):
    with criterion(5, "weak convergence of the ray rescaling"):
        src = GridSource(traj_g01)
        # cos functional within 2 percent of U0(2) cos(log 2) by t = 60
        target = moment(GAUSS, 1.0) * math.cos(LOG2)
        val = weak_test(src, math.cos, 60.0)
        assert abs(val - target) / abs(target) < 0.02
        # mass functional equals U0(2) throughout
        assert float(np.max(np.abs(traj_g01.diagnostics.mass - 1.0))) < 1e-6
        # a bump away from -log 2 carries no mass by t = 40
        def bump(y):
            if 1.0 < y < 2.0:
                u = 2.0 * (y - 1.0) - 1.0
                return math.exp(-1.0 / (1.0 - u * u))
            return 0.0
        ss = SeriesSource(GAUSS, 2.0)
        assert abs(weak_test(ss, bump, 40.0, y_window=(1.0, 2.0))) < 1e-6 * moment(GAUSS, 1.0)


def test_06_asymptotic_formulas():
    with criterion(6, "saddle asymptotics on the concentration line"):
        errs = []
        for t in (10.0, 15.0, 20.0, 25.0, 30.0):
            x = 2.0**-t
            exact = eval_v(GAUSS, 2.0, t, x)
            errs.append(abs(asymp_v_poisson(GAUSS, 2.0, t, x) - exact) / exact)
        assert errs[3] < 0.10, errs
        assert all(e2 <= e1 for e1, e2 in zip(errs, errs[1:])), errs
        # theta and dilation forms are resummations of each other
        for t in (10.0, 25.0):
            for x in (2.0**-t, 1.3 * 2.0**-t):
                a = asymp_v_theta(GAUSS, 2.0, t, x)
                b = asymp_v_poisson(GAUSS, 2.0, t, x)
                assert abs(a - b) / abs(b) < 1e-8


def test_07_saddle_data():
    with criterion(7, "saddle exponent values"):
        v, d1, d2 = psi(2.0, -LOG2)
        assert abs(v) <= 1e-12
        assert abs(d1) <= 1e-12
        assert abs(d2 - (-1.0 / LOG2**2)) <= 1e-12
        assert abs(psi(2.0, -2.0 * LOG2)[0] - (1.0 - 2.0 * LOG2)) <= 1e-12
        assert abs(psi(2.0, -0.5 * LOG2)[0] - (LOG2 - 1.0) / 2.0) <= 1e-12


def test_08_heaviside_shape_persistence(traj_h10):
    with criterion(8, "heaviside oscillations keep their shape"):
        # oscillations still visible at t = 40
        probe = line_probe(GridSource(traj_h10), -LOG2, t_min=35.0, t_max=45.0)
        est = estimate_period(probe, expected_period=1.0)
        assert est.oscillating and est.amplitude > 1e-3
        # the instantaneous profile is a plateau staircase whose jumps sit on
        # the lattice translates of the initial jump locations 0 and -1
        t = 40.0
        snap = traj_h10.snapshots[traj_h10.snapshot_index(t)]
        g = traj_h10.grid
        ys = g.y_nodes()
        center = ys[int(np.argmax(snap))]
        window = (ys >= center - 2.0) & (ys <= center + 2.0)
        dn = np.abs(np.diff(snap[window.nonzero()[0]]))
        mids = 0.5 * (ys[window][1:] + ys[window][:-1])
        lattice = np.concatenate([[-k * LOG2 for k in range(90)],
                                  [-1.0 - k * LOG2 for k in range(90)]])
        jumps = mids[dn > 0.25 * np.max(dn)]
        assert jumps.size > 0
        for y_jump in jumps:
            assert np.min(np.abs(lattice - y_jump)) <= 1.1 * g.dy, y_jump
        # plateaus in between: the typical cell-to-cell change is negligible
        assert np.median(dn) < 1e-6 * np.max(dn)


def test_09_dirac_support_lattice():
    with criterion(9, "dirac support lattice and moment"):
        atom = Dirac(x0=1.0, weight=1.0)
        for g in (0.0, 0.4, LOG2):
            params = ModelParams(g=g, b=1.0, alpha=2.0)
            for t in (0.25, 1.0, 4.0):
                atoms = support_set(atom, params, t)
                m1 = math.fsum(w * x for x, w in atoms)
                assert abs(m1 - 1.0) <= 1e-12, (g, t, m1)
        params = ModelParams(g=LOG2, b=1.0, alpha=2.0)
        locs = [x for x, _ in support_set(atom, params, 1.0)[:9]]
        assert locs == pytest.approx([2.0 ** (1 - k) for k in range(9)], rel=1e-12)


def test_10_solver_order():
    with criterion(10, "fourth-order time stepping"):
        grid = build_grid(GAUSS, 2.0, -22.0, 1.7, 64)
        exact = eval_n_series(GAUSS, 2.0, 2.0, grid.y_nodes())
        errs = []
        for dt in (0.2, 0.1, 0.05, 0.025):
            traj = solve_n(grid, 2.0, dt, snapshot_times=[2.0])
            err = float(np.max(np.abs(traj.snapshots[0] - exact)))
            assert err > 1e-12  # above the rounding floor, so the order is observable
            errs.append(err)
        orders = [math.log2(e1 / e2) for e1, e2 in zip(errs, errs[1:])]
        assert all(3.7 <= o <= 4.3 for o in orders), (errs, orders)
