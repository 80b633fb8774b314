"""The pointwise routes against their earlier bodies (tests/oracles.py), bit for bit.

The searches that size the series and the contour must take few steps (that
they return the integers of a search one index at a time is checked in
test_series.py and test_mellin.py); the series sum, the contour and its tail
bound, and the theta and Poisson forms must return the floats, error
estimates and messages of the bodies they replaced.  Values are compared
with ==.
"""

import math
import random

import numpy as np
import oracles
import pytest

from gflab import series
from gflab.errors import GFLabError, NumericsError, QuadratureError, TruncationError
from gflab.mellin import (
    ContourQuad,
    _contour_value,
    _poisson_reach,
    _tail_bound,
    asymp_v_poisson,
    asymp_v_theta,
    inverse_mellin_v,
    saddle_abscissa,
)
from gflab.model import LogGaussian, LogHeaviside, density_from_log_x, profile_eval_y
from gflab.series import _series_sum, eval_n, eval_v, poisson_cutoff

def outcome(fn, *args):
    """A route's value, or the type, message and estimate of the error it raised
    (an OverflowError too: the earlier asymp_v_poisson let math.exp raise one)."""
    try:
        return fn(*args)
    except (GFLabError, OverflowError) as exc:
        return type(exc).__name__, str(exc), getattr(exc, "achieved_bound", None)


def same_outcome(got, want) -> bool:
    """got, a route's outcome, is want, its earlier body's; where the earlier
    Poisson form overflowed, the route refuses the point with a NumericsError."""
    if isinstance(want, tuple) and want[0] == "OverflowError":
        return isinstance(got, tuple) and got[0] == "NumericsError"
    return got == want


def routes_table(seed: int) -> list[tuple[float, float]]:
    """The (t, x) table of the benchmark's routes-pointwise workload: 20 x 10
    jittered cells over t in [0.5, 60] and rays y in [-2, -1/2] log 2, x = e^{yt}."""
    rng = random.Random(seed)
    la = math.log(2.0)
    table = []
    for i in range(20):
        for j in range(10):
            t = 0.5 + (i + rng.random()) * 59.5 / 20
            y = -2.0 * la + (j + rng.random()) * 1.5 * la / 10
            table.append((t, math.exp(y * t)))
    return table


def series_v(p, alpha, t, x):
    """series.eval_v with the earlier series sum."""
    if t == 0.0:
        return eval_v(p, alpha, t, x)
    with np.errstate(over="ignore", invalid="ignore"):
        v = oracles.series_sum(density_from_log_x, p, alpha * alpha * t, math.log(x),
                               math.log(alpha), -t)
    if not math.isfinite(v):
        raise NumericsError(f"series: v({t:g}, {x:g}) = {v} is not finite")
    return v


class TestSearches:
    def test_cutoff_takes_few_tail_bounds(self, monkeypatch):
        # 12.6 per cutoff on average when the search stepped up from ceil(lam)
        calls, bound = [], series._poisson_tail_log_bound

        def counted(lam, k):
            calls.append(k)
            return bound(lam, k)

        monkeypatch.setattr(series, "_poisson_tail_log_bound", counted)
        lams = [4.0 * t for t, _ in routes_table(1)]
        for lam in lams:
            poisson_cutoff(lam, 1e-14)
        assert len(calls) <= 5 * len(lams)

    def test_reach_takes_few_lgammas(self, monkeypatch):
        # 20 per reach on average when both sides stepped out from the mode
        calls, lgamma = [], math.lgamma

        def counted(x):
            calls.append(x)
            return lgamma(x)

        p = LogGaussian(0.0, 0.1, 1.0)
        lams = [t * 2.0 ** (2.0 - saddle_abscissa(p, 2.0, t, x)) for t, x in routes_table(1)]
        monkeypatch.setattr(math, "lgamma", counted)
        for lam in lams:
            _poisson_reach(lam)
        assert len(calls) <= 10 * len(lams)


GAUSSIANS = [LogGaussian(0.0, 0.1, 1.0), LogGaussian(0.0, 0.05, 1.0), LogGaussian(0.0, 0.5, 1.0),
             LogGaussian(0.7, 0.1, 2.0**30), LogGaussian(-1.3, 0.5, 2.0**-30)]
HEAVISIDES = [LogHeaviside(-1.0, 0.0, 1.0), LogHeaviside(-5.0, 0.0, 1.0),
              LogHeaviside(-5.0, 0.0, 2.0**-30)]


def series_points(seed: int, alpha: float) -> list[tuple[float, float]]:
    """Seeded (t, x): rays, far tails on both sides, t = 0, and points whose
    dilates land exactly on the heaviside jumps at -1, -5 and 0."""
    rng = random.Random(seed)
    la = math.log(alpha)
    points = [(0.0, 0.5), (0.0, math.exp(-1.0)), (1.0, 1.0), (1.0, 1e-300), (50.0, 1e30)]
    for _ in range(40):
        t = rng.uniform(0.5, 120.0)
        points.append((t, math.exp(rng.uniform(-2.5, -0.3) * la * t)))
        points.append((t, math.exp(rng.uniform(-12.0, 3.0))))
    for jump in (-1.0, -5.0, 0.0):
        for k in (0, 1, 3, 7):
            points.append((rng.uniform(0.5, 30.0), math.exp(jump - k * la)))
    return points


class TestSeriesSum:
    @pytest.mark.parametrize("alpha", [1.5, 2.0, 3.0])
    @pytest.mark.parametrize("p", GAUSSIANS + HEAVISIDES, ids=repr)
    def test_values_are_the_earlier_sum(self, p, alpha):
        for t, x in series_points(17, alpha):
            assert outcome(eval_v, p, alpha, t, x) == outcome(series_v, p, alpha, t, x), (t, x)

    @pytest.mark.parametrize("p", [GAUSSIANS[1], GAUSSIANS[2], GAUSSIANS[4]], ids=repr)
    def test_underflow_edges_are_the_earlier_sum(self, p):
        # small t and x across the whole span where the density is nonzero: at the
        # window's ends values are subnormal, and a wide gaussian has nonzero
        # terms past the Poisson cutoff
        for alpha in (1.5, 2.0, 3.0):
            for t in (0.5, 1.0, 3.0):
                for log_x in np.linspace(-45.0, 12.0, 240).tolist():
                    x = math.exp(log_x)
                    assert outcome(eval_v, p, alpha, t, x) == outcome(series_v, p, alpha, t, x)

    @pytest.mark.parametrize("p", GAUSSIANS, ids=repr)
    def test_subnormal_values_are_the_earlier_sum(self, p):
        # right of the support only the k = 0 term is left, so where u0(x) is
        # subnormal so is v: the terms at the edge of double underflow count
        log_xs = p.mu + p.sigma * np.linspace(30.0, 45.0, 3000)
        u0 = density_from_log_x(p, log_xs)
        edge = log_xs[(u0 > 0.0) & (u0 < 1e-300)].tolist()
        assert len(edge) > 20
        for t in (0.5, 2.0):
            for log_x in edge:
                x = math.exp(log_x)
                assert outcome(eval_v, p, 2.0, t, x) == outcome(series_v, p, 2.0, t, x)

    @pytest.mark.parametrize("mass", [1e300])
    def test_overflows_are_the_earlier_refusals(self, mass):
        # inf past 1e300; a scale that itself overflows is refused when it is built
        p = LogGaussian(0.0, 0.1, mass)
        for t, x in ((5.0, 0.5), (30.0, 2.0**-30), (100.0, 1e-60), (1.0, 1e-300)):
            assert outcome(eval_v, p, 2.0, t, x) == outcome(series_v, p, 2.0, t, x), (t, x)

    @pytest.mark.parametrize("p", GAUSSIANS[:3] + HEAVISIDES[:2], ids=repr)
    def test_log_coordinates_are_the_earlier_sum(self, p):
        rng = random.Random(5)
        for _ in range(60):
            t, y = rng.uniform(0.5, 80.0), rng.uniform(-3.0, -0.3) * math.log(2.0)
            got = outcome(eval_n, p, 2.0, t, y * t)
            want = outcome(oracles.series_sum, profile_eval_y, p, t, y * t, math.log(2.0), -t)
            assert got == want, (t, y)

    @pytest.mark.parametrize("p", [GAUSSIANS[0], HEAVISIDES[0]], ids=repr)
    @pytest.mark.parametrize("alpha,t,x", [(2.0, 3000.0, 0.5), (2.0, 2400.0, 1e-3),
                                           (1.001, 1.0, 1e-10), (1.001, 3000.0, 1e-10)])
    def test_truncation_errors_are_the_earlier_ones(self, p, alpha, t, x):
        # past the cap through the Poisson bulk, through the dilation window, or both
        got = outcome(eval_v, p, alpha, t, x)
        assert got[0] == "TruncationError"
        assert got == outcome(series_v, p, alpha, t, x)

    def test_cap_check_meets_the_direct_sum(self):
        # the sum of the earlier body, through the same kernel arguments as route_u uses
        p = GAUSSIANS[3]
        for lam in (0.3, 40.0, 9000.0, 9700.0):
            for start in (-80.0, -7.0, 0.5):
                got = outcome(_series_sum, density_from_log_x, p, lam, start, math.log(2.0), -lam,
                              -2.0)
                want = outcome(oracles.series_sum, density_from_log_x, p, lam, start,
                               math.log(2.0), -lam)
                assert got == want, (lam, start)


# the node series' profiles: every series profile above, and a gaussian wide
# enough that its windows widen
NODE_PROFILES = GAUSSIANS + [LogGaussian(0.0, 2.0, 1.0)] + HEAVISIDES[:2]


def series_nodes(seed: int, p, alpha: float) -> np.ndarray:
    """Seeded sorted nodes over the support and both tails, and for heaviside
    data the nodes whose dilates land exactly on its jumps."""
    y = np.random.default_rng(seed).uniform(-80.0, 30.0, 1500)
    if isinstance(p, LogHeaviside):
        k = np.arange(40) * math.log(alpha)
        y = np.concatenate([y, p.a - k, p.b - k])
    return np.sort(y)


class TestNodeSeries:
    @pytest.mark.parametrize("alpha", [1.5, 2.0, 3.0])
    @pytest.mark.parametrize("p", NODE_PROFILES, ids=repr)
    def test_values_are_the_earlier_sum(self, p, alpha):
        y = series_nodes(29, p, alpha)
        for t in (0.0, 0.3, 1.0, 7.0, 60.0, 240.0):
            got = series.eval_n_series(p, alpha, t, y)
            want = oracles.eval_n_series(p, alpha, t, y)
            # bit for bit
            assert got.tobytes() == want.tobytes(), (t, np.flatnonzero(got != want)[:5])


def contour_points(seed: int):
    rng = random.Random(seed)
    for p in (LogGaussian(0.0, 0.1, 1.0), LogGaussian(0.0, 0.05, 1.0),
              LogGaussian(0.4, 0.3, 2.0**-30)):
        for alpha in (1.5, 2.0, 4.0):
            la = math.log(alpha)
            for _ in range(8):
                t = rng.uniform(0.5, 60.0)
                yield p, alpha, t, math.exp(rng.uniform(-2.0, -0.5) * la * t)
            yield p, alpha, 1.0, 0.5


class TestContour:
    def test_values_and_refusals_are_the_earlier_ones(self):
        outcomes = [(outcome(inverse_mellin_v, *args), outcome(oracles.inverse_mellin_v, *args))
                    for args in contour_points(3)]
        assert all(got == want for got, want in outcomes)
        # the table holds refusals too, whose estimates are compared above
        assert any(isinstance(got, tuple) and got[0] == "QuadratureError" for got, _ in outcomes)

    def test_sums_and_tail_bound_are_the_earlier_ones(self):
        for p, alpha, t, x in contour_points(4):
            cq = ContourQuad.for_gaussian(p, alpha, t, saddle_abscissa(p, alpha, t, x))
            args = (p, alpha, t, math.log(x), cq.nu, cq.tau_max)
            assert _contour_value(*args, cq.n_nodes) == oracles.contour_value(*args, cq.n_nodes)
            assert _tail_bound(*args) == oracles.tail_bound(*args)
            # a short truncation leaves a tail bound that is not 0
            short = (p, alpha, t, math.log(x), cq.nu, 0.25 * cq.tau_max)
            assert _tail_bound(*short) == oracles.tail_bound(*short)

    def test_sizing_is_the_earlier_one(self):
        for p, alpha, t, x in contour_points(5):
            nu = saddle_abscissa(p, alpha, t, x)
            want = oracles.for_gaussian(p, alpha, t, nu)
            assert ContourQuad.for_gaussian(p, alpha, t, nu) == want


class TestAsymptoticForms:
    @pytest.mark.parametrize("p", GAUSSIANS + HEAVISIDES, ids=repr)
    def test_values_and_refusals_are_the_earlier_ones(self, p):
        for alpha in (1.5, 2.0, 3.0):
            for t, x in series_points(23, alpha):
                if t == 0.0 or not 0.0 < x < 1.0:
                    continue
                for route, oracle in ((asymp_v_theta, oracles.asymp_v_theta),
                                      (asymp_v_poisson, oracles.asymp_v_poisson)):
                    got, want = outcome(route, p, alpha, t, x), outcome(oracle, p, alpha, t, x)
                    assert same_outcome(got, want), (route.__name__, alpha, t, x)

    @pytest.mark.parametrize("p,t,x,error", [
        (LogGaussian(0.0, 0.01, 1.0), 25.0, math.exp(-20.0), QuadratureError),
        (LogGaussian(0.0, 1e-3, 1.0), 25.0, 2.0**-25, TruncationError),
        (LogGaussian(0.0, 0.1, 1e300), 25.0, 1e-10, NumericsError),
    ])
    def test_theta_refusals_are_the_earlier_ones(self, p, t, x, error):
        got = outcome(asymp_v_theta, p, 2.0, t, x)
        assert got[0] == error.__name__
        assert got == outcome(oracles.asymp_v_theta, p, 2.0, t, x)

    @pytest.mark.parametrize("x", [1e-300, 1e-200])
    def test_poisson_prefactor_overflow_is_refused(self, x):
        p = LogGaussian(0.0, 0.1, 1.0)
        assert outcome(oracles.asymp_v_poisson, p, 1.5, 1.0, x)[0] == "OverflowError"
        got = outcome(asymp_v_poisson, p, 1.5, 1.0, x)
        assert got == ("NumericsError", f"Poisson asymptotics: v(1, {x:g}) = nan is not finite",
                       None)

    def test_routes_table(self):
        p = LogGaussian(0.0, 0.1, 1.0)
        for t, x in routes_table(1):
            for route, oracle in ((asymp_v_theta, oracles.asymp_v_theta),
                                  (asymp_v_poisson, oracles.asymp_v_poisson),
                                  (inverse_mellin_v, oracles.inverse_mellin_v)):
                assert same_outcome(outcome(route, p, 2.0, t, x), outcome(oracle, p, 2.0, t, x))
            assert outcome(eval_v, p, 2.0, t, x) == outcome(series_v, p, 2.0, t, x)
