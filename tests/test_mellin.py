"""Spectral route: symbol, saddle data, contour inversion, asymptotic forms."""

import cmath
import math
import random

import numpy as np
import oracles
import pytest
import reference
from hypothesis import given, settings
from hypothesis import strategies as st

from gflab import mellin
from gflab.analysis import route_u
from gflab.errors import DomainError, QuadratureError, TruncationError
from gflab.mellin import (
    ERR_TOL,
    ContourQuad,
    K_of_s,
    _contour_value,
    _log_integrand,
    _poisson_reach,
    asymp_v_poisson,
    asymp_v_theta,
    default_poisson_range,
    inverse_mellin_v,
    poisson_sum,
    psi,
    s_k,
    s_plus,
    saddle_abscissa,
)
from gflab.model import (
    Dirac,
    LogGaussian,
    LogHeaviside,
    ModelParams,
    density_from_log_x,
    mellin_U0,
    profile_eval_x,
)
from gflab.series import eval_v

LOG2 = math.log(2.0)
GAUSS = LogGaussian(0.0, 0.1, 1.0)
HEAVI = LogHeaviside(-0.2, 0.0, 1.0)


class TestSymbol:
    def test_fixed_point_at_two(self):
        assert K_of_s(2.0, 2.0) == pytest.approx(1.0)
        assert K_of_s(3.7, 2.0) == pytest.approx(1.0)

    def test_value_at_zero(self):
        assert K_of_s(2.0, 0.0) == pytest.approx(4.0)

    def test_periodicity_along_contour(self):
        # period 2 pi / log alpha in Im s, the root of the oscillation story
        period = 2.0 * math.pi / LOG2
        assert K_of_s(2.0, 2.0 + 1j * period) == pytest.approx(1.0, abs=1e-12)
        taus = np.linspace(-20.0, 20.0, 41)
        lhs = K_of_s(2.0, 2.0 + 1j * taus)
        rhs = K_of_s(2.0, 2.0 + 1j * (taus + period))
        assert np.allclose(lhs, rhs, rtol=1e-12)


class TestSaddle:
    def test_concentration_line_gives_two(self):
        for t in (0.5, 3.0, 20.0):
            assert s_plus(2.0, t, 2.0**-t) == pytest.approx(2.0, rel=1e-14)

    def test_double_speed_line(self):
        # x = alpha^{-2t} gives 2 - log(2)/log(alpha); equal to 1 for alpha = 2
        assert s_plus(2.0, 3.0, 2.0 ** (-2 * 3.0)) == pytest.approx(1.0, rel=1e-13)

    @pytest.mark.parametrize("y", [-0.2, -LOG2, -1.9])
    def test_constant_along_rays(self, y):
        vals = [s_plus(2.0, t, math.exp(y * t)) for t in (1.0, 5.0, 25.0)]
        assert max(vals) - min(vals) < 1e-13

    @pytest.mark.parametrize("t", [0.5, 2.0, 17.0])
    @pytest.mark.parametrize("x", [1e-6, 0.2, 0.8, 0.999])
    def test_consistency_identity(self, t, x):
        sp = s_plus(2.0, t, x)
        back = math.exp(-t * LOG2 * 2.0 ** (2.0 - sp))
        assert back == pytest.approx(x, rel=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            s_plus(2.0, 1.0, 1.0)
        with pytest.raises(DomainError):
            s_plus(2.0, 0.0, 0.5)

    def test_lattice_translates(self):
        assert s_k(2.0, 0, 2.0) == 2.0 + 0j
        assert s_k(2.0, 1, 2.0) == pytest.approx(2.0 - 2j * math.pi / LOG2)
        # the symbol cannot tell the translates apart
        for k in range(-4, 5):
            assert K_of_s(2.0, s_k(1.3, k, 2.0)) == pytest.approx(
                K_of_s(2.0, 1.3), abs=1e-12)


class TestPsi:
    def test_maximum_at_concentration_ray(self):
        v, d1, d2 = psi(2.0, -LOG2)
        assert v == pytest.approx(0.0, abs=1e-15)
        assert d1 == pytest.approx(0.0, abs=1e-15)
        assert d2 == pytest.approx(-1.0 / LOG2**2, rel=1e-13)

    def test_figure_prefactor_values(self):
        assert psi(2.0, -2.0 * LOG2)[0] == pytest.approx(1.0 - 2.0 * LOG2, abs=1e-13)
        assert psi(2.0, -0.5 * LOG2)[0] == pytest.approx((LOG2 - 1.0) / 2.0, abs=1e-13)

    @pytest.mark.parametrize("alpha", [2.0, 3.0])
    @pytest.mark.parametrize("y", [-2.5, -1.0, -0.3])
    def test_derivatives_match_finite_differences(self, alpha, y):
        # centered differences with step 1e-5; the curvature check differences
        # the returned slope because second-differencing the values at this
        # step sits on the double-precision cancellation floor
        h = 1e-5
        _, d1, d2 = psi(alpha, y)
        vp, vm = psi(alpha, y + h)[0], psi(alpha, y - h)[0]
        assert d1 == pytest.approx((vp - vm) / (2 * h), abs=1e-6)
        d1p, d1m = psi(alpha, y + h)[1], psi(alpha, y - h)[1]
        assert d2 == pytest.approx((d1p - d1m) / (2 * h), abs=1e-6)

    def test_domain(self):
        with pytest.raises(DomainError):
            psi(2.0, 0.0)


class TestInverseMellin:
    def test_initial_condition_inversion(self):
        # classical gaussian inversion at t = 0
        assert inverse_mellin_v(GAUSS, 2.0, 0.0, 1.0) == pytest.approx(
            3.989422804014327, rel=1e-10)

    @pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("x", [0.25, 0.5, 0.75])
    def test_matches_series(self, t, x):
        ref = eval_v(GAUSS, 2.0, t, x)
        got = inverse_mellin_v(GAUSS, 2.0, t, x)
        assert got == pytest.approx(ref, rel=1e-6)

    @pytest.mark.parametrize("t,x", [(1.0, 0.5), (2.0, 0.25)])
    def test_contour_independence(self, t, x):
        vals = [inverse_mellin_v(GAUSS, 2.0, t, x, ContourQuad.for_gaussian(GAUSS, 2.0, t, nu))
                for nu in (1.0, 2.0, 3.0)]
        scale = abs(vals[1])
        assert abs(vals[0] - vals[1]) / scale < 1e-8
        assert abs(vals[2] - vals[1]) / scale < 1e-8

    def test_rejects_slowly_decaying_transforms(self):
        with pytest.raises(DomainError, match="decays too slowly"):
            inverse_mellin_v(HEAVI, 2.0, 1.0, 0.5)
        with pytest.raises(DomainError, match="decays too slowly"):
            inverse_mellin_v(Dirac(1.0, 1.0), 2.0, 1.0, 0.5)

    def test_under_resolved_contour_raises(self):
        bad = ContourQuad(nu=2.0, tau_max=90.0, n_nodes=25)
        with pytest.raises(QuadratureError):
            inverse_mellin_v(GAUSS, 2.0, 2.0, 0.37, bad)

    def test_contour_invariants(self):
        with pytest.raises(DomainError):
            ContourQuad(nu=2.0, tau_max=0.0, n_nodes=10)
        # an even n cannot nest, and 4j + 3 leaves the half rule without a node on the real axis
        for n in (7, 8, 11):
            with pytest.raises(DomainError, match="4j \\+ 1"):
                ContourQuad(nu=2.0, tau_max=1.0, n_nodes=n)

    @pytest.mark.parametrize("t,x", [(1.0, 0.5), (5.0, 0.75), (40.0, 0.75)])
    def test_half_rule_is_the_coarser_fine_rule(self, t, x):
        # every other node of the 8i + 1 rule is the 4i + 1 rule on the same span
        cq = ContourQuad.for_gaussian(GAUSS, 2.0, t, saddle_abscissa(GAUSS, 2.0, t, x))
        args = (GAUSS, 2.0, t, math.log(x), cq.nu, cq.tau_max)
        coarse = _contour_value(*args, cq.n_nodes)[0]
        half = _contour_value(*args, 2 * cq.n_nodes - 1)[1]
        assert half == pytest.approx(coarse, rel=1e-14)

    def test_one_pass_over_the_nodes(self, monkeypatch):
        # the fine and the half-resolution sum share one evaluation of the (n + 1) / 2 nodes
        # with tau >= 0; the only other call is the tail bound's, at tau = 0
        sizes, log_integrand = [], mellin._log_integrand

        def counted(*args):
            sizes.append(np.size(args[-1]))
            return log_integrand(*args)

        monkeypatch.setattr(mellin, "_log_integrand", counted)
        t, x = 5.0, 0.5
        n = ContourQuad.for_gaussian(GAUSS, 2.0, t, saddle_abscissa(GAUSS, 2.0, t, x)).n_nodes
        inverse_mellin_v(GAUSS, 2.0, t, x)
        assert sorted(sizes) == [1, (n + 1) // 2]

    def test_real_exponent_is_the_log_of_the_integrand(self):
        rng = np.random.default_rng(7)
        for alpha in (1.5, 2.0, 3.0):
            for nu, tau, t, x in zip(rng.uniform(0.0, 4.0, 20), rng.uniform(-30.0, 30.0, 20),
                                     rng.uniform(0.0, 5.0, 20), rng.uniform(0.1, 3.0, 20)):
                s = complex(nu, tau)
                direct = (mellin_U0(GAUSS, s) * cmath.exp((K_of_s(alpha, s) - 1.0) * t)
                          * cmath.exp(-s * math.log(x)))
                re, im = _log_integrand(GAUSS, alpha, t, math.log(x), nu, tau)
                assert re == pytest.approx(math.log(abs(direct)), abs=1e-12)
                turns = (im - cmath.phase(direct)) / (2.0 * math.pi)
                assert abs(turns - round(turns)) < 1e-12


class TestFiftyDigitReference:
    """The contour against the explicit formula summed to 50 digits (tests/reference.py)."""

    @pytest.mark.parametrize("p", [GAUSS, LogGaussian(0.4, 0.3, 2.0**-20)], ids=repr)
    @pytest.mark.parametrize("alpha", [1.5, 2.0, 3.0])
    def test_within_its_stated_error_wherever_it_returns(self, p, alpha):
        # t log-uniform in [0.5, 120]; x on the rays y = -2, -1 and -1/2 log alpha
        # (the concentration ray and the ends of the probe span), and off them
        rng = random.Random(11)
        la = math.log(alpha)
        returned = 0
        for _ in range(16):
            t = math.exp(rng.uniform(math.log(0.5), math.log(120.0)))
            for log_x in (-la * t, -2.0 * la * t, -0.5 * la * t,
                          rng.uniform(-2.5, 0.0) * la * t, rng.uniform(-3.0, 1.0)):
                x = math.exp(log_x)
                try:
                    got = inverse_mellin_v(p, alpha, t, x)
                except QuadratureError:
                    continue
                returned += 1
                ref = float(reference.v_log_gaussian(p, alpha, t, x))
                assert abs(got - ref) <= ERR_TOL * abs(ref), (t, x, got, ref)
        assert returned >= 60


class TestSaddleLine:
    """The contour on the real saddle line: placement, sizing and the relative guard."""

    @pytest.mark.parametrize("p", [GAUSS, LogGaussian(-0.4, 0.5, 3.0)])
    @pytest.mark.parametrize("t", [0.5, 5.0, 60.0])
    @pytest.mark.parametrize("log_x", [-80.0, -3.0, -0.2, 0.0, 1.5])
    def test_abscissa_solves_the_saddle_equation(self, p, t, log_x):
        nu = saddle_abscissa(p, 2.0, t, math.exp(log_x))
        lhs = p.mu + p.sigma**2 * (nu - 2.0) - t * LOG2 * 2.0 ** (2.0 - nu)
        assert lhs == pytest.approx(log_x, rel=1e-12, abs=1e-12)

    def test_poisson_reach_matches_linear_scan(self):
        # the search starts from a closed-form estimate; the scan steps out from the mode
        assert _poisson_reach(0.0) == oracles.poisson_reach(0.0) == 0
        for lam in np.logspace(-9.0, 5.0, 1300).tolist():
            assert _poisson_reach(lam) == oracles.poisson_reach(lam), lam

    def test_abscissa_at_t_zero_and_large_t(self):
        assert saddle_abscissa(GAUSS, 2.0, 0.0, 1.5) == 2.0 + math.log(1.5) / GAUSS.sigma**2
        # s_plus is the large-t limit along a ray
        gaps = [abs(saddle_abscissa(GAUSS, 2.0, t, math.exp(-0.9 * t))
                    - s_plus(2.0, t, math.exp(-0.9 * t))) for t in (100.0, 500.0)]
        assert gaps[0] < 1e-4 and gaps[1] < 0.25 * gaps[0]

    @pytest.mark.parametrize("t,x", [(40.0, 0.75), (60.0, 0.25)])
    def test_values_far_below_one_are_right(self, t, x):
        # on the line nu = 2 these came back as 5.5e-15 and 1.0e-14 with no error
        ref = eval_v(GAUSS, 2.0, t, x)
        assert inverse_mellin_v(GAUSS, 2.0, t, x) == pytest.approx(ref, rel=1e-9)

    def test_cancelled_sum_on_a_given_line_raises(self):
        cq = ContourQuad.for_gaussian(GAUSS, 2.0, 40.0)
        assert cq.nu == 2.0
        with pytest.raises(QuadratureError):
            inverse_mellin_v(GAUSS, 2.0, 40.0, 0.75, cq)

    def test_guard_is_relative(self):
        # 137 nodes on the saddle line leave a 4e-4 error in a value of 8e-19;
        # the old absolute test err_tol * (1 + |value|) let it through
        nu = saddle_abscissa(GAUSS, 2.0, 40.0, 0.75)
        cq = ContourQuad(nu=nu, tau_max=ContourQuad.for_gaussian(GAUSS, 2.0, 40.0, nu).tau_max,
                         n_nodes=137)
        with pytest.raises(QuadratureError):
            inverse_mellin_v(GAUSS, 2.0, 40.0, 0.75, cq)

    @pytest.mark.parametrize("t,x", [(57.63508392608828, 1.158125200135123e-30),
                                     (22.373234198704946, 1.6189689404792748e-07)])
    def test_rounding_floor_raises(self, t, x):
        # sigma = 0.05 leaves gaps between the lattice copies, and here the
        # saddle falls into one, so the sum cancels to a small share of its
        # terms; the fine and half-resolution passes agree within 1e-8, yet
        # without the rounding estimate the values were off by 2.6e-6 and 2.1e-7
        with pytest.raises(QuadratureError):
            inverse_mellin_v(LogGaussian(0.0, 0.05, 1.0), 2.0, t, x)

    @pytest.mark.parametrize("x", [0.3, 1.0, 1.2, 2.5])
    def test_initial_data(self, x):
        assert inverse_mellin_v(GAUSS, 2.0, 0.0, x) == pytest.approx(
            profile_eval_x(GAUSS, x), rel=1e-9)

    @pytest.mark.parametrize("t", [0.5, 2.0, 10.0])
    @pytest.mark.parametrize("x", [1.0, 1.5, 3.0])
    def test_sizes_at_and_above_one(self, t, x):
        assert inverse_mellin_v(GAUSS, 2.0, t, x) == pytest.approx(
            eval_v(GAUSS, 2.0, t, x), rel=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(t=st.floats(0.5, 60.0), ray=st.floats(-2.0, -0.5),
           sigma=st.sampled_from([0.05, 0.1, 0.2, 0.5]))
    def test_within_tolerance_or_raises(self, t, ray, sigma):
        p = LogGaussian(0.0, sigma, 1.0)
        x = math.exp(ray * LOG2 * t)
        try:
            got = inverse_mellin_v(p, 2.0, t, x)
        except QuadratureError:
            return
        assert got == pytest.approx(eval_v(p, 2.0, t, x), rel=1e-6)

    @settings(max_examples=60, deadline=None)
    @given(sigma=st.floats(0.08, 0.5), mu=st.floats(-1.0, 1.0), j=st.integers(-30, 30),
           alpha=st.floats(1.5, 4.0), t=st.one_of(st.just(0.0), st.floats(0.0, 30.0)),
           y=st.floats(-3.0, 0.5))
    def test_random_data_within_tolerance_or_raises(self, sigma, mu, j, alpha, t, y):
        # relative agreement with the series over random data, alpha, times and
        # rays around the mean; past the support both are exactly 0
        p = LogGaussian(mu, sigma, 2.0 ** j)
        x = math.exp(y * math.log(alpha) * max(t, 1.0) + mu)
        try:
            got = inverse_mellin_v(p, alpha, t, x)
        except QuadratureError:
            return
        ref = eval_v(p, alpha, t, x)
        assert abs(got - ref) <= 1e-6 * abs(ref), (got, ref)

    def test_mellin_source_uses_the_saddle(self):
        assert inverse_mellin_v(GAUSS, 2.0, 40.0, 0.75) == pytest.approx(
            eval_v(GAUSS, 2.0, 40.0, 0.75), rel=1e-9)


class TestAsymptotics:
    @pytest.mark.parametrize("t,x", [(10.0, 2.0**-10), (15.0, 1.7 * 2.0**-15), (25.0, 3e-8)])
    def test_theta_is_the_contour_trapezoid_on_the_saddle_lattice(self, t, x):
        # step 2 pi / log 2 puts one node on each s_k; at K = 12 the end nodes are negligible
        k = 12
        sp = s_plus(2.0, t, x)
        tau_max = 2.0 * math.pi * k / LOG2
        contour = _contour_value(GAUSS, 2.0, t, math.log(x), sp, tau_max, 2 * k + 1)[0]
        want = contour / (math.sqrt(2.0 * math.pi * t) * 2.0 ** (1.0 - sp / 2.0))
        assert asymp_v_theta(GAUSS, 2.0, t, x) == pytest.approx(want, rel=1e-13)

    @pytest.mark.parametrize("p", [LogHeaviside(-1.0, 0.0, 1.0), Dirac(1.0, 1.0)])
    def test_theta_rejects_other_data(self, p):
        # heaviside and atomic transforms decay too slowly along the lattice to truncate it
        with pytest.raises(DomainError, match="log-gaussian"):
            asymp_v_theta(p, 2.0, 10.0, 2.0**-10)

    def test_theta_sum_cancelled_below_its_rounding_raises(self):
        # without the guard this returned 1986, where the series gives 2.75e-5
        with pytest.raises(QuadratureError):
            asymp_v_theta(LogGaussian(0.0, 0.01, 1.0), 2.0, 25.0, math.exp(-20.0))

    def test_theta_sum_past_the_cap_raises_before_summing(self, monkeypatch):
        # sigma = 1e-3 needs 947 terms, past the cap of 512
        def no_sum(*args):
            raise AssertionError("the lattice was summed")

        monkeypatch.setattr(mellin, "_exp_sum", no_sum)
        with pytest.raises(TruncationError, match="947 terms"):
            asymp_v_theta(LogGaussian(0.0, 1e-3, 1.0), 2.0, 25.0, 2.0**-25)

    def test_theta_and_poisson_forms_agree(self):
        for t in (10.0, 25.0):
            for x in (2.0**-t, 1.7 * 2.0**-t):
                a = asymp_v_theta(GAUSS, 2.0, t, x)
                b = asymp_v_poisson(GAUSS, 2.0, t, x)
                assert a == pytest.approx(b, rel=1e-8)

    def test_zero_k_max_is_smooth_kernel_baseline(self):
        t, x = 25.0, 2.0**-25
        sp = s_plus(2.0, t, x)
        denom = math.sqrt(2 * math.pi * t) * LOG2 * 2.0 ** (1 - sp / 2)
        baseline = (math.exp(-sp * math.log(x) + (2.0 ** (2 - sp) - 1.0) * t)
                    * mellin_U0(GAUSS, complex(sp)).real / denom)
        # the k = 0 term of the theta sum
        got = math.exp(_log_integrand(GAUSS, 2.0, t, math.log(x), sp, 0.0)[0]) / denom
        assert got == pytest.approx(baseline, rel=1e-13)

    def test_concentration_line_accuracy_improves(self):
        errs = []
        for t in (10.0, 15.0, 20.0, 25.0, 30.0):
            x = 2.0**-t
            exact = eval_v(GAUSS, 2.0, t, x)
            errs.append(abs(asymp_v_poisson(GAUSS, 2.0, t, x) - exact) / exact)
        assert errs[3] < 0.10
        assert all(e2 <= e1 for e1, e2 in zip(errs, errs[1:]))

    def test_heaviside_dilation_sum_is_finite(self):
        x = math.exp(-0.1) * 2.0**-9
        n_lo, n_hi = default_poisson_range(HEAVI, 2.0, x)
        la = LOG2
        contributing = [n for n in range(n_lo, n_hi + 1)
                        if HEAVI.a <= math.log(x) + n * la <= HEAVI.b]
        assert len(contributing) <= math.ceil((HEAVI.b - HEAVI.a) / la) + 1
        # and the sum only sees those terms
        full = poisson_sum(HEAVI, 2.0, 2.0, x)
        only = math.fsum(density_from_log_x(HEAVI, math.log(x) + n * la) * math.exp(2.0 * n * la)
                         for n in contributing)
        assert full == pytest.approx(only, rel=1e-15)

    def test_domain(self):
        with pytest.raises(DomainError):
            asymp_v_theta(GAUSS, 2.0, 5.0, 1.2)
        with pytest.raises(DomainError):
            asymp_v_poisson(GAUSS, 2.0, 0.0, 0.5)


class TestGrowthAsymptotics:
    @staticmethod
    def pair(params, t, x):
        return (route_u("asymp-theta", params, GAUSS, t, x),
                route_u("asymp-poisson", params, GAUSS, t, x))

    def test_reduces_to_pure_fragmentation(self):
        params = ModelParams(g=0.0, b=1.0, alpha=2.0)
        t, x = 25.0, 2.0**-25
        theta, poisson = self.pair(params, t, x)
        assert theta == asymp_v_theta(GAUSS, 2.0, t, x)
        assert poisson == asymp_v_poisson(GAUSS, 2.0, t, x)

    @pytest.mark.parametrize("g", [0.25, 1.0])
    @pytest.mark.parametrize("t", [12.0, 20.0])
    @pytest.mark.parametrize("scale", [1.0, 1.4])
    def test_two_forms_agree(self, g, t, scale):
        params = ModelParams(g=g, b=1.0, alpha=2.0)
        x = scale * math.exp(g * t) * 2.0**-t
        theta, poisson = self.pair(params, t, x)
        assert theta == pytest.approx(poisson, rel=1e-10)

    def test_change_of_variables_identity(self):
        # u-asymptotics must be the exact image of the v-asymptotics
        params = ModelParams(g=1.0, b=1.0, alpha=2.0)
        t = 20.0
        x = math.exp(t) * 2.0**-t
        theta, poisson = self.pair(params, t, x)
        ref_t = math.exp(-t) * asymp_v_theta(GAUSS, 2.0, t, 2.0**-t)
        ref_p = math.exp(-t) * asymp_v_poisson(GAUSS, 2.0, t, 2.0**-t)
        assert theta == pytest.approx(ref_t, rel=1e-10)
        assert poisson == pytest.approx(ref_p, rel=1e-10)
