"""Series route: truncation, moment laws, support geometry, the dirac lattice."""

import math
import warnings
from math import exp, fsum, lgamma, log, pi, sqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gflab.analysis import route_u
from gflab.config import RunConfig
from gflab.errors import DomainError, TruncationError
from gflab.model import (
    Dirac,
    LogGaussian,
    LogHeaviside,
    ModelParams,
    density_from_log_x,
    moment,
    profile_eval_x,
    profile_eval_y,
    support_y,
)
from gflab.series import (
    SeriesTruncation,
    _poisson_tail_log_bound,
    _series_sum,
    eval_n,
    eval_n_series,
    eval_v,
    moment_of_v,
    poisson_cutoff,
    poisson_log_weights,
    support_set,
    truncation_order,
)
from gflab.solver import build_grid

LOG2 = math.log(2.0)
GAUSS = LogGaussian(0.0, 0.1, 1.0)
HEAVI = LogHeaviside(-0.2, 0.0, 1.0)


def brute_v(p, alpha, t, x, terms=200):
    """Independent oracle: direct high-order summation with fsum, no truncation logic."""
    if t == 0.0:
        return profile_eval_x(p, x)
    vals = []
    for k in range(terms):
        w = exp(k * log(alpha * alpha * t) - lgamma(k + 1) - t)
        y = log(x) + k * log(alpha)
        if isinstance(p, LogGaussian):
            u = p.mass / (p.sigma * sqrt(2 * pi)) * exp(-2 * y - (y - p.mu) ** 2 / (2 * p.sigma**2))
        else:
            u = p.height * exp(-2 * y) if p.a <= y <= p.b else 0.0
        vals.append(u * w)
    return fsum(vals)


class TestEvalV:
    def test_t_zero_identity(self):
        for p in (GAUSS, HEAVI):
            for x in (0.3, 0.7, 1.0, 1.5):
                assert eval_v(p, 2.0, 0.0, x) == pytest.approx(
                    profile_eval_x(p, x), rel=1e-15, abs=1e-300)

    def test_frozen_oracle_value(self):
        # brute 200-term fsum oracle gave this value for (t, x) = (1, 0.5)
        assert eval_v(GAUSS, 2.0, 1.0, 0.5) == pytest.approx(5.87050652727458, rel=1e-13)

    @pytest.mark.parametrize("t", [0.5, 1.0, 2.0, 5.0])
    @pytest.mark.parametrize("x", [0.1, 0.5, 0.9, 1.3])
    def test_matches_brute_force(self, t, x):
        for p in (GAUSS, HEAVI):
            expected = brute_v(p, 2.0, t, x)
            got = eval_v(p, 2.0, t, x, SeriesTruncation(eps=1e-14))
            assert got == pytest.approx(expected, rel=1e-12, abs=1e-280)

    def test_heaviside_outside_union_is_exactly_zero(self):
        # v(t, e^y) = 0 unless y + k log(alpha) lands in [a, b] for some k >= 0
        assert eval_v(HEAVI, 2.0, 1.0, math.exp(0.1)) == 0.0
        for t in (0.5, 2.0, 7.0):
            for y in np.linspace(-6.0, 0.5, 301):
                inside = any(-0.2 <= y + k * LOG2 <= 0.0 for k in range(20))
                val = eval_v(HEAVI, 2.0, t, math.exp(y))
                if not inside:
                    assert val == 0.0
                else:
                    assert val > 0.0

    @pytest.mark.parametrize("t", [40.0, 60.0])
    def test_heaviside_matches_brute_force_with_hundreds_of_terms(self, t):
        # lam = alpha^2 t = 160 and 240, so the kernel sums K in the hundreds;
        # alpha^k x lands mid-support at k = k0, from the far tail to the bulk
        for k0 in (int(t / 2), int(t), int(4 * t), int(5 * t)):
            x = math.exp(-k0 * LOG2 - 0.1)
            got = eval_v(HEAVI, 2.0, t, x)
            assert got > 0.0
            assert got == pytest.approx(brute_v(HEAVI, 2.0, t, x, terms=800), rel=1e-12)

    def test_semigroup_one_step(self):
        # evolving v(t1) by t2 with a short discrete convolution reproduces v(t1 + t2)
        alpha, t1, t2, x = 2.0, 0.3, 0.1, 0.8
        lam = alpha * alpha * t2
        acc = [exp(k * log(lam) - lgamma(k + 1) - t2) * eval_v(GAUSS, alpha, t1, alpha**k * x)
               for k in range(11)]
        assert fsum(acc) == pytest.approx(eval_v(GAUSS, alpha, t1 + t2, x), rel=1e-12)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            eval_v(GAUSS, 2.0, -1.0, 0.5)
        with pytest.raises(DomainError):
            eval_v(GAUSS, 2.0, 1.0, 0.0)
        with pytest.raises(DomainError):
            eval_v(Dirac(1.0, 1.0), 2.0, 1.0, 0.5)

    def test_truncation_cap_carries_bound(self):
        with pytest.raises(TruncationError) as err:
            eval_v(GAUSS, 2.0, 30.0, 0.5, SeriesTruncation(eps=1e-14, k_max_cap=40))
        assert err.value.achieved_bound > 0.0

    def test_poisson_cutoff_bound_holds(self):
        for lam in (0.5, 4.0, 40.0, 400.0):
            k = poisson_cutoff(lam, 1e-14)
            # check against the exact tail computed by complement
            head = fsum(exp(j * log(lam) - lgamma(j + 1) - lam) for j in range(k + 1))
            assert 1.0 - head < 1e-13

    @pytest.mark.parametrize("eps", [1e-16, 1e-14, 1e-10, 1e-6])
    def test_poisson_cutoff_matches_linear_scan(self, eps):
        def linear_cutoff(lam):
            target = math.log(eps) + lam
            k = math.ceil(lam)
            while _poisson_tail_log_bound(lam, k) >= target:
                k += 1
            return k

        for lam in np.logspace(-3.0, 4.0, 281).tolist():
            assert poisson_cutoff(lam, eps) == linear_cutoff(lam), lam


class TestPoissonLogWeights:
    @pytest.mark.parametrize("lam", [0.3, 10.0, 60.0, 240.0])
    @pytest.mark.parametrize("start", ["zero", "minus-lam"])
    def test_equals_the_scalar_recurrence(self, lam, start):
        # the steps are math.log values summed in order of k: np.log need not
        # agree with math.log (with numpy 2.4 on x86-64 they part at k = 9170)
        k_cap = SeriesTruncation().k_max_cap
        log_w = 0.0 if start == "zero" else -lam
        want = [log_w]
        for k in range(1, k_cap + 1):
            log_w += math.log(lam) - math.log(k)
            want.append(log_w)
        assert poisson_log_weights(lam, k_cap, want[0]).tolist() == want


def direct_u(params, p, t, x, trunc=SeriesTruncation()):
    """u(t, x) = e^{-(b+g)t} sum_k u0(alpha^k x e^{-gt}) (b alpha^2 t)^k / k!, summed
    directly rather than through the characteristic rescaling: the oracle of route_u."""
    if t == 0.0:
        return profile_eval_x(p, x)
    lam = params.b * params.alpha**2 * t
    log_x_eff = math.log(x) - params.g * t
    return _series_sum(density_from_log_x, p, lam, log_x_eff, params.log_alpha,
                       -(params.b + params.g) * t, trunc)


class TestEvalU:
    @pytest.mark.parametrize("g", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("b", [0.5, 1.0, 2.0])
    def test_two_closed_forms_agree(self, g, b):
        params = ModelParams(g=g, b=b, alpha=2.0)
        for t in (0.25, 1.0, 2.0):
            for x in (0.4, 1.0, 2.5):
                a = route_u("series", params, GAUSS, t, x)
                d = direct_u(params, GAUSS, t, x)
                assert d == pytest.approx(a, rel=1e-12, abs=1e-280)

    def test_pure_fragmentation_reduction(self):
        params = ModelParams(g=0.0, b=1.0, alpha=2.0)
        for t, x in ((0.5, 0.6), (2.0, 0.3)):
            assert route_u("series", params, GAUSS, t, x) == eval_v(GAUSS, 2.0, t, x)

    def test_t_zero(self):
        params = ModelParams(g=1.0, b=2.0, alpha=3.0)
        assert route_u("series", params, GAUSS, 0.0, 0.9) == profile_eval_x(GAUSS, 0.9)

    def test_characteristic_rescaling_value(self):
        params = ModelParams(g=1.0, b=1.0, alpha=2.0)
        t = 0.5
        lhs = route_u("series", params, GAUSS, t, 1.0)
        rhs = math.exp(-t) * eval_v(GAUSS, 2.0, t, math.exp(-t))
        assert lhs == pytest.approx(rhs, rel=1e-12)


class TestMoments:
    def test_first_moment_conserved(self):
        for t in (0.0, 1.0, 10.0, 40.0):
            assert moment_of_v(GAUSS, 2.0, 1.0, t) == moment(GAUSS, 1.0)

    def test_zeroth_moment_growth(self):
        # termwise identity: sum e^{-t} (alpha t)^k / k! = e^{(alpha - 1) t}
        m0 = moment(GAUSS, 0.0)
        assert moment_of_v(GAUSS, 2.0, 0.0, 1.0) == pytest.approx(m0 * math.e, rel=1e-14)

    def test_second_moment_decay(self):
        m2 = moment(GAUSS, 2.0)
        t = 3.0
        assert moment_of_v(GAUSS, 2.0, 2.0, t) == pytest.approx(
            m2 * exp(t * (0.5 - 1.0)), rel=1e-14)

    @pytest.mark.parametrize("q", [0.0, 1.0, 2.0])
    @pytest.mark.parametrize("t", [0.5, 1.0, 2.0, 5.0])
    def test_quadrature_oracle_gaussian(self, q, t):
        # wide log-grid trapezoid of x^q v(t, x) dx = int e^{y(q-1)} n(t, y) dy
        k_reach = poisson_cutoff(4.0 * t, 1e-14) + 4
        ys = np.arange(-k_reach * LOG2 - 1.0, 1.5, 0.004)
        n_vals = eval_n_series(GAUSS, 2.0, t, ys)
        integrand = np.exp(ys * (q - 1.0)) * n_vals
        quadrature = np.trapezoid(integrand, dx=0.004)
        assert quadrature == pytest.approx(moment_of_v(GAUSS, 2.0, q, t), rel=1e-6)

    @pytest.mark.parametrize("q", [0.0, 1.0, 2.0])
    @pytest.mark.parametrize("t", [0.5, 1.0, 2.0, 5.0])
    def test_quadrature_oracle_heaviside(self, q, t):
        # n(t, .) has jumps on the lattice {a - k log2, b - k log2}, so the
        # quadrature is Gauss-Legendre between consecutive jump points
        k_reach = poisson_cutoff(4.0 * t, 1e-14) + 4
        breaks = sorted({HEAVI.a - k * LOG2 for k in range(k_reach)}
                        | {HEAVI.b - k * LOG2 for k in range(k_reach)})
        nodes, weights = np.polynomial.legendre.leggauss(6)
        total = 0.0
        for c, d in zip(breaks[:-1], breaks[1:]):
            ys = 0.5 * (d - c) * nodes + 0.5 * (c + d)
            vals = np.exp(ys * (q - 1.0)) * eval_n_series(HEAVI, 2.0, t, ys)
            total += 0.5 * (d - c) * float(np.sum(weights * vals))
        assert total == pytest.approx(moment_of_v(HEAVI, 2.0, q, t), rel=1e-6)


class TestGridSeries:
    def test_matches_pointwise_eval(self):
        ys = np.linspace(-8.0, 1.0, 97)
        for t in (0.5, 2.0):
            vec = eval_n_series(GAUSS, 2.0, t, ys)
            for y, got in zip(ys[::8], vec[::8]):
                ref = math.exp(2.0 * y) * eval_v(GAUSS, 2.0, t, math.exp(y))
                assert got == pytest.approx(ref, rel=1e-11, abs=1e-280)

    @pytest.mark.parametrize("p", [GAUSS, HEAVI], ids=["gaussian", "heaviside"])
    def test_pointwise_kernel_matches_in_deep_tails(self, p):
        ys = np.linspace(-60.0, 1.0, 123)
        vec = eval_n_series(p, 2.0, 60.0, ys)
        with warnings.catch_warnings(), np.errstate(over="raise", invalid="raise"):
            warnings.simplefilter("error")
            got = np.array([eval_n(p, 2.0, 60.0, float(y)) for y in ys])
        np.testing.assert_allclose(got, vec, rtol=1e-13, atol=0.0)

    def test_t_zero_is_initial_density(self):
        ys = np.linspace(-2.0, 1.0, 11)
        out = eval_n_series(GAUSS, 2.0, 0.0, ys)
        assert np.allclose(out, [math.exp(2 * y) * profile_eval_x(GAUSS, math.exp(y)) for y in ys],
                           rtol=1e-12)


def all_k_series(p, alpha, t, y, trunc=SeriesTruncation()):
    """Oracle: every node sums every k = 0..K in order, with Neumaier compensation.

    This is the node-array loop eval_n_series ran before it summed only the
    terms inside the support.
    """
    y = np.asarray(y, dtype=float)
    log_alpha = math.log(alpha)
    hi = support_y(p)[1]
    k_support = int(math.ceil(max(0.0, (hi - float(np.min(y))) / log_alpha)))
    k_cap = truncation_order(t, trunc, k_support)
    total = np.zeros_like(y)
    comp = np.zeros_like(y)
    log_t = math.log(t)
    log_w = -t
    for k in range(k_cap + 1):
        if k > 0:
            log_w += log_t - math.log(k)
        term = profile_eval_y(p, y + k * log_alpha) * math.exp(log_w)
        s = total + term
        comp += np.where(np.abs(total) >= np.abs(term), (total - s) + term, (term - s) + total)
        total = s
    return total + comp


def default_grid_nodes():
    cfg = RunConfig()
    return build_grid(cfg.profile, cfg.params.alpha, cfg.resolved_y_min(),
                      cfg.resolved_y_max(), cfg.m).y_nodes()


class TestSupportWindow:
    """eval_n_series sums each node's terms inside the support, widened only where needed."""

    @pytest.mark.parametrize("t", [0.5, 1.0, 5.0, 10.0, 60.0])
    @pytest.mark.parametrize("p", [LogHeaviside(-1.0, 0.0, 1.0), GAUSS],
                             ids=["heaviside", "gaussian-0.1"])
    def test_bit_identical_to_all_k_loop(self, p, t):
        ys = default_grid_nodes()
        got = eval_n_series(p, 2.0, t, ys)
        assert np.array_equal(got, all_k_series(p, 2.0, t, ys))

    @pytest.mark.parametrize("t", [0.5, 1.0, 5.0, 10.0, 60.0])
    def test_wide_gaussian_matches_all_k_loop(self, t):
        p = LogGaussian(0.0, 0.5, 1.0)
        ys = default_grid_nodes()
        np.testing.assert_allclose(eval_n_series(p, 2.0, t, ys), all_k_series(p, 2.0, t, ys),
                                   rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("p,alpha,t", [
        (LogGaussian(0.0, 0.5, 1.0), 2.0, 1e-3),
        (LogGaussian(0.0, 1.0, 1.0), 2.0, 0.1),
        # the dominant terms sit ~16 sigma left of the support and every term
        # of the support window underflows: the widening has to run on logs
        (LogGaussian(0.742, 1.0, 1.0), 1.3, 0.0238),
    ])
    def test_tails_outside_the_support_are_widened_into(self, p, alpha, t):
        # small t: the Poisson weights grow by k/t per step to the left, faster
        # than a wide gaussian falls past 12 sigma, so the terms that matter
        # lie outside the support window
        ys = np.linspace(-60.0, 5.0, 651)
        ref = all_k_series(p, alpha, t, ys)
        got = eval_n_series(p, alpha, t, ys)
        assert np.count_nonzero(ref) > 100
        np.testing.assert_allclose(got, ref, rtol=1e-14, atol=0.0)


class TestSemigroup:
    """n(s + t, .) is n(s, .) run for a further time t: e^{-t} sum_k t^k / k! n(s, . + k log 2)."""

    @settings(max_examples=40, deadline=None)
    @given(p=st.sampled_from([GAUSS, LogGaussian(0.3, 0.5, 2.0), LogHeaviside(-0.2, 0.0, 1.0),
                              LogHeaviside(-1.0, 0.0, 1.0)]),
           s=st.floats(1e-3, 6.0), t=st.floats(1e-3, 6.0))
    def test_series_is_a_semigroup(self, p, s, t):
        ys = np.linspace(-25.0, 1.0, 523)
        whole = eval_n_series(p, 2.0, s + t, ys)
        split = sum(exp(-t + k * log(t) - lgamma(k + 1)) * eval_n_series(p, 2.0, s, ys + k * LOG2)
                    for k in range(poisson_cutoff(t, 1e-17) + 1))
        assert np.max(np.abs(whole - split)) <= 1e-12 * np.max(np.abs(whole))


class TestSupportSet:
    PARAMS = ModelParams(g=0.0, b=1.0, alpha=2.0)
    ATOM = Dirac(x0=1.0, weight=1.0)

    def test_t_zero_single_atom(self):
        assert support_set(self.ATOM, self.PARAMS, 0.0) == [(1.0, 1.0)]

    def test_weights_against_pairing_oracle(self):
        # pairing the solution with indicator bumps at each lattice point gives
        # w_k = e^{-1} 2^k / k! for b=1, g=0, alpha=2, t=1
        atoms = support_set(self.ATOM, self.PARAMS, 1.0)
        assert atoms[0][1] == pytest.approx(0.36787944117144233, rel=1e-13)
        assert atoms[1][1] == pytest.approx(0.7357588823428847, rel=1e-13)
        assert atoms[2][1] == pytest.approx(0.7357588823428847, rel=1e-13)
        assert [a[0] for a in atoms[:3]] == pytest.approx([1.0, 0.5, 0.25])

    @pytest.mark.parametrize("g", [0.0, 0.3, math.log(2.0)])
    @pytest.mark.parametrize("t", [0.5, 1.0, 3.0])
    def test_first_moment_time_invariant(self, g, t):
        params = ModelParams(g=g, b=1.0, alpha=2.0)
        atoms = support_set(Dirac(0.5, 2.0), params, t)
        m1 = fsum(w * x for x, w in atoms)
        assert m1 == pytest.approx(2.0 * 0.5, rel=1e-12)

    def test_lattice_realignment_at_growth_period(self):
        # when g t = log(alpha) the atom set is {alpha^{1-k} x0}
        params = ModelParams(g=LOG2, b=1.0, alpha=2.0)
        atoms = support_set(self.ATOM, params, 1.0, k_max=6)
        locs = [x for x, _ in atoms]
        assert locs == pytest.approx([2.0 ** (1 - k) for k in range(7)], rel=1e-12)

    def test_rejects_density_profiles(self):
        with pytest.raises(DomainError):
            support_set(GAUSS, self.PARAMS, 1.0)
