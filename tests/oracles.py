"""Earlier bodies of the pointwise routes, kept as oracles for their faster forms.

Each function here is a route's previous implementation, spelled as it was:
numpy over every term k = 0..K of the series, 0-d arrays for the contour's
scalars, searches that step one index at a time, and a node series that
allocates every term afresh and branches Neumaier's step on np.abs.
tests/test_oracles.py asserts that the routes in src/ return the same floats
(compared with ==), the same error estimates and the same error messages;
test_series.py and test_mellin.py that the searches return the same
integers.  s_k, the saddle's vertical translates, is here because no route
calls it: only the tests name the translates.
"""

import math

import numpy as np

from gflab.errors import DomainError, NumericsError, QuadratureError, TruncationError
from gflab.mellin import (
    _DECAY_WIDTHS,
    _EPS,
    ERR_TOL,
    THETA_K_CAP,
    ContourQuad,
    s_plus,
    saddle_abscissa,
)
from gflab.model import LogGaussian, density_from_log_x, profile_eval_y, support_y
from gflab.series import (
    _LOG_NEGLIGIBLE,
    DEFAULT_TRUNCATION,
    _check_density_time,
    _poisson_tail_log_bound,
    poisson_log_weights,
)


def s_k(s_plus_value: float, k, alpha: float):
    """Vertical translate s_plus - 2 i k pi / log alpha of the saddle (k an int or an array)."""
    return s_plus_value - 2j * math.pi * k / math.log(alpha)


def first_true(pred, start):
    """Smallest k > start with pred(k), one index at a time."""
    k = start + 1
    while not pred(k):
        k += 1
    return k


def poisson_cutoff(lam, eps):
    if lam <= 0.0:
        return 0
    target = math.log(eps) + lam
    return first_true(lambda k: _poisson_tail_log_bound(lam, k) < target, int(math.ceil(lam)) - 1)


def poisson_reach(lam):
    if lam <= 0.0:
        return 0
    mode = math.floor(lam)
    log_lam = math.log(lam)
    log_mode = mode * log_lam - math.lgamma(mode + 1)

    def below(k):
        return k < 0 or k * log_lam - math.lgamma(k + 1) - log_mode < math.log(1e-17)

    return max(first_true(lambda d: below(mode + side * d), 0) for side in (1, -1))


def dilation_window(p, log_alpha, y):
    lo, hi = support_y(p)
    first = np.ceil((lo - y) / log_alpha)
    first = first - (y + (first - 1.0) * log_alpha >= lo)
    first = first + (y + first * log_alpha < lo)
    last = np.floor((hi - y) / log_alpha)
    last = last + (y + (last + 1.0) * log_alpha <= hi)
    last = last - (y + last * log_alpha > hi)
    return first, last


def truncation_order(lam, k_support=0):
    eps, cap = DEFAULT_TRUNCATION.eps, DEFAULT_TRUNCATION.k_max_cap
    k_cap = max(poisson_cutoff(lam, eps), k_support)
    if k_cap > cap:
        achieved = math.exp(min(_poisson_tail_log_bound(lam, cap) - lam, 0.0))
        raise TruncationError(f"series needs {k_cap} terms but the cap is {cap}", achieved)
    return k_cap


def series_sum(density, p, lam, start, log_alpha, prefactor_log):
    """series._series_sum: every term k = 0..K as one array."""
    k_cap = truncation_order(lam, int(dilation_window(p, log_alpha, start)[1]) + 1)
    u = density(p, start + np.arange(k_cap + 1) * log_alpha)
    nz = u != 0.0
    terms = u[nz] * np.exp(poisson_log_weights(lam, k_cap)[nz] + prefactor_log)
    return math.fsum(terms.tolist())


def log_integrand(p, alpha, t, log_x, nu, tau):
    """mellin._log_integrand with numpy cos and sin, a 0-d array for a scalar tau."""
    w = nu - 2.0
    s2 = p.sigma**2
    re = math.log(p.mass) + p.mu * w + 0.5 * s2 * (w * w - tau * tau) - nu * log_x
    im = (p.mu + s2 * w - log_x) * tau
    if t > 0.0:
        k = complex(np.exp((2.0 - np.asarray(nu)) * math.log(alpha))).real   # K_of_s
        phase = tau * math.log(alpha)
        re = re + (k * np.cos(phase) - 1.0) * t
        im = im - k * t * np.sin(phase)
    return re, im


def exp_sum(weights, re, im):
    with np.errstate(over="ignore", invalid="ignore"):
        size = np.exp(re)
        return weights @ (size * np.cos(im)), _EPS * (weights @ (size * (1.0 + np.hypot(re, im))))


def for_gaussian(p, alpha, t, nu):
    la = math.log(alpha)
    lam = t * alpha ** (2.0 - nu) if t > 0.0 else 0.0
    width = la * poisson_reach(lam) + 2.0 * _DECAY_WIDTHS * p.sigma
    h = math.pi / width
    tau_max = _DECAY_WIDTHS / p.sigma + 2.0 * math.pi / la
    return ContourQuad(nu=nu, tau_max=tau_max, n_nodes=4 * math.ceil(0.5 * tau_max / h) + 1)


def contour_value(p, alpha, t, log_x, nu, tau_max, n_nodes):
    h = 2.0 * tau_max / (n_nodes - 1)
    taus = h * np.arange((n_nodes + 1) // 2)
    weights = np.full((2, taus.size), h / math.pi)
    weights[:, 0] = weights[:, -1] = h / (2.0 * math.pi)
    weights[1, ::2] *= 2.0
    weights[1, 1::2] = 0.0
    (fine, half), rounding = exp_sum(weights, *log_integrand(p, alpha, t, log_x, nu, taus))
    return float(fine), float(half), float(rounding[0])


def tail_bound(p, alpha, t, log_x, nu, tau_max):
    gauss_tail = (math.erfc(p.sigma * tau_max / math.sqrt(2.0))
                  / (p.sigma * math.sqrt(2.0 * math.pi)))
    if gauss_tail == 0.0:
        return 0.0
    log_bound = log_integrand(p, alpha, t, log_x, nu, 0.0)[0] + math.log(gauss_tail)
    return math.exp(log_bound) if log_bound < 709.0 else math.inf


def inverse_mellin_v(p, alpha, t, x):
    """mellin.inverse_mellin_v on its saddle line, for log-gaussian data."""
    cq = for_gaussian(p, alpha, t, saddle_abscissa(p, alpha, t, x))
    log_x = math.log(x)
    value, coarse, rounding = contour_value(p, alpha, t, log_x, cq.nu, cq.tau_max, cq.n_nodes)
    if not math.isfinite(value):
        raise NumericsError(f"inverse Mellin: v({t:g}, {x:g}) = {value} is not finite")
    estimate = abs(value - coarse) + rounding + tail_bound(p, alpha, t, log_x, cq.nu, cq.tau_max)
    if not estimate <= ERR_TOL * abs(value):
        raise QuadratureError("contour quadrature did not converge", estimate)
    return value


def poisson_sum(p, alpha, s_plus_value, x):
    la = math.log(alpha)
    lx = math.log(x)
    first, last = dilation_window(p, la, lx)
    n_lo, n_hi = min(int(first) - 1, 0), max(int(last) + 1, 0)
    ns = np.arange(n_lo, n_hi + 1)
    dens = density_from_log_x(p, lx + ns * la)
    return float(np.sum(dens * np.exp(s_plus_value * ns * la)))


def asymp_v_theta(p, alpha, t, x):
    if not isinstance(p, LogGaussian):
        raise DomainError(f"theta asymptotics need a log-gaussian profile, got {type(p).__name__}")
    sp = s_plus(alpha, t, x)
    la = math.log(alpha)
    k_max = int(_DECAY_WIDTHS * la / (2.0 * math.pi * p.sigma)) + 1
    if k_max > THETA_K_CAP:
        tail = math.exp(-0.5 * (2.0 * math.pi * THETA_K_CAP * p.sigma / la) ** 2)
        raise TruncationError(f"theta sum needs {k_max} terms but the cap is {THETA_K_CAP}", tail)
    ks = np.arange(k_max + 1)
    z = log_integrand(p, alpha, t, math.log(x), sp, s_k(0.0, ks, alpha).imag)
    value, rounding = exp_sum(np.where(ks > 0, 2.0, 1.0), *z)
    denom = math.sqrt(2.0 * math.pi * t) * la * alpha ** (1.0 - sp / 2.0)
    v = float(value) / denom
    if not math.isfinite(v):
        raise NumericsError(f"theta asymptotics: v({t:g}, {x:g}) = {v} is not finite")
    if not rounding <= ERR_TOL * abs(value):
        raise QuadratureError("theta sum cancelled below its rounding", rounding / denom)
    return v


def asymp_v_poisson(p, alpha, t, x):
    sp = s_plus(alpha, t, x)
    pref = math.exp((alpha ** (2.0 - sp) - 1.0) * t)
    denom = math.sqrt(2.0 * math.pi * t) * alpha ** (1.0 - sp / 2.0)
    with np.errstate(over="ignore", invalid="ignore"):
        v = pref * poisson_sum(p, alpha, sp, x) / denom
    if not math.isfinite(v):
        raise NumericsError(f"Poisson asymptotics: v({t:g}, {x:g}) = {v} is not finite")
    return v


def eval_n_series(p, alpha, t, y):
    """series.eval_n_series with fresh arrays for every term and Neumaier's
    branch taken on np.abs of the total and the term."""
    _check_density_time(p, t)
    y = np.asarray(y, dtype=float)
    if t == 0.0:
        return profile_eval_y(p, y)
    log_alpha = math.log(alpha)
    first, last = dilation_window(p, log_alpha, y)
    k_cap = truncation_order(t, int(np.max(last)) + 1)
    n_pass = int(dilation_window(p, log_alpha, support_y(p)[0])[1]) + 2
    log_weights = np.full(k_cap + n_pass + 3, -np.inf)
    log_weights[1:k_cap + 2] = poisson_log_weights(t, k_cap, start=-t)
    weights = np.zeros(log_weights.size)
    weights[1:k_cap + 2] = [math.exp(w) for w in log_weights[1:k_cap + 2].tolist()]

    def term(k, with_log=True):
        n0 = profile_eval_y(p, y + k * log_alpha)
        if not with_log:
            return n0 * weights.take(k + 1), None
        with np.errstate(divide="ignore"):
            return n0 * weights.take(k + 1), np.log(n0) + log_weights.take(k + 1)

    total = np.zeros_like(y)
    comp = np.zeros_like(y)

    def add(term_k):
        s = total + term_k
        comp[...] += np.where(np.abs(total) >= np.abs(term_k), (total - s) + term_k,
                              (term_k - s) + total)
        total[...] = s

    k_first = np.clip(first, 0, k_cap + 1).astype(np.int64)
    log_edges = []
    for i in range(n_pass):
        term_k, log_k = term(k_first + i, with_log=i in (0, n_pass - 1))
        add(term_k)
        if log_k is not None:
            log_edges.append(log_k)
    for edge, log_last, step in ((k_first, log_edges[0], -1),
                                 (k_first + n_pass - 1, log_edges[-1], 1)):
        while True:
            term_k, log_next = term(edge + step)
            with np.errstate(divide="ignore", invalid="ignore"):
                drop = log_next - log_last
                log_rest = np.where(drop < 0.0, log_next - np.log1p(-np.exp(drop)), np.inf)
                widen = (log_next > -np.inf) & ~(log_rest <= _LOG_NEGLIGIBLE + np.log(total))
            if not widen.any():
                break
            add(np.where(widen, term_k, 0.0))
            edge = np.where(widen, edge + step, edge)
            log_last = np.where(widen, log_next, log_last)
    return total + comp
