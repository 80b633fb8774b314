"""Exact series evaluation of the explicit solution, the oracle for every other route.

With unit division rate and no growth the solution of the pure fragmentation
equation is the Poisson-weighted dilation sum

    v(t, x) = e^{-t} sum_{k >= 0} u0(alpha^k x) (alpha^2 t)^k / k!,

and the general solution follows by the characteristic rescaling
u(t, x) = e^{-gt} v(bt, x e^{-gt}) (analysis.route_u).  In log coordinates
the same sum reads

    n(t, y) = e^{-t} sum_{k >= 0} n(0, y + k log alpha) t^k / k!,

which is what the grid oracle evaluates (the alpha^2 factors cancel against
the e^{2y} weight).

Truncation combines two mechanisms: the Poisson tail beyond K is bounded by
the standard ratio estimate, and the profile factor vanishes once
alpha^k x leaves the (effective) support.  Terms span many orders of
magnitude, so the Poisson weights are carried in log space to avoid
overflow; a pointwise sum evaluates, as one array, only the k where its
density can be nonzero and sums them exactly rounded (math.fsum), node-array
sums with Neumaier compensation.

Weak functionals need no pointwise values at all: integrating the sum term
by term moves every integral onto the compact initial support
(model.integrate_dilates, with the Poisson weights of analysis.SeriesSource).
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable, NamedTuple

import numpy as np

from .errors import DomainError, NumericsError, TruncationError
from .model import (
    SQRT_2PI,
    Dirac,
    InitialProfile,
    LogGaussian,
    ModelParams,
    density_from_log_x,
    dilation_window,
    first_true,
    profile_eval_x,
    profile_eval_y,
    support_y,
)


class SeriesTruncation(NamedTuple):
    """Tail tolerance (a share of the Poisson mass) and term cap of every series sum."""

    eps: float = 1e-14
    k_max_cap: int = 10_000


DEFAULT_TRUNCATION = SeriesTruncation()


def _poisson_tail_log_bound(lam: float, k: int) -> float:
    """log of the ratio-test bound on sum_{j > k} lam^j / j!; +inf until k + 2 > lam."""
    r = lam / (k + 2)
    if r >= 1.0:
        return math.inf
    return (k + 1) * math.log(lam) - math.lgamma(k + 2) - math.log1p(-r)


def poisson_cutoff(lam: float, eps: float) -> int:
    """Smallest K with sum_{k > K} lam^k / k! < eps * e^lam.

    The tail past K is bounded by the first neglected term times the geometric
    series with ratio lam / (K + 2), valid once that ratio is below one.  The
    bound decreases in k from ceil(lam) on, so K is found by first_true.  Its
    search starts from the normal estimate lam + z sqrt(lam), where z^2 =
    -2 log eps - log(2 pi lam) puts a gaussian tail at eps (the log dropped
    below lam = 1 / (2 pi)), plus the Poisson skew z^2 / 6, scaled by lam
    below lam = 1; the bound alone decides.
    """
    if lam <= 0.0:
        return 0
    target = math.log(eps) + lam
    start = int(math.ceil(lam)) - 1
    z2 = max(-2.0 * math.log(eps) - math.log(max(2.0 * math.pi * lam, 1.0)), 0.0)
    guess = round(lam + math.sqrt(z2 * lam) + min(lam, 1.0) * z2 / 6.0)
    return first_true(lambda k: _poisson_tail_log_bound(lam, k) < target, start, guess)


def truncation_order(lam: float, k_support: int = 0) -> int:
    """Last term K = max(poisson_cutoff(lam, eps), k_support) of a series sum.

    eps and the cap are DEFAULT_TRUNCATION's.  Past the cap a TruncationError
    carries the bound on the Poisson tail mass the cap leaves, clamped at 1.
    """
    eps, cap = DEFAULT_TRUNCATION.eps, DEFAULT_TRUNCATION.k_max_cap
    k_cap = max(poisson_cutoff(lam, eps), k_support)
    if k_cap > cap:
        achieved = math.exp(min(_poisson_tail_log_bound(lam, cap) - lam, 0.0))
        raise TruncationError(f"series needs {k_cap} terms but the cap is {cap}", achieved)
    return k_cap


def _cutoff_passes(lam: float, eps: float, k: int) -> bool:
    """poisson_cutoff(lam, eps) > k, from at most one evaluation of its bound."""
    return k < math.ceil(lam) or not _poisson_tail_log_bound(lam, k) < math.log(eps) + lam


@lru_cache(maxsize=None)
def _log_k(size: int) -> np.ndarray:
    """math.log(k) for k = 1..size (sizes are powers of two, so few tables are built)."""
    return np.array([math.log(k) for k in range(1, size + 1)])


def poisson_log_weights(lam: float, k_cap: int, start: float = 0.0) -> np.ndarray:
    """start + log(lam^k / k!) for k = 0..k_cap, as a running sum of log lam - log k.

    The sum runs in order of k over math.log values, so entry k equals the
    scalar recurrence log_w += math.log(lam) - math.log(k) from log_w = start
    bit for bit.
    """
    steps = np.empty(k_cap + 1)
    steps[0] = start
    np.subtract(math.log(lam), _log_k(1 << (k_cap - 1).bit_length())[:k_cap], out=steps[1:])
    return steps.cumsum()


# np.exp is exactly 0 below about -745.13, so a log-gaussian density whose
# exponent lies under this bound is 0
_LOG_UNDERFLOW = -746.0


def _gaussian_window(p: LogGaussian, tilt: float, start: float,
                     log_alpha: float) -> tuple[float, float]:
    """First and last k at which C exp(tilt y - (y - mu)^2 / (2 sigma^2)), the
    log-gaussian density at y = start + k log_alpha, can be nonzero.

    The exponent is above _LOG_UNDERFLOW on an interval of y in closed form;
    the window is padded by one term on each side for the rounding of its
    ends.  Where C overflows, 0 * C is NaN, not 0, and every k counts, as it
    does where the interval's ends overflow.
    """
    if not math.isfinite(p.mass / (p.sigma * SQRT_2PI)):
        return -math.inf, math.inf
    s2 = p.sigma**2
    r = s2 * (s2 * tilt * tilt + 2.0 * (tilt * p.mu - _LOG_UNDERFLOW))
    if r < 0.0:
        return 1.0, 0.0
    centre, half = p.mu + s2 * tilt - start, math.sqrt(r)
    first, last = (centre - half) / log_alpha, (centre + half) / log_alpha
    if not (math.isfinite(first) and math.isfinite(last)):
        return -math.inf, math.inf
    return math.ceil(first) - 1.0, math.floor(last) + 1.0


def _series_sum(density: Callable, p: InitialProfile, lam: float, start: float,
                log_alpha: float, prefactor_log: float, tilt: float) -> float:
    """sum_k density(p, start + k log_alpha) exp(k log lam - log k! + prefactor_log)
    over k = 0..K, K = truncation_order(lam, k_support), summed exactly rounded.

    density(p, y) is n(0, y) e^{tilt y}: density_from_log_x with tilt -2,
    profile_eval_y with tilt 0.  Only the k where it can be nonzero are
    evaluated: the dilation window for heaviside data, which is exact, and
    _gaussian_window for log-gaussian data.  Of these only the terms with a
    nonzero density are summed, so a weight that overflows never meets a
    vanishing profile factor.  Every other term is 0, so the Poisson cutoff
    is searched for only where it can cut the window short or pass the term
    cap; its TruncationError is truncation_order's.  The log weights are the
    running sum from k = 0, as poisson_log_weights gives them.
    """
    eps, cap = DEFAULT_TRUNCATION
    first, last = dilation_window(p, log_alpha, start)
    k_support = int(last) + 1
    if k_support > cap or _cutoff_passes(lam, eps, cap):
        truncation_order(lam, k_support)   # K is past the cap: raises
    if isinstance(p, LogGaussian):
        first, last = _gaussian_window(p, tilt, start, log_alpha)
    k_lo, k_hi = int(max(first, 0.0)), int(min(last, cap))   # K is at most the cap
    if k_hi > k_support and not _cutoff_passes(lam, eps, k_hi - 1):   # K may fall below k_hi
        k_hi = min(k_hi, truncation_order(lam, k_support))
    if k_hi < k_lo:
        return 0.0
    u = density(p, start + np.arange(k_lo, k_hi + 1, dtype=float) * log_alpha)
    nz = u != 0.0
    terms = u[nz] * np.exp(poisson_log_weights(lam, k_hi)[k_lo:][nz] + prefactor_log)
    return math.fsum(terms.tolist())


def _check_density_time(p: InitialProfile, t: float) -> None:
    if isinstance(p, Dirac):
        raise DomainError("dirac initial data is measure-valued: it has no value at a point; "
                          "give a loggaussian or logheaviside profile")
    if not 0.0 <= t < math.inf:
        raise DomainError(f"time must be nonnegative and finite, got {t}")


def eval_v(p: InitialProfile, alpha: float, t: float, x: float) -> float:
    """Pure-fragmentation solution v(t, x) (unit division rate, no growth)."""
    _check_density_time(p, t)
    if not 0.0 < x < math.inf:
        raise DomainError(f"size must be positive and finite, got {x}")
    if t == 0.0:
        return profile_eval_x(p, x)
    log_alpha = math.log(alpha)
    with np.errstate(over="ignore", invalid="ignore"):     # the guard below names an overflow
        v = _series_sum(density_from_log_x, p, alpha * alpha * t, math.log(x), log_alpha, -t,
                        -2.0)
    if not math.isfinite(v):
        raise NumericsError(f"series: v({t:g}, {x:g}) = {v} is not finite")
    return v


def eval_n(p: InitialProfile, alpha: float, t: float, y: float) -> float:
    """Log-coordinate series n(t, y) at one point, through the same kernel as eval_v.

    Works on n(0, .) directly and never forms e^y, so deep tails are safe.
    """
    _check_density_time(p, t)
    if not math.isfinite(y):
        raise DomainError(f"log-size must be finite, got {y}")
    if t == 0.0:
        return profile_eval_y(p, y)
    return _series_sum(profile_eval_y, p, t, y, math.log(alpha), -t, 0.0)


# a part of a sum below this share of it is left out
_LOG_NEGLIGIBLE = math.log(1e-17)


def eval_n_series(p: InitialProfile, alpha: float, t: float, y: np.ndarray) -> np.ndarray:
    """Log-coordinate series n(t, y) = e^{-t} sum_k n(0, y + k log alpha) t^k / k!.

    Vectorized over the node array y; this is the oracle the grid solver is
    measured against.  Each node sums the k whose y + k log alpha lies in
    support_y(p) (model.dilation_window): from its first such k, one term
    more than any node can have in the support, taken as that many passes
    over the whole array in increasing k.

    The terms are log-concave in k, so the terms left out on one side sum to
    at most the next one over 1 - (its ratio to the last one taken).  Where
    that bound is not below 1e-17 of the sum, the window is widened one term
    at a time; this happens in the tails of a wide gaussian at small t, whose
    Poisson weights grow faster than the profile decays past the effective
    support.  The ratio is taken on logs, so it holds where the terms
    underflow.  Every k <= K = truncation_order(...) is thus summed or
    negligible.  The sum is positive term by term, so compensated
    accumulation keeps full relative accuracy even deep in the tails.
    """
    _check_density_time(p, t)
    y = np.asarray(y, dtype=float)
    if t == 0.0:
        return profile_eval_y(p, y)
    log_alpha = math.log(alpha)
    first, last = dilation_window(p, log_alpha, y)
    k_cap = truncation_order(t, int(np.max(last)) + 1)
    # the most terms a node can have in the support (one on its left edge), plus one
    n_pass = int(dilation_window(p, log_alpha, support_y(p)[0])[1]) + 2
    # index k + 1 holds the weight e^{-t} t^k / k! of term k; zero (log -inf)
    # for k = -1 and past k_cap
    log_weights = np.full(k_cap + n_pass + 3, -np.inf)
    log_weights[1:k_cap + 2] = poisson_log_weights(t, k_cap, start=-t)
    weights = np.zeros(log_weights.size)
    weights[1:k_cap + 2] = [math.exp(w) for w in log_weights[1:k_cap + 2].tolist()]

    def term(k: np.ndarray, with_log: bool = True) -> tuple[np.ndarray, np.ndarray | None]:
        """Term k of every node, and its log from the two factors (None unless with_log)."""
        n0 = profile_eval_y(p, y + k * log_alpha)
        if not with_log:
            return n0 * weights.take(k + 1), None
        with np.errstate(divide="ignore"):
            return n0 * weights.take(k + 1), np.log(n0) + log_weights.take(k + 1)

    total = np.zeros_like(y)
    comp = np.zeros_like(y)

    def add(term_k: np.ndarray) -> None:
        s = total + term_k
        comp[...] += np.where(np.abs(total) >= np.abs(term_k), (total - s) + term_k,
                              (term_k - s) + total)
        total[...] = s

    k_first = np.clip(first, 0, k_cap + 1).astype(np.int64)
    log_edges = []
    for i in range(n_pass):
        # only the edge passes, where the widening starts, need the log
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


def support_set(p: InitialProfile, params: ModelParams, t: float) -> list[tuple[float, float]]:
    """Atom lattice of the measure solution for a dirac initial datum.

    Returns (location, weight) pairs with locations x_k = alpha^{-k} x0 e^{gt}.
    The weights are growth-compensated: they satisfy

        sum_k w_k phi(x_k) = e^{-gt} <u(t, .), phi>,

    so sum_k w_k x_k equals the initial first moment weight * x0 at every time
    (the raw atom masses of u(t, .) are e^{gt} times these weights).  Pairs
    with an exactly zero weight (k >= 1 at t = 0) are dropped.
    """
    if not isinstance(p, Dirac):
        raise DomainError("support_set is only defined for dirac initial data")
    if t < 0.0:
        raise DomainError(f"time must be nonnegative, got {t}")
    if t == 0.0:
        return [(p.x0, p.weight)]
    # weights carry (b alpha t)^k / k!, a Poisson profile in k
    k_max = poisson_cutoff(params.b * params.alpha * t, 1e-16)
    la = params.log_alpha
    pref = -(params.b + params.g) * t
    shift = params.g * t
    log_w = poisson_log_weights(params.b * params.alpha**2 * t, k_max).tolist()
    return [(math.exp(-k * la + shift) * p.x0, p.weight * math.exp(log_w[k] + pref - k * la))
            for k in range(k_max + 1)]
