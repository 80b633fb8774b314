"""Spectral route: kernel symbol, saddle data, contour inversion, and asymptotics.

The fragmentation kernel's Mellin symbol is K(s) = alpha^{2-s}, and the
pure-fragmentation solution has the contour representation

    v(t, x) = (1 / 2 pi i) int_{nu - i inf}^{nu + i inf}
              U0(s) e^{(K(s) - 1) t} x^{-s} ds        for any real nu.

Along a vertical contour |e^{(K(s) - 1) t}| is periodic in Im s with period
2 pi / log alpha rather than decaying, so all decay of the integrand must
come from U0 itself.  The numerical inversion therefore accepts log-gaussian
data only, where |U0(nu + i tau)| falls off like exp(-sigma^2 tau^2 / 2).

The inversion puts its line at the real saddle nu* of the whole integrand
(saddle_abscissa): there the integrand is the Fourier transform of a tilted
density whose mean is log x, so the trapezoid sum does not cancel away the
value.  By Poisson summation a trapezoid step h aliases that density from
2 pi / h away, so the step comes from the width of the density (a Poisson
comb of gaussians), not from a heuristic (Trefethen & Weideman, "The
exponentially convergent trapezoidal rule", SIAM Review 56, 2014).  The
guard is relative: the error estimate must stay below ERR_TOL * |v|.

Large-time behaviour along rays x = e^{yt} (y < 0) is governed by the real
saddle abscissa s_plus(t, x) and its vertical lattice of translates
s_k = s_plus - 2 i k pi / log alpha, all sharing the same K value.  The theta
form is the contour integrand summed by the trapezoid rule at step
2 pi / log alpha, one node on each s_k, so it takes log-gaussian data only and
is guarded as the contour is.  The Poisson-resummed form sums the initial
density over the dilation lattice alpha^n x.  Complex powers of positive
reals are always computed as exp(exponent * real log), which fixes the branch.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, NumericsError, QuadratureError, TruncationError
from .model import (
    InitialProfile,
    LogGaussian,
    _Frozen,
    density_from_log_x,
    dilation_window,
    first_true,
)

# exp(-z^2 / 2) dips below 1e-16 past this many widths.
_DECAY_WIDTHS = math.sqrt(-2.0 * math.log(1e-16))
_EPS = float(np.finfo(float).eps)
ERR_TOL = 1e-8        # relative error bound of inverse_mellin_v and asymp_v_theta
THETA_K_CAP = 512     # most terms asymp_v_theta sums before it raises


def K_of_s(alpha: float, s):
    """Kernel symbol K(s) = alpha^{2-s} = exp((2 - s) log alpha)."""
    out = np.exp((2.0 - np.asarray(s)) * math.log(alpha))
    if out.ndim == 0 and not isinstance(s, np.ndarray):   # np.isscalar, without its cost
        return complex(out)
    return out


def s_plus(alpha: float, t: float, x: float) -> float:
    """Real saddle abscissa 2 - log(-log(x) / (t log alpha)) / log alpha.

    Defined for 0 < x < 1 and t > 0.  It inverts K', so it satisfies
    x = e^{-t (log alpha) alpha^{2 - s_plus}} and is constant along rays
    x = e^{yt}.
    """
    if not 0.0 < t < math.inf:
        raise DomainError(f"saddle abscissa needs a finite t > 0, got {t}")
    if not 0.0 < x < 1.0:
        raise DomainError(f"saddle abscissa is defined for 0 < x < 1, got {x}")
    la = math.log(alpha)
    return 2.0 - math.log(-math.log(x) / (t * la)) / la


def s_k(s_plus_value: float, k, alpha: float):
    """Vertical translate s_plus - 2 i k pi / log alpha of the saddle (k an int or an array)."""
    return s_plus_value - 2j * math.pi * k / math.log(alpha)


def psi(alpha: float, y: float) -> tuple[float, float, float]:
    """Ray exponent Psi and its first two derivatives at y < 0.

    Psi(y) = log(-y / log alpha) / log alpha * y - y / log alpha - 1 controls
    growth or decay of t e^{2ty} v(t, e^{yt}) along the ray x = e^{yt}; it is
    maximal (= 0) at y = -log alpha with curvature -1 / (log alpha)^2.
    """
    if y >= 0.0:
        raise DomainError(f"ray exponent is defined for rays y < 0, got {y}")
    la = math.log(alpha)
    lr = math.log(-y / la)
    return (lr * y / la - y / la - 1.0, lr / la, 1.0 / (y * la))


def saddle_abscissa(p: LogGaussian, alpha: float, t: float, x: float) -> float:
    """Real saddle nu* of the full contour integrand U0(s) e^{(K(s) - 1) t} x^{-s}.

    nu* is the real root of

        mu + sigma^2 (nu - 2) - t log(alpha) alpha^{2 - nu} = log x,

    i.e. the exponential tilt e^{(nu - 2) z} n(t, z) whose mean is log x.
    The left side increases strictly in nu, so the root exists and is unique
    for every x > 0 and t >= 0; at t = 0 it is nu_0 = 2 + (log x - mu) / sigma^2,
    and s_plus is its large-t limit.  With u = log(alpha) (nu - nu_0) it reads
    u + log u = L = log(t log(alpha)^2 / sigma^2) + (mu - log x) log(alpha) / sigma^2,
    i.e. u = W(e^L) (Lambert W), found by Newton's method from the standard
    starting guess; u is positive, and the iterates approach it from below
    after the first step.
    """
    la = math.log(alpha)
    nu_0 = 2.0 + (math.log(x) - p.mu) / p.sigma**2
    if t == 0.0:
        return nu_0
    big_l = math.log(t * la * la / p.sigma**2) + (p.mu - math.log(x)) * la / p.sigma**2
    u = big_l - math.log(big_l) if big_l > 1.0 else math.exp(big_l)
    for _ in range(100):
        if u == 0.0:  # e^L underflowed: nu_0 is the root to double precision
            break
        u_next = u * (1.0 + big_l - math.log(u)) / (1.0 + u)
        converged = abs(u_next - u) <= 1e-15 * u_next
        u = u_next
        if converged:
            break
    return nu_0 + u / la


def _log_integrand(p: LogGaussian, alpha: float, t: float, log_x: float, nu: float, tau):
    """(Re z, Im z) for z the log of U0(s) e^{(K(s) - 1) t} x^{-s} at s = nu + i tau.

    Log-gaussian data.  One exponent, so that no factor overflows or
    underflows on its own when the saddle sits far from s = 2; log U0 is the
    closed form of model.mellin_U0.  In real arithmetic, with K(nu + i tau) =
    K(nu) e^{-i tau log alpha}, a node costs one cos/sin pair.  A float tau
    (the tail bound's tau = 0) is taken in float arithmetic, not as a 0-d array.
    """
    w = nu - 2.0
    s2 = p.sigma**2
    re = math.log(p.mass) + p.mu * w + 0.5 * s2 * (w * w - tau * tau) - nu * log_x
    im = (p.mu + s2 * w - log_x) * tau
    if t > 0.0:  # at t = 0 the saddle may sit where K(s) overflows
        k, phase = K_of_s(alpha, nu).real, tau * math.log(alpha)
        cos, sin = (np.cos, np.sin) if isinstance(tau, np.ndarray) else (math.cos, math.sin)
        re = re + (k * cos(phase) - 1.0) * t
        im = im - k * t * sin(phase)
    return re, im


# log of the share of its mode below which the Poisson pmf counts as zero
_LOG_PMF_CUT = math.log(1e-17)


def _poisson_reach(lam: float) -> int:
    """Index distance from the mode of Poisson(lam) past which, on either side,
    the pmf stays below 1e-17 of its value at the mode (0 for lam = 0).

    The right side reaches further: its distance is searched from the normal
    estimate sqrt(2 c lam) plus the skew c / 3 (c = -log 1e-17), and the left
    side's only where it reaches past the right's.
    """
    if lam <= 0.0:
        return 0
    mode = math.floor(lam)
    log_lam = math.log(lam)
    log_mode = mode * log_lam - math.lgamma(mode + 1)

    def below(k: int) -> bool:
        return k < 0 or k * log_lam - math.lgamma(k + 1) - log_mode < _LOG_PMF_CUT

    guess = round(math.sqrt(-2.0 * _LOG_PMF_CUT * lam) - _LOG_PMF_CUT / 3.0)
    right = first_true(lambda d: below(mode + d), 0, guess)
    if below(mode - right):
        return right
    return first_true(lambda d: below(mode - d), right)


class ContourQuad(_Frozen):
    """Trapezoid rule on the truncated vertical contour nu + i [-tau_max, tau_max].

    n_nodes = 4j + 1 (j >= 1), so that every other node is itself a trapezoid
    rule with a node at each end and one on the real axis: the error estimate
    takes its half-resolution sum from the fine rule's own nodes.  An even n
    cannot nest: there every other node mirrors onto the other half under
    tau -> -tau, so for a conjugate-symmetric integrand the half sum's real
    part would equal the fine sum exactly and the estimate would read 0.
    """

    _fields = ("nu", "tau_max", "n_nodes")

    def __init__(self, nu: float, tau_max: float, n_nodes: int) -> None:
        if not tau_max > 0.0:
            raise DomainError(f"contour truncation must be positive, got {tau_max}")
        if n_nodes < 5 or n_nodes % 4 != 1:
            raise DomainError(f"node count must be 4j + 1 with j >= 1, got {n_nodes}")
        self._set(nu, tau_max, n_nodes)

    @classmethod
    def for_gaussian(cls, p: LogGaussian, alpha: float, t: float, nu: float = 2.0) -> "ContourQuad":
        """Contour on the line nu sized for a log-gaussian integrand.

        Along the line the integrand is the Fourier transform of the tilted
        density e^{(nu - 2) z} n(t, z), and by Poisson summation a trapezoid
        step h adds the copies of that density 2 pi / h away to the value.
        The tilted density is a Poisson(t alpha^{2 - nu}) comb of gaussians
        spaced log alpha apart, so it is negligible past D = log(alpha) times
        the Poisson reach (1e-17 of the mode) plus 8.6 widths on either side;
        h = pi / D keeps even the half-resolution rule, at step 2h, clear of
        the copies, and the node count is rounded up to the next 4j + 1.
        tau_max puts the transform factor exp(-sigma^2 tau^2 / 2) below 1e-16
        and adds one period 2 pi / log alpha of e^{K(s) t}.
        """
        sigma = p.sigma
        la = math.log(alpha)
        lam = t * alpha ** (2.0 - nu) if t > 0.0 else 0.0
        width = la * _poisson_reach(lam) + 2.0 * _DECAY_WIDTHS * sigma
        h = math.pi / width
        tau_max = _DECAY_WIDTHS / sigma + 2.0 * math.pi / la
        return cls(nu=nu, tau_max=tau_max, n_nodes=4 * math.ceil(0.5 * tau_max / h) + 1)


def _exp_sum(weights: np.ndarray, re: np.ndarray, im: np.ndarray):
    """weights @ Re e^z for z = re + i im, and an estimate of its rounding error.

    A term e^z carries a relative rounding error of about eps (1 + |z|), since
    z (mostly the phase tau log x) is rounded before the exponential; summed
    over the terms that bounds what the cancellation between them can leave.
    Each row of a 2-d weights array gives one sum over the same terms.  An
    overflow leaves a non-finite sum, without a warning, for the callers to name.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        size = np.exp(re)
        return weights @ (size * np.cos(im)), _EPS * (weights @ (size * (1.0 + np.hypot(re, im))))


def _contour_value(p: LogGaussian, alpha: float, t: float, log_x: float,
                   nu: float, tau_max: float, n_nodes: int) -> tuple[float, float, float]:
    """(1 / 2 pi) times the n_nodes-point trapezoid sum over nu + i [-tau_max, tau_max],
    the same for the half-resolution rule on every other node (step 2h), and an
    estimate of the fine sum's rounding error (_exp_sum).

    For real data the integrand at nu - i tau is the conjugate of the one at
    nu + i tau, so only the (n_nodes + 1) / 2 nodes with tau >= 0 are
    evaluated, once for both rules, and the real part is doubled.  With
    n_nodes = 4j + 1 (ContourQuad) both rules have a node at tau_max and one
    on the real axis, which is not doubled.
    """
    h = 2.0 * tau_max / (n_nodes - 1)
    # whole multiples of h: exact near tau = 0, where the terms are largest
    taus = np.arange((n_nodes + 1) // 2, dtype=float) * h
    weights = np.zeros((2, taus.size))   # rows: fine rule, half rule
    weights[0] = h / math.pi
    weights[1, ::2] = 2.0 * h / math.pi
    weights[0, 0] = weights[0, -1] = h / (2.0 * math.pi)
    weights[1, 0] = weights[1, -1] = h / math.pi
    (fine, half), rounding = _exp_sum(weights, *_log_integrand(p, alpha, t, log_x, nu, taus))
    return float(fine), float(half), float(rounding[0])


def _tail_bound(p: LogGaussian, alpha: float, t: float, log_x: float,
                nu: float, tau_max: float) -> float:
    """Bound on the contour integral past |tau| = tau_max.

    |U0(nu + i tau)| = U0(nu) e^{-sigma^2 tau^2 / 2}, |e^{K(s) t}| <= e^{K(nu) t}
    and |x^{-s}| = x^{-nu}, so the neglected part is at most the integrand
    modulus at tau = 0 times int_{tau_max}^inf e^{-sigma^2 tau^2 / 2} d tau / pi.
    """
    gauss_tail = math.erfc(p.sigma * tau_max / math.sqrt(2.0)) / (p.sigma * math.sqrt(2.0 * math.pi))
    if gauss_tail == 0.0:
        return 0.0
    log_bound = _log_integrand(p, alpha, t, log_x, nu, 0.0)[0] + math.log(gauss_tail)
    return math.exp(log_bound) if log_bound < 709.0 else math.inf


def inverse_mellin_v(p: InitialProfile, alpha: float, t: float, x: float,
                     cq: ContourQuad | None = None) -> float:
    """v(t, x) by trapezoid quadrature of the inverse Mellin contour integral.

    Only log-gaussian data gives an integrand that decays along the contour
    (the exponential factor is periodic, not decaying, in Im s).  Without a
    given cq the line sits at the real saddle nu* = saddle_abscissa(p, alpha,
    t, x), where the integrand does not cancel, and the rule is sized there
    by Poisson summation (ContourQuad.for_gaussian).  The result is checked
    against the half-resolution rule on every other node of the same pass:
    if the difference, plus the bound on the truncated tails and the rounding
    estimate of the sum, exceeds ERR_TOL * |value|, a QuadratureError
    carrying that estimate is raised, so a small value is held to the same
    relative accuracy as a large one.
    """
    if not isinstance(p, LogGaussian):
        raise DomainError(
            "contour integrand decays too slowly: inverse Mellin inversion "
            f"requires a log-gaussian profile, got {type(p).__name__}")
    if not 0.0 <= t < math.inf:
        raise DomainError(f"time must be nonnegative and finite, got {t}")
    if not 0.0 < x < math.inf:
        raise DomainError(f"size must be positive and finite, got {x}")
    if cq is None:
        cq = ContourQuad.for_gaussian(p, alpha, t, saddle_abscissa(p, alpha, t, x))
    log_x = math.log(x)
    value, coarse, rounding = _contour_value(p, alpha, t, log_x, cq.nu, cq.tau_max, cq.n_nodes)
    if not math.isfinite(value):
        raise NumericsError(f"inverse Mellin: v({t:g}, {x:g}) = {value} is not finite")
    estimate = (abs(value - coarse) + rounding
                + _tail_bound(p, alpha, t, log_x, cq.nu, cq.tau_max))
    if not estimate <= ERR_TOL * abs(value):
        raise QuadratureError("contour quadrature did not converge", estimate)
    return value


def default_poisson_range(p: InitialProfile, alpha: float, x: float) -> tuple[int, int]:
    """Dilation indices n with alpha^n x inside the (effective) profile support, padded by one."""
    first, last = dilation_window(p, math.log(alpha), math.log(x))
    return (min(int(first) - 1, 0), max(int(last) + 1, 0))


def poisson_sum(p: InitialProfile, alpha: float, s_plus_value: float, x: float) -> float:
    """sum_n u0(alpha^n x) alpha^{s_plus n} over default_poisson_range (the dilation lattice)."""
    la = math.log(alpha)
    lx = math.log(x)
    n_lo, n_hi = default_poisson_range(p, alpha, x)
    ns = np.arange(n_lo, n_hi + 1)
    dens = density_from_log_x(p, lx + ns * la)
    return float((dens * np.exp(s_plus_value * ns * la)).sum())


def asymp_v_theta(p: InitialProfile, alpha: float, t: float, x: float) -> float:
    """Saddle asymptotics of v(t, x) in theta form, for log-gaussian data, 0 < x < 1 and t > 0.

    The contour integrand summed by the trapezoid rule at step 2 pi / log alpha,
    one node on each s_k with |k| <= k_max, over sqrt(2 pi t) alpha^{1 - s_plus / 2}.
    The k = 0 term is the smooth-kernel baseline, the single-saddle formula of
    the oscillation story; the 1 + o(t^-beta) correction is omitted.  k_max
    comes from the contour's width rule (past it |U0(s_k)| < 1e-16
    |U0(s_plus)|).  Past THETA_K_CAP terms a TruncationError is raised,
    and a QuadratureError where the rounding estimate exceeds ERR_TOL * |value|.
    """
    if not isinstance(p, LogGaussian):
        raise DomainError(f"theta asymptotics need a log-gaussian profile, got {type(p).__name__}")
    sp = s_plus(alpha, t, x)  # validates the (t, x) domain
    la = math.log(alpha)
    k_max = int(_DECAY_WIDTHS * la / (2.0 * math.pi * p.sigma)) + 1
    if k_max > THETA_K_CAP:  # the bound is |U0(s_k) / U0(s_plus)| at k = THETA_K_CAP
        tail = math.exp(-0.5 * (2.0 * math.pi * THETA_K_CAP * p.sigma / la) ** 2)
        raise TruncationError(f"theta sum needs {k_max} terms but the cap is {THETA_K_CAP}", tail)
    # Im s_k for k = 0..k_max in real arithmetic: numpy divides a complex by a
    # real d as a product with 1 / d, so this is s_k(0.0, k, alpha).imag bit for bit
    taus = 0.0 - np.arange(k_max + 1) * (2.0 * math.pi) * (1.0 / la)
    weights = np.full(k_max + 1, 2.0)
    weights[0] = 1.0  # the real saddle is not doubled
    value, rounding = _exp_sum(weights, *_log_integrand(p, alpha, t, math.log(x), sp, taus))
    denom = math.sqrt(2.0 * math.pi * t) * la * alpha ** (1.0 - sp / 2.0)
    v = float(value) / denom
    if not math.isfinite(v):
        raise NumericsError(f"theta asymptotics: v({t:g}, {x:g}) = {v} is not finite")
    if not rounding <= ERR_TOL * abs(value):
        raise QuadratureError("theta sum cancelled below its rounding", rounding / denom)
    return v


def asymp_v_poisson(p: InitialProfile, alpha: float, t: float, x: float) -> float:
    """Saddle asymptotics of v(t, x) in Poisson-resummed form, for 0 < x < 1 and t > 0.

    e^{(alpha^{2 - s_plus} - 1) t} sum_n u0(alpha^n x) alpha^{s_plus n}
    divided by sqrt(2 pi t) alpha^{1 - s_plus / 2}; for decaying profiles only
    the finitely many n with alpha^n x inside the support contribute.
    """
    sp = s_plus(alpha, t, x)
    pref = math.exp((alpha ** (2.0 - sp) - 1.0) * t)
    denom = math.sqrt(2.0 * math.pi * t) * alpha ** (1.0 - sp / 2.0)
    with np.errstate(over="ignore", invalid="ignore"):     # the guard below names an overflow
        v = pref * poisson_sum(p, alpha, sp, x) / denom
    if not math.isfinite(v):
        raise NumericsError(f"Poisson asymptotics: v({t:g}, {x:g}) = {v} is not finite")
    return v

