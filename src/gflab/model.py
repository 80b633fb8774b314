"""Initial size profiles, model coefficients, and their closed-form Mellin data.

The equation evolves a size density u(t, x) on x > 0; most numerics work on
the log-size density n(t, y) = e^{2y} u(t, e^y) instead.  Each profile family
below carries closed forms for both densities, for the Mellin transform
U0(s) = int_0^inf u0(x) x^{s-1} dx (entire in s for all three families), and
for real moments, so the transform-based routes never need to integrate the
initial data numerically; integrate_dilates, the one quadrature of it, serves
the weak functionals of the series and the solver.  Its two Gauss-Legendre
rules (64 and 128 nodes) are tabulated constants, not computed per process.

All types are immutable after construction and every operation is pure, so
callers are free to share them across workers.
"""

from __future__ import annotations

import math
import re
from functools import lru_cache
from typing import Callable, Union

import numpy as np

from .errors import DomainError

SQRT_2PI = math.sqrt(2.0 * math.pi)

# A log-gaussian 12 sigma past its mean is below 6e-32 of its peak; series and
# grid truncations treat that as the edge of the support.
GAUSSIAN_SUPPORT_SIGMAS = 12.0

# Below this distance from s = 2 the heaviside transform switches to a Taylor
# expansion of (e^{(s-2)b} - e^{(s-2)a}) / (s-2) to dodge the cancellation.
_HEAVISIDE_TAYLOR_RADIUS = 1e-6


class _Frozen:
    """Base of the immutable value types: _set stores the fields named in _fields
    once; equality and hash go by type and fields, repr is the dataclass text,
    and copies, pickles and _replace are rebuilt, and so validated, by __init__."""

    _fields: tuple[str, ...] = ()

    def _set(self, *values) -> None:
        self.__dict__.update(zip(self._fields, values))

    def __setattr__(self, name: str, *value) -> None:
        raise AttributeError(f"cannot change field {name!r} of a frozen {type(self).__name__}")

    __delattr__ = __setattr__

    def _key(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other):
        return self._key() == other._key() if type(other) is type(self) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        body = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, self._key()))
        return f"{type(self).__qualname__}({body})"

    def __reduce__(self):
        return type(self), self._key()

    def _replace(self, **changes):
        """A copy with the given fields changed."""
        return type(self)(**{**dict(zip(self._fields, self._key())), **changes})


class ModelParams(_Frozen):
    """Equation coefficients: growth rate g >= 0, division rate b > 0, fragment ratio alpha > 1."""

    _fields = ("g", "b", "alpha")

    def __init__(self, g: float = 0.0, b: float = 1.0, alpha: float = 2.0) -> None:
        for name, value in (("alpha", alpha), ("b", b), ("g", g)):
            if not math.isfinite(value):
                raise DomainError(f"{name} must be finite, got {value}")
        if not alpha > 1.0:
            raise DomainError(f"fragment ratio must satisfy alpha > 1, got {alpha}")
        if not b > 0.0:
            raise DomainError(f"division rate must satisfy b > 0, got {b}")
        if g < 0.0:
            raise DomainError(f"growth rate must satisfy g >= 0, got {g}")
        self._set(g, b, alpha)
        # Read by the config, analysis.checks and support_set; the routes and
        # the instruments take alpha alone and compute log(alpha) themselves.
        # Derived, so not a field: left out of equality, hash and repr.
        self.__dict__["log_alpha"] = math.log(alpha)


class LogGaussian(_Frozen):
    """Initial data whose log-size density n(0, y) is a gaussian.

    n(0, y) = mass * exp(-(y - mu)^2 / (2 sigma^2)) / (sigma sqrt(2 pi)), so the
    size density is u0(x) = mass * exp(-(log x - mu)^2 / (2 sigma^2)) / (x^2 sigma sqrt(2 pi)).
    """

    _fields = ("mu", "sigma", "mass")

    def __init__(self, mu: float, sigma: float, mass: float = 1.0) -> None:
        if not sigma > 0.0:
            raise DomainError(f"log-gaussian width must satisfy sigma > 0, got {sigma}")
        if not mass > 0.0:
            raise DomainError(f"log-gaussian mass must be positive, got {mass}")
        self._set(mu, sigma, mass)


class LogHeaviside(_Frozen):
    """Initial data with n(0, y) = height on [a, b] and 0 elsewhere (u0 = height * x^-2 there)."""

    _fields = ("a", "b", "height")

    def __init__(self, a: float, b: float, height: float = 1.0) -> None:
        if not a < b:
            raise DomainError(f"log-heaviside support needs a < b, got [{a}, {b}]")
        if not height > 0.0:
            raise DomainError(f"log-heaviside height must be positive, got {height}")
        self._set(a, b, height)


class Dirac(_Frozen):
    """A single atom of the given weight at size x0.  Has no pointwise density."""

    _fields = ("x0", "weight")

    def __init__(self, x0: float, weight: float = 1.0) -> None:
        if not x0 > 0.0:
            raise DomainError(f"atom location must be positive, got {x0}")
        if not weight > 0.0:
            raise DomainError(f"atom weight must be positive, got {weight}")
        self._set(x0, weight)


InitialProfile = Union[LogGaussian, LogHeaviside, Dirac]


def _require_density(p: InitialProfile, what: str) -> None:
    if isinstance(p, Dirac):
        raise DomainError(f"dirac initial data has no pointwise density ({what})")


def support_y(p: InitialProfile) -> tuple[float, float]:
    """Effective support of n(0, .) in log-size, used by truncation rules."""
    if isinstance(p, LogGaussian):
        half = GAUSSIAN_SUPPORT_SIGMAS * p.sigma
        return (p.mu - half, p.mu + half)
    if isinstance(p, LogHeaviside):
        return (p.a, p.b)
    return (math.log(p.x0), math.log(p.x0))


def _float_ceil(v: float) -> float:
    return float(math.ceil(v)) if math.isfinite(v) else v


def _float_floor(v: float) -> float:
    return float(math.floor(v)) if math.isfinite(v) else v


def dilation_window(p: InitialProfile, log_alpha: float, y):
    """First and last k with y + k log alpha in support_y(p), for a scalar or an array y.

    Floats (first > last where the lattice misses the support).  The quotient
    estimate is moved by one where the rounded y + k log alpha, the argument
    the series kernels evaluate, says otherwise, so exact lattice hits on an
    edge count as inside.  A scalar y is taken in float arithmetic, which
    rounds as numpy's does, not as a 0-d array.
    """
    lo, hi = support_y(p)
    ceil, floor = (np.ceil, np.floor) if isinstance(y, np.ndarray) else (_float_ceil, _float_floor)
    first = ceil((lo - y) / log_alpha)
    first = first - (y + (first - 1.0) * log_alpha >= lo)
    first = first + (y + first * log_alpha < lo)
    last = floor((hi - y) / log_alpha)
    last = last + (y + (last + 1.0) * log_alpha <= hi)
    last = last - (y + last * log_alpha > hi)
    return first, last


# The Gauss-Legendre rules of the weak functionals (integrate_dilates with 64
# and 128 nodes on [-1, 1]): the nonnegative half of each, nodes ascending and
# then their weights, as 17-digit literals.  Both rules are exactly
# antisymmetric in their nodes and symmetric in their weights, so the other
# half is the exact mirror.  The Newton iteration on P_n they were made with
# is the oracle in tests/test_model.py; it cost every process about 3 ms.
# numpy's leggauss calls LAPACK, whose first call added 1.7 MB (5%) to the
# peak memory of `analyze` on a 2-core VM.
_GAUSS_LEGENDRE_HALVES = {
    64: ((
        0.024350292663424433, 0.072993121787799042, 0.12146281929612056, 0.1696444204239928,
        0.21742364374000708, 0.26468716220876742, 0.31132287199021097, 0.35722015833766813,
        0.40227015796399163, 0.44636601725346409, 0.48940314570705296, 0.53127946401989457,
        0.571895646202634, 0.61115535517239328, 0.64896547125465731, 0.68523631305423327,
        0.71988185017161088, 0.75281990726053194, 0.78397235894334139, 0.81326531512279754,
        0.84062929625258043, 0.86599939815409288, 0.88931544599511414, 0.91052213707850282,
        0.92956917213193957, 0.94641137485840277, 0.96100879965205377, 0.97332682778991098,
        0.98333625388462598, 0.99101337147674429, 0.99634011677195522, 0.99930504173577217,
    ), (
        0.048690957009139745, 0.048575467441503394, 0.048344762234802899, 0.047999388596458331,
        0.047540165714830315, 0.046968182816209993, 0.046284796581314396, 0.045491627927418121,
        0.04459055816375658, 0.043583724529323471, 0.042473515123653625, 0.041262563242623548,
        0.039953741132720363, 0.038550153178615598, 0.037055128540240068, 0.035472213256882358,
        0.033805161837141613, 0.032057928354851606, 0.030234657072402426, 0.028339672614259459,
        0.026377469715054645, 0.024352702568710933, 0.022270173808383212, 0.020134823153530219,
        0.017951715775697336, 0.015726030476024788, 0.013463047896718533, 0.011168139460131076,
        0.0088467598263639348, 0.006504457968978368, 0.0041470332605625208, 0.0017832807216962678,
    )),
    128: ((
        0.012223698960615766, 0.036663790968733491, 0.061081969604139565, 0.085463640504515492,
        0.10979423112764375, 0.1340591994611878, 0.15824404271422493, 0.18233430598533718,
        0.20631559090207921, 0.23017356422665999, 0.25389396642269429, 0.27746262017790441,
        0.30086543887767719, 0.32408843502441337, 0.34711772859763551, 0.36993955534985901,
        0.39254027503326744, 0.414906379552275, 0.43702450103710416, 0.45888141983355218,
        0.48046407240417205, 0.50175955913614445, 0.52275515205117551, 0.54343830241281033,
        0.56379664822661812, 0.58381802162876306, 0.60349045615854857, 0.62280219391058489,
        0.64174169256230751, 0.66029763227264604, 0.67845892244771921, 0.69621470836951438,
        0.71355437768358743, 0.73046756674190882, 0.74694416679706199, 0.76297433004409476,
        0.77854847550641193, 0.79365729476219327, 0.80829175750791371, 0.82244311695564387,
        0.83610291506090684, 0.84926298757796892, 0.86191546893954851, 0.87405279695803184,
        0.88566771734539718, 0.89675328804915821, 0.9073028834017568, 0.91731019808096048,
        0.92676925087894779, 0.93567438827791638, 0.94402028783022018, 0.95180196134126438,
        0.95901475785369994, 0.96565436643196523, 0.97171681874713656, 0.97719849146390736,
        0.98209610843571848, 0.98640674272458617, 0.99012781849173437, 0.9932571129002129,
        0.99579275853498117, 0.99773324862551405, 0.99907745997737596, 0.99982488794713187,
    ), (
        0.024446180196262518, 0.024431569097850044, 0.024402355633849585, 0.024358557264690682,
        0.024300200167971828, 0.024227319222815253, 0.024139957989019255, 0.024038168681024038,
        0.023922012136703495, 0.023791557781003354, 0.023646883584447633, 0.023488076016535932,
        0.023315229994062762, 0.023128448824387051, 0.022927844143686843, 0.022713535850236433,
        0.022485652032744982, 0.022244328893799781, 0.021989710668460474, 0.021721949538052107,
        0.02144120553920844, 0.021147646468221322, 0.020841447780751119, 0.02052279248696013,
        0.020191871042130025, 0.019848881232830885, 0.019494028058706658, 0.019127523609950979,
        0.018749586940544703, 0.018360443937331359, 0.017960327185008701, 0.017549475827117682,
        0.017128135423111392, 0.016696557801589202, 0.016255000909785173, 0.015803728659399323,
        0.015343010768865132, 0.014873122602147298, 0.014394345004166845, 0.013906964132951978,
        0.013411271288616322, 0.012907562739267298, 0.012396139543950892, 0.011877307372740255,
        0.011351376324080427, 0.010818660739503069, 0.010279479015832201, 0.0097341534150068368,
        0.0091830098716609212, 0.0086263777986167259, 0.0080645898904860309, 0.0074979819256347467,
        0.0069268925668987862, 0.006351663161707208, 0.0057726375428657165, 0.0051901618326762981,
        0.0046045842567029567, 0.0040162549837386811, 0.0034255260409102434, 0.0028327514714580511,
        0.0022382884309626169, 0.0016425030186689989, 0.0010458126793403038, 0.0004493809602922429,
    )),
}


@lru_cache(maxsize=None)
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes (ascending) and weights on [-1, 1] for n = 64 or 128,
    mirrored from their tabulated halves."""
    x, w = (np.array(half) for half in _GAUSS_LEGENDRE_HALVES[n])
    return np.concatenate([-x[::-1], x]), np.concatenate([w[::-1], w])


def integrate_dilates(p: InitialProfile, log_alpha: float, weights: np.ndarray,
                      psi: Callable[[np.ndarray], np.ndarray], n_nodes: int) -> float:
    """int psi(z) n(z) dz for n = sum_k weights[k] n0(. + k log alpha) (Poisson or
    RK4 weights), term by term over the initial support:

        sum_k weights[k] int_{supp n0} psi(w - k log alpha) n0(w) dw.

    Each inner integral uses an n_nodes-point Gauss-Legendre rule on
    support_y(p), which for a heaviside is exactly [a, b], so the integrand
    is as smooth as psi.  psi maps an array of log-sizes to an array of values.
    """
    a, b = support_y(p)
    x, wq = _gauss_legendre(n_nodes)
    half = 0.5 * (b - a)
    w = 0.5 * (b + a) + half * x
    ks = np.arange(len(weights))[:, None]
    term_w = weights[:, None] * half
    return float(np.sum(term_w * wq * psi(w - ks * log_alpha) * profile_eval_y(p, w)))


def first_true(pred: Callable[[int], bool], start: int, guess: int | None = None) -> int:
    """Smallest k > start with pred(k), for a pred that stays true once it holds.

    The search starts at guess (default start + 1) and steps down while pred
    holds or up while it fails, the step doubling each time; then the bracket
    is bisected.  pred is never asked at k <= start.  A guess d away from the
    answer costs about 2 log2(d) + 2 evaluations, so a closed-form estimate
    makes the search short.
    """
    k = start + 1 if guess is None else max(start + 1, guess)
    step = 1
    if pred(k):
        hi = k  # pred holds at hi
        while hi - step > start and pred(hi - step):
            hi -= step
            step *= 2
        lo = max(hi - step, start)  # pred fails at lo (or lo precedes the search)
    else:
        lo = k
        while not pred(lo + step):
            lo += step
            step *= 2
        hi = lo + step
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if pred(mid):
            hi = mid
        else:
            lo = mid
    return hi


def density_from_log_x(p: InitialProfile, log_x):
    """u0(x) evaluated from log x.  Safe for arbitrarily large |log x|.

    Works on scalars and numpy arrays.  Everything is assembled inside a
    single exponential so neither the x^-2 factor nor the gaussian tail can
    overflow on the way to an underflowing product.
    """
    _require_density(p, "density evaluation")
    lx = np.asarray(log_x, dtype=float)
    if isinstance(p, LogGaussian):
        expo = -2.0 * lx - ((lx - p.mu) ** 2) / (2.0 * p.sigma**2)
        out = (p.mass / (p.sigma * SQRT_2PI)) * np.exp(expo)
    else:
        inside = (lx >= p.a) & (lx <= p.b)
        # clipped, so that no value outside the support overflows on its way to 0
        out = np.where(inside, p.height * np.exp(-2.0 * np.minimum(np.maximum(lx, p.a), p.b)), 0.0)
    if lx.ndim == 0 and not isinstance(log_x, np.ndarray):   # np.isscalar, without its cost
        return float(out)
    return out


def profile_eval_x(p: InitialProfile, x):
    """Size density u0(x) at x > 0.  Exactly 0 outside a heaviside support."""
    _require_density(p, "profile_eval_x")
    xa = np.asarray(x, dtype=float)
    if np.any(xa <= 0.0):
        raise DomainError("size argument must be positive")
    return density_from_log_x(p, np.log(x) if not np.isscalar(x) else math.log(x))


def profile_eval_y(p: InitialProfile, y):
    """Log-size density n(0, y) = e^{2y} u0(e^y)."""
    _require_density(p, "profile_eval_y")
    ya = np.asarray(y, dtype=float)
    if isinstance(p, LogGaussian):
        out = (p.mass / (p.sigma * SQRT_2PI)) * np.exp(-((ya - p.mu) ** 2) / (2.0 * p.sigma**2))
    else:
        out = np.where((ya >= p.a) & (ya <= p.b), p.height, 0.0)
    if ya.ndim == 0 and not isinstance(y, np.ndarray):   # np.isscalar, without its cost
        return float(out)
    return out


def mellin_U0(p: InitialProfile, s):
    """Mellin transform U0(s) = int_0^inf u0(x) x^{s-1} dx, entire in s.

    Closed forms per family:
      log-gaussian:  mass * exp(mu (s-2) + sigma^2 (s-2)^2 / 2)
      log-heaviside: height * (e^{(s-2)b} - e^{(s-2)a}) / (s-2), with the
                     removable singularity at s = 2 handled by a three-term
                     Taylor expansion,
      dirac atom:    weight * x0^{s-1}.
    """
    scalar = np.isscalar(s)
    sa = np.asarray(s, dtype=complex)
    if isinstance(p, LogGaussian):
        w = sa - 2.0
        out = p.mass * np.exp(p.mu * w + 0.5 * (p.sigma**2) * w * w)
    elif isinstance(p, LogHeaviside):
        w = sa - 2.0
        small = np.abs(w) < _HEAVISIDE_TAYLOR_RADIUS
        w_safe = np.where(small, 1.0, w)
        direct = (np.exp(w_safe * p.b) - np.exp(w_safe * p.a)) / w_safe
        a, b = p.a, p.b
        taylor = (b - a) + w * (b * b - a * a) / 2.0 + w * w * (b**3 - a**3) / 6.0
        out = p.height * np.where(small, taylor, direct)
    else:
        out = p.weight * np.exp((sa - 1.0) * math.log(p.x0))
    if scalar:
        return complex(out)
    return out


def moment(p: InitialProfile, q: float) -> float:
    """q-th moment int_0^inf x^q u0(x) dx, i.e. the transform at s = q + 1 on the real axis."""
    return mellin_U0(p, complex(q + 1.0, 0.0)).real


# --- config-line serialization ------------------------------------------------
#
# Profiles travel through configs and CLI flags as a single line, e.g.
#   loggaussian mu=0 sigma=0.1 mass=1
#   logheaviside a=-1 b=0 height=1
#   dirac x0=1 weight=1

_PROFILES = {"loggaussian": LogGaussian, "logheaviside": LogHeaviside, "dirac": Dirac}


def parse_profile(text: str) -> InitialProfile:
    """Parse the one-line profile syntax used in config files."""
    parts = text.strip().split()
    if not parts:
        raise DomainError("empty profile specification")
    kind = parts[0].lower()
    if kind not in _PROFILES:
        raise DomainError(f"unknown profile family {kind!r} (expected one of {sorted(_PROFILES)})")
    cls = _PROFILES[kind]
    kwargs = {}
    for item in parts[1:]:
        m = re.fullmatch(r"([A-Za-z0-9_]+)=([^\s]+)", item)
        if not m:
            raise DomainError(f"malformed profile field {item!r} (expected key=value)")
        key, val = m.group(1).lower(), m.group(2)
        if key not in cls._fields:
            raise DomainError(f"unknown field {key!r} for profile family {kind!r}")
        try:
            kwargs[key] = float(val)
        except ValueError as exc:
            raise DomainError(f"non-numeric profile field {item!r}") from exc
    try:
        return cls(**kwargs)
    except TypeError as exc:
        raise DomainError(f"incomplete profile specification {text!r}: {exc}") from exc


def format_profile(p: InitialProfile) -> str:
    """Inverse of parse_profile; floats use repr so the round trip is exact."""
    for name, cls in _PROFILES.items():
        if isinstance(p, cls):
            body = " ".join(f"{f}={getattr(p, f)!r}" for f in cls._fields)
            return f"{name} {body}"
    raise DomainError(f"not a profile: {p!r}")
