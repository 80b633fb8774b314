"""Initial size profiles, model coefficients, and their closed-form Mellin data.

The equation evolves a size density u(t, x) on x > 0; most numerics work on
the log-size density n(t, y) = e^{2y} u(t, e^y) instead.  Each profile family
below carries closed forms for both densities, for the Mellin transform
U0(s) = int_0^inf u0(x) x^{s-1} dx (entire in s for all three families), and
for real moments, so the transform-based routes never need to integrate the
initial data numerically; integrate_dilates, the one quadrature of it, serves
the weak functionals of the series and the solver.

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


def dilation_window(p: InitialProfile, log_alpha: float, y):
    """First and last k with y + k log alpha in support_y(p), for a scalar or an array y.

    Floats (first > last where the lattice misses the support).  The quotient
    estimate is moved by one where the rounded y + k log alpha, the argument
    the series kernels evaluate, says otherwise, so exact lattice hits on an
    edge count as inside.
    """
    lo, hi = support_y(p)
    first = np.ceil((lo - y) / log_alpha)
    first = first - (y + (first - 1.0) * log_alpha >= lo)
    first = first + (y + first * log_alpha < lo)
    last = np.floor((hi - y) / log_alpha)
    last = last + (y + (last + 1.0) * log_alpha <= hi)
    last = last - (y + last * log_alpha > hi)
    return first, last


@lru_cache(maxsize=None)
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes (ascending) and weights on [-1, 1]: four Newton steps on P_n
    from the cosine guesses reach rounding for n <= 128.  numpy's leggauss calls LAPACK,
    whose first call added 1.7 MB (5%) to the peak memory of `analyze` on a 2-core VM."""
    x = np.cos(np.pi * (np.arange(n, 0, -1) - 0.25) / (n + 0.5))
    for step in range(5):
        p0, p1 = np.ones_like(x), x
        for k in range(2, n + 1):
            p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
        dp = n * (x * p1 - p0) / (x * x - 1.0)      # P_n'(x)
        if step < 4:
            x = x - p1 / dp
    return x, 2.0 / ((1.0 - x * x) * dp * dp)


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


def first_true(pred: Callable[[int], bool], start: int) -> int:
    """Smallest k > start with pred(k), for a pred that stays true once it holds:
    the step from start doubles until pred holds, then the bracket is bisected."""
    lo, step = start, 1  # pred fails at lo (or lo precedes the search)
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
        out = np.where(inside, p.height * np.exp(-2.0 * np.clip(lx, p.a, p.b)), 0.0)
    if np.isscalar(log_x):
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
    if np.isscalar(y):
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

_PROFILE_FIELDS = {
    "loggaussian": (LogGaussian, ("mu", "sigma", "mass")),
    "logheaviside": (LogHeaviside, ("a", "b", "height")),
    "dirac": (Dirac, ("x0", "weight")),
}


def parse_profile(text: str) -> InitialProfile:
    """Parse the one-line profile syntax used in config files."""
    parts = text.strip().split()
    if not parts:
        raise DomainError("empty profile specification")
    kind = parts[0].lower()
    if kind not in _PROFILE_FIELDS:
        raise DomainError(f"unknown profile family {kind!r} (expected one of {sorted(_PROFILE_FIELDS)})")
    cls, fields = _PROFILE_FIELDS[kind]
    kwargs = {}
    for item in parts[1:]:
        m = re.fullmatch(r"([A-Za-z0-9_]+)=([^\s]+)", item)
        if not m:
            raise DomainError(f"malformed profile field {item!r} (expected key=value)")
        key, val = m.group(1).lower(), m.group(2)
        if key not in fields:
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
    for name, (cls, fields) in _PROFILE_FIELDS.items():
        if isinstance(p, cls):
            body = " ".join(f"{f}={getattr(p, f)!r}" for f in fields)
            return f"{name} {body}"
    raise DomainError(f"not a profile: {p!r}")
