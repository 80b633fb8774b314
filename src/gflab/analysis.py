"""Asymptotic-behaviour instruments: ray rescalings, line probes, period detection.

The rescaled density r(t, y) = t e^{2ty} v(t, e^{yt}) concentrates at
y0 = -log alpha with preserved integral, and the further zoom
rtilde(t, z) = r(t, y0 + sigma z / sqrt(t)) sigma / sqrt(t) with
sigma = log alpha converges weakly to the initial first moment times a unit
gaussian.  Pointwise, however, the normalized line values

    f_y(t) = sqrt(t) e^{-Psi(y) t} n(t, y t)

are asymptotically periodic with period -log(alpha) / y, and the instruments
here quantify that: probes sample f_y, the period estimator detrends a probe
and reads the first dominant autocorrelation peak, and weak limits are tested
only through integrated functionals (pointwise limits do not exist).

The instruments read n from one of two sources, the explicit series or a
solved grid trajectory; the pointwise v-routes are named in ROUTES.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Callable

import numpy as np

from .errors import DomainError, NumericsError
from .mellin import asymp_v_poisson, asymp_v_theta, inverse_mellin_v, psi
from .model import InitialProfile, LogGaussian, ModelParams, moment
from .series import eval_n, eval_v, integrate_n
from .solver import Trajectory, v_from_grid


class SeriesSource:
    """Evaluate n through the explicit series.

    n goes through the one pointwise kernel of `series` (it works on n(0, .)
    directly and never forms e^y); weak_test integrates the series term by
    term instead of sampling it.
    """

    def __init__(self, profile: InitialProfile, alpha: float):
        self.profile = profile
        self.alpha = alpha

    def n(self, t: float, y: float) -> float:
        return eval_n(self.profile, self.alpha, t, y)


class GridSource:
    """Evaluate from a solved trajectory; probes reuse the densely recorded tracks."""

    def __init__(self, traj: Trajectory):
        self.traj = traj
        self.alpha = traj.grid.alpha

    def n(self, t: float, y: float) -> float:
        return self.traj.n_at(t, y)

    def probe_track(self, y: float) -> tuple[np.ndarray, np.ndarray]:
        for ray, vals in self.traj.diagnostics.probes.items():
            if abs(ray - y) <= 1e-9:
                return self.traj.diagnostics.times, vals
        raise DomainError(f"ray y = {y} was not tracked while solving "
                          f"(tracked: {sorted(self.traj.diagnostics.probes)})")


def r_of(source: SeriesSource | GridSource, t: float, y: float) -> float:
    """Rescaled line value r(t, y) = t e^{2ty} v(t, e^{yt}) = t n(t, t y)."""
    if not t > 0.0:
        raise DomainError(f"rescaling needs t > 0, got {t}")
    return t * source.n(t, t * y)


def r_tilde_of(source: SeriesSource | GridSource, t: float, z: float) -> float:
    """Gaussian-window rescaling of r around y0 = -log alpha with sigma = log alpha."""
    if not t > 0.0:
        raise DomainError(f"rescaling needs t > 0, got {t}")
    la = math.log(source.alpha)
    scale = la / math.sqrt(t)
    return r_of(source, t, -la + scale * z) * scale


@dataclass(frozen=True)
class LineProbe:
    """Samples of f_y(t) = sqrt(t) e^{-Psi(y) t} n(t, y t) along one ray y < 0."""

    y: float
    times: np.ndarray
    values: np.ndarray


def line_probe(source: SeriesSource | GridSource, y: float, times=None,
               t_min: float | None = None, t_max: float | None = None) -> LineProbe:
    """Sample f_y along the ray.  Grid sources reuse their dense recorded track.

    For a grid source `times` may be omitted; the track recorded while solving
    is windowed to [t_min, t_max].  A series source evaluates pointwise at
    the requested times.
    """
    if y >= 0.0:
        raise DomainError(f"line probes are defined for rays y < 0, got {y}")
    psi_y = psi(source.alpha, y)[0]
    if isinstance(source, GridSource) and times is None:
        ts, track = source.probe_track(y)
        lo = t_min if t_min is not None else ts[0]
        hi = t_max if t_max is not None else ts[-1]
        mask = (ts >= lo) & (ts <= hi) & (ts > 0.0)
        ts = ts[mask]
        vals = np.sqrt(ts) * np.exp(-psi_y * ts) * track[mask]
        return LineProbe(y=y, times=ts, values=vals)
    if times is None:
        raise DomainError("sample times are required for non-grid sources")
    ts = np.asarray(times, dtype=float)
    if np.any(ts <= 0.0):
        raise DomainError("probe times must be positive")
    vals = np.array([math.sqrt(t) * math.exp(-psi_y * t) * source.n(t, y * t) for t in ts])
    return LineProbe(y=y, times=ts, values=vals)


@dataclass(frozen=True)
class PeriodEstimate:
    """Result of the autocorrelation period read-off.

    `oscillating` is False when the relative oscillation amplitude stays under
    the detection threshold; period is NaN in that case and positive otherwise.
    confidence is the ratio of the autocorrelation peak to the largest
    secondary structure between lag zero and the peak.
    """

    period: float
    confidence: float
    n_cycles: float
    amplitude: float
    oscillating: bool


def _moving_mean(values: np.ndarray, w: int) -> np.ndarray:
    kernel = np.full(w, 1.0 / w)
    return np.convolve(values, kernel, mode="valid")


def estimate_period(probe: LineProbe, expected_period: float | None = None,
                    amp_threshold: float = 1e-3) -> PeriodEstimate:
    """Detrend a probe, autocorrelate, and return the first dominant peak lag.

    The raw f_y still carries slow drifts (the envelope corrections decay only
    algebraically), so the series is divided by a moving mean over roughly
    three periods before autocorrelating.  Needs uniform sampling, at least
    32 samples per expected cycle, and at least 3 cycles in the window.
    """
    ts, vals = probe.times, probe.values
    if ts.size < 16:
        raise DomainError("window too short: need at least 16 probe samples")
    dt = float(ts[1] - ts[0])
    if not np.allclose(np.diff(ts), dt, rtol=1e-6, atol=1e-12):
        raise DomainError("period estimation needs uniformly sampled probes")
    span = float(ts[-1] - ts[0])
    if expected_period is not None:
        if dt > expected_period / 32.0:
            raise DomainError(
                f"sampling too coarse: {expected_period / dt:.1f} samples per expected "
                "cycle, need at least 32")
        if span < 3.0 * expected_period:
            raise DomainError(
                f"window too short: {span / expected_period:.2f} expected cycles, need >= 3")
        w = int(round(3.0 * expected_period / dt))
    else:
        w = max(3, ts.size // 8)
    w = min(w | 1, (ts.size - 2) | 1)  # odd, and leave data after trimming

    mm = _moving_mean(vals, w)
    if np.any(mm <= 0.0):
        raise NumericsError("probe mean is not positive; cannot detrend by division")
    trimmed = vals[(w - 1) // 2: ts.size - (w - 1) // 2]
    detrended = trimmed / mm - 1.0
    amplitude = 0.5 * float(np.max(detrended) - np.min(detrended))
    if amplitude < amp_threshold:
        return PeriodEstimate(period=math.nan, confidence=0.0, n_cycles=0.0,
                              amplitude=amplitude, oscillating=False)

    d = detrended - detrended.mean()
    ac = np.correlate(d, d, mode="full")[d.size - 1:]
    if ac[0] <= 0.0:
        raise NumericsError("degenerate autocorrelation")
    ac = ac / ac[0]

    if expected_period is not None:
        lo = max(2, int(0.6 * expected_period / dt))
        hi = min(ac.size - 2, int(1.5 * expected_period / dt))
        if hi <= lo:
            raise DomainError("window too short for the expected period")
        k = lo + int(np.argmax(ac[lo:hi + 1]))
    else:
        # first local maximum past the initial decay that carries real weight
        neg = np.nonzero(ac < 0.0)[0]
        start = int(neg[0]) if neg.size else max(2, ac.size // 16)
        tail = ac[start:ac.size - 1]
        peaks = np.nonzero((tail[1:-1] > tail[:-2]) & (tail[1:-1] >= tail[2:]))[0] + start + 1
        if peaks.size == 0:
            raise NumericsError("no autocorrelation peak found")
        best = float(np.max(ac[peaks]))
        k = int(peaks[np.nonzero(ac[peaks] >= 0.7 * best)[0][0]])

    # sub-sample refinement with a parabola through the peak
    if 1 <= k < ac.size - 1:
        denom = ac[k - 1] - 2.0 * ac[k] + ac[k + 1]
        shift = 0.5 * (ac[k - 1] - ac[k + 1]) / denom if denom != 0.0 else 0.0
        shift = float(np.clip(shift, -0.5, 0.5))
    else:
        shift = 0.0
    period = (k + shift) * dt

    mid = ac[max(1, int(0.25 * k)): max(2, int(0.75 * k))]
    baseline = max(float(np.max(mid)) if mid.size else 0.0, 1e-3)
    confidence = float(ac[k]) / baseline
    n_cycles = (dt * (detrended.size - 1)) / period
    if n_cycles < 3.0:
        raise DomainError(f"window too short: only {n_cycles:.2f} cycles observed, need >= 3")
    return PeriodEstimate(period=float(period), confidence=confidence,
                          n_cycles=float(n_cycles), amplitude=amplitude, oscillating=True)


# Gauss-Legendre nodes per term of the termwise weak functional; the guard
# repeats it with twice as many
_WEAK_NODES = 64


def weak_test(source: SeriesSource | GridSource, phi: Callable[[float], float], t: float,
              rescaled: bool = False, y_window: tuple[float, float] | None = None) -> float:
    """Integrated functional int phi(y) r(t, y) dy (or int phi(z) rtilde(t, z) dz).

    Grid sources integrate with the grid's trapezoid rule after the exact
    change of variables to node coordinates.  Series sources integrate the
    series term by term over the compact initial support (series.integrate_n)
    with 64 and 128 Gauss-Legendre nodes, and raise NumericsError when the
    two rules disagree by more than 1e-10 of the mass or 1e-9 relative (a phi
    that is not smooth on the support).  phi is zero outside a given y_window,
    whose endpoints are checked to make sure the window contains the mass.
    As t grows the plain form tends to U0(2) phi(-log alpha) and the rescaled
    form to U0(2) int phi dG.
    """
    if not t > 0.0:
        raise DomainError(f"weak tests need t > 0, got {t}")
    la = math.log(source.alpha)

    if isinstance(source, GridSource):
        g = source.traj.grid
        snap = source.traj.snapshots[source.traj.snapshot_index(t)]
        ys = g.y_nodes()
        if rescaled:
            args = (ys / t + la) * math.sqrt(t) / la
        else:
            args = ys / t
        phi_vals = np.array([phi(a) for a in args])
        return g.trapezoid(phi_vals * snap)

    scale = moment(source.profile, 1.0)
    if y_window is not None:
        _check_window(source, t, y_window, scale)

    def phi_of_z(z: np.ndarray) -> np.ndarray:
        ys = [zi / t for zi in z.ravel().tolist()]
        vals = [phi((y + la) * math.sqrt(t) / la) if rescaled else phi(y) for y in ys]
        return np.array(vals, dtype=float).reshape(z.shape)

    z_window = None if y_window is None else (t * y_window[0], t * y_window[1])
    coarse, fine = (integrate_n(source.profile, source.alpha, t, phi_of_z, n, z_window)
                    for n in (_WEAK_NODES, 2 * _WEAK_NODES))
    if abs(fine - coarse) > max(1e-10 * scale, 1e-9 * abs(fine)):
        raise NumericsError(
            f"termwise weak functional: {_WEAK_NODES} and {2 * _WEAK_NODES} Gauss nodes "
            f"disagree by {abs(fine - coarse):.3e} (phi is not smooth on the support)")
    return fine


def _check_window(source: SeriesSource | GridSource, t: float, y_window: tuple[float, float],
                  scale: float) -> None:
    for edge in y_window:
        if abs(r_of(source, t, edge)) > 1e-9 * scale:
            raise NumericsError(
                f"integration window [{y_window[0]:.3g}, {y_window[1]:.3g}] does not contain "
                f"the mass (r at {edge:.3g} is not negligible)")


@dataclass(frozen=True)
class ComparisonRow:
    method_a: str
    method_b: str
    t: float
    x: float
    val_a: float
    val_b: float
    rel_err: float
    tol: float      # the pair's tolerance

    @property
    def flagged(self) -> bool:
        return self.rel_err > self.tol     # a NaN cell is never flagged


@dataclass
class MethodComparison:
    """Pairwise cross-validation table for the evaluation routes."""

    rows: list[ComparisonRow]

    def max_rel_err(self, method_a: str, method_b: str) -> float:
        pair = {method_a, method_b}
        errs = [r.rel_err for r in self.rows
                if {r.method_a, r.method_b} == pair and not math.isnan(r.rel_err)]
        return max(errs) if errs else math.nan

    @property
    def flagged(self) -> list[ComparisonRow]:
        return [r for r in self.rows if r.flagged]

    def summary(self) -> str:
        pairs = sorted({(r.method_a, r.method_b) for r in self.rows})
        lines = ["pairwise max relative errors:"]
        for a, b in pairs:
            lines.append(f"  {a} vs {b}: {self.max_rel_err(a, b):.3e}")
        if self.flagged:
            lines.append(f"{len(self.flagged)} cell(s) above tolerance")
        else:
            lines.append("all cells within tolerance")
        return "\n".join(lines)


def _rel_err(a: float, b: float) -> float:
    denom = max(abs(a), abs(b))
    if denom == 0.0:
        return 0.0
    return abs(a - b) / denom


# route name -> v(p, alpha, t, x).  Each entry looks its function up when it is
# called, so a function rebound on this module (as a tracer does) is seen.
ROUTES: dict[str, Callable[..., float]] = {
    "series": lambda p, alpha, t, x: eval_v(p, alpha, t, x),
    "mellin": lambda p, alpha, t, x: inverse_mellin_v(p, alpha, t, x),
    "asymp-theta": lambda p, alpha, t, x: asymp_v_theta(p, alpha, t, x),
    "asymp-poisson": lambda p, alpha, t, x: asymp_v_poisson(p, alpha, t, x),
}


def _route(routes: dict, name: str) -> Callable[..., float]:
    if name not in routes:
        raise DomainError(f"unknown evaluation method {name!r} (choose from {list(routes)})")
    return routes[name]


def route_u(name: str, params: ModelParams, p: InitialProfile, t: float, x: float) -> float:
    """u(t, x) by the named v-route and the characteristic rescaling e^{-gt} v(bt, x e^{-gt})."""
    v = _route(ROUTES, name)
    decay = math.exp(-params.g * t)
    return decay * v(p, params.alpha, params.b * t, x * decay)


def compare_methods(profile: InitialProfile, params: ModelParams, t_list, x_list,
                    traj: Trajectory | None = None, methods=None,
                    tol: dict[frozenset, float] | None = None) -> MethodComparison:
    """Evaluate v(t, x) by every requested route and tabulate pairwise errors.

    Methods: the ROUTES ("series"; "mellin", log-gaussian only; "asymp-theta"
    and "asymp-poisson", 0 < x < 1 and t > 0) and, given a trajectory
    snapshotted at each t, "pde".  Cells a method cannot evaluate are NaN and
    excluded from flags; flagged rows exceed the pairwise tolerance (default
    1e-6, asymptotic pairs 0.15).
    """
    if methods is None:
        methods = ["series"]
        if traj is not None:
            methods.append("pde")
        if isinstance(profile, LogGaussian):
            methods.append("mellin")
    routes = dict(ROUTES)
    if traj is not None:
        routes["pde"] = lambda p, alpha, t, x: v_from_grid(traj, t, x)
    fns = {m: _route(routes, m) for m in methods}

    def evaluate(method: str, t: float, x: float) -> float:
        try:
            return fns[method](profile, params.alpha, t, x)
        except DomainError:
            return math.nan

    def _default_pair_tol(a: str, b: str) -> float:
        if "asymp-theta" in (a, b) or "asymp-poisson" in (a, b):
            return 0.15            # algebraically decaying corrections
        if "pde" in (a, b):
            return 2e-3            # off-node points carry cubic interpolation error
        return 1e-6
    pair_tol = {frozenset({a, b}): _default_pair_tol(a, b) for a, b in combinations(methods, 2)}
    pair_tol.update(tol or {})

    rows: list[ComparisonRow] = []
    for t in t_list:
        for x in x_list:
            vals = {m: evaluate(m, float(t), float(x)) for m in methods}
            for a, b in combinations(methods, 2):
                va, vb = vals[a], vals[b]
                err = math.nan if (math.isnan(va) or math.isnan(vb)) else _rel_err(va, vb)
                rows.append(ComparisonRow(a, b, float(t), float(x), va, vb, err,
                                          pair_tol[frozenset({a, b})]))
    return MethodComparison(rows=rows)
