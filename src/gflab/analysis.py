"""Asymptotic-behaviour instruments: ray rescalings, line probes, period detection.

The rescaled density r(t, y) = t e^{2ty} v(t, e^{yt}) concentrates at
y0 = -log alpha with preserved integral, and the further zoom
rtilde(t, z) = r(t, y0 + sigma z / sqrt(t)) sigma / sqrt(t) with
sigma = log alpha converges weakly to the initial first moment times a unit
gaussian.  Pointwise, however, the normalized line values

    f_y(t) = sqrt(t) e^{-Psi(y) t} n(t, y t)

are asymptotically periodic with period -log(alpha) / y, and the instruments
here quantify that: probes sample f_y, the period estimator detrends a probe
and reads the autocorrelation peak near the period law, and weak limits are
tested only through integrated functionals (pointwise limits do not exist).

The instruments read n from one of two sources, the explicit series or a
solved grid trajectory.  Both give n(t, .) as sum_k w_k n0(. + k log alpha),
with Poisson(t) or RK4 weights w, and weak functionals integrate it term by
term; the pointwise v-routes are named in ROUTES.
"""

from __future__ import annotations

import math
from itertools import combinations
from typing import Callable, NamedTuple

import numpy as np

from . import series    # checks() looks eval_n_series up on it at call time
from .errors import DomainError, NumericsError
from .mellin import asymp_v_poisson, asymp_v_theta, inverse_mellin_v, psi
from .model import InitialProfile, LogGaussian, ModelParams, integrate_dilates, moment
from .series import eval_n, eval_v, poisson_log_weights, truncation_order
from .solver import Trajectory, v_from_grid

# The gates of `analyze`, stated once: a check fails when its measured value
# is above its gate or not a number.
PERIOD_TOL = 0.02       # period law, relative error on each oscillating ray
MASS_TOL = 1e-6         # mass functional, largest relative deviation
WEAK_TOL = 0.02         # weak cos functional against its limit, relative
PDE_TOL = 1e-7          # solver vs series on the grid nodes, scaled by the largest
MELLIN_TOL = 1e-6       # route table: series vs contour, relative, in each cell
PDE_CELL_TOL = 2e-3     # route table: either route vs the solver, relative, in each cell
                        # (the solver's error is absolute: at t = 1 it reads 6.6e-4 at
                        # x = 3e-9 and 4.3e-3, flagged, at x = 1e-12)
ASYMP_TOL = 0.10        # asymptotics on x = alpha^-t, relative error at t = 25
AMP_THRESHOLD = 1e-3    # the least detrended amplitude that is an oscillation
# the sizes of the route table: analyze's, and compare's default --x
COMPARE_X = (0.25, 0.5, 0.75)


class SeriesSource:
    """Evaluate n through the explicit series.

    n goes through the one pointwise kernel of `series` (it works on n(0, .)
    directly and never forms e^y); weights(t) are the Poisson masses e^{-t} t^k / k!
    for k <= truncation_order(t), a TruncationError past the term cap.
    """

    def __init__(self, profile: InitialProfile, alpha: float):
        self.profile = profile
        self.alpha = alpha

    def n(self, t: float, y: float) -> float:
        return eval_n(self.profile, self.alpha, t, y)

    def weights(self, t: float) -> np.ndarray:
        return np.exp(poisson_log_weights(t, truncation_order(t)) - t)


class GridSource:
    """Evaluate from a solved trajectory; probes reuse the densely recorded tracks,
    and weights(t) is the RK4 weight row of the snapshot at t."""

    def __init__(self, traj: Trajectory):
        self.traj = traj
        self.alpha = traj.grid.alpha
        self.profile = traj.grid.profile

    def n(self, t: float, y: float) -> float:
        return self.traj.n_at(t, y)

    def weights(self, t: float) -> np.ndarray:
        return self.traj.weights[self.traj.snapshot_index(t)]

    def probe_track(self, y: float) -> tuple[np.ndarray, np.ndarray]:
        for ray, vals in self.traj.diagnostics.probes.items():
            if abs(ray - y) <= 1e-9:
                return self.traj.diagnostics.times, vals
        raise DomainError(f"ray y = {y} was not tracked while solving "
                          f"(tracked: {sorted(self.traj.diagnostics.probes)})")


class LineProbe(NamedTuple):
    """Samples of f_y(t) = sqrt(t) e^{-Psi(y) t} n(t, y t) along one ray y < 0."""

    y: float
    times: np.ndarray
    values: np.ndarray


def line_probe(source: SeriesSource | GridSource, y: float, times=None,
               t_min: float = 0.0, t_max: float = math.inf) -> LineProbe:
    """Sample f_y along the ray.  Grid sources reuse their dense recorded track.

    For a grid source `times` may be omitted; the track recorded while solving
    is windowed to [t_min, t_max].  Given `times`, a source evaluates pointwise
    at them, and refuses a window.
    """
    psi_y = psi(source.alpha, y)[0]
    if isinstance(source, GridSource) and times is None:
        ts, track = source.probe_track(y)
        mask = (ts >= t_min) & (ts <= t_max) & (ts > 0.0)
        ts = ts[mask]
        vals = np.sqrt(ts) * np.exp(-psi_y * ts) * track[mask]
        return LineProbe(y=y, times=ts, values=vals)
    if times is None:
        raise DomainError("sample times are required for non-grid sources")
    if (t_min, t_max) != (0.0, math.inf):
        raise DomainError(f"t_min = {t_min}, t_max = {t_max}: only a recorded track is windowed")
    ts = np.asarray(times, dtype=float)
    if np.any(ts <= 0.0):
        raise DomainError("probe times must be positive")
    vals = np.array([math.sqrt(t) * math.exp(-psi_y * t) * source.n(t, y * t) for t in ts])
    return LineProbe(y=y, times=ts, values=vals)


class PeriodEstimate(NamedTuple):
    """Result of the autocorrelation period read-off.

    `oscillating` is False when the relative oscillation amplitude stays under
    AMP_THRESHOLD; period is NaN in that case and positive otherwise.
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


def _autocorrelation(d: np.ndarray, lags: int) -> np.ndarray:
    """The first `lags` lags of np.correlate(d, d, "full")[d.size - 1:], bit
    for bit (both sum each lag by one dot product), at O(lags N) cost instead
    of O(N^2)."""
    return np.array([np.dot(d[k:], d[:d.size - k]) for k in range(lags)])


def estimate_period(probe: LineProbe, expected_period: float) -> PeriodEstimate:
    """Detrend a probe, autocorrelate, and return the peak lag near the expected period.

    The raw f_y still carries slow drifts (the envelope corrections decay only
    algebraically), so the series is divided by a moving mean over roughly
    three expected periods before autocorrelating, and the peak is sought
    between 0.6 and 1.5 expected periods.  Needs uniform sampling, at least
    32 samples per expected cycle, and at least 3 expected cycles left after
    that detrending, so a window of about 6 expected cycles.
    """
    ts, vals = probe.times, probe.values
    if ts.size < 16:
        raise DomainError("window too short: need at least 16 probe samples")
    dt = float(ts[1] - ts[0])
    if not np.allclose(np.diff(ts), dt, rtol=1e-6, atol=1e-12):
        raise DomainError("period estimation needs uniformly sampled probes")
    if dt > expected_period / 32.0:
        raise DomainError(
            f"sampling too coarse: {expected_period / dt:.1f} samples per expected "
            "cycle, need at least 32")
    w = int(round(3.0 * expected_period / dt)) | 1     # odd, so the mean is centred
    left = dt * (ts.size - w) / expected_period
    if left < 3.0:
        raise DomainError(
            f"window too short: [{ts[0]:g}, {ts[-1]:g}] leaves {left:.2f} cycles of the "
            f"expected period {expected_period:.4g} after the 3-period detrending mean, need >= 3")

    mm = _moving_mean(vals, w)
    if np.any(mm <= 0.0):
        raise NumericsError("probe mean is not positive; cannot detrend by division")
    trimmed = vals[(w - 1) // 2: ts.size - (w - 1) // 2]
    detrended = trimmed / mm - 1.0
    amplitude = 0.5 * float(np.max(detrended) - np.min(detrended))
    if amplitude < AMP_THRESHOLD:
        return PeriodEstimate(period=math.nan, confidence=0.0, n_cycles=0.0,
                              amplitude=amplitude, oscillating=False)

    d = detrended - detrended.mean()
    # with 32 samples a cycle and 3 cycles in d, lo < hi and hi + 1 < d.size
    lo = max(2, int(0.6 * expected_period / dt))
    hi = int(1.5 * expected_period / dt)
    ac = _autocorrelation(d, hi + 2)    # the lags read below: 0 .. hi + 1
    if ac[0] <= 0.0:
        raise NumericsError("degenerate autocorrelation")
    ac = ac / ac[0]
    k = lo + int(np.argmax(ac[lo:hi + 1]))

    # sub-sample refinement with a parabola through the peak (2 <= k <= ac.size - 2)
    denom = ac[k - 1] - 2.0 * ac[k] + ac[k + 1]
    shift = 0.5 * (ac[k - 1] - ac[k + 1]) / denom if denom != 0.0 else 0.0
    period = (k + float(np.clip(shift, -0.5, 0.5))) * dt

    baseline = max(float(np.max(ac[max(1, int(0.25 * k)): max(2, int(0.75 * k))])), 1e-3)
    confidence = float(ac[k]) / baseline
    n_cycles = (dt * (detrended.size - 1)) / period
    if n_cycles < 3.0:
        raise DomainError(f"window too short: only {n_cycles:.2f} cycles observed, need >= 3")
    return PeriodEstimate(period=float(period), confidence=confidence,
                          n_cycles=float(n_cycles), amplitude=amplitude, oscillating=True)


# Gauss-Legendre nodes per term of the termwise weak functional; the guard
# repeats it with twice as many
_WEAK_NODES = 64


def weak_test(source: SeriesSource | GridSource, phi: Callable[[float], float], t: float) -> float:
    """Integrated functional int phi(y) r(t, y) dy, r(t, y) = t n(t, t y).

    The source's weight row w = source.weights(t) is integrated term by term
    over the initial support (model.integrate_dilates) with 64 and 128
    Gauss-Legendre nodes, and NumericsError is raised when the two disagree by
    more than 1e-10 of the mass or 1e-9 relative (phi not smooth on the
    support).  As t grows the value tends to U0(2) phi(-log alpha).  The
    rescaled form int phi(z) rtilde(t, z) dz, which tends to U0(2) int phi dG,
    is this functional of y -> phi((y + log alpha) sqrt(t) / log alpha).
    """
    if not 0.0 < t < math.inf:
        raise DomainError(f"weak tests need a finite t > 0, got {t}")
    la = math.log(source.alpha)
    scale = moment(source.profile, 1.0)

    def phi_of_z(z: np.ndarray) -> np.ndarray:
        return np.fromiter(map(phi, (z / t).ravel().tolist()), float, z.size).reshape(z.shape)

    weights = source.weights(t)
    coarse, fine = (integrate_dilates(source.profile, la, weights, phi_of_z, n)
                    for n in (_WEAK_NODES, 2 * _WEAK_NODES))
    if abs(fine - coarse) > max(1e-10 * scale, 1e-9 * abs(fine)):
        raise NumericsError(
            f"termwise weak functional: {_WEAK_NODES} and {2 * _WEAK_NODES} Gauss nodes "
            f"disagree by {abs(fine - coarse):.3e} (phi is not smooth on the support)")
    return fine


class ComparisonRow(NamedTuple):
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


class MethodComparison(NamedTuple):
    """Pairwise cross-validation table for the evaluation routes, and the
    (method, t, x, guard error) of each value a route refused."""

    rows: list[ComparisonRow]
    refusals: list[tuple[str, float, float, NumericsError]]

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
        lines += [f"{m} refused t={t!r}, x={x!r}: {exc}" for m, t, x, exc in self.refusals]
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


def route_u(name: str, params: ModelParams, p: InitialProfile, t: float, x: float) -> float:
    """u(t, x) by the named v-route and the characteristic rescaling e^{-gt} v(bt, x e^{-gt})."""
    if name not in ROUTES:
        raise DomainError(f"unknown evaluation method {name!r} (choose from {list(ROUTES)})")
    decay = math.exp(-params.g * t)
    return decay * ROUTES[name](p, params.alpha, params.b * t, x * decay)


def compare_methods(profile: InitialProfile, params: ModelParams, t_list, x_list,
                    traj: Trajectory) -> MethodComparison:
    """Evaluate v(t, x) by the series, the trajectory snapshotted at each t ("pde")
    and, for log-gaussian data, the contour ("mellin"), and tabulate pairwise errors.

    Cells outside a route's domain (for "pde", x below its grid), or refused
    by its numerical guard (recorded in refusals), are NaN and excluded from
    flags; flagged rows exceed the pair's gate (PDE_CELL_TOL for the pairs
    with "pde", MELLIN_TOL for series vs mellin).
    """
    fns = {"series": ROUTES["series"], "pde": lambda p, alpha, t, x: v_from_grid(traj, t, x)}
    if isinstance(profile, LogGaussian):
        fns["mellin"] = ROUTES["mellin"]
    refusals = []

    def evaluate(method: str, t: float, x: float) -> float:
        try:
            return fns[method](profile, params.alpha, t, x)
        except DomainError:
            return math.nan
        except NumericsError as exc:
            refusals.append((method, t, x, exc))
            return math.nan

    rows: list[ComparisonRow] = []
    for t in t_list:
        for x in x_list:
            vals = {m: evaluate(m, float(t), float(x)) for m in fns}
            for a, b in combinations(fns, 2):
                va, vb = vals[a], vals[b]
                err = math.nan if (math.isnan(va) or math.isnan(vb)) else _rel_err(va, vb)
                tol = PDE_CELL_TOL if "pde" in (a, b) else MELLIN_TOL
                rows.append(ComparisonRow(a, b, float(t), float(x), va, vb, err, tol))
    return MethodComparison(rows, refusals)


class Check(NamedTuple):
    """One `analyze` check: report line (None if it only gates), failure label,
    measured value and tolerance (None if it only reports)."""

    line: str | None
    label: str
    measured: float
    tol: float | None

    @property
    def failed(self) -> bool:
        return self.tol is not None and not self.measured <= self.tol    # NaN fails


def checks(cfg, traj: Trajectory):
    """The checks of `analyze` on the solved run of a config.RunConfig, in
    report order, and the tables they read: the period rows (y, expected,
    period, amplitude, confidence, n_cycles, oscillating), the weak row (t,
    value, limit, rel_err; None for data that is not smooth) and the route
    comparison.  A route value refused by its guard raises the guard's error."""
    p, params = cfg.profile, cfg.params
    smooth = isinstance(p, LogGaussian)
    src = GridSource(traj)
    u0_mass = moment(p, 1.0)
    rows: list[Check] = []

    # period law along each tracked ray
    period_rows = []
    for y in cfg.resolved_rays():
        probe = line_probe(src, y, t_min=cfg.t_min, t_max=cfg.t_end)
        expected = -params.log_alpha / y
        est = estimate_period(probe, expected_period=expected)
        period_rows.append((y, expected, est.period, est.amplitude,
                            est.confidence, est.n_cycles, est.oscillating))
        err = abs(est.period - expected) / expected   # NaN, and only reported, if none oscillates
        seen = (f"period {est.period:.4f} (law {expected:.4f}, rel err {err:.2e}, "
                f"amp {est.amplitude:.3e})" if est.oscillating
                else f"no oscillation (amplitude {est.amplitude:.3e})")
        rows.append(Check(f"ray y={y:.6g}: {seen}",
                          f"period law violated on ray y={y:.6g}: rel err",
                          err, PERIOD_TOL if est.oscillating else None))

    # mass functional; absolute for smooth data, drift for sampled jumps
    mass = traj.diagnostics.mass
    ref = u0_mass if smooth else mass[0]
    mass_err = float(np.max(np.abs(mass - ref))) / u0_mass
    rows.append(Check(f"mass functional: max relative deviation {mass_err:.3e}",
                      "mass conservation violated:", mass_err, MASS_TOL))

    # weak limit against cos, smooth data only: no rule yet gates the row by its 1/t
    # term, which grows with the data's width (heaviside a=-1 b=0, t=60: 2.6e-2 at alpha 3)
    weak_row = None
    if smooth:
        t_w = float(traj.times[-1])
        if not t_w > 0.0:
            raise DomainError(f"the weak row reads the last of the snapshots, which must be "
                              f"at t > 0, got {t_w}")
        val = weak_test(src, math.cos, t_w)
        target = u0_mass * math.cos(params.log_alpha)
        weak_err = abs(val - target) / abs(target)
        weak_row = (t_w, val, target, weak_err)
        rows.append(Check(f"weak cos functional at t={t_w:g}: {val:.6g} (limit {target:.6g}, "
                          f"rel err {weak_err:.2e})", "weak limit violated: cos functional off by",
                          weak_err, WEAK_TOL))

    # route agreement: solver vs series on the grid nodes themselves (the
    # snapshots' node values), contour inversion pointwise
    t_cmp = [float(t) for t in traj.times if 0.5 <= t <= 10.0] or [float(traj.times[-1])]
    ys = traj.grid.y_nodes()
    node_errs = []
    for t in t_cmp:
        exact = series.eval_n_series(p, params.alpha, t, ys)
        snap = traj.snapshots[traj.snapshot_index(t)]
        node_errs.append(np.max(np.abs(snap - exact)) / np.max(np.abs(exact)))
    pde_err = float(np.max(node_errs))  # np.max, unlike max(), keeps a NaN
    rows.append(Check(f"solver vs series on nodes at t in {t_cmp}: max scaled error {pde_err:.3e}",
                      "series vs solver mismatch", pde_err, PDE_TOL))
    cmp_tbl = compare_methods(p, params, t_cmp, COMPARE_X, traj=traj)
    if cmp_tbl.refusals:
        raise cmp_tbl.refusals[0][-1]
    rows.append(Check(cmp_tbl.summary(), "", math.nan, None))
    for (a, b), tol in {(r.method_a, r.method_b): r.tol for r in cmp_tbl.rows}.items():
        err = cmp_tbl.max_rel_err(a, b)  # NaN, and only reported, if no cell evaluates
        pair = "series vs contour inversion" if (a, b) == ("series", "mellin") else f"{a} vs {b}"
        rows.append(Check(None, f"{pair} mismatch", err, None if math.isnan(err) else tol))

    # asymptotics on the concentration line (smooth data only), at unit mass:
    # by linearity the relative error does not depend on it, and v cannot overflow
    if smooth:
        unit = LogGaussian(p.mu, p.sigma, mass=1.0)
        tx = [(t, params.alpha ** (-t)) for t in (10.0, 15.0, 20.0, 25.0, 30.0)]
        exact = np.array([eval_v(unit, params.alpha, t, x) for t, x in tx])
        approx = np.array([asymp_v_poisson(unit, params.alpha, t, x) for t, x in tx])
        errs = np.abs(approx - exact) / np.abs(exact)
        rows.append(Check("asymptotic relative error on x = alpha^-t at t = 10..30: "
                          + ", ".join(f"{e:.3e}" for e in errs),
                          "asymptotics violated: relative error at t=25", errs[3], ASYMP_TOL))
        rows.append(Check(None, "asymptotics violated: largest rise of the error",
                          np.max(errs[1:] - errs[:-1] * (1.0 + 1e-9)), 0.0))
    return rows, period_rows, weak_row, cmp_tbl
