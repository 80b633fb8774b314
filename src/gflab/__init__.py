"""Numerical laboratory for a critical growth-fragmentation equation.

Three independent evaluation routes (explicit Poisson-dilation series,
inverse Mellin contour quadrature, shift-coupled log-grid solver), the
saddle-point asymptotics that connect them, and instruments that measure the
oscillatory large-time behaviour (line-probe periods, gaussian envelope,
weak limits).
"""

from .analysis import (
    GridSource,
    LineProbe,
    MellinSource,
    MethodComparison,
    PeriodEstimate,
    SeriesSource,
    compare_methods,
    estimate_period,
    line_probe,
    r_of,
    r_tilde_of,
    weak_test,
)
from .errors import (
    DomainError,
    GFLabError,
    MassLeakError,
    NumericsError,
    QuadratureError,
    ThresholdError,
    TruncationError,
)
from .mellin import (
    AsympTruncation,
    ContourQuad,
    K_of_s,
    asymp_v_poisson,
    asymp_v_theta,
    inverse_mellin_v,
    psi,
    s_k,
    s_plus,
)
from .model import (
    Dirac,
    InitialProfile,
    LogGaussian,
    LogHeaviside,
    ModelParams,
    format_profile,
    mellin_U0,
    moment,
    parse_profile,
    profile_eval_x,
    profile_eval_y,
)
from .series import (
    SeriesTruncation,
    eval_n_series,
    eval_v,
    moment_of_v,
    support_set,
)
from .solver import LogGrid, Trajectory, build_grid, solve_n, step, v_from_grid

__version__ = "0.1.0"

__all__ = [
    "AsympTruncation", "ContourQuad", "Dirac", "DomainError", "GFLabError",
    "GridSource", "InitialProfile", "K_of_s", "LineProbe", "LogGaussian",
    "LogGrid", "LogHeaviside", "MassLeakError", "MellinSource",
    "MethodComparison", "ModelParams", "NumericsError", "PeriodEstimate",
    "QuadratureError", "SeriesSource", "SeriesTruncation", "ThresholdError",
    "Trajectory", "TruncationError", "asymp_v_poisson",
    "asymp_v_theta", "build_grid", "compare_methods", "estimate_period",
    "eval_n_series", "eval_v", "format_profile", "inverse_mellin_v",
    "line_probe", "mellin_U0", "moment", "moment_of_v", "parse_profile",
    "profile_eval_x", "profile_eval_y", "psi", "r_of", "r_tilde_of", "s_k",
    "s_plus", "solve_n", "step", "support_set", "v_from_grid", "weak_test",
]
