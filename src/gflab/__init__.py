"""Numerical laboratory for a critical growth-fragmentation equation.

Three independent evaluation routes (explicit Poisson-dilation series,
inverse Mellin contour quadrature, shift-coupled log-grid solver), the
saddle-point asymptotics that connect them, and instruments that measure the
oscillatory large-time behaviour (line-probe periods, gaussian envelope,
weak limits).

The package namespace holds the names of the README's library sketch; every
other name is imported from its own module (gflab.series, gflab.mellin,
gflab.solver, gflab.analysis, gflab.model, gflab.errors, ...).
"""

from . import analysis
from .analysis import GridSource, estimate_period, line_probe, weak_test
from .mellin import asymp_v_poisson, inverse_mellin_v
from .model import LogGaussian, ModelParams
from .series import eval_v
from .solver import build_grid, solve_n

__version__ = "0.1.0"

__all__ = [
    "GridSource", "LogGaussian", "ModelParams", "analysis", "asymp_v_poisson",
    "build_grid", "estimate_period", "eval_v", "inverse_mellin_v", "line_probe",
    "solve_n", "weak_test",
]
