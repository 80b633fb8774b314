"""Exception hierarchy shared by all modules.

The CLI maps these onto its exit-code contract: DomainError -> 2,
NumericsError -> 3, ThresholdError -> 4.
"""


class GFLabError(Exception):
    """Base class for all package errors."""


class DomainError(GFLabError, ValueError):
    """A precondition on the inputs was violated (wrong range, wrong profile family, ...)."""


class NumericsError(GFLabError, RuntimeError):
    """A numerical guard tripped (truncation cap, quadrature estimate, mass leak, overflow)."""


class TruncationError(NumericsError):
    """Series truncation cap reached before the tail tolerance was met."""

    def __init__(self, message: str, achieved_bound: float):
        super().__init__(f"{message} (achieved tail bound {achieved_bound:.3e})")
        self.achieved_bound = achieved_bound


class QuadratureError(NumericsError):
    """Estimated quadrature error exceeds the requested tolerance."""

    def __init__(self, message: str, estimate: float):
        super().__init__(f"{message} (error estimate {estimate:.3e})")
        self.estimate = estimate


class MassLeakError(NumericsError):
    """Mass reached the left edge of the computational grid."""


class ThresholdError(GFLabError):
    """An analyze check measured a value above its gate (an analysis constant) or not a number."""
