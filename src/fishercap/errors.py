"""Exception types shared across the library."""


class FisherCapError(Exception):
    """Base class for library-specific failures."""


class DomainError(FisherCapError, ValueError):
    """Input lies outside the documented domain of an operation."""


class ValidationError(FisherCapError, ValueError):
    """Structured input (thresholds, weights, JSON records) is malformed."""


class ToleranceError(FisherCapError, RuntimeError):
    """Quadrature failed to meet its tolerance; carries the best estimate."""

    def __init__(self, message, best=None, err_est=None):
        super().__init__(message)
        self.best = best
        self.err_est = err_est


class ConvergenceError(FisherCapError, RuntimeError):
    """An iterative solver hit its iteration cap."""


class BudgetError(FisherCapError, RuntimeError):
    """An enumeration would exceed the configured evaluation budget."""


class DegenerateChannelError(FisherCapError, ValueError):
    """Channel has vanishing Fisher information; no prior can be normalized."""


class UnboundedTiltError(FisherCapError, RuntimeError):
    """No finite tilt meets the average-power target (near-deterministic cost)."""


class RangeError(FisherCapError, OverflowError):
    """A result lies outside the floating-point range (e.g. JF at a huge tilt)."""


class PositivityError(FisherCapError, ValueError):
    """A density that must be strictly positive vanishes on the grid."""
