"""Exception types shared across the package."""


class GapSeriesError(Exception):
    """Base class for all package-specific errors."""


class HorizonExceeded(GapSeriesError):
    """The stored terms cannot certify the requested quantity.

    Raised when the maximizing index sits too close to the end of a
    truncated series, or when a truncation tail bound cannot be driven
    below the requested tolerance.
    """


class InvalidTolerance(GapSeriesError, ValueError):
    """A tolerance or search grid outside its valid range was supplied."""


class DomainError(GapSeriesError, ValueError):
    """An interval endpoint lies outside the density's domain."""


class BracketError(GapSeriesError):
    """Bracketing or bisection failed while inverting a monotone function."""


class QuadratureError(GapSeriesError):
    """Adaptive quadrature could not reach the requested tolerance."""

    def __init__(self, message: str, achieved: float):
        super().__init__(f"{message} (achieved error estimate {achieved:.3e})")
        self.achieved = achieved


class TailNotCertified(GapSeriesError):
    """The remainder of an inner infinite sum could not be bounded."""


class MonotoneViolation(GapSeriesError):
    """A handle expected to be increasing failed on needed arguments."""


class ConfigError(GapSeriesError, ValueError):
    """A run configuration file is malformed."""


class OutsideExceptionalSetWarning(UserWarning):
    """A verification point lies outside the exceptional set; no contract applies."""
