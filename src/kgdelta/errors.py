"""Exception types shared across the package."""
from __future__ import annotations


class KgError(Exception):
    """Base class for all package-specific errors."""


class ParameterError(KgError, ValueError):
    """A physical or algorithmic parameter violates its documented constraint."""


class GridError(KgError, ValueError):
    """Invalid grid construction (even node count, nonpositive extent, ...)."""


class ConfigError(KgError, ValueError):
    """Config-file parse or validation failure.

    Carries the 1-based line number of the offending entry (0 when the
    problem is not attributable to a specific line, e.g. a bad default).
    """

    def __init__(self, message: str, line: int = 0):
        super().__init__(f"line {line}: {message}" if line else message)
        self.line = line


class NumericError(KgError, RuntimeError):
    """Base class for runtime numerical failures."""


class NoConvergenceError(NumericError):
    """An iterative solve (Newton, descent) failed to converge."""


class SingularSystemError(NumericError):
    """A linear solve met a singular matrix."""


class OutOfTubeError(NumericError):
    """A state left the modulation tube around the reference profile family."""


class BracketError(NumericError):
    """Bisection endpoints do not straddle the decay/blowup boundary."""
