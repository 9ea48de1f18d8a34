"""Exception hierarchy shared by all taildep modules."""

__all__ = [
    "TailDepError",
    "ParameterError",
    "ConfigError",
    "UnsupportedMethodError",
    "GeneratorError",
    "NumericError",
    "BracketError",
    "EvaluationOverflowError",
    "DegenerateTailError",
    "NoAdmissiblePathError",
    "InsufficientTailError",
]


class TailDepError(Exception):
    """Base class for every error raised by this package."""


class ParameterError(TailDepError, ValueError):
    """A parameter or argument is outside its legal range."""


class ConfigError(TailDepError, ValueError):
    """A plain-text copula config could not be parsed."""


class UnsupportedMethodError(TailDepError):
    """The requested method is not available for this copula family."""


class GeneratorError(TailDepError):
    """An Archimedean generator violates its contract or overflowed.

    ``component`` names the offending callable: one of ``"psi"``,
    ``"psi_prime"``, ``"psi_second"``, ``"psi_inv"``.
    """

    def __init__(self, message: str, component: str | None = None):
        super().__init__(message)
        self.component = component


class NumericError(TailDepError):
    """Base class for failures of the numeric machinery."""


class BracketError(NumericError):
    """A root bracket lost its guaranteed sign change."""


class EvaluationOverflowError(NumericError):
    """An intermediate quantity exceeded double-precision range."""


class DegenerateTailError(NumericError):
    """The copula has zero mass on the checked tail grid (log undefined)."""


class NoAdmissiblePathError(TailDepError):
    """Every maximum sits on the boundary, so no admissible path exists."""


class InsufficientTailError(TailDepError):
    """Too few tail exceedances to estimate conditional risk measures."""
