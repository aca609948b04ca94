"""Exception hierarchy.

Two families, chosen so the command-line layer can map failures to exit codes
mechanically: ``ValidationError`` covers configurations that are inadmissible
for the given input (CLI exit 2), ``RuntimeFailure`` covers data-content and
numerical failures discovered while computing (CLI exit 1).
"""

from __future__ import annotations


def _restore(cls, args, state):
    exc = cls.__new__(cls, *args)
    exc.__dict__.update(state)
    return exc


class SsaForecastError(Exception):
    """Base class for every error raised by this package."""

    def __reduce__(self):
        # pickle (compare sends errors back from its worker processes) must
        # not re-run __init__: several subclasses build their message from
        # other arguments, so __init__(message) would nest it or fail
        return _restore, (type(self), self.args, self.__dict__)


class ValidationError(SsaForecastError):
    """Inadmissible configuration or request; maps to CLI exit code 2."""


class RuntimeFailure(SsaForecastError):
    """Data-content or numerical failure; maps to CLI exit code 1."""


# -- ingestion -----------------------------------------------------------

class ParseError(RuntimeFailure):
    def __init__(self, row: int, column: str, message: str = ""):
        self.row = row
        self.column = column
        detail = message or "cell does not parse as a finite real"
        super().__init__(f"row {row}, column {column!r}: {detail}")


class NonMonotonicTime(RuntimeFailure):
    def __init__(self, row: int):
        self.row = row
        super().__init__(f"timestamps must be strictly increasing (violated at row {row})")


class NonUniformSpacing(RuntimeFailure):
    pass


class ZeroVariance(RuntimeFailure):
    pass


# -- sizing / shape ------------------------------------------------------

class EmbeddingTooLarge(ValidationError):
    pass


class WindowTooLarge(ValidationError):
    pass


class BadFraction(ValidationError):
    pass


class DimensionMismatch(ValidationError):
    pass


class BadDimensions(ValidationError):
    pass


class BadComponentCount(ValidationError):
    pass


class BadStep(ValidationError):
    pass


class BadHorizon(ValidationError):
    pass


class ConfigError(ValidationError):
    pass


# -- numerics ------------------------------------------------------------

class ConvergenceFailure(RuntimeFailure):
    pass


class LengthMismatch(RuntimeFailure):
    pass


class EmptyInput(RuntimeFailure):
    pass


class EmptyBatch(RuntimeFailure):
    pass


class DivergenceDetected(RuntimeFailure):
    """Training error became non-finite; carries the trace up to the failure."""

    def __init__(self, message: str, trace=None):
        self.trace = list(trace) if trace is not None else []
        super().__init__(message)


class NonFiniteOutput(RuntimeFailure):
    """Closed-loop iteration produced a non-finite value; carries the finite
    predictions made before the failure."""

    def __init__(self, message: str, partial=None):
        self.partial = list(partial) if partial is not None else []
        super().__init__(message)

