"""Exception types shared across the package.

The CLI maps these onto exit codes, so library code should raise from this
hierarchy rather than bare built-ins when the failure is meaningful to a
caller: bad input data or files -> DataError (exit 2), bad parameters or
configuration -> ConfigError (exit 1 when raised from argument handling,
2 when found inside a config file), numerical breakdown -> NumericalError
(exit 3), a worker process that died -> WorkerError (exit 2).
"""


class UqlabError(Exception):
    """Base class for all errors raised by this package."""


class DataError(UqlabError, ValueError):
    """Input data violates a precondition (empty, mismatched, malformed)."""


class ConfigError(UqlabError, ValueError):
    """A parameter or configuration value is invalid.

    ``key`` names the field of the config object that the error is about,
    when there is one; the message then starts with it, and the config
    reader replaces it with the field's key path in the file.
    """

    def __init__(self, message: str, key: str | None = None):
        super().__init__(f"{key}: {message}" if key else message)
        self.key = key
        self.reason = message


class ParseError(DataError):
    """A file could not be parsed. Carries the 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class SchemaVersionError(DataError):
    """A file declares (or implies) a schema this version cannot read."""


class UndefinedMetricError(DataError):
    """The requested metric is undefined for this input (e.g. AP with no positives)."""


class NumericalError(UqlabError, ArithmeticError):
    """A computation produced NaN/Inf or an impossible intermediate value."""


class StateError(UqlabError, RuntimeError):
    """An object is not in the state an operation requires (e.g. untrained model)."""


class WorkerError(UqlabError, RuntimeError):
    """A worker process that trains networks died before returning its result."""
