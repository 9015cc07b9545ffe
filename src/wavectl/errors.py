"""Exception and warning types shared by all modules."""


class WavectlError(Exception):
    """Base class for every error raised by this package."""


class InputError(WavectlError, ValueError):
    """An argument is outside the domain an operation accepts."""


class ConfigError(WavectlError, ValueError):
    """A configuration document failed validation.

    ``path`` is the JSON path of the offending field, for example
    ``design.element_count``.  When several fields fail at once the
    message carries one line per field.
    """

    def __init__(self, path, message):
        self.path = path
        super().__init__(f"{path}: {message}" if path else message)


class ParseError(WavectlError, ValueError):
    """A data file could not be parsed.

    ``line`` is the 1-based line number of the offending record when
    known.
    """

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class FitError(WavectlError, RuntimeError):
    """Circuit-model extraction could not locate a required resonance."""


class SolverError(WavectlError, RuntimeError):
    """A network solve hit a singular operating point."""


class ClampWarning(UserWarning):
    """A value was clamped to the edge of its supported range."""
