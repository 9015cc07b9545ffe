"""Exception and warning types shared by all modules."""


class WavectlError(Exception):
    """Base class for every error raised by this package."""


class InputError(WavectlError, ValueError):
    """An argument is outside the domain an operation accepts."""


class ConfigError(WavectlError, ValueError):
    """A configuration document failed validation.

    A document that is not a JSON object, or not JSON at all, gets one
    line saying so; otherwise the message carries one line per offending
    field, opening with its path, for example ``design.element_count``.
    """


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
    """An impedance sweep does not fit the cell's circuit model.

    Raised when a fitted value is not positive, when the series branch
    is undefined at a sample, or when the sweep's values are out of
    range for the fit's arithmetic.
    """


class SolverError(WavectlError, RuntimeError):
    """A network solve hit a singular operating point."""


class ClampWarning(UserWarning):
    """A value was clamped to the edge of its supported range."""
