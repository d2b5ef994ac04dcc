"""Exception types shared across the toolkit.

The CLI maps these onto exit codes: input/config/parameter problems exit
with 2, numerical failures with 3, flag-point detection failures with 4.
"""


class HystError(Exception):
    """Base class for all toolkit errors."""


class InputError(HystError, ValueError):
    """Malformed or inconsistent input data (datasets, series, lengths).

    ``sample`` is the index of the offending sample when the error is
    about one sample of a series, else None.
    """

    def __init__(self, message, sample=None):
        super().__init__(message)
        self.sample = sample


class ConfigError(HystError, ValueError):
    """Invalid configuration or construction-time parameters."""


class DomainError(HystError, ValueError):
    """Evaluation requested outside a function's domain."""


class RangeError(HystError, ValueError):
    """Target value outside a function's range."""


class ParameterError(HystError, ValueError):
    """Fitting parameter vector violates its bounds."""


class InitializationError(HystError, RuntimeError):
    """Could not build an initial parameter guess from the data."""


class DetectionError(HystError, RuntimeError):
    """Flag-point detection found no qualifying sample."""


class NumericalError(HystError, RuntimeError):
    """Numerical failure inside the optimizer."""
