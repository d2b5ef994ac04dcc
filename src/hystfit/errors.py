"""Exception types shared across the toolkit, and the checks of
configuration fields: their numeric type, and their names.

The CLI maps these onto exit codes: input/config/parameter problems exit
with 2, numerical failures with 3, flag-point detection failures with 4.
"""

import math
import numbers


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


class ParameterError(HystError, ValueError):
    """Fitting parameter vector violates its bounds."""


class InitializationError(HystError, RuntimeError):
    """Could not build an initial parameter guess from the data."""


class DetectionError(HystError, RuntimeError):
    """Flag-point detection found no qualifying sample."""


class NumericalError(HystError, RuntimeError):
    """Numerical failure inside the optimizer."""


def check_number(value, name: str, integer: bool = False):
    """``value`` itself if it is a finite number (an integer if ``integer``).

    Anything else, a bool or an int too large for a float included, raises
    ConfigError naming the field ``name``.
    """
    kind = numbers.Integral if integer else numbers.Real
    try:
        ok = not isinstance(value, bool) and isinstance(value, kind) and (
            integer or math.isfinite(value)
        )
    except OverflowError:
        ok = False
    if not ok:
        what = "an integer" if integer else "a finite number"
        raise ConfigError(f"{name} must be {what}, got {value!r}")
    return value


def check_names(doc, known, what: str) -> None:
    """Raise ConfigError ``unknown <what>: [...]`` on keys not in ``known``."""
    if unknown := sorted(set(doc) - set(known)):
        raise ConfigError(f"unknown {what}: {unknown}")
