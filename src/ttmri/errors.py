"""Exception types shared across the package, and the parameter rules that raise them."""

import numbers
import sys

import numpy as np


class TtmriError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(TtmriError, ValueError):
    """Shapes or sizes of the operands do not match."""


class ParameterError(TtmriError, ValueError):
    """A hyperparameter or option is outside its valid range."""


def _check_real(name, value, positive=False, finite=True):
    """Reject ``value`` (each entry) unless >= 0 (> 0), and finite unless ``finite=False``."""
    try:
        ok = np.all(value > 0 if positive else value >= 0)
        ok = ok and (not finite or np.all(np.isfinite(value)))
    except (TypeError, OverflowError):
        ok = False
    if not ok:
        rule = ("finite and " if finite else "") + ("positive" if positive else "nonnegative")
        raise ParameterError(f"{name} must be {rule}, got {value}")


def _is_integer(value):
    """Whether ``value`` is an integer, numpy's too; a ``bool`` is not."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _check_count(name, value, error=ParameterError, most=sys.maxsize) -> int:
    """``value`` as an ``int``; ``error`` unless an integer (numpy's too, no bool) in [1, most]."""
    if not (_is_integer(value) and value >= 1):
        raise error(f"{name} must be an integer >= 1, got {value!r}")
    if value > most:
        raise error(f"{name} must be at most {most}, got {value!r}")
    return int(value)


def _check_seed(value, name="seed"):
    """ParameterError unless ``value`` is an integer (numpy's too, no bool) >= 0."""
    if not (_is_integer(value) and value >= 0):
        raise ParameterError(f"{name} must be an integer >= 0, got {value!r}")


class UnitarityError(TtmriError, ValueError):
    """A supplied matrix is not unitary within tolerance."""

    def __init__(self, message: str, deviation: float):
        super().__init__(f"{message} (deviation {deviation:.3e})")
        self.deviation = deviation


class NumericError(TtmriError, RuntimeError):
    """A numerical routine failed (for example an SVD did not converge)."""

    def __init__(self, message: str, slice_index: int | None = None):
        super().__init__(message)
        self.slice_index = slice_index


class DivergenceError(NumericError):
    """An iterative solver produced non-finite values."""

    def __init__(self, message: str, iteration: int):
        super().__init__(message)
        self.iteration = iteration


class DataFormatError(TtmriError, ValueError):
    """A file does not conform to the expected binary layout."""
