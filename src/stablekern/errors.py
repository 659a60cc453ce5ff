"""Domain errors with stable, machine-parsable codes.

Every error raised by this package derives from :class:`StableKernError`.
The error code reported on the command line is the class name, so renaming
a class here is a breaking interface change.
"""

import math
import numbers

__all__ = [
    "StableKernError",
    "Empty",
    "NegativeTime",
    "NonIncreasing",
    "InvalidParameter",
    "SingularGram",
    "DimensionMismatch",
    "NotSymmetric",
    "NotCompletable",
    "NotPositiveDefinite",
    "OrderTooLarge",
    "EmptySearchSpace",
    "TooFewPaths",
    "Singular",
    "CheckFailed",
]


class StableKernError(Exception):
    """Base class for all domain errors raised by stablekern."""

    @property
    def code(self) -> str:
        return type(self).__name__


class Empty(StableKernError):
    """A grid was constructed from no time instants."""


class NegativeTime(StableKernError):
    """A grid contains a negative time instant."""


class NonIncreasing(StableKernError):
    """A grid is not strictly increasing."""


class InvalidParameter(StableKernError):
    """A scalar parameter is outside its admissible range."""


class SingularGram(StableKernError):
    """The Gram matrix is singular (Wiener kernel with t1 = 0) or its inverse
    leaves the float range (SS-1 kernel with c*exp(-beta*t_n) below 1e-308)."""


class DimensionMismatch(StableKernError):
    """Operands have incompatible shapes."""


class NotSymmetric(StableKernError):
    """A matrix expected to be symmetric is not."""


class NotCompletable(StableKernError):
    """A band (diagonal and first off-diagonal) admits no positive-definite completion."""


class NotPositiveDefinite(StableKernError):
    """A matrix expected to be positive definite is not."""


class OrderTooLarge(StableKernError):
    """The FIR order exceeds the number of data samples."""


class EmptySearchSpace(StableKernError):
    """Hyperparameter tuning was requested over an empty candidate set."""


class TooFewPaths(StableKernError):
    """A Monte Carlo audit needs more paths than were provided."""


class Singular(StableKernError):
    """Dense elimination hit a pivot too small to trust."""


class CheckFailed(StableKernError):
    """A self-check found residuals above their thresholds."""


def _is_real(value) -> bool:
    """True for a real number, numpy scalars included.

    A bool is a flag, not a number: JSON ``true`` is not a scale of 1.
    A string is not a number either, even one that parses as one.
    """
    return not isinstance(value, bool) and isinstance(value, numbers.Real)


def _is_finite_real(value) -> bool:
    """True for a real number within the float range.

    An integer too large to convert to a float is rejected here rather
    than overflowing later.  The test runs in float64, so a float32 is
    never compared against the float64 range (which would overflow it).
    """
    try:
        return _is_real(value) and math.isfinite(value)
    except OverflowError:
        return False


def _check_positive(value, message: str) -> None:
    """Raise InvalidParameter(message.format(value)) unless value is a finite real > 0."""
    if not (_is_finite_real(value) and value > 0):
        raise InvalidParameter(message.format(value))


def _check_count(value, message: str) -> None:
    """Raise InvalidParameter(message.format(value)) unless value is an integer >= 1.

    numpy integers count; a bool, a float (even 2.0) or a string does not.
    """
    if isinstance(value, bool) or not (isinstance(value, numbers.Integral) and value >= 1):
        raise InvalidParameter(message.format(value))


def _check_seed(seed) -> None:
    """Raise InvalidParameter unless seed is a nonnegative integer or a tuple of seeds.

    As for counts, numpy integers pass and a bool does not: True is not seed 1.
    """
    if isinstance(seed, tuple):
        for part in seed:
            _check_seed(part)
    elif isinstance(seed, bool) or not (isinstance(seed, numbers.Integral) and seed >= 0):
        raise InvalidParameter(f"seed must be a nonnegative integer or a tuple of them, got {seed!r}")
