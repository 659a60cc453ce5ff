"""Domain errors with stable, machine-parsable codes.

Every error raised by this package derives from :class:`StableKernError`.
The error code reported on the command line is the class name, so renaming
a class here is a breaking interface change.
"""

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
    """A band skeleton admits no positive-definite completion."""


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
