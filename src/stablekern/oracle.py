"""Dense reference linear algebra, independent of the structured paths.

These routines exist to cross-check the closed-form results produced by
:mod:`stablekern.structure`.  They are deliberately implemented from
first principles (row elimination with partial pivoting, column
Cholesky) rather than delegating to a factorization library, so that a
bug in the closed forms cannot be masked by sharing code with the check.
They are O(n^3) and intended for modest n.

Dense matrices are plain float64 numpy arrays.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionMismatch, InvalidParameter, NotPositiveDefinite, Singular, _real_array

__all__ = ["dense_inverse", "dense_logdet", "dense_chol"]

# A pivot at or below this fraction of its column's largest input entry is
# treated as an exact zero.  The floor is relative, so a well-conditioned
# matrix whose entries all lie near 1e-300 (an SS-1 Gram at beta*t ~ 700)
# is not taken for a singular one.
_PIVOT_FLOOR = 1e-300


def _pivot_floors(a: np.ndarray) -> np.ndarray:
    return _PIVOT_FLOOR * np.max(np.abs(a), axis=0, initial=0.0)


def _checked_square(m: np.ndarray) -> np.ndarray:
    a = _real_array(m, "matrix entries").copy()
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise InvalidParameter("matrix entries must be finite")
    return a


def dense_inverse(m: np.ndarray) -> np.ndarray:
    """Invert by Gauss-Jordan elimination with partial pivoting."""
    a = _checked_square(m)
    n = a.shape[0]
    floors = _pivot_floors(a)
    aug = np.hstack([a, np.eye(n)])
    for k in range(n):
        piv = k + int(np.argmax(np.abs(aug[k:, k])))
        if abs(aug[piv, k]) <= floors[k]:
            raise Singular(f"pivot {k + 1} of {n} is below {floors[k]:g}")
        if piv != k:
            aug[[k, piv]] = aug[[piv, k]]
        aug[k] /= aug[k, k]
        col = aug[:, k].copy()
        col[k] = 0.0
        aug -= np.outer(col, aug[k])
    return np.ascontiguousarray(aug[:, n:])


def dense_logdet(m: np.ndarray) -> float:
    """Log-determinant accumulated in the log domain from LU pivots.

    Raises NotPositiveDefinite when the determinant is not strictly
    positive, since its logarithm is then undefined.
    """
    a = _checked_square(m)
    n = a.shape[0]
    floors = _pivot_floors(a)
    sign = 1.0
    acc = 0.0
    for k in range(n):
        piv = k + int(np.argmax(np.abs(a[k:, k])))
        if abs(a[piv, k]) <= floors[k]:
            raise Singular(f"pivot {k + 1} of {n} is below {floors[k]:g}")
        if piv != k:
            a[[k, piv]] = a[[piv, k]]
            sign = -sign
        pivot = a[k, k]
        if pivot < 0.0:
            sign = -sign
        acc += math.log(abs(pivot))
        if k + 1 < n:
            factors = a[k + 1 :, k] / pivot
            a[k + 1 :, k:] -= np.outer(factors, a[k, k:])
    if sign < 0.0:
        raise NotPositiveDefinite("determinant is negative; log-determinant undefined")
    return acc


def dense_chol(m: np.ndarray) -> np.ndarray:
    """Lower-triangular L with L @ L.T == M, by column Cholesky.

    Only the lower triangle of M is read.  Fails on the first
    nonpositive pivot, which for symmetric input means M is not
    positive definite.
    """
    a = _checked_square(m)
    n = a.shape[0]
    low = np.zeros((n, n))
    for j in range(n):
        s = a[j, j] - low[j, :j] @ low[j, :j]
        if s <= 0.0:
            raise NotPositiveDefinite(f"nonpositive pivot at column {j + 1}")
        low[j, j] = math.sqrt(s)
        if j + 1 < n:
            low[j + 1 :, j] = (a[j + 1 :, j] - low[j + 1 :, :j] @ low[j, :j]) / low[j, j]
    return low
