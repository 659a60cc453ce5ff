"""Maximum-entropy covariance completion and entropy audits.

A symmetric matrix whose diagonal and first off-diagonal are given has
many positive-definite completions; among them the one maximizing
Gaussian differential entropy is unique, has a tridiagonal inverse, and
is obtained by the multiplicative fill-in implemented in
:func:`band_extend`.  Wiener and SS-1 Gram matrices are Markov chains
(see :mod:`stablekern.kernels`), so the completion reproduces the Gram
matrix itself: the band determines the kernel.

The second audit in this module approaches the same maximality from the
process side: among all zero-mean Gaussian laws whose increments have
the variances prescribed by the kernel, the kernel law (independent
increments) has the largest entropy, with equality exactly when the
increment correlation is the identity.
"""

from __future__ import annotations

import logging
import math
from dataclasses import asdict, dataclass
from typing import Tuple

import numpy as np

from .errors import (
    DimensionMismatch,
    InvalidParameter,
    NotCompletable,
    NotPositiveDefinite,
    NotSymmetric,
    _check_count,
    _check_seed,
)
from .grid import SamplingGrid
from .kernels import KernelSpec, _json_fields, gram
from .structure import TridiagonalMatrix, log_det, sqrt_factor

__all__ = [
    "ENTROPY_TOLERANCE",
    "GaussianEntropyReport",
    "band_project",
    "band_extend",
    "gaussian_entropy",
    "random_positive_extension",
    "increment_constrained_entropy_test",
    "completion_entropy_audit",
]

_log = logging.getLogger(__name__)

# Slack used when declaring entropy dominance; covers rounding in the
# dense entropy evaluations, nothing more.
ENTROPY_TOLERANCE = 1e-9

_LOG_2PIE = math.log(2.0 * math.pi) + 1.0

_EXTENSION_SCALE = 0.05
# By the last try the halving schedule has shrunk the scale to about 1e-7,
# so only a numerically singular completion reaches this bound.
_EXTENSION_TRIES = 1000


@dataclass(frozen=True)
class GaussianEntropyReport:
    """Outcome of an entropy-dominance audit.

    ``dominance`` is true when every candidate entropy is at most the
    reference entropy plus ``tolerance``.
    """

    reference_entropy: float
    candidate_entropies: Tuple[float, ...]
    dominance: bool
    tolerance: float = ENTROPY_TOLERANCE

    @classmethod
    def from_entropies(cls, reference: float, candidates) -> "GaussianEntropyReport":
        cand = tuple(float(h) for h in candidates)
        dom = all(h <= reference + ENTROPY_TOLERANCE for h in cand)
        return cls(reference_entropy=float(reference), candidate_entropies=cand, dominance=dom)

    @property
    def max_excess(self) -> float:
        """Largest candidate entropy minus reference; negative means dominated."""
        return max(self.candidate_entropies) - self.reference_entropy

    def to_dict(self) -> dict:
        return {**asdict(self, dict_factory=_json_fields), "max_excess": self.max_excess}


def band_project(m: np.ndarray) -> TridiagonalMatrix:
    """Keep the diagonal and first off-diagonal of a symmetric matrix.

    Symmetry is checked by exact comparison: the intended inputs are
    Gram matrices, which this package assembles bit-exact symmetric.
    """
    a = np.asarray(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
    if a.shape[0] < 3:
        raise InvalidParameter("band projection needs n >= 3; below that the band is the matrix")
    if not np.array_equal(a, a.T):
        raise NotSymmetric("matrix is not exactly symmetric")
    return TridiagonalMatrix(diag=np.diag(a).copy(), offdiag=np.diag(a, 1).copy())


def band_extend(a: TridiagonalMatrix) -> np.ndarray:
    """Unique maximum-entropy completion of a band: the diagonal and first off-diagonal.

    Entries beyond the band are filled in order of increasing distance
    from the diagonal by the chain rule

        M[i, j] = M[i, j-1] * M[j-1, j] / M[j-1, j-1],   j > i + 1,

    which makes the completion's inverse tridiagonal.  A band of finite
    entries is completable exactly when every contiguous 2x2 principal
    minor is positive definite.
    """
    d = a.diag
    o = a.offdiag
    n = a.n
    if not (np.all(np.isfinite(d)) and np.all(np.isfinite(o))):
        raise InvalidParameter("band entries must be finite")
    if np.any(d <= 0.0) or np.any(d[:-1] * d[1:] - o * o <= 0.0):
        raise NotCompletable("a contiguous 2x2 principal minor is not positive definite")
    m = np.diag(d.astype(float))
    idx = np.arange(n - 1)
    m[idx, idx + 1] = o
    for j in range(2, n):
        m[: j - 1, j] = m[: j - 1, j - 1] * m[j - 1, j] / m[j - 1, j - 1]
    lower = np.tril_indices(n, -1)
    m[lower] = m.T[lower]
    return m


def gaussian_entropy(cov: np.ndarray) -> float:
    """Differential entropy of N(0, cov) in nats: (n/2) ln(2*pi*e) + (1/2) ln det."""
    a = np.asarray(cov, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise InvalidParameter("covariance entries must be finite")
    try:
        low = np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        raise NotPositiveDefinite("covariance is not positive definite") from None
    n = a.shape[0]
    return 0.5 * n * _LOG_2PIE + float(np.sum(np.log(np.diag(low))))


def random_positive_extension(a: TridiagonalMatrix, seed) -> np.ndarray:
    """A random positive-definite matrix agreeing with ``a`` on its band.

    Starts from the maximum-entropy completion, perturbs every entry
    beyond the band by a uniform relative amount of size 0.05
    (relative to sqrt(M[i,i] * M[j,j])), and rejects until the result is
    positive definite.  The perturbation scale is halved after every 50
    rejections, so termination is certain: the completion lies strictly
    inside the positive-definite cone.  Deterministic given ``seed``.
    """
    _check_seed(seed)
    if a.n < 3:
        raise InvalidParameter("extensions beyond the band need n >= 3")
    base = band_extend(a)
    n = a.n
    rows, cols = np.triu_indices(n, k=2)
    mag = np.sqrt(base[rows, rows] * base[cols, cols])
    rng = np.random.default_rng(seed)
    s = _EXTENSION_SCALE
    for attempt in range(1, _EXTENSION_TRIES + 1):
        bump = rng.uniform(-s, s, size=rows.shape[0]) * mag
        cand = base.copy()
        cand[rows, cols] += bump
        cand[cols, rows] += bump
        try:
            np.linalg.cholesky(cand)
        except np.linalg.LinAlgError:
            if attempt % 50 == 0:
                s *= 0.5
            continue
        _log.debug("random positive extension accepted after %d attempt(s), seed=%r", attempt, seed)
        return cand
    raise NotPositiveDefinite(f"no positive-definite extension found in {_EXTENSION_TRIES} attempts")


def _random_correlation_chol(rng: np.random.Generator, n: int) -> np.ndarray:
    """Cholesky factor of a random correlation matrix (unit diagonal)."""
    while True:
        g = rng.standard_normal((n, n))
        g /= np.linalg.norm(g, axis=1, keepdims=True)
        try:
            return np.linalg.cholesky(g @ g.T)
        except np.linalg.LinAlgError:
            continue


def increment_constrained_entropy_test(spec: KernelSpec, grid: SamplingGrid, seed, trials: int) -> GaussianEntropyReport:
    """Entropy dominance of the kernel law over correlated-increment laws.

    The kernel law is h = U z, U the structured square root of the Gram
    matrix and z independent unit innovations of the chain (for SS-1
    its standardized increments).  Each candidate correlates the
    innovations through a random correlation matrix C; its entropy
    differs from the kernel entropy by half the log-determinant of C,
    which is never positive.  The first candidate always uses the
    identity correlation and must therefore match the reference entropy
    up to rounding.

    Trial k draws from a generator seeded with (seed, k), so trials are
    reproducible individually and the report is deterministic given
    ``seed``.
    """
    _check_seed(seed)
    _check_count(trials, "need at least one trial, got {!r}")
    root = sqrt_factor(spec, grid).to_dense()
    reference = 0.5 * grid.n * _LOG_2PIE + 0.5 * log_det(spec, grid)
    entropies = []
    for k in range(trials):
        if k == 0:
            corr_chol = np.eye(grid.n)
        else:
            corr_chol = _random_correlation_chol(np.random.default_rng((seed, k)), grid.n)
        mixed = root @ corr_chol
        entropies.append(gaussian_entropy(mixed @ mixed.T))
    return GaussianEntropyReport.from_entropies(reference, entropies)


def completion_entropy_audit(spec: KernelSpec, grid: SamplingGrid, seed, trials: int) -> GaussianEntropyReport:
    """Entropy dominance of the band completion of a kernel Gram matrix.

    Projects the Gram matrix to its band, rebuilds the maximum-entropy
    completion (which reproduces the Gram matrix), then compares its
    entropy against ``trials`` random positive extensions of the same
    band.  Candidate k is generated with seed (seed, k).
    """
    _check_seed(seed)
    _check_count(trials, "need at least one trial, got {!r}")
    band = band_project(gram(spec, grid).values)
    reference = gaussian_entropy(band_extend(band))
    entropies = [
        gaussian_entropy(random_positive_extension(band, seed=(seed, k))) for k in range(trials)
    ]
    report = GaussianEntropyReport.from_entropies(reference, entropies)
    _log.info(
        "completion audit: %d candidates, max entropy excess %.3e (dominance=%s)",
        trials,
        report.max_excess,
        report.dominance,
    )
    return report
