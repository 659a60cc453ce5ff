"""Maximum-entropy covariance completion and entropy audits.

A symmetric matrix whose diagonal and first off-diagonal are given has
many positive-definite completions; among them the one maximizing
Gaussian differential entropy is unique, has a tridiagonal inverse, and
is obtained by the multiplicative fill-in implemented in
:func:`band_extend`.  Wiener and SS-1 Gram matrices are Markov chains
(see :mod:`stablekern.kernels`), so the completion reproduces the Gram
matrix itself: the band determines the kernel.

Two audits check maximality against rival laws built as D-vines
(Lewandowski, Kurowicka & Joe, J. Multivariate Anal. 100, 2009).  A
D-vine correlation matrix is fixed by the correlation of each neighbour
pair and by a partial correlation rho_ij|i+1..j-1 for each pair further
apart, given the points between them.  Any values in (-1, 1) give a
positive-definite matrix, with log-determinant sum ln(1 - rho^2).
Candidate k of an audit draws its free partials uniformly in (-0.3, 0.3)
from a generator seeded with (seed, k), nothing is rejected, and its
entropy falls short of the maximum by exactly

    gap = 1/2 * sum ln(1 - rho^2)   over its drawn partials,

so each audit checks an identity, not only dominance on a sample.

The completion audit keeps the band and draws the out-of-band partials.
The increment test approaches the same maximality from the process
side: among all zero-mean Gaussian laws whose increments have the
variances prescribed by the kernel, the kernel law (independent
increments) has the largest entropy.  Its candidates correlate the
increments through a D-vine C with all n(n-1)/2 partials drawn.
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
    _real_array,
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

# The drawn partial correlations of an audit candidate are uniform on
# (-_PARTIAL_BOUND, _PARTIAL_BOUND).
_PARTIAL_BOUND = 0.3
# Upper bound on the bytes of the (candidates, n, n) stack held at once; at
# large n the candidates of an audit are built in several chunks.
_CANDIDATE_BYTES = 2 * 1024 * 1024


@dataclass(frozen=True)
class GaussianEntropyReport:
    """Outcome of an entropy-dominance audit.

    ``dominance`` is true when every candidate entropy is at most the
    reference entropy plus ``tolerance``.  ``identity_residual`` is the
    largest |(candidate - reference) - gap| over the candidates, where
    gap is the candidate's entropy difference in closed form.
    """

    reference_entropy: float
    candidate_entropies: Tuple[float, ...]
    dominance: bool
    tolerance: float
    identity_residual: float

    @classmethod
    def from_entropies(cls, reference: float, candidates, gaps) -> "GaussianEntropyReport":
        cand = tuple(float(h) for h in candidates)
        dom = all(h <= reference + ENTROPY_TOLERANCE for h in cand)
        residual = max(abs((h - reference) - float(g)) for h, g in zip(cand, gaps, strict=True))
        return cls(reference_entropy=float(reference), candidate_entropies=cand, dominance=dom,
                   tolerance=ENTROPY_TOLERANCE, identity_residual=residual)

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
    a = _real_array(m, "matrix entries")
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
    if a.shape[0] < 3:
        raise InvalidParameter("band projection needs n >= 3; below that the band is the matrix")
    if not np.array_equal(a, a.T):
        raise NotSymmetric("matrix is not exactly symmetric")
    return TridiagonalMatrix(diag=np.diag(a).copy(), offdiag=np.diag(a, 1).copy())


def _band_correlations(a: TridiagonalMatrix) -> Tuple[np.ndarray, np.ndarray]:
    """Neighbour correlations rho of a band and 1 - rho^2; raise unless completable.

    A band of finite entries is completable exactly when its diagonal
    and every 1 - rho^2 are positive.  1 - rho^2 is taken as the Schur
    complement d_{i+1} - o_i (o_i / d_i) over d_{i+1}: no product of two
    diagonal entries, which underflows for small diagonals, and positive
    where rho itself rounds to +-1.  Where o_i / d_i overflows (a
    subnormal d_i next to a large d_{i+1}), it is (1 - rho)(1 + rho).
    """
    d = a.diag
    o = a.offdiag
    if not (np.all(np.isfinite(d)) and np.all(np.isfinite(o))):
        raise InvalidParameter("band entries must be finite")
    if np.all(d > 0.0):
        sd = np.sqrt(d)
        # Only a band that is not completable can overflow here.
        with np.errstate(over="ignore"):
            rho = o / (sd[:-1] * sd[1:])
            ratio = o / d[:-1]
            v = (d[1:] - o * ratio) / d[1:]
            far = np.isinf(ratio)
            v[far] = (1.0 - rho[far]) * (1.0 + rho[far])
        if np.all(v > 0.0):
            return rho, v
    raise NotCompletable("a contiguous 2x2 principal minor is not positive definite")


def band_extend(a: TridiagonalMatrix) -> np.ndarray:
    """Unique maximum-entropy completion of a band: the diagonal and first off-diagonal.

    Entries beyond the band are filled in order of increasing distance
    from the diagonal by the chain rule

        M[i, j] = M[i, j-1] * (M[j-1, j] / M[j-1, j-1]),   j > i + 1,

    which makes the completion's inverse tridiagonal; the ratio comes
    first, as a product of two entries can underflow.  Where the ratio
    overflows (a subnormal M[j-1, j-1]), both entries are divided by
    sqrt(M[j-1, j-1]) instead.  A band of finite entries is completable
    exactly when every contiguous 2x2 principal minor is positive
    definite.
    """
    _band_correlations(a)
    d = a.diag
    o = a.offdiag
    n = a.n
    m = np.diag(d.astype(float))
    idx = np.arange(n - 1)
    m[idx, idx + 1] = o
    with np.errstate(over="ignore"):
        ratio = (o / d[:-1]).tolist()
    for j in range(2, n):
        if math.isinf(ratio[j - 1]):
            sd = math.sqrt(d[j - 1])
            m[: j - 1, j] = m[: j - 1, j - 1] / sd * (o[j - 1] / sd)
        else:
            m[: j - 1, j] = m[: j - 1, j - 1] * ratio[j - 1]
    lower = np.tril_indices(n, -1)
    m[lower] = m.T[lower]
    return m


def _entropies(cov: np.ndarray) -> np.ndarray:
    """Differential entropies of N(0, cov) for a (k, n, n) stack, by one batched Cholesky."""
    try:
        low = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        raise NotPositiveDefinite("covariance is not positive definite") from None
    return 0.5 * cov.shape[-1] * _LOG_2PIE + np.sum(np.log(np.diagonal(low, axis1=1, axis2=2)), axis=1)


def gaussian_entropy(cov: np.ndarray) -> float:
    """Differential entropy of N(0, cov) in nats: (n/2) ln(2*pi*e) + (1/2) ln det."""
    a = _real_array(cov, "covariance entries")
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise InvalidParameter("covariance entries must be finite")
    return float(_entropies(a[None])[0])


def _partials(size: int, seed) -> np.ndarray:
    """One candidate's ``size`` drawn partial correlations, lag by lag (shortest lag first)."""
    return np.random.default_rng(seed).uniform(-_PARTIAL_BOUND, _PARTIAL_BOUND, size=size)


def _dvine(rho: np.ndarray, v: np.ndarray, partials: np.ndarray) -> np.ndarray:
    """D-vine correlation matrices from neighbour correlations and longer-lag partials.

    ``rho`` holds the lag-1 correlations and ``v`` their 1 - rho^2, each
    broadcastable to (candidates, n - 1); ``partials`` holds one
    candidate per row, lag by lag from lag 2, each lag in row order.
    The result is a (candidates, n, n) stack with unit diagonal.
    Correlations are built lag by lag by a non-stationary lattice
    (Levinson) recursion.  For the pair (i, j) and the window
    W = i+1..j-1 between them, psi regresses x_i on W (backward), phi
    regresses x_j on W (forward), and vb, vf are their residual
    variances; then

        r_ij = psi . R[W, j] + rho * sqrt(vb * vf).

    Adding x_i to phi's regressors, or x_j to psi's, gives the
    regressions of the next lag, with k_f = rho sqrt(vf/vb) and
    k_b = rho sqrt(vb/vf):

        phi <- [k_f, phi - k_f psi],   psi <- [psi - k_b phi, k_b],
        vf <- (1 - rho^2) vf,          vb <- (1 - rho^2) vb.

    That is O(lag) work per entry, O(n^3) per candidate.
    """
    k = partials.shape[0]
    n = np.shape(rho)[-1] + 1
    # low[:, j, l] = R[j, j - l].  Coefficients are stored nearest to j
    # first, so R[W, j] for the pairs (j - lag, j) is low[:, lag:, 1:lag].
    low = np.zeros((k, n, n))
    low[:, :, 0] = 1.0
    low[:, 1:, 1:2] = rho[..., None]
    # Lag 1: W is empty, both variances are 1 and k_f = k_b = rho.
    rho = np.broadcast_to(rho, (k, n - 1))
    v = np.broadcast_to(v, (k, n - 1))
    psi, phi = rho[:, :-1, None], rho[:, 1:, None]
    vb, vf = v[:, :-1], v[:, 1:]
    start = 0
    for lag in range(2, n):
        m = n - lag
        rho = partials[:, start:start + m]
        start += m
        low[:, lag:, lag] = np.einsum("kip,kip->ki", psi, low[:, lag:, 1:lag]) + rho * np.sqrt(vb * vf)
        if m == 1:
            break
        # Pair i of the next lag takes psi from pair i (new regressor x_j,
        # nearest) and phi from pair i + 1 (new regressor x_{i+1}, farthest).
        kb = (rho * np.sqrt(vb / vf))[:, :-1, None]
        kf = (rho * np.sqrt(vf / vb))[:, 1:, None]
        psi, phi = (np.concatenate((kb, psi[:, :-1] - kb * phi[:, :-1]), axis=2),
                    np.concatenate((phi[:, 1:] - kf * psi[:, 1:], kf), axis=2))
        v = (1.0 - rho) * (1.0 + rho)
        vb = vb[:, :-1] * v[:, :-1]
        vf = vf[:, 1:] * v[:, 1:]
    # From lags to matrix positions, in the same buffer.
    rows, cols = np.tril_indices(n)
    values = low[:, rows, rows - cols]
    low[:, rows, cols] = values
    low[:, cols, rows] = values
    return low


def _completions(a: TridiagonalMatrix, partials: np.ndarray) -> np.ndarray:
    """D-vine completions of band ``a``, one per row of ``partials``; the band is written back bit-exactly."""
    cov = _dvine(*_band_correlations(a), partials)
    sd = np.sqrt(a.diag)
    cov *= np.outer(sd, sd)
    idx = np.arange(a.n)
    cov[:, idx, idx] = a.diag
    cov[:, idx[:-1], idx[1:]] = a.offdiag
    cov[:, idx[1:], idx[:-1]] = a.offdiag
    return cov


def _audit(reference: float, n: int, trials: int, draw, build) -> GaussianEntropyReport:
    """Judge candidates 0..trials-1 against the ``reference`` entropy.

    Candidate k has the partial correlations ``draw(k)``, and ``build``
    maps a (chunk, size) array of them to candidate covariances.  Chunks
    keep the (chunk, n, n) stack within ``_CANDIDATE_BYTES``, and each
    is judged by one batched Cholesky.
    """
    chunk = max(1, _CANDIDATE_BYTES // (8 * n * n))
    entropies, gaps = [], []
    for first in range(0, trials, chunk):
        partials = np.array([draw(k) for k in range(first, min(first + chunk, trials))])
        entropies.extend(_entropies(build(partials)))
        gaps.extend(0.5 * np.log1p(-partials * partials).sum(axis=1))
    return GaussianEntropyReport.from_entropies(reference, entropies, gaps)


def random_positive_extension(a: TridiagonalMatrix, seed) -> np.ndarray:
    """A random positive-definite matrix agreeing with ``a`` on its band.

    A D-vine completion of the band: every out-of-band partial
    correlation rho_ij|i+1..j-1 is drawn uniformly in (-0.3, 0.3) from
    ``np.random.default_rng(seed)``, lag by lag, in one draw.  Any such
    draw gives a positive-definite matrix, so nothing is rejected.  The
    band entries are those of ``a``, bit for bit.  Its entropy falls
    short of the maximum-entropy completion's by 1/2 sum ln(1 - rho^2).
    Deterministic given ``seed``; with seed (s, k) it is candidate k of
    ``completion_entropy_audit(..., seed=s, ...)`` on the same band.
    """
    _check_seed(seed)
    if a.n < 3:
        raise InvalidParameter("extensions beyond the band need n >= 3")
    return _completions(a, _partials((a.n - 1) * (a.n - 2) // 2, seed)[None])[0]


def increment_constrained_entropy_test(spec: KernelSpec, grid: SamplingGrid, seed, trials: int) -> GaussianEntropyReport:
    """Entropy dominance of the kernel law over correlated-increment laws.

    The kernel law is h = U z, U the structured square root of the Gram
    matrix and z independent unit innovations of the chain (for SS-1
    its standardized increments).  Candidate k has covariance U C_k U',
    C_k a D-vine correlation matrix whose n(n-1)/2 partials, lag 1
    first, are drawn uniformly in (-0.3, 0.3) from a generator seeded
    with (seed, k); its gap is 1/2 ln det C_k.  Candidate 0 keeps them
    zero, so C_0 = I and it matches the reference up to rounding.  The
    reference is the closed form (n/2) ln(2 pi e) + (1/2) ln det P; the
    candidates are dense entropies.
    """
    _check_seed(seed)
    _check_count(trials, "need at least one trial, got {!r}")
    n = grid.n
    size = n * (n - 1) // 2
    root = sqrt_factor(spec, grid).to_dense()
    reference = 0.5 * n * _LOG_2PIE + 0.5 * log_det(spec, grid)

    def build(partials):
        rho = partials[:, : n - 1]
        return root @ _dvine(rho, (1.0 - rho) * (1.0 + rho), partials[:, n - 1:]) @ root.T

    return _audit(reference, n, trials, lambda k: _partials(size, (seed, k)) if k else np.zeros(size), build)


def completion_entropy_audit(spec: KernelSpec, grid: SamplingGrid, seed, trials: int) -> GaussianEntropyReport:
    """Entropy dominance of the band completion of a kernel Gram matrix.

    Projects the Gram matrix to its band, rebuilds the maximum-entropy
    completion (which reproduces the Gram matrix) as the reference, and
    compares it with ``trials`` D-vine completions of the same band:
    candidate k is ``random_positive_extension(band, (seed, k))``.  Every
    entropy is dense, and candidates are built in chunks that keep the
    (chunk, n, n) stack within 2 MiB.
    """
    _check_seed(seed)
    _check_count(trials, "need at least one trial, got {!r}")
    band = band_project(gram(spec, grid).values)
    reference = gaussian_entropy(band_extend(band))
    size = (band.n - 1) * (band.n - 2) // 2
    report = _audit(reference, band.n, trials, lambda k: _partials(size, (seed, k)),
                    lambda partials: _completions(band, partials))
    _log.info("completion audit: %d candidates, max entropy excess %.3e, identity residual %.3e (dominance=%s)",
              trials, report.max_excess, report.identity_residual, report.dominance)
    return report
