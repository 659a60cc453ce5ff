"""Maximum-entropy covariance completion and entropy audits.

A symmetric matrix whose diagonal and first off-diagonal are given has
many positive-definite completions; among them the one maximizing
Gaussian differential entropy is unique, has a tridiagonal inverse, and
is obtained by the multiplicative fill-in implemented in
:func:`band_extend`.  Wiener and SS-1 Gram matrices are Markov chains
(see :mod:`stablekern.kernels`), so the completion reproduces the Gram
matrix itself: the band determines the kernel.

The completion audit checks that maximality against rival completions
of the same band, built as a D-vine (Lewandowski, Kurowicka & Joe, J.
Multivariate Anal. 100, 2009).  The band fixes the correlation of each
neighbour pair, the first tree; each pair (i, j) further apart gets a
partial correlation rho_ij|i+1..j-1 given the points between them, and
any partials in (-1, 1) give a positive-definite completion.  Candidate
k draws them uniformly in (-0.3, 0.3) from a generator seeded with
(seed, k).  All-zero partials give the maximum-entropy completion, and
a candidate's entropy falls short of it by exactly

    gap = 1/2 * sum ln(1 - rho^2)   over its out-of-band partials,

so the audit checks an identity, not only dominance on a sample.

The second audit approaches the same maximality from the process side:
among all zero-mean Gaussian laws whose increments have the variances
prescribed by the kernel, the kernel law (independent increments) has
the largest entropy, with equality exactly when the increment
correlation is the identity.  There the gap is 1/2 ln det C for the
increment correlation C.
"""

from __future__ import annotations

import logging
import math
from dataclasses import asdict, dataclass
from typing import Optional, Tuple

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

# Out-of-band partial correlations of a random extension are uniform on
# (-_PARTIAL_BOUND, _PARTIAL_BOUND).
_PARTIAL_BOUND = 0.3
# Draws of a correlation matrix per increment-test candidate; a draw is
# replaced only when rounding leaves it or its candidate singular.
_CORRELATION_TRIES = 100
# Upper bound on the bytes of the (candidates, n, n) stack held at once; at
# large n the candidates of an audit are built in several chunks.
_CANDIDATE_BYTES = 2 * 1024 * 1024


@dataclass(frozen=True)
class GaussianEntropyReport:
    """Outcome of an entropy-dominance audit.

    ``dominance`` is true when every candidate entropy is at most the
    reference entropy plus ``tolerance``.  ``identity_residual`` is the
    largest |(candidate - reference) - gap| over the candidates, where
    gap is the candidate's entropy difference in closed form; it is None
    when no closed form was given.
    """

    reference_entropy: float
    candidate_entropies: Tuple[float, ...]
    dominance: bool
    tolerance: float = ENTROPY_TOLERANCE
    identity_residual: Optional[float] = None

    @classmethod
    def from_entropies(cls, reference: float, candidates, gaps=None) -> "GaussianEntropyReport":
        cand = tuple(float(h) for h in candidates)
        dom = all(h <= reference + ENTROPY_TOLERANCE for h in cand)
        residual = None
        if gaps is not None:
            residual = max(abs((h - reference) - float(g)) for h, g in zip(cand, gaps, strict=True))
        return cls(reference_entropy=float(reference), candidate_entropies=cand, dominance=dom,
                   identity_residual=residual)

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


def _check_completable(a: TridiagonalMatrix) -> None:
    """Raise unless the band has finite entries and positive-definite 2x2 minors."""
    d = a.diag
    o = a.offdiag
    if not (np.all(np.isfinite(d)) and np.all(np.isfinite(o))):
        raise InvalidParameter("band entries must be finite")
    if np.any(d <= 0.0) or np.any(d[:-1] * d[1:] - o * o <= 0.0):
        raise NotCompletable("a contiguous 2x2 principal minor is not positive definite")


def band_extend(a: TridiagonalMatrix) -> np.ndarray:
    """Unique maximum-entropy completion of a band: the diagonal and first off-diagonal.

    Entries beyond the band are filled in order of increasing distance
    from the diagonal by the chain rule

        M[i, j] = M[i, j-1] * M[j-1, j] / M[j-1, j-1],   j > i + 1,

    which makes the completion's inverse tridiagonal.  A band of finite
    entries is completable exactly when every contiguous 2x2 principal
    minor is positive definite.
    """
    _check_completable(a)
    d = a.diag
    o = a.offdiag
    n = a.n
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


def _partials(n: int, seed) -> np.ndarray:
    """One candidate's out-of-band partial correlations, lag by lag (lag 2 first)."""
    return np.random.default_rng(seed).uniform(-_PARTIAL_BOUND, _PARTIAL_BOUND, size=(n - 1) * (n - 2) // 2)


def _dvine(a: TridiagonalMatrix, partials: np.ndarray) -> np.ndarray:
    """The completions of band ``a`` with the given out-of-band partial correlations.

    ``partials`` holds one candidate per row, ordered as :func:`_partials`
    draws them; the result is a (candidates, n, n) stack.  Correlations
    are built lag by lag by a non-stationary lattice (Levinson)
    recursion.  For the pair (i, j) and the window W = i+1..j-1 between
    them, psi regresses x_i on W (backward), phi regresses x_j on W
    (forward), and vb, vf are their residual variances; then

        r_ij = psi . R[W, j] + rho * sqrt(vb * vf).

    Adding x_i to phi's regressors, or x_j to psi's, gives the
    regressions of the next lag, with k_f = rho sqrt(vf/vb) and
    k_b = rho sqrt(vb/vf):

        phi <- [k_f, phi - k_f psi],   psi <- [psi - k_b phi, k_b],
        vf <- (1 - rho^2) vf,          vb <- (1 - rho^2) vb.

    That is O(lag) work per entry, O(n^3) per candidate.  The band
    must be completable; its entries are written back as given, so they
    are bit-exact.
    """
    k = partials.shape[0]
    n = a.n
    sd = np.sqrt(a.diag)
    rho = a.offdiag / (sd[:-1] * sd[1:])
    # 1 - rho^2 from the 2x2 minors, positive for any completable band even
    # where rho itself rounds to +-1.
    pairs = a.diag[:-1] * a.diag[1:]
    v = (pairs - a.offdiag * a.offdiag) / pairs
    # low[:, j, l] = R[j, j - l] for l >= 1.  Coefficients are stored nearest
    # to j first, so R[W, j] for the pairs (j - lag, j) is low[:, lag:, 1:lag].
    low = np.zeros((k, n, n))
    low[:, 1:, 1] = rho
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
    # Scale to covariances in the same buffer, then restore the band as given.
    rows, cols = np.tril_indices(n)
    values = low[:, rows, rows - cols]
    values *= sd[rows] * sd[cols]
    low[:, rows, cols] = values
    low[:, cols, rows] = values
    idx = np.arange(n)
    low[:, idx, idx] = a.diag
    low[:, idx[:-1], idx[1:]] = a.offdiag
    low[:, idx[1:], idx[:-1]] = a.offdiag
    return low


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
    _check_completable(a)
    return _dvine(a, _partials(a.n, seed)[None])[0]


def _correlated_entropy(root: np.ndarray, rng: np.random.Generator) -> Tuple[float, float]:
    """Entropy of N(0, root C root') for a random correlation matrix C, and 1/2 ln det C.

    C is the Gram matrix of n random unit rows.  When C is close to
    singular, rounding can leave C or the candidate covariance without a
    Cholesky factor; such a draw is replaced by the next one from ``rng``.
    """
    n = root.shape[0]
    for _ in range(_CORRELATION_TRIES):
        g = rng.standard_normal((n, n))
        g /= np.linalg.norm(g, axis=1, keepdims=True)
        try:
            low = np.linalg.cholesky(g @ g.T)
            mixed = root @ low
            return gaussian_entropy(mixed @ mixed.T), float(np.sum(np.log(np.diag(low))))
        except (np.linalg.LinAlgError, NotPositiveDefinite):
            continue
    raise NotPositiveDefinite(f"no positive-definite correlated candidate found in {_CORRELATION_TRIES} draws")


def increment_constrained_entropy_test(spec: KernelSpec, grid: SamplingGrid, seed, trials: int) -> GaussianEntropyReport:
    """Entropy dominance of the kernel law over correlated-increment laws.

    The kernel law is h = U z, U the structured square root of the Gram
    matrix and z independent unit innovations of the chain (for SS-1
    its standardized increments).  Each candidate correlates the
    innovations through a random correlation matrix C; its entropy
    differs from the kernel entropy by half the log-determinant of C,
    which is never positive.  The first candidate always uses the
    identity correlation and must therefore match the reference entropy
    up to rounding.  The reference is the closed form
    (n/2) ln(2 pi e) + (1/2) ln det P, the candidates are dense
    entropies, and ``identity_residual`` compares their differences
    with 1/2 ln det C from the Cholesky factor of C.

    Trial k draws from a generator seeded with (seed, k), so trials are
    reproducible individually and the report is deterministic given
    ``seed``.  A correlation matrix so close to singular that the
    candidate covariance has no Cholesky factor in floating point is
    redrawn from the same generator.
    """
    _check_seed(seed)
    _check_count(trials, "need at least one trial, got {!r}")
    root = sqrt_factor(spec, grid).to_dense()
    reference = 0.5 * grid.n * _LOG_2PIE + 0.5 * log_det(spec, grid)
    candidates = [(gaussian_entropy(root @ root.T), 0.0)]
    candidates += [_correlated_entropy(root, np.random.default_rng((seed, k))) for k in range(1, trials)]
    entropies, gaps = zip(*candidates)
    return GaussianEntropyReport.from_entropies(reference, entropies, gaps)


def completion_entropy_audit(spec: KernelSpec, grid: SamplingGrid, seed, trials: int) -> GaussianEntropyReport:
    """Entropy dominance of the band completion of a kernel Gram matrix.

    Projects the Gram matrix to its band, rebuilds the maximum-entropy
    completion (which reproduces the Gram matrix) as the reference, and
    compares it with ``trials`` D-vine completions of the same band.
    Candidate k draws its out-of-band partial correlations uniformly in
    (-0.3, 0.3) from a generator seeded with (seed, k): it is
    ``random_positive_extension(band, (seed, k))``.  Every entropy is the
    dense :func:`gaussian_entropy`; ``identity_residual`` compares each
    candidate's difference from the reference with the closed form
    1/2 sum ln(1 - rho^2) over its partials.  Candidates are built in
    chunks that keep the (chunk, n, n) stack within 2 MiB.
    """
    _check_seed(seed)
    _check_count(trials, "need at least one trial, got {!r}")
    band = band_project(gram(spec, grid).values)
    reference = gaussian_entropy(band_extend(band))
    chunk = max(1, _CANDIDATE_BYTES // (8 * band.n * band.n))
    entropies, gaps = [], []
    for first in range(0, trials, chunk):
        partials = np.array([_partials(band.n, (seed, k)) for k in range(first, min(first + chunk, trials))])
        entropies += [gaussian_entropy(cand) for cand in _dvine(band, partials)]
        gaps += list(0.5 * np.log1p(-partials * partials).sum(axis=1))
    report = GaussianEntropyReport.from_entropies(reference, entropies, gaps)
    _log.info(
        "completion audit: %d candidates, max entropy excess %.3e, identity residual %.3e (dominance=%s)",
        trials,
        report.max_excess,
        report.identity_residual,
        report.dominance,
    )
    return report
