"""Kernel-regularized FIR impulse-response estimation.

The model is y = Phi h + e with Phi the Toeplitz regressor of the input
(zero initial conditions), e ~ N(0, sigma2 * I), and a zero-mean
Gaussian prior h ~ N(0, P) with P the Gram matrix of a Wiener or SS-1
kernel on the coefficient grid.  All linear algebra happens at the FIR
order n, never at the data length N, in the prior's whitened
coordinates.  With P = c U U' (U the closed-form square root at c = 1),
lam = c / sigma2, M = I + lam U'Phi'Phi U (every eigenvalue at least 1)
and b = U'Phi'y:

    ln det(Phi P Phi' + sigma2 I) = N ln sigma2 + ln det M,
    y'(Phi P Phi' + sigma2 I)^{-1} y = (y'y - lam b'M^{-1}b) / sigma2,
    h = P Phi'(Phi P Phi' + sigma2 I)^{-1} y = lam U M^{-1} b.

All three come from one Cholesky factor of a bordered M: where it fails,
both public functions fail alike, and the mean, which needs no y'y / sigma2,
also exists where that overflows.  No P^{-1}, Phi'y / sigma2 or N x N
matrix is formed.

The factor depends on beta and lam alone.  At a fixed lam, with
q = y'y - lam b'M^{-1}b, the log likelihood
-(N ln 2 pi + ln det M + N ln sigma2 + q / sigma2) / 2 peaks at
sigma2* = q / N, where it is -(N (ln 2 pi + 1) + ln det M + N ln sigma2*) / 2.

Cost model: the data enter only through Phi'Phi, Phi'y, y'y and N.  A
``fit`` folds the data into these statistics once, O(N n) from lag
products of u and y; no N x n matrix (O(N + n^2) memory).  It moves them
into the coordinates of the unit triangle W of U = W diag(s), which
depends on the family and the grid alone: W'Phi'Phi W and W'Phi'y,
O(n^3), once per fit.  Whitening at a beta
scales them by that beta's column scales s, O(n^2), and keeps the chain
that gave s, which the gradient and the mean read; all of one beta's
grid candidates then go through one batched Cholesky, O(n^3) each.  A candidate is a distinct
lam = c / sigma2 of the c grid and the fixed sigma2, or of the c x sigma2
grid when sigma2 is free: one factor per distinct lam per beta, fewer
than the grid's values where quotients coincide (14 of 25 pairs for c at
the five half decades from 0.1 to 10 and sigma2 at the five decades from
1e-3 to 10).
The posterior mean reuses the best candidate's whitened data: one more
factor, then one triangular solve and one product with U = W diag(s),
O(n^2).  None of it depends on N.  The public :func:`log_marginal_likelihood`
and :func:`posterior_mean` take any regressor and fold it by products,
O(N n^2).

Hyperparameters are tuned by maximizing the log marginal likelihood
over a log-spaced grid followed by an optional quasi-Newton refinement
in log-space, whose gradient comes from the same factor (Chen & Ljung,
Automatica 49(7), 2013): with w = 1 / sigma2, N / q when sigma2 is
profiled (by the envelope theorem), and s the square root's column
scales, U = W diag(s) with W free of beta,

    d ln det M / d ln lam = n - tr M^{-1},
    d (lam b'M^{-1}b) / d ln lam = lam x'x,       x = M^{-1}b,
    d ln det M / d ln beta = 2 beta sum_j a_j (1 - (M^{-1})_jj),
    d (lam b'M^{-1}b) / d ln beta = 2 lam beta sum_j a_j x_j^2,

where a_j = d ln s_j / d beta, and the log likelihood moves by minus
half the first of each pair plus w / 2 times the second.  The search
runs over (lam, beta) with sigma2 pinned when it is fixed and profiled
out when it is free, every candidate then at its sigma2*; the trace
records each as c = lam sigma2, beta, sigma2 and its log likelihood.
Tuning is deterministic given the search configuration, and the
reported optimum is the best of every candidate evaluated, so it can
never fall below a grid point: each grid pair's lam is scanned, at its
best sigma2 when that is free.

Like the rest of the package, the module needs numpy only: the lag
products are one correlation and a cumulative sum,
:func:`toeplitz_regressor` is a strided view of the zero-padded input, the
mean's triangular solve is
numpy's LU of a triangle (no pivoting, exact zero multipliers), as is
the gradient's inverse of the factor, and the refinement is BFGS,
:func:`_bfgs`.
"""

from __future__ import annotations

import logging
import math
import sys
import time
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .errors import (
    DimensionMismatch,
    EmptySearchSpace,
    InvalidParameter,
    NotPositiveDefinite,
    OrderTooLarge,
    SingularGram,
    StableKernError,
    _check_count,
    _check_positive,
    _real_array,
)
from .grid import SamplingGrid
from .kernels import SS1, WIENER, KernelSpec, _Chain, _unit_triangle

__all__ = [
    "EstimationProblem",
    "SearchConfig",
    "ImpulseResponseEstimate",
    "toeplitz_regressor",
    "posterior_mean",
    "log_marginal_likelihood",
    "fit",
]

_log = logging.getLogger(__name__)

_LOG_2PI = math.log(2.0 * math.pi)
_TINY, _HUGE = sys.float_info.min, sys.float_info.max
_UNIT = sys.float_info.epsilon / 2  # unit roundoff u = 2^-53
_FTOL, _XTOL = 1e-10, 1e-9  # refinement stops: a promised gain in log_ml, a step in (ln lam, ln beta)
_RIDGE_ITERS, _RIDGE_GAIN = 20, 1e-7  # and where this many iterations together gained less than this
_NOT_FINITE = "stopped where a value, gradient or promised gain is not finite"


def _check_order(order, n_samples: int) -> None:
    _check_count(order, "FIR order must be an integer >= 1, got {!r}")
    if order > n_samples:
        raise OrderTooLarge(f"FIR order {order} exceeds the {n_samples} data samples")


@dataclass(frozen=True, eq=False)
class EstimationProblem:
    """Input/output data, FIR order, and (optionally fixed) noise variance."""

    u: np.ndarray
    y: np.ndarray
    order: int
    sigma2: Optional[float] = None

    def __post_init__(self) -> None:
        u = _real_array(self.u, "u").reshape(-1)
        y = _real_array(self.y, "y").reshape(-1)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "y", y)
        if u.shape != y.shape:
            raise DimensionMismatch(f"u and y must have the same length, got {u.shape[0]} and {y.shape[0]}")
        if not (np.all(np.isfinite(u)) and np.all(np.isfinite(y))):
            raise InvalidParameter("u and y must be finite")
        _check_order(self.order, u.shape[0])
        if self.sigma2 is not None:
            _check_positive(self.sigma2, "sigma2 must be finite and > 0 when fixed, got {!r}")

    @property
    def n_samples(self) -> int:
        return self.u.shape[0]


def toeplitz_regressor(u: np.ndarray, order: int) -> np.ndarray:
    """N x n Toeplitz matrix with Phi[k, j] = u[k - j], zero above the diagonal."""
    uu = _real_array(u, "u").reshape(-1)
    _check_order(order, uu.shape[0])
    padded = np.concatenate([np.zeros(order - 1), uu])
    return np.lib.stride_tricks.sliding_window_view(padded, order)[:, ::-1].copy()


@dataclass(frozen=True, eq=False)
class _DataStats:
    """The data folded down to FIR order in the prior's unit-triangle coordinates: all the estimator needs.

    The c = 1 prior's square root is U = W diag(s), with the unit triangle
    W the same at every beta of the family on the grid, so W'Phi'Phi W and
    W'Phi'y serve every beta: each scales them by its own s.  ``fit``
    forms them in O(N n) from lag products; no N x n matrix.
    """

    unit: np.ndarray  # W
    gram: np.ndarray  # W'Phi'Phi W
    cross: np.ndarray  # W'Phi'y
    yy: float  # y'y
    n_data: int


def _in_unit_coordinates(gram: np.ndarray, cross: np.ndarray, y: np.ndarray, grid: SamplingGrid,
                         family: str) -> _DataStats:
    """Check that Phi'Phi, Phi'y and y'y are finite, then form W'Phi'Phi W and W'Phi'y, O(n^3).

    W is the unit triangle of ``family`` on the grid.  Overflow in W'Phi'Phi W
    or W'Phi'y, and a Wiener t1 = 0 (where W[0, 0] is NaN), are left to
    each candidate: the first fails its system's finiteness check, the
    second :func:`_whiten`, where that beta's square root fails.
    """
    # A NaN or infinite entry, or an overflow, leaves a non-finite product:
    # one check after folding catches all three, with no numpy warning.
    with np.errstate(over="ignore", invalid="ignore"):
        yy = float(y @ y)
    if not (np.all(np.isfinite(gram)) and np.all(np.isfinite(cross)) and math.isfinite(yy)):
        raise InvalidParameter("Phi'Phi, Phi'y or y'y is not finite: the regressor and y must be finite "
                               "and small enough for their products to stay in the float range")
    w = _unit_triangle(family, grid.times)
    with np.errstate(over="ignore", invalid="ignore"):
        return _DataStats(unit=w, gram=w.T @ gram @ w, cross=cross @ w, yy=yy, n_data=y.shape[0])


def _fold(phi: np.ndarray, y: np.ndarray, grid: SamplingGrid, family: str) -> _DataStats:
    """Check the regression shapes and fold any regressor: Phi'Phi and Phi'y by products, O(N n^2)."""
    phi = _real_array(phi, "the regressor")
    y = _real_array(y, "y").reshape(-1)
    if phi.ndim != 2:
        raise DimensionMismatch(f"regressor must be 2-D, got shape {phi.shape}")
    if y.shape != (phi.shape[0],):
        raise DimensionMismatch(f"y must have length {phi.shape[0]}, got shape {y.shape}")
    if grid.n != phi.shape[1]:
        raise DimensionMismatch(f"grid has {grid.n} points but regressor has {phi.shape[1]} columns")
    with np.errstate(over="ignore", invalid="ignore"):
        return _in_unit_coordinates(phi.T @ phi, phi.T @ y, y, grid, family)


def _lag_sums(u: np.ndarray, x: np.ndarray, order: int) -> np.ndarray:
    """Row p, column m: the sum of u_i x_{i+m} over i <= N - order + p, x zero past its end; O(N n).

    Row 0 is one correlation over the first N - order + 1 inputs; each later
    row adds the product of one more of the last order - 1 inputs.  So every
    entry is a sum of its own terms, with no cancellation against the
    products of a longer sum.
    """
    start = u.shape[0] - order + 1
    ahead = np.lib.stride_tricks.sliding_window_view(np.concatenate([x[start:], np.zeros(order)]), order)
    return np.cumsum(np.vstack([np.correlate(x, u[:start], "valid"), u[start:, None] * ahead[: order - 1]]), axis=0)


def _fold_lags(u: np.ndarray, y: np.ndarray, grid: SamplingGrid, family: str) -> _DataStats:
    """Fold an FIR problem's data, O(N n) from lag products; no N x n matrix.

    With Phi the Toeplitz regressor of ``u`` at the grid's order n,
    Phi'Phi[j, l] sums u_i u_{i+|j-l|} and Phi'y[j] sums u_i y_{i+j}, over
    i <= N - 1 - max(j, l) and i <= N - 1 - j: rows n - 1 - max(j, l) and
    n - 1 - j of :func:`_lag_sums`.  ``u`` and ``y`` are an
    :class:`EstimationProblem`'s, whose shapes and order it checked.
    """
    n = grid.n
    k = np.arange(n)
    with np.errstate(over="ignore", invalid="ignore"):
        lags, cross = _lag_sums(u, u, n), _lag_sums(u, y, n)[n - 1 - k, k]
        gram = lags[n - 1 - np.maximum.outer(k, k), np.abs(np.subtract.outer(k, k))]
        return _in_unit_coordinates(gram, cross, y, grid, family)


@dataclass(frozen=True, eq=False)
class _Whitened:
    """The folded data in the coordinates of the c = 1 prior's square root U = W diag(s) at one beta."""

    chain: _Chain  # the c = 1 prior's chain, whose roots are s
    scales: np.ndarray  # s
    gram: np.ndarray  # U'Phi'Phi U
    cross: np.ndarray  # U'Phi'y


def _whiten(stats: _DataStats, family: str, beta: Optional[float], grid: SamplingGrid) -> _Whitened:
    """Whiten the folded data by the closed-form square root of the c = 1 prior at ``beta``: O(n^2).

    Raises SingularGram where that square root does not exist.
    """
    chain = _Chain(KernelSpec(family=family, c=1.0, beta=beta), grid.times)
    s = chain.roots()
    # Overflow is reported per candidate, by the finiteness check of its system.
    with np.errstate(over="ignore", invalid="ignore"):
        return _Whitened(chain=chain, scales=s, gram=stats.gram * s[:, None] * s, cross=stats.cross * s)


def _cholesky(stack: np.ndarray) -> np.ndarray:
    """Lower Cholesky factors of a (k, m, m) stack; NaN fills each factor that does not exist."""
    try:
        return np.linalg.cholesky(stack)
    except np.linalg.LinAlgError:
        if stack.shape[0] == 1:
            return np.full_like(stack, np.nan)
        return np.concatenate([_cholesky(one[None]) for one in stack])


def _bordered(stats: _DataStats, white: _Whitened, lam: np.ndarray):
    """Batched Cholesky factors of the candidates' [[M, g], [g', 2]], the exponent e, and each failure.

    For candidate k, M = I + lam[k] U'Phi'Phi U and g = sqrt(lam[k]) b / 2^e,
    with e the integer for which y'y / 4^e lies in [1/4, 1).  The factor's
    first n pivots give ln det M, and its last row r' = (L_M^{-1} g)' has
    squared norm lam b'M^{-1}b / 4^e <= y'y / 4^e < 1: the last pivot
    stays above 1, and no entry overflows for any finite y'y.  A failure is
    None or the error of a system that overflows or has no Cholesky factor.
    """
    count, n = lam.shape[0], white.gram.shape[0]
    shift = (math.frexp(stats.yy)[1] + 1) // 2
    with np.errstate(over="ignore", invalid="ignore"):
        stack = np.empty((count, n + 1, n + 1))
        np.multiply(lam[:, None, None], white.gram, out=stack[:, :n, :n])
        np.multiply(np.sqrt(lam)[:, None], np.ldexp(white.cross, -shift), out=stack[:, n, :n])
        stack[:, :n, n] = stack[:, n, :n]
        stack[:, n, n] = 1.0
        stack.reshape(count, -1)[:, :: n + 2] += 1.0
        finite = np.isfinite(stack).all(axis=(1, 2))
        if not finite.all():
            stack[~finite] = np.eye(n + 1)
    low = _cholesky(stack)
    failures = [None if ok and not bad else NotPositiveDefinite(
                "posterior system " + ("is numerically indefinite" if ok else "overflows the float range"))
                for ok, bad in zip(finite.tolist(), np.isnan(low[:, 0, 0]).tolist())]
    return low, shift, failures


def _log_mls(stats: _DataStats, white: _Whitened, lam: np.ndarray, sigma2: Optional[float] = None,
             gradient: bool = False) -> list:
    """Each candidate's (c, sigma2, log_ml) at one beta and lam[k] = c / sigma2, or its error.

    One bordered factor gives ln det M and q = y'y - lam b'M^{-1}b.  A
    fixed ``sigma2`` is used as given; a free one (None) is profiled out at
    sigma2* = q / N, where the likelihood is
    -(N (ln 2 pi + 1) + ln det M + N ln sigma2*) / 2.  Either way c =
    lam sigma2.  A candidate fails with InvalidParameter where c is not a
    positive normal float, where y'y / sigma2 overflows, or where the
    profiled sigma2* is not a normal float above its rounding-error bound.

    That bound: q is the difference of two sums of squares, y'y of N terms
    and ldexp(|r|^2, 2e) = lam b'M^{-1}b <= y'y of n.  Summing m
    nonnegative terms errs by at most m u times the sum (u = 2^-53, to
    first order), so forming both sums and subtracting errs by up to
    (N + n + 1) u y'y, even from an exact factor.  A q at or below that
    carries no significant digit, and neither does ln sigma2*; the error
    of the factor itself comes on top.  With sigma2 fixed the same error
    moves q / sigma2 by no more than the rounding of y'y / sigma2, so it
    needs no check.

    With ``gradient``, each result ends with the gradient of log_ml in
    (ln lam, ln beta), ln lam alone for Wiener: with x = M^{-1}b, w = 1 /
    sigma2 (N / q when profiled, by the envelope theorem) and a_j = d ln
    s_j / d beta for the square root's column scales s_j,
    d/d ln lam = -(n - tr M^{-1} - w lam x'x) / 2 and
    d/d ln beta = -beta sum_j a_j (1 - (M^{-1})_jj - w lam x_j^2).
    Both need only L_M^{-1}: diag M^{-1} sums its columns' squares, and
    x = 2^e L_M^{-T} r / sqrt(lam).
    """
    low, shift, failures = _bordered(stats, white, lam)
    count, n = low.shape[0], low.shape[1] - 1
    n_data = stats.n_data
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        log_det_m = 2.0 * np.log(low.reshape(count, -1)[:, : n * (n + 2) : n + 2]).sum(axis=1)
        row = low[:, n, :n]
        q = stats.yy - np.ldexp((row * row).sum(axis=1), 2 * shift)
        if sigma2 is None:
            floor = (n_data + n + 1) * _UNIT * stats.yy / n_data
            s2 = q / n_data
            values = -0.5 * (n_data * (_LOG_2PI + 1.0) + log_det_m + n_data * np.log(s2))
            ok = (s2 > floor) & (s2 >= _TINY)
        else:
            s2 = np.full(count, sigma2)
            values = -0.5 * (n_data * _LOG_2PI + (log_det_m + n_data * np.log(s2)) + q / s2)
            ok = np.isfinite(values)
        c = lam * s2
        if gradient:
            # An LU of the upper triangle L_M' is back substitution; a failed factor is replaced.
            upper = np.swapaxes(low[:, :n, :n], 1, 2)
            upper[np.isnan(upper[:, 0, 0])] = np.eye(n)
            z = np.linalg.inv(upper)  # L_M^{-T}
            keep = 1.0 - (z * z).sum(axis=2)  # 1 - diag M^{-1}
            v = (z @ row[:, :, None])[:, :, 0]
            keep -= np.ldexp(v * v, 2 * shift) / s2[:, None]  # minus w lam x_j^2
            weights = [np.ones(n)]
            if white.chain.beta is not None:
                weights.append(2.0 * white.chain.beta * white.chain.root_slopes())
            grads = -0.5 * keep @ np.array(weights).T
    ok &= (c >= _TINY) & (c <= _HUGE)
    lam, c, s2, values = lam.tolist(), c.tolist(), s2.tolist(), values.tolist()
    for k in np.flatnonzero(~ok).tolist():
        if sigma2 is None:
            why = (f"the likelihood peaks at sigma2={s2[k]!r}, c={c[k]!r}: sigma2 must be a normal float above "
                   f"its rounding-error bound {floor!r}, and c a positive normal float (y zero or fitted to rounding)")
        elif not math.isfinite(values[k]):
            why = f"the data are too large for sigma2={sigma2!r}: y'y / sigma2 overflows the float range"
        else:
            why = f"c = lam sigma2 = {c[k]!r} is not a positive normal float"
        failures[k] = failures[k] or InvalidParameter(f"at lam = c / sigma2 = {lam[k]!r} {why}")
    results = zip(c, s2, values, grads) if gradient else zip(c, s2, values)
    return [failure or result for failure, result in zip(failures, results)]


def _posterior_mean(stats: _DataStats, white: _Whitened, lam: float) -> np.ndarray:
    """h = lam U M^{-1} b = sqrt(lam) 2^e U L_M^{-T} r, with r' the last row of the bordered factor."""
    low, shift, (failure,) = _bordered(stats, white, np.array([lam]))
    if failure is not None:
        raise failure
    # LU of the triangle L_M' pivots on its diagonal and its multipliers are
    # exact zeros, so this is back substitution.
    v = np.linalg.solve(low[0, :-1, :-1].T, low[0, -1, :-1])
    with np.errstate(over="ignore", invalid="ignore"):
        h = np.ldexp(((stats.unit * white.scales) @ v) * math.sqrt(lam), shift)
    if not np.all(np.isfinite(h)):
        raise InvalidParameter(f"the data are too large for lam = c / sigma2 = {lam!r}: "
                               "the posterior mean leaves the float range")
    return h


def posterior_mean(phi: np.ndarray, y: np.ndarray, sigma2: float, spec: KernelSpec, grid: SamplingGrid) -> np.ndarray:
    """Posterior mean P Phi'(Phi P Phi' + sigma2 I)^{-1} y = lam U M^{-1} b, in whitened coordinates.

    Read from the bordered factor of :func:`log_marginal_likelihood`, it
    fails alike where that factor does; it also exists where y'y / sigma2
    overflows, and fails alone only where h leaves the float range.
    """
    stats = _fold(phi, y, grid, spec.family)
    _check_positive(sigma2, "sigma2 must be finite and > 0, got {!r}")
    return _posterior_mean(stats, _whiten(stats, spec.family, spec.beta, grid), spec.c / float(sigma2))


def log_marginal_likelihood(phi: np.ndarray, y: np.ndarray, sigma2: float, spec: KernelSpec, grid: SamplingGrid) -> float:
    """ln N(y; 0, Phi P Phi' + sigma2 I), by the order-n identities of the module docstring.

    Every eigenvalue of M is at least 1, so no precision entry or
    separate ln det P enters, and no N x N matrix is ever formed.
    """
    stats = _fold(phi, y, grid, spec.family)
    _check_positive(sigma2, "sigma2 must be finite and > 0, got {!r}")
    (result,) = _log_mls(stats, _whiten(stats, spec.family, spec.beta, grid),
                         np.array([spec.c / float(sigma2)]), float(sigma2))
    if isinstance(result, StableKernError):
        raise result
    return result[2]


@dataclass(frozen=True)
class SearchConfig:
    """Candidate grids for hyperparameter tuning, plus refinement policy.

    ``beta_grid`` is required for the SS-1 family and ignored for
    Wiener.  The tuner scans the distinct values of lam = c / sigma2:
    the quotients of ``c_grid`` by a fixed noise variance, or, when the
    problem leaves it free, by ``sigma2_grid`` (used only then), each lam
    at the sigma2 that maximizes the likelihood for it.  Refinement runs
    BFGS on the likelihood's exact gradient in log-parameter space from
    the best grid point, over (lam, beta) either way; Wiener drops beta.
    ``refine_maxiter`` caps its iterations, each of which evaluates one
    candidate per step its line search tries.  Every field is checked
    here, so :meth:`from_dict` obeys the same rules.
    """

    family: str
    c_grid: Tuple[float, ...]
    beta_grid: Optional[Tuple[float, ...]] = None
    sigma2_grid: Optional[Tuple[float, ...]] = None
    refine: bool = True
    refine_maxiter: int = 200

    def __post_init__(self) -> None:
        if self.family not in (WIENER, SS1):
            raise InvalidParameter(f"unknown kernel family {self.family!r}")
        for name in ("c_grid", "beta_grid", "sigma2_grid"):
            values = getattr(self, name)
            if values is not None:
                # dtype=object keeps each value's own type for the check: True is not 1.0.
                values = np.asarray(values, dtype=object).reshape(-1)
                for value in values:
                    _check_positive(value, f"{name} values must be finite and > 0")
                object.__setattr__(self, name, tuple(float(v) for v in values))
        if not isinstance(self.refine, bool):
            raise InvalidParameter(f"refine must be true or false, got {self.refine!r}")
        _check_count(self.refine_maxiter, "refine_maxiter must be an integer >= 1, got {!r}")

    @classmethod
    def from_dict(cls, d: dict, family: str) -> "SearchConfig":
        """Build from JSON-style axes {"c": {"min": .., "max": .., "num": ..}, ...}.

        Each axis is ``num`` log-spaced values from ``min`` to ``max``;
        ``refine`` and ``refine_maxiter`` are passed on as they are.
        """
        if not isinstance(d, dict):
            raise InvalidParameter("search config must be a JSON object")
        extra = set(d) - {"c", "beta", "sigma2", "refine", "refine_maxiter"}
        if extra:
            raise InvalidParameter(f"unknown search config keys: {sorted(extra)}")
        if "c" not in d:
            raise InvalidParameter("search config is missing the 'c' axis")

        def axis(key):
            spec = d.get(key)
            if spec is None:
                return None
            if not isinstance(spec, dict) or not {"min", "max", "num"} <= set(spec):
                raise InvalidParameter(f"axis {key!r} needs min, max and num")
            lo, hi, num = spec["min"], spec["max"], spec["num"]
            _check_positive(lo, f"axis {key!r} min must be a number > 0, got {{!r}}")
            _check_positive(hi, f"axis {key!r} max must be a number > 0, got {{!r}}")
            _check_count(num, f"axis {key!r} num must be an integer >= 1, got {{!r}}")
            if lo > hi:
                raise InvalidParameter(f"axis {key!r} needs min <= max, got min={lo!r}, max={hi!r}")
            if num == 1:
                return (lo,)
            return tuple(np.exp(np.linspace(math.log(lo), math.log(hi), num)))

        return cls(family=family, c_grid=axis("c"), beta_grid=axis("beta"), sigma2_grid=axis("sigma2"),
                   refine=d.get("refine", True), refine_maxiter=d.get("refine_maxiter", 200))


@dataclass(frozen=True, eq=False)
class ImpulseResponseEstimate:
    """Fitted FIR coefficients with their hyperparameters and diagnostics."""

    coefficients: np.ndarray
    spec: KernelSpec
    sigma2: float
    log_ml: float
    diagnostics: dict

    def to_dict(self) -> dict:
        return {
            "coefficients": [float(x) for x in self.coefficients],
            "kernel": self.spec.to_dict(),
            "sigma2": float(self.sigma2),
            "log_ml": float(self.log_ml),
            "diagnostics": self.diagnostics,
        }


def _bfgs(func, x: np.ndarray, maxiter: int) -> Tuple[int, str, np.ndarray]:
    """Minimize func from x by BFGS; return the iteration count, why it stopped, and the last gradient.

    func(x) is the value and its gradient, +inf and NaN where it fails.
    Each iteration searches along the quasi-Newton direction p, from a
    first step that moves no coordinate by more than 1, halving until the
    value drops by at least 1e-4 of the decrease the gradient promises
    (Armijo).  The inverse Hessian starts as the identity, is updated only
    where s'y > 0, and the first iteration's update rescales it to
    s'y / y'y first.
    It converges where the decrease the quadratic model promises, -g'p,
    is at most _FTOL, or where no step above _XTOL lowers the value; it
    stops unconverged after ``maxiter`` iterations, at once where the
    start's value or gradient is not finite, where the promised
    decrease is not, and on a ridge: where the last _RIDGE_ITERS
    iterations together lowered the value by less than _RIDGE_GAIN.
    An update that leaves the inverse Hessian not finite is skipped.
    The best point is not returned: the caller records what it
    evaluates.
    """
    value, grad = func(x)
    if not (math.isfinite(value) and np.isfinite(grad).all()):
        return 0, _NOT_FINITE, grad
    inv_hess = np.eye(x.size)
    values = []
    for nit in range(maxiter + 1):
        values.append(value)
        with np.errstate(over="ignore", invalid="ignore"):
            step = -inv_hess @ grad
            gain = -(grad @ step)
        if math.isfinite(gain) and gain <= _FTOL:
            return nit, "converged", grad
        if nit == maxiter or not math.isfinite(gain):
            return nit, "stopped at the iteration cap" if nit == maxiter else _NOT_FINITE, grad
        if nit >= _RIDGE_ITERS and values[nit - _RIDGE_ITERS] - value < _RIDGE_GAIN:
            return nit, f"stopped on a ridge (the last {_RIDGE_ITERS} iterations gained less than {_RIDGE_GAIN:g})", grad
        t = 1.0 / max(1.0, np.abs(step).max())
        while not (trial := func(x + t * step))[0] <= value - 1e-4 * t * gain:
            t *= 0.5
            if not t * np.abs(step).max() > _XTOL:
                return nit, "converged", grad
        s, y = t * step, trial[1] - grad
        with np.errstate(over="ignore", invalid="ignore"):
            sy = s @ y
            if sy > 0.0:
                v = np.eye(x.size) - np.outer(s, y) / sy
                update = v @ (inv_hess * (sy / (y @ y)) if nit == 0 else inv_hess) @ v.T + np.outer(s, s) / sy
                if np.isfinite(update).all():
                    inv_hess = update
        x, (value, grad) = x + s, trial


def _tune(stats: _DataStats, grid: SamplingGrid, search: SearchConfig, sigma2: Optional[float]):
    """Best trace entry, its beta's whitened data and lam, the trace of every candidate evaluated, the failure count,
    and the ``time.perf_counter()`` reading at the end of the grid scan.

    The bordered system depends on beta and lam = c / sigma2 alone, so
    there is one scan: beta in grid order and, at each, the distinct lam
    of the c grid over the fixed ``sigma2`` (pinned) or over the sigma2
    grid (None: each entry at the best sigma2 for its lam), in ascending
    order; refinement then moves (log lam, log beta) by :func:`_bfgs`,
    each candidate with its gradient.  Wiener's beta axis is ``(None,)``
    and its refinement moves log lam alone.  ``stats`` are folded in the
    unit triangle's coordinates once per fit; each batch whitens them at
    its beta, O(n^2), and all of a beta's grid candidates are evaluated
    in one batch; a beta whose prior has no closed-form square root fails
    every candidate at it.  The best entry is the trace's
    first maximum, and its lam is the one evaluated, so the mean is taken
    where its likelihood was.  When every grid candidate fails, the error
    raised has the type of the last candidate error.
    """
    tune_beta = search.family == SS1
    betas = search.beta_grid if tune_beta else (None,)
    sigma2_axis = search.sigma2_grid if sigma2 is None else (sigma2,)
    for axis, message in ((search.c_grid, "c grid is empty"), (betas, "SS-1 tuning needs a nonempty beta grid"),
                          (sigma2_axis, "sigma2 is free but the sigma2 grid is empty")):
        if not axis:
            raise EmptySearchSpace(message)
    with np.errstate(over="ignore"):
        lams = np.unique(np.divide.outer(search.c_grid, sigma2_axis)).tolist()

    trace: list = []
    n_failed = 0
    last_error = None
    best: list = []  # the best entry so far, its beta's whitened data and its lam

    def batch(beta: Optional[float], lam: list, gradient: bool = False) -> list:
        """Evaluate and record the candidates at beta and each lam; their results or errors."""
        nonlocal n_failed, last_error
        try:
            white = _whiten(stats, search.family, beta, grid)
        except SingularGram as exc:
            white = exc
        results = ([white] * len(lam) if isinstance(white, Exception)
                   else _log_mls(stats, white, np.array(lam), sigma2, gradient))
        for lam_k, result in zip(lam, results):
            if isinstance(result, Exception):
                n_failed += 1
                last_error = result
                continue
            c, s2, log_ml = result[:3]
            entry = {"c": c, "sigma2": s2, "log_ml": log_ml}
            if beta is not None:
                entry["beta"] = float(beta)
            trace.append(entry)
            if not best or log_ml > best[0]["log_ml"]:
                best[:] = [entry, white, lam_k]
        return results

    for beta in betas:
        failed = sum(isinstance(result, Exception) for result in batch(beta, lams))
        _log.debug("grid beta=%r: %d of %d candidates failed", beta, failed, len(lams))
    if not trace:
        raise type(last_error)("no search candidate produced a finite log marginal likelihood; "
                               f"last failure: {last_error}")
    scanned = time.perf_counter()

    if search.refine:
        def func(theta: np.ndarray):
            nonlocal n_failed
            # exp(theta) stays well inside the float range, away from overflow and from 0.
            if not np.abs(theta).max() <= 700.0:
                n_failed += 1
                return math.inf, math.nan
            lam, *beta = np.exp(theta).tolist()
            (result,) = batch(beta[0] if beta else None, [lam], gradient=True)
            return (-result[2], -result[3]) if isinstance(result, tuple) else (math.inf, math.nan)

        start = [best[2], best[0]["beta"]] if tune_beta else [best[2]]
        nit, why, grad = _bfgs(func, np.log(start), search.refine_maxiter)
        _log.debug("refinement: %s after %d iterations, max |gradient| %.3g", why, nit, np.abs(grad).max())
    return best[0], best[1], best[2], trace, n_failed, scanned


def fit(problem: EstimationProblem, grid: SamplingGrid, search: SearchConfig) -> ImpulseResponseEstimate:
    """Tune hyperparameters, then compute the posterior-mean coefficients.

    The data are folded once, O(N n) from lag products of u and y with no
    N x n matrix, into the prior's unit-triangle coordinates, and whitened
    at each beta the tuner evaluates; the mean reuses the
    best candidate's whitened data, so it costs one more bordered
    Cholesky and no whitening.  The tuner searches
    lam = c / sigma2 (module docstring) with sigma2 pinned when the
    problem fixes it and profiled out when not, where the sigma2 grid
    only seeds the values of lam.  The result's sigma2 is the fixed one or
    the best one for the winning lam, its c is lam times that (the grid's
    c to the last bit or so), and the mean is taken at that lam itself.
    With ``search.refine`` the grid's best point is refined by BFGS steps
    on the likelihood's exact gradient (:func:`_tune`).
    ``diagnostics["trace"]`` lists every candidate evaluated; ``n_failed``
    counts those whose prior or posterior system was numerically
    singular, whose c was not a positive normal float, or whose best
    sigma2 was not a normal float above its rounding-error bound (y zero,
    or fitted to rounding).  If every grid candidate fails, the error of
    the last one is raised.  At DEBUG, the ``stablekern.estimator`` logger
    gets one line with N, n and the wall time of each stage: fold, grid
    scan, refinement and mean.
    """
    if grid.n != problem.order:
        raise DimensionMismatch(f"grid has {grid.n} points but the FIR order is {problem.order}")
    start = time.perf_counter()
    stats = _fold_lags(problem.u, problem.y, grid, search.family)
    folded = time.perf_counter()
    best, white, lam, trace, n_failed, scanned = _tune(stats, grid, search, problem.sigma2)
    tuned = time.perf_counter()
    coefficients = _posterior_mean(stats, white, lam)
    _log.debug("fit N=%d n=%d: fold %.3f ms, grid scan %.3f ms, refinement %.3f ms, mean %.3f ms", stats.n_data,
               grid.n, *1e3 * np.diff([start, folded, scanned, tuned, time.perf_counter()]))
    spec = KernelSpec(family=search.family, c=best["c"], beta=best.get("beta"))
    return ImpulseResponseEstimate(
        coefficients=coefficients,
        spec=spec,
        sigma2=best["sigma2"],
        log_ml=best["log_ml"],
        diagnostics={
            "sigma2_tuned": problem.sigma2 is None,
            "n_evaluations": len(trace),
            "n_failed": n_failed,
            "trace": trace,
        },
    )
