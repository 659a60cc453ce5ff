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
``fit`` builds Phi once and folds the data into these statistics once,
in O(N n^2).  Whitening costs O(n^3) once, for the part of U shared by
every beta, and O(n^2) per beta; all of one beta's grid candidates then
go through one batched Cholesky, O(n^3) each.  A candidate is a distinct
lam = c / sigma2 of the c grid and the fixed sigma2, or of the c x sigma2
grid when sigma2 is free: one factor per distinct lam per beta, fewer
than the grid's values where quotients coincide (14 of 25 pairs for c at
the five half decades from 0.1 to 10 and sigma2 at the five decades from
1e-3 to 10).
The posterior mean reuses the best candidate's whitened data: one more
factor, then one triangular solve and one product with U, O(n^2).  None
of it depends on N.

Hyperparameters are tuned by maximizing the log marginal likelihood
over a log-spaced grid followed by an optional simplex refinement in
log-space.  The search runs over (lam, beta) with sigma2 pinned when it
is fixed and profiled out when it is free, every candidate then at its
sigma2*; the trace records each as c = lam sigma2, beta, sigma2 and its
log likelihood.  Tuning is deterministic given the search configuration,
and the reported optimum is the best of every candidate evaluated, so it
can never fall below a grid point: each grid pair's lam is scanned, at
its best sigma2 when that is free.

Like the rest of the package, the module needs numpy only: Phi is a
strided view of the zero-padded input, the mean's triangular solve is
numpy's LU of a triangle (no pivoting, exact zero multipliers), and the
simplex, :func:`_nelder_mead`, is a port of scipy's
``minimize(method="Nelder-Mead")`` that evaluates the same points bit
for bit.
"""

from __future__ import annotations

import logging
import math
import sys
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
)
from .grid import SamplingGrid
from .kernels import SS1, WIENER, KernelSpec
from .structure import StructuredSqrt, sqrt_factor

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
        u = np.asarray(self.u, dtype=float).reshape(-1)
        y = np.asarray(self.y, dtype=float).reshape(-1)
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
    uu = np.asarray(u, dtype=float).reshape(-1)
    _check_order(order, uu.shape[0])
    padded = np.concatenate([np.zeros(order - 1), uu])
    return np.lib.stride_tricks.sliding_window_view(padded, order)[:, ::-1].copy()


@dataclass(frozen=True, eq=False)
class _DataStats:
    """The data folded down to FIR order: all the estimator needs of Phi and y."""

    gram: np.ndarray  # Phi'Phi
    cross: np.ndarray  # Phi'y
    yy: float  # y'y
    n_data: int


def _fold(phi: np.ndarray, y: np.ndarray, grid: SamplingGrid) -> _DataStats:
    """Check the regression shapes, then form Phi'Phi, Phi'y and y'y: O(N n^2)."""
    phi = np.asarray(phi, dtype=float)
    y = np.asarray(y, dtype=float).reshape(-1)
    if phi.ndim != 2:
        raise DimensionMismatch(f"regressor must be 2-D, got shape {phi.shape}")
    if y.shape != (phi.shape[0],):
        raise DimensionMismatch(f"y must have length {phi.shape[0]}, got shape {y.shape}")
    if grid.n != phi.shape[1]:
        raise DimensionMismatch(f"grid has {grid.n} points but regressor has {phi.shape[1]} columns")
    # A NaN or infinite entry, or an overflow, leaves a non-finite product:
    # one check after folding catches all three, with no numpy warning.
    with np.errstate(over="ignore", invalid="ignore"):
        stats = _DataStats(gram=phi.T @ phi, cross=phi.T @ y, yy=float(y @ y), n_data=y.shape[0])
    if not (np.all(np.isfinite(stats.gram)) and np.all(np.isfinite(stats.cross)) and math.isfinite(stats.yy)):
        raise InvalidParameter("Phi'Phi, Phi'y or y'y is not finite: the regressor and y must be finite "
                               "and small enough for their products to stay in the float range")
    return stats


@dataclass(frozen=True, eq=False)
class _Whitened:
    """The folded data in the coordinates of the c = 1 prior's square root U = W diag(s).

    W is the unit triangle of :meth:`StructuredSqrt.unit_triangle`, the
    same at every beta, and s = inv_diag.  ``summed`` holds W'Phi'Phi W
    and W'Phi'y, which a scan over beta forms once.
    """

    root: StructuredSqrt  # U
    summed: Tuple[np.ndarray, np.ndarray]
    gram: np.ndarray  # U'Phi'Phi U
    cross: np.ndarray  # U'Phi'y


def _whiten(stats: _DataStats, family: str, beta: Optional[float], grid: SamplingGrid,
            summed: Optional[Tuple[np.ndarray, np.ndarray]] = None) -> _Whitened:
    """Whiten the folded data by the closed-form square root of the c = 1 prior at ``beta``.

    O(n^2) given the ``summed`` data of any beta of the same family and
    grid; O(n^3) without.
    """
    root = sqrt_factor(KernelSpec(family=family, c=1.0, beta=beta), grid)
    # Overflow is reported per candidate, by the finiteness check of its system.
    with np.errstate(over="ignore", invalid="ignore"):
        if summed is None:
            w = root.unit_triangle()
            summed = (w.T @ stats.gram @ w, stats.cross @ w)
        gram, cross = summed
        s = root.inv_diag
        return _Whitened(root=root, summed=summed, gram=gram * s[:, None] * s, cross=cross * s)


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


def _log_mls(stats: _DataStats, white: _Whitened, lam: np.ndarray, sigma2: Optional[float] = None) -> list:
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
    return [failure or result for failure, result in zip(failures, zip(c, s2, values))]


def _posterior_mean(stats: _DataStats, white: _Whitened, lam: float) -> np.ndarray:
    """h = lam U M^{-1} b = sqrt(lam) 2^e U L_M^{-T} r, with r' the last row of the bordered factor."""
    low, shift, (failure,) = _bordered(stats, white, np.array([lam]))
    if failure is not None:
        raise failure
    # LU of the triangle L_M' pivots on its diagonal and its multipliers are
    # exact zeros, so this is back substitution.
    v = np.linalg.solve(low[0, :-1, :-1].T, low[0, -1, :-1])
    with np.errstate(over="ignore", invalid="ignore"):
        h = np.ldexp((white.root.to_dense() @ v) * math.sqrt(lam), shift)
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
    stats = _fold(phi, y, grid)
    _check_positive(sigma2, "sigma2 must be finite and > 0, got {!r}")
    return _posterior_mean(stats, _whiten(stats, spec.family, spec.beta, grid), spec.c / float(sigma2))


def log_marginal_likelihood(phi: np.ndarray, y: np.ndarray, sigma2: float, spec: KernelSpec, grid: SamplingGrid) -> float:
    """ln N(y; 0, Phi P Phi' + sigma2 I), by the order-n identities of the module docstring.

    Every eigenvalue of M is at least 1, so no precision entry or
    separate ln det P enters, and no N x N matrix is ever formed.
    """
    stats = _fold(phi, y, grid)
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
    at the sigma2 that maximizes the likelihood for it.  Refinement runs a
    Nelder-Mead simplex in log-parameter space from the best grid point,
    over (lam, beta) either way; Wiener drops beta.  Every field is
    checked here, so :meth:`from_dict` obeys the same rules.
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


def _nelder_mead(func, x0: np.ndarray, maxiter: int, xatol: float, fatol: float) -> Tuple[int, bool]:
    """Minimize func from x0 by the Nelder-Mead simplex; return the iteration count and whether it converged.

    Step for step and expression for expression this is scipy's
    ``minimize(method="Nelder-Mead")`` without bounds, adaptive parameters
    or an evaluation limit, so it visits the same points bit for bit:
    reflection 1, expansion 2, contraction and shrink 1/2, an initial
    simplex that moves one coordinate of x0 by 5% (to 0.00025 where it is
    0), and a stop once every vertex lies within xatol and every value
    within fatol of the best, or at ``maxiter`` iterations (counted from 1).
    The best point is not returned: the caller records what it evaluates.
    """
    rho, chi, psi, sigma = 1, 2, 0.5, 0.5
    n = x0.shape[0]
    sim = np.tile(x0, (n + 1, 1))
    for k in range(n):
        sim[k + 1, k] = (1 + 0.05) * x0[k] if x0[k] != 0 else 0.00025
    fsim = np.array([func(x) for x in sim], dtype=float)

    def ordered(sim, fsim):
        ind = np.argsort(fsim)
        return np.take(sim, ind, 0), np.take(fsim, ind, 0)

    sim, fsim = ordered(*ordered(sim, fsim))  # scipy sorts twice before the first step
    nit = 1
    while nit < maxiter:
        if (np.max(np.ravel(np.abs(sim[1:] - sim[0]))) <= xatol
                and np.max(np.abs(fsim[0] - fsim[1:])) <= fatol):
            break
        xbar = np.add.reduce(sim[:-1], 0) / n
        xr = (1 + rho) * xbar - rho * sim[-1]
        fxr = func(xr)
        if fxr < fsim[0]:
            xe = (1 + rho * chi) * xbar - rho * chi * sim[-1]
            fxe = func(xe)
            sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        else:
            if fxr < fsim[-1]:  # outside contraction
                xc = (1 + psi * rho) * xbar - psi * rho * sim[-1]
                fxc = func(xc)
                shrink = not fxc <= fxr
            else:  # inside contraction
                xc = (1 - psi) * xbar + psi * sim[-1]
                fxc = func(xc)
                shrink = not fxc < fsim[-1]
            if shrink:
                for j in range(1, n + 1):
                    sim[j] = sim[0] + sigma * (sim[j] - sim[0])
                    fsim[j] = func(sim[j])
            else:
                sim[-1], fsim[-1] = xc, fxc
        nit += 1
        sim, fsim = ordered(sim, fsim)
    return nit, nit < maxiter


def _tune(stats: _DataStats, grid: SamplingGrid, search: SearchConfig, sigma2: Optional[float]):
    """Best trace entry, its beta's whitened data and lam, the trace of every candidate evaluated, and the failure count.

    The bordered system depends on beta and lam = c / sigma2 alone, so
    there is one scan: beta in grid order and, at each, the distinct lam
    of the c grid over the fixed ``sigma2`` (pinned) or over the sigma2
    grid (None: each entry at the best sigma2 for its lam), in ascending
    order; the simplex moves (log lam, log beta).  Wiener's beta axis is
    ``(None,)`` and its simplex moves log lam alone.  The data are
    whitened once per beta, and all of a beta's grid candidates are
    evaluated in one batch; a beta whose prior has no closed-form square
    root fails every candidate at it.  The best entry is the trace's
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
    whitened: dict = {}  # the last beta's whitened data, or the error of its square root
    summed = None
    best: list = []  # the best entry so far, its beta's whitened data and its lam

    def batch(beta: Optional[float], lam: list) -> list:
        """Evaluate and record the candidates at beta and each lam; their log_ml, -inf where one fails."""
        nonlocal summed, n_failed, last_error
        if beta not in whitened:
            whitened.clear()
            try:
                whitened[beta] = _whiten(stats, search.family, beta, grid, summed)
                summed = whitened[beta].summed
            except SingularGram as exc:
                whitened[beta] = exc
        white = whitened[beta]
        results = [white] * len(lam) if isinstance(white, Exception) else _log_mls(stats, white, np.array(lam), sigma2)
        values = []
        for lam_k, result in zip(lam, results):
            if isinstance(result, Exception):
                n_failed += 1
                last_error = result
                values.append(-math.inf)
                continue
            c, s2, log_ml = result
            entry = {"c": c, "sigma2": s2, "log_ml": log_ml}
            if beta is not None:
                entry["beta"] = float(beta)
            trace.append(entry)
            if not best or log_ml > best[0]["log_ml"]:
                best[:] = [entry, white, lam_k]
            values.append(log_ml)
        return values

    for beta in betas:
        failed = batch(beta, lams).count(-math.inf)
        _log.debug("grid beta=%r: %d of %d candidates failed", beta, failed, len(lams))
    if not trace:
        raise type(last_error)("no search candidate produced a finite log marginal likelihood; "
                               f"last failure: {last_error}")

    if search.refine:
        def objective(theta: np.ndarray) -> float:
            nonlocal n_failed
            # exp(theta) stays well inside the float range, away from overflow and from 0.
            if np.any(np.abs(theta) > 700.0):
                n_failed += 1
                return math.inf
            lam, *beta = np.exp(theta).tolist()
            return -batch(beta[0] if beta else None, [lam])[0]

        start = [best[2], best[0]["beta"]] if tune_beta else [best[2]]
        nit, success = _nelder_mead(objective, np.array([math.log(v) for v in start]),
                                    maxiter=search.refine_maxiter, xatol=1e-6, fatol=1e-9)
        _log.debug("Nelder-Mead: success=%s, nit=%d, message=%s", success, nit,
                   "Optimization terminated successfully." if success
                   else "Maximum number of iterations has been exceeded.")
    return best[0], best[1], best[2], trace, n_failed


def fit(problem: EstimationProblem, grid: SamplingGrid, search: SearchConfig) -> ImpulseResponseEstimate:
    """Tune hyperparameters, then compute the posterior-mean coefficients.

    The data are folded and whitened as the tuner needs them; the mean
    reuses the best candidate's whitened data, so it costs one more
    bordered Cholesky and no whitening.  The tuner searches
    lam = c / sigma2 (module docstring) with sigma2 pinned when the
    problem fixes it and profiled out when not, where the sigma2 grid
    only seeds the values of lam.  The result's sigma2 is the fixed one or
    the best one for the winning lam, its c is lam times that (the grid's
    c to the last bit or so), and the mean is taken at that lam itself.
    ``diagnostics["trace"]`` lists every candidate evaluated; ``n_failed``
    counts those whose prior or posterior system was numerically
    singular, whose c was not a positive normal float, or whose best
    sigma2 was not a normal float above its rounding-error bound (y zero,
    or fitted to rounding).  If every grid candidate fails, the error of
    the last one is raised.
    """
    if grid.n != problem.order:
        raise DimensionMismatch(f"grid has {grid.n} points but the FIR order is {problem.order}")
    stats = _fold(toeplitz_regressor(problem.u, problem.order), problem.y, grid)
    best, white, lam, trace, n_failed = _tune(stats, grid, search, problem.sigma2)
    spec = KernelSpec(family=search.family, c=best["c"], beta=best.get("beta"))
    return ImpulseResponseEstimate(
        coefficients=_posterior_mean(stats, white, lam),
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
