"""Kernel-regularized FIR impulse-response estimation.

The model is y = Phi h + e with Phi the Toeplitz regressor of the input
(zero initial conditions), e ~ N(0, sigma2 * I), and a zero-mean
Gaussian prior h ~ N(0, P) with P the Gram matrix of a Wiener or SS-1
kernel on the coefficient grid.  All linear algebra happens at the FIR
order n, never at the data length N: the prior enters only through its
closed-form tridiagonal inverse and log-determinant, and the N-dim
log-determinant and quadratic form are folded down to n-dim identities.

Cost model: the data enter only through Phi'Phi, Phi'y, y'y and N.  A
``fit`` builds Phi once and folds the data into these statistics once,
in O(N n^2); every tuning candidate and the final posterior mean then
cost O(n^3), independent of N.

Hyperparameters are tuned by maximizing the log marginal likelihood
over a log-spaced grid followed by an optional simplex refinement in
log-space.  Tuning is deterministic given the search configuration, and
the reported optimum is the best of every candidate evaluated, so it
can never fall below a grid point.
"""

from __future__ import annotations

import itertools
import math
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
from .structure import closed_form_inverse, log_det

__all__ = [
    "EstimationProblem",
    "SearchConfig",
    "ImpulseResponseEstimate",
    "toeplitz_regressor",
    "posterior_mean",
    "log_marginal_likelihood",
    "fit",
]

_LOG_2PI = math.log(2.0 * math.pi)


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
    import scipy.linalg

    return scipy.linalg.toeplitz(uu, np.zeros(order))


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


def _posterior_factor(stats: _DataStats, sigma2: float, spec: KernelSpec, grid: SamplingGrid):
    """Cholesky factor of A = P^{-1} + Phi'Phi/sigma2, from the folded data: O(n^3)."""
    _check_positive(sigma2, "sigma2 must be finite and > 0, got {!r}")
    a = closed_form_inverse(spec, grid).to_dense()
    # Overflow is reported by the finiteness check, not as a numpy warning.
    with np.errstate(over="ignore"):
        a += stats.gram / sigma2
    if not np.all(np.isfinite(a)):
        raise NotPositiveDefinite("posterior system overflows the float range")
    import scipy.linalg

    try:
        return scipy.linalg.cho_factor(a, lower=True, check_finite=False)
    except scipy.linalg.LinAlgError:
        raise NotPositiveDefinite("posterior system is numerically indefinite") from None


def _posterior_mean(stats: _DataStats, sigma2: float, spec: KernelSpec, grid: SamplingGrid) -> np.ndarray:
    import scipy.linalg

    cho = _posterior_factor(stats, sigma2, spec, grid)
    with np.errstate(over="ignore"):
        rhs = stats.cross / sigma2
    if not np.all(np.isfinite(rhs)):
        raise InvalidParameter(f"the data are too large for sigma2={sigma2!r}: Phi'y / sigma2 overflows the float range")
    return scipy.linalg.cho_solve(cho, rhs)


def _log_ml(stats: _DataStats, sigma2: float, spec: KernelSpec, grid: SamplingGrid) -> float:
    import scipy.linalg

    cho = _posterior_factor(stats, sigma2, spec, grid)
    b = stats.cross
    ldet_a = 2.0 * float(np.sum(np.log(np.diag(cho[0]))))
    ldet_cov = log_det(spec, grid) + ldet_a + stats.n_data * math.log(sigma2)
    with np.errstate(over="ignore", invalid="ignore"):
        quad = (stats.yy - b @ scipy.linalg.cho_solve(cho, b) / sigma2) / sigma2
    if not math.isfinite(quad):
        raise InvalidParameter(f"the data are too large for sigma2={sigma2!r}: y'y / sigma2 overflows the float range")
    return -0.5 * (stats.n_data * _LOG_2PI + ldet_cov + quad)


def posterior_mean(phi: np.ndarray, y: np.ndarray, sigma2: float, spec: KernelSpec, grid: SamplingGrid) -> np.ndarray:
    """Posterior mean (P^{-1} + Phi'Phi/sigma2)^{-1} Phi'y / sigma2."""
    return _posterior_mean(_fold(phi, y, grid), sigma2, spec, grid)


def log_marginal_likelihood(phi: np.ndarray, y: np.ndarray, sigma2: float, spec: KernelSpec, grid: SamplingGrid) -> float:
    """ln N(y; 0, Phi P Phi' + sigma2 I), evaluated with n-dim algebra.

    Uses ln det(Phi P Phi' + sigma2 I) = ln det P + ln det A + N ln sigma2
    with A = P^{-1} + Phi'Phi/sigma2, and the matching identity for the
    quadratic form, so no N x N matrix is ever formed.
    """
    return _log_ml(_fold(phi, y, grid), sigma2, spec, grid)


@dataclass(frozen=True)
class SearchConfig:
    """Candidate grids for hyperparameter tuning, plus refinement policy.

    ``beta_grid`` is required for the SS-1 family and ignored for
    Wiener; ``sigma2_grid`` is used only when the problem leaves the
    noise variance free.  Refinement runs a Nelder-Mead simplex in
    log-parameter space from the best grid point.  Every field is checked
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


def _tune(stats: _DataStats, grid: SamplingGrid, search: SearchConfig, sigma2: Optional[float]):
    """Best trace entry, the trace of every candidate evaluated, and the failure count.

    Scans (c, beta, sigma2), c slowest; a fixed ``sigma2`` is a one-value
    axis and Wiener's beta axis is ``(None,)``.  The simplex then moves
    only the free parameters, from the best grid entry.  When every grid
    candidate fails, the error raised has the type of the last candidate
    error (``NotPositiveDefinite`` if none raised).
    """
    tune_beta, tune_sigma2 = search.family == SS1, sigma2 is None
    axes = (search.c_grid, search.beta_grid if tune_beta else (None,),
            search.sigma2_grid if tune_sigma2 else (sigma2,))
    for axis, message in zip(axes, ("c grid is empty", "SS-1 tuning needs a nonempty beta grid",
                                    "sigma2 is free but the sigma2 grid is empty")):
        if not axis:
            raise EmptySearchSpace(message)
    trace: list = []
    n_failed = 0
    last_error = None

    def evaluate(c: float, beta: Optional[float], s2: float) -> float:
        nonlocal n_failed, last_error
        try:
            value = _log_ml(stats, s2, KernelSpec(family=search.family, c=c, beta=beta), grid)
        except (InvalidParameter, NotPositiveDefinite, SingularGram, OverflowError) as exc:
            n_failed += 1
            last_error = exc
            return -math.inf
        entry = {"c": float(c), "sigma2": float(s2), "log_ml": float(value)}
        if beta is not None:
            entry["beta"] = float(beta)
        trace.append(entry)
        return value

    for params in itertools.product(*axes):
        evaluate(*params)
    if not trace:
        message = "no search candidate produced a finite log marginal likelihood"
        if isinstance(last_error, StableKernError):
            raise type(last_error)(f"{message}; last failure: {last_error}")
        raise NotPositiveDefinite(message)

    if search.refine:
        import scipy.optimize

        best = max(trace, key=lambda e: e["log_ml"])
        start = [best["c"], best.get("beta"), best["sigma2"]]
        free = [i for i, tuned in enumerate((True, tune_beta, tune_sigma2)) if tuned]

        def objective(theta: np.ndarray) -> float:
            nonlocal n_failed
            if np.any(theta > 700.0):
                n_failed += 1
                return math.inf
            params = list(start)
            for i, value in zip(free, np.exp(theta)):
                params[i] = value
            return -evaluate(*params)

        scipy.optimize.minimize(
            objective,
            np.array([math.log(start[i]) for i in free]),
            method="Nelder-Mead",
            options={"maxiter": search.refine_maxiter, "xatol": 1e-6, "fatol": 1e-9},
        )
    return max(trace, key=lambda e: e["log_ml"]), trace, n_failed


def fit(problem: EstimationProblem, grid: SamplingGrid, search: SearchConfig) -> ImpulseResponseEstimate:
    """Tune hyperparameters, then compute the posterior-mean coefficients.

    The data are folded once; the tuner and the final posterior mean both
    read the same Phi'Phi, Phi'y and y'y.  ``diagnostics["trace"]`` lists
    every candidate the tuner evaluated; ``n_failed`` counts those whose
    prior or posterior system was numerically singular.
    """
    if grid.n != problem.order:
        raise DimensionMismatch(f"grid has {grid.n} points but the FIR order is {problem.order}")
    stats = _fold(toeplitz_regressor(problem.u, problem.order), problem.y, grid)
    best, trace, n_failed = _tune(stats, grid, search, problem.sigma2)
    spec = KernelSpec(family=search.family, c=best["c"], beta=best.get("beta"))
    return ImpulseResponseEstimate(
        coefficients=_posterior_mean(stats, best["sigma2"], spec, grid),
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
