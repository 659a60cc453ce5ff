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

import math
from dataclasses import dataclass, field
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
)
from .grid import SamplingGrid
from .kernels import SS1, WIENER, KernelSpec
from .structure import closed_form_inverse, log_det

__all__ = [
    "EstimationProblem",
    "SearchConfig",
    "TuneResult",
    "ImpulseResponseEstimate",
    "toeplitz_regressor",
    "posterior_mean",
    "log_marginal_likelihood",
    "tune_hyperparameters",
    "fit",
]

_LOG_2PI = math.log(2.0 * math.pi)


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
        if self.order < 1:
            raise InvalidParameter(f"FIR order must be >= 1, got {self.order}")
        if self.order > u.shape[0]:
            raise OrderTooLarge(f"FIR order {self.order} exceeds the {u.shape[0]} data samples")
        if self.sigma2 is not None and not (math.isfinite(self.sigma2) and self.sigma2 > 0):
            raise InvalidParameter(f"sigma2 must be finite and > 0 when fixed, got {self.sigma2!r}")

    @property
    def n_samples(self) -> int:
        return self.u.shape[0]


def toeplitz_regressor(u: np.ndarray, order: int) -> np.ndarray:
    """N x n Toeplitz matrix with Phi[k, j] = u[k - j], zero above the diagonal."""
    uu = np.asarray(u, dtype=float).reshape(-1)
    if order < 1:
        raise InvalidParameter(f"FIR order must be >= 1, got {order}")
    if order > uu.shape[0]:
        raise OrderTooLarge(f"FIR order {order} exceeds the {uu.shape[0]} data samples")
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
    return _DataStats(gram=phi.T @ phi, cross=phi.T @ y, yy=y @ y, n_data=y.shape[0])


def _posterior_factor(stats: _DataStats, sigma2: float, spec: KernelSpec, grid: SamplingGrid):
    """Cholesky factor of A = P^{-1} + Phi'Phi/sigma2, from the folded data: O(n^3)."""
    if not (math.isfinite(sigma2) and sigma2 > 0):
        raise InvalidParameter(f"sigma2 must be finite and > 0, got {sigma2!r}")
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
    return scipy.linalg.cho_solve(cho, stats.cross / sigma2)


def _log_ml(stats: _DataStats, sigma2: float, spec: KernelSpec, grid: SamplingGrid) -> float:
    import scipy.linalg

    cho = _posterior_factor(stats, sigma2, spec, grid)
    b = stats.cross
    ldet_a = 2.0 * float(np.sum(np.log(np.diag(cho[0]))))
    ldet_cov = log_det(spec, grid) + ldet_a + stats.n_data * math.log(sigma2)
    quad = (stats.yy - b @ scipy.linalg.cho_solve(cho, b) / sigma2) / sigma2
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


def _as_axis(values) -> Tuple[float, ...]:
    return tuple(float(v) for v in np.asarray(values, dtype=float).reshape(-1))


@dataclass(frozen=True)
class SearchConfig:
    """Candidate grids for hyperparameter tuning, plus refinement policy.

    ``beta_grid`` is required for the SS-1 family and ignored for
    Wiener; ``sigma2_grid`` is used only when the problem leaves the
    noise variance free.  Refinement runs a Nelder-Mead simplex in
    log-parameter space from the best grid point.
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
        object.__setattr__(self, "c_grid", _as_axis(self.c_grid))
        if self.beta_grid is not None:
            object.__setattr__(self, "beta_grid", _as_axis(self.beta_grid))
        if self.sigma2_grid is not None:
            object.__setattr__(self, "sigma2_grid", _as_axis(self.sigma2_grid))
        for name in ("c_grid", "beta_grid", "sigma2_grid"):
            values = getattr(self, name)
            if values is not None and any(not (math.isfinite(v) and v > 0) for v in values):
                raise InvalidParameter(f"{name} values must be finite and > 0")

    @staticmethod
    def _log_axis(lo: float, hi: float, num: int) -> Tuple[float, ...]:
        if num < 1 or not (0 < lo <= hi):
            raise InvalidParameter(f"bad axis: min={lo!r}, max={hi!r}, num={num!r}")
        if num == 1:
            return (float(lo),)
        return tuple(np.exp(np.linspace(math.log(lo), math.log(hi), num)))

    @classmethod
    def from_dict(cls, d: dict, family: str) -> "SearchConfig":
        """Build from JSON-style axes {"c": {"min": .., "max": .., "num": ..}, ...}."""
        if not isinstance(d, dict):
            raise InvalidParameter("search config must be a JSON object")
        known = {"c", "beta", "sigma2", "refine", "refine_maxiter"}
        extra = set(d) - known
        if extra:
            raise InvalidParameter(f"unknown search config keys: {sorted(extra)}")

        def axis(key):
            spec = d.get(key)
            if spec is None:
                return None
            if not isinstance(spec, dict) or not {"min", "max", "num"} <= set(spec):
                raise InvalidParameter(f"axis {key!r} needs min, max and num")
            return cls._log_axis(float(spec["min"]), float(spec["max"]), int(spec["num"]))

        if "c" not in d:
            raise InvalidParameter("search config is missing the 'c' axis")
        return cls(
            family=family,
            c_grid=axis("c"),
            beta_grid=axis("beta"),
            sigma2_grid=axis("sigma2"),
            refine=bool(d.get("refine", True)),
            refine_maxiter=int(d.get("refine_maxiter", 200)),
        )


@dataclass(frozen=True)
class TuneResult:
    spec: KernelSpec
    sigma2: float
    log_ml: float
    trace: Tuple[dict, ...]
    n_failed: int


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


def tune_hyperparameters(problem: EstimationProblem, grid: SamplingGrid, search: SearchConfig) -> TuneResult:
    """Maximize the log marginal likelihood over the search space.

    Every candidate evaluated (grid points and simplex iterates) is
    recorded in the trace, and the returned optimum is the argmax over
    the whole trace.  A candidate whose prior or posterior system is
    numerically singular counts in ``n_failed``.  When every grid
    candidate fails, the error raised has the type of the last candidate
    error (``NotPositiveDefinite`` if none raised).  Deterministic given
    the inputs.
    """
    return _tune(problem, grid, search)[0]


def _tune(problem: EstimationProblem, grid: SamplingGrid, search: SearchConfig) -> Tuple[TuneResult, _DataStats]:
    """Tune from the data folded once; also return the folded data."""
    if grid.n != problem.order:
        raise DimensionMismatch(f"grid has {grid.n} points but the FIR order is {problem.order}")
    if len(search.c_grid) == 0:
        raise EmptySearchSpace("c grid is empty")
    tune_beta = search.family == SS1
    if tune_beta and not search.beta_grid:
        raise EmptySearchSpace("SS-1 tuning needs a nonempty beta grid")
    tune_sigma2 = problem.sigma2 is None
    if tune_sigma2 and not search.sigma2_grid:
        raise EmptySearchSpace("sigma2 is free but the sigma2 grid is empty")

    stats = _fold(toeplitz_regressor(problem.u, problem.order), problem.y, grid)
    trace: list = []
    failures = [0]
    last_error: list = [None]

    def evaluate(c: float, beta: Optional[float], sigma2: float) -> float:
        try:
            spec = KernelSpec(family=search.family, c=c, beta=beta)
            value = _log_ml(stats, sigma2, spec, grid)
        except (InvalidParameter, NotPositiveDefinite, SingularGram, OverflowError) as exc:
            failures[0] += 1
            last_error[0] = exc
            return -math.inf
        if not math.isfinite(value):
            failures[0] += 1
            return -math.inf
        entry = {"c": float(c), "sigma2": float(sigma2), "log_ml": float(value)}
        if tune_beta:
            entry["beta"] = float(beta)
        trace.append(entry)
        return value

    beta_axis = search.beta_grid if tune_beta else (None,)
    sigma2_axis = search.sigma2_grid if tune_sigma2 else (problem.sigma2,)
    for c in search.c_grid:
        for beta in beta_axis:
            for sigma2 in sigma2_axis:
                evaluate(c, beta, sigma2)
    if not trace:
        message = "no search candidate produced a finite log marginal likelihood"
        if isinstance(last_error[0], StableKernError):
            raise type(last_error[0])(f"{message}; last failure: {last_error[0]}")
        raise NotPositiveDefinite(message)

    if search.refine:
        import scipy.optimize

        best = max(trace, key=lambda e: e["log_ml"])
        x0 = [math.log(best["c"])]
        if tune_beta:
            x0.append(math.log(best["beta"]))
        if tune_sigma2:
            x0.append(math.log(best["sigma2"]))

        def objective(theta: np.ndarray) -> float:
            if np.any(theta > 700.0):
                failures[0] += 1
                return math.inf
            params = list(np.exp(theta))
            c = params.pop(0)
            beta = params.pop(0) if tune_beta else None
            sigma2 = params.pop(0) if tune_sigma2 else problem.sigma2
            return -evaluate(c, beta, sigma2)

        scipy.optimize.minimize(
            objective,
            np.asarray(x0),
            method="Nelder-Mead",
            options={"maxiter": search.refine_maxiter, "xatol": 1e-6, "fatol": 1e-9},
        )

    best = max(trace, key=lambda e: e["log_ml"])
    tuned = TuneResult(
        spec=KernelSpec(family=search.family, c=best["c"], beta=best.get("beta")),
        sigma2=best["sigma2"],
        log_ml=best["log_ml"],
        trace=tuple(trace),
        n_failed=failures[0],
    )
    return tuned, stats


def fit(problem: EstimationProblem, grid: SamplingGrid, search: SearchConfig) -> ImpulseResponseEstimate:
    """Tune hyperparameters, then compute the posterior-mean coefficients.

    The data are folded once; the tuner and the final posterior mean both
    read the same Phi'Phi, Phi'y and y'y.
    """
    tuned, stats = _tune(problem, grid, search)
    coefficients = _posterior_mean(stats, tuned.sigma2, tuned.spec, grid)
    diagnostics = {
        "sigma2_tuned": problem.sigma2 is None,
        "n_evaluations": len(tuned.trace),
        "n_failed": tuned.n_failed,
        "trace": list(tuned.trace),
    }
    return ImpulseResponseEstimate(
        coefficients=coefficients,
        spec=tuned.spec,
        sigma2=tuned.sigma2,
        log_ml=tuned.log_ml,
        diagnostics=diagnostics,
    )
