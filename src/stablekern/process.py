"""Gaussian process samplers on time grids, plus Monte Carlo audits.

Both kernels are c * min(phi(t), phi(s)) for a monotone clock phi (see
:mod:`stablekern.kernels`), so a path is a sum of independent
N(0, c*delta_i) increments of the clock, accumulated from the end where
phi vanishes: left to right for Wiener (phi = t), right to left for
SS-1 (phi = exp(-beta*t)), whose last increment carries the tail
variance c*exp(-beta*t_n).  One sampler and one increment audit serve
both kernels; a path costs O(n) draws and one cumulative sum.

The exponential time transformation maps one construction onto the
other: sampling Wiener paths on the transformed grid and reversing the
column order reproduces the SS-1 law exactly.

Gaussian draws come from numpy's ``Generator.standard_normal``, a
ziggurat sampler (Marsaglia & Tsang, J. Stat. Softw. 5(8), 2000) on
PCG64 bits (algorithm id ``pcg64-ziggurat``), so a seed reproduces paths
bit-exactly across runs of the same numpy.  The module needs numpy only.
Paths are generated in one vectorized draw from a single generator; a
parallel implementation must instead derive the generator for path k
from (seed, k) to keep results deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List

import numpy as np

from .errors import (DimensionMismatch, InvalidParameter, TooFewPaths, _check_count, _check_positive, _check_seed,
                     _real_array)
from .grid import SamplingGrid, make_grid
from .kernels import SS1, WIENER, KernelSpec, _Chain, _regular

__all__ = [
    "NOISE_ALGORITHM",
    "WhiteNoiseSource",
    "PathSet",
    "TimeTransform",
    "IncrementCheck",
    "ConstraintAuditReport",
    "sample",
    "sample_wiener",
    "sample_ss1",
    "stable_time_transform",
    "audit_constraints",
]

NOISE_ALGORITHM = "pcg64-ziggurat"

_Z_LIMIT = 5.0


@dataclass(eq=False)
class WhiteNoiseSource:
    """Stream of i.i.d. N(0, variance) draws, deterministic given seed."""

    seed: int
    variance: float = 1.0
    _rng: np.random.Generator = field(init=False, repr=False)

    def __post_init__(self) -> None:
        _check_positive(self.variance, "noise variance must be finite and > 0, got {!r}")
        _check_seed(self.seed)
        self._rng = np.random.default_rng(self.seed)

    def draw(self, shape) -> np.ndarray:
        return math.sqrt(self.variance) * self._rng.standard_normal(shape)


@dataclass(frozen=True, eq=False)
class PathSet:
    """p sampled paths over a common grid, one path per row."""

    grid: SamplingGrid
    paths: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "paths", _real_array(self.paths, "paths"))
        if self.paths.ndim != 2 or self.paths.shape[1] != self.grid.n:
            raise DimensionMismatch(
                f"paths must have shape (p, {self.grid.n}), got {self.paths.shape}"
            )

    @property
    def p(self) -> int:
        return self.paths.shape[0]

    def __repr__(self) -> str:
        return f"PathSet(p={self.p}, n={self.grid.n})"


def sample(spec: KernelSpec, grid: SamplingGrid, seed, p: int) -> PathSet:
    """Sample p paths, one per row: sums of the chain's N(0, c*delta_i) increments."""
    _check_count(p, "need at least one path, got p={!r}")
    chain = _Chain(spec, grid.times)
    w = WhiteNoiseSource(seed=seed, variance=spec.c).draw((p, grid.n))
    w *= np.sqrt(chain.steps())
    return PathSet(grid=grid, paths=np.cumsum(w[:, chain.order], axis=1)[:, chain.order])


def sample_wiener(grid: SamplingGrid, c: float, seed: int, p: int) -> PathSet:
    """Sample p Wiener paths: cumulative sums of N(0, c*(t_i - t_{i-1})) increments."""
    return sample(KernelSpec(family=WIENER, c=c), grid, seed, p)


def sample_ss1(grid: SamplingGrid, c: float, beta: float, seed: int, p: int) -> PathSet:
    """Sample p SS-1 paths: right-to-left sums of exponential-coordinate increments."""
    return sample(KernelSpec(family=SS1, c=c, beta=beta), grid, seed, p)


@dataclass(frozen=True, eq=False)
class TimeTransform:
    """Exponential change of time mapping the Wiener law to the SS-1 law.

    The transformed grid holds tau_j = exp(-beta * t_{n+1-j}); reversing
    the column order of Wiener paths sampled on it (variance parameter
    c) yields paths with the SS-1 covariance on the original grid.
    """

    original: SamplingGrid
    tau: SamplingGrid
    reversal: np.ndarray = field(repr=False)

    def reverse_paths(self, ps: PathSet) -> PathSet:
        """Map paths sampled on the tau grid back onto the original grid."""
        if ps.grid != self.tau:
            raise DimensionMismatch("paths were not sampled on the transformed grid")
        return PathSet(grid=self.original, paths=np.ascontiguousarray(ps.paths[:, self.reversal]))


def stable_time_transform(grid: SamplingGrid, beta: float) -> TimeTransform:
    """Transformed grid tau_j = exp(-beta * t_{n+1-j}) with its reversal map."""
    _check_positive(beta, "time transform needs finite beta > 0, got {!r}")
    with np.errstate(over="ignore"):  # -beta*t = -inf gives tau = 0, rejected below
        tau = np.exp(-beta * grid.times[::-1])
    if tau[0] <= 0.0:
        raise InvalidParameter("beta * t_n is too large: the transformed grid underflows to 0")
    return TimeTransform(original=grid, tau=make_grid(tau), reversal=np.arange(grid.n)[::-1])


@dataclass(frozen=True)
class IncrementCheck:
    """Sample statistics of one increment against its model values."""

    index: int
    mean: float
    mean_se: float
    mean_z: float
    variance: float
    variance_target: float
    variance_se: float
    variance_z: float
    flagged: bool


@dataclass(frozen=True)
class ConstraintAuditReport:
    """Per-increment Monte Carlo audit of a path set against a kernel."""

    family: str
    n_paths: int
    checks: tuple
    max_abs_z: float
    ok: bool

    def to_dict(self) -> dict:
        """The report as JSON reads it back: the checks a list of dicts, each field in order."""
        return {**vars(self), "checks": [dict(vars(check)) for check in self.checks]}


def _z_score(deviation: float, se: float) -> float:
    if se == 0.0:
        return 0.0 if deviation == 0.0 else math.copysign(math.inf, deviation)
    return deviation / se


def audit_constraints(ps: PathSet, spec: KernelSpec) -> ConstraintAuditReport:
    """Check sampled increments against the kernel's mean and variance targets.

    The increments audited are the defining ones of the chain:
    differences between consecutive grid points taken toward the end
    where the clock vanishes (the origin for Wiener, the virtual instant
    at +infinity for SS-1), each with model mean 0 and model variance
    c*delta_i.  A check is flagged when the sample mean or sample
    variance sits more than 5 standard errors from its target.
    Non-finite paths, or paths so large that an increment variance
    leaves the float range, raise InvalidParameter; a target c*delta_i
    beyond the float range raises SingularGram.
    """
    p = ps.p
    if p < 100:
        raise TooFewPaths(f"audit needs at least 100 paths, got {p}")
    chain = _Chain(spec, ps.grid.times)
    with np.errstate(over="ignore", invalid="ignore"):
        increments = np.diff(ps.paths[:, chain.order], axis=1, prepend=0.0)[:, chain.order]
        means = increments.mean(axis=0)
        variances = increments.var(axis=0, ddof=1)
    # A non-finite path entry leaves its increments' mean non-finite; a NaN
    # statistic gives NaN z-scores, which no threshold flags.
    if not (np.all(np.isfinite(means)) and np.all(np.isfinite(variances))):
        raise InvalidParameter("paths must be finite, with increment variances in the float range")
    with np.errstate(over="ignore"):
        targets = spec.c * chain.steps()
    _regular(targets, -math.inf, "an increment variance target c*delta leaves the float range "
                                 "(Wiener needs c*(t_i - t_{i-1}) < 1.8e308)")
    mean_se = np.sqrt(targets / p)
    var_se = targets * math.sqrt(2.0 / (p - 1))
    checks: List[IncrementCheck] = []
    for k in range(ps.grid.n):
        mz = _z_score(float(means[k]), float(mean_se[k]))
        vz = _z_score(float(variances[k] - targets[k]), float(var_se[k]))
        checks.append(
            IncrementCheck(
                index=k + 1,
                mean=float(means[k]),
                mean_se=float(mean_se[k]),
                mean_z=mz,
                variance=float(variances[k]),
                variance_target=float(targets[k]),
                variance_se=float(var_se[k]),
                variance_z=vz,
                flagged=bool(abs(mz) > _Z_LIMIT or abs(vz) > _Z_LIMIT),
            )
        )
    max_abs_z = max(max(abs(c.mean_z), abs(c.variance_z)) for c in checks)
    return ConstraintAuditReport(
        family=spec.family,
        n_paths=p,
        checks=tuple(checks),
        max_abs_z=max_abs_z,
        ok=not any(c.flagged for c in checks),
    )
