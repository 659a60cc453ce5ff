"""Shared generators and norms for the test suite."""

import functools
import math
import pathlib

import numpy as np

from stablekern import SS1, WIENER, KernelSpec, PathSet, SamplingGrid, make_grid
from stablekern.kernels import _Chain


def random_grid(rng: np.random.Generator, n: int, inc_low: float = 0.1, inc_high: float = 2.0) -> SamplingGrid:
    """Grid whose first time and increments are uniform in [inc_low, inc_high]."""
    return make_grid(np.cumsum(rng.uniform(inc_low, inc_high, size=n)))


def random_spec(rng: np.random.Generator, family: str) -> KernelSpec:
    c = float(rng.uniform(0.1, 10.0))
    if family == WIENER:
        return KernelSpec(family=WIENER, c=c)
    return KernelSpec(family=SS1, c=c, beta=float(rng.uniform(0.05, 2.0)))


@functools.cache
def inverse_cdf_normals() -> dict:
    """Seed -> the stored normals of that seed's ``pcg64-inverse-cdf`` stream, in draw order.

    ``inverse_cdf_normals.txt`` holds one line per seed: the seed, then the
    ``float.hex`` of ``scipy.special.ndtri(default_rng(seed).random(k))``
    with an exact 0.0 uniform moved to the smallest subnormal first.  It
    holds exactly the draws the suite asks for.
    """
    normals = {}
    with open(pathlib.Path(__file__).with_name("inverse_cdf_normals.txt"), encoding="ascii") as fh:
        for line in fh:
            seed, *values = line.split()
            normals[int(seed)] = np.array([float.fromhex(v) for v in values])
    return normals


def inverse_cdf_paths(spec: KernelSpec, grid: SamplingGrid, seed: int, p: int) -> PathSet:
    """The paths ``sample`` drew while its normals were the inverse normal CDF of PCG64 uniforms.

    Bit for bit the sampler of algorithm ``pcg64-inverse-cdf``: the first
    p * n normals of the seed's stored stream (``random((p, n))`` is a
    prefix of the seed's uniforms), then the chain's increments summed from
    the end where its clock vanishes.  The committed file reproduces the
    pinned digest of ``TestInverseCdfPaths``, so problems built on those
    draws keep their data, and the optima recorded on them, after the
    sampler moved to numpy's normal generator.
    """
    stream = inverse_cdf_normals().get(seed, np.empty(0))
    if stream.size < p * grid.n:
        raise LookupError(f"inverse_cdf_normals.txt holds {stream.size} normals of seed {seed}; "
                          f"{p * grid.n} were asked for")
    chain = _Chain(spec, grid.times)
    w = math.sqrt(spec.c) * stream[:p * grid.n].reshape(p, grid.n)
    w *= np.sqrt(chain.steps())
    return PathSet(grid=grid, paths=np.cumsum(w[:, chain.order], axis=1)[:, chain.order])


def inf_norm(m: np.ndarray) -> float:
    """Matrix infinity norm (max absolute row sum)."""
    return float(np.max(np.sum(np.abs(np.atleast_2d(m)), axis=1)))


def mp_regression(phi, y, sigma2, spec: KernelSpec, grid: SamplingGrid, dps: int):
    """Log marginal likelihood and posterior mean of y = Phi h + e in dps-digit arithmetic.

    The float inputs are taken as exact.  With P from the exact clock,
    G = Phi'Phi, b = Phi'y and A = G P + sigma2 I (order n, no P^{-1}):
    h = P A^{-1} b, y'(Phi P Phi' + sigma2 I)^{-1} y = (y'y - b'h) / sigma2
    and ln det(Phi P Phi' + sigma2 I) = ln det A + (N - n) ln sigma2.
    Returns (log_ml as an mpf, h as a list of mpf).
    """
    import mpmath

    with mpmath.workdps(dps):
        n_data, n = np.shape(phi)
        c, s2 = mpmath.mpf(spec.c), mpmath.mpf(sigma2)
        times = [mpmath.mpf(t) for t in grid.times]
        clock = times if spec.family == WIENER else [mpmath.exp(-mpmath.mpf(spec.beta) * t) for t in times]
        p = mpmath.matrix([[c * min(a, b) for b in clock] for a in clock])
        phi_mp = mpmath.matrix([[mpmath.mpf(x) for x in row] for row in np.asarray(phi, dtype=float)])
        y_mp = mpmath.matrix([mpmath.mpf(x) for x in np.asarray(y, dtype=float)])
        g = phi_mp.T * phi_mp
        b = phi_mp.T * y_mp
        a = g * p + s2 * mpmath.eye(n)
        h = p * mpmath.lu_solve(a, b)
        yy = mpmath.fsum(v * v for v in y_mp)
        quad = (yy - mpmath.fsum(b[i] * h[i] for i in range(n))) / s2
        log_det = mpmath.log(mpmath.det(a)) + (n_data - n) * mpmath.log(s2)
        log_ml = -(n_data * mpmath.log(2 * mpmath.pi) + log_det + quad) / 2
        return log_ml, [h[i] for i in range(n)]
