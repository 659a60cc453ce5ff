"""Closed-form structure of Wiener and SS-1 Gram matrices.

Both Gram matrices are the Markov chain c * min(phi_i, phi_j) of
:mod:`stablekern.kernels`, so everything here follows, with no
elimination, from the chain's independent increments c * delta_k: a
tridiagonal inverse, the log-determinant sum of ln(c * delta_k), an
upper bidiagonal factor F with F.T @ F == inverse(P) (so applying the
precision is two O(n) sweeps) and a closed-form upper-triangular square
root U with U @ U.T == P.

Everything here is exact algebra on the increments; there is no
iteration and no tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch
from .grid import SamplingGrid
from .kernels import _MIN_SCALE, KernelSpec, _Chain, _regular

__all__ = [
    "TridiagonalMatrix",
    "UpperBidiagonal",
    "StructuredSqrt",
    "closed_form_inverse",
    "log_det",
    "precision_factor",
    "sqrt_factor",
    "apply_precision",
]


@dataclass(frozen=True, eq=False)
class TridiagonalMatrix:
    """Symmetric tridiagonal matrix: diagonal plus one shared off-diagonal."""

    diag: np.ndarray
    offdiag: np.ndarray

    def __post_init__(self) -> None:
        if self.offdiag.shape != (self.diag.shape[0] - 1,):
            raise DimensionMismatch(
                f"offdiag must have length n-1, got {self.offdiag.shape[0]} for n={self.diag.shape[0]}"
            )

    @property
    def n(self) -> int:
        return self.diag.shape[0]

    def to_dense(self) -> np.ndarray:
        out = np.diag(self.diag)
        idx = np.arange(self.n - 1)
        out[idx, idx + 1] = self.offdiag
        out[idx + 1, idx] = self.offdiag
        return out


@dataclass(frozen=True, eq=False)
class UpperBidiagonal:
    """Upper bidiagonal matrix: main diagonal plus first superdiagonal."""

    diag: np.ndarray
    super: np.ndarray

    def __post_init__(self) -> None:
        if self.super.shape != (self.diag.shape[0] - 1,):
            raise DimensionMismatch(
                f"super must have length n-1, got {self.super.shape[0]} for n={self.diag.shape[0]}"
            )

    @property
    def n(self) -> int:
        return self.diag.shape[0]

    def to_dense(self) -> np.ndarray:
        out = np.diag(self.diag)
        idx = np.arange(self.n - 1)
        out[idx, idx + 1] = self.super
        return out


@dataclass(frozen=True, eq=False)
class StructuredSqrt:
    """Upper-triangular square root of a Gram matrix, stored implicitly.

    Only the n column scales are kept: inv_diag[j] = sqrt(c * rho_j *
    |phi_{j+1} - phi_j|) and inv_diag[n] = sqrt(c * phi_n), the standard
    deviations of the precision factor's rows (so they equal
    1 / precision_factor(...).diag up to rounding, but are formed with no
    reciprocal).
    The dense triangle is materialized on demand as
    U[i, j] = (min(phi_i, phi_j) / phi_j) * inv_diag[j] for i <= j, which
    is constant down each SS-1 column.
    """

    spec: KernelSpec
    grid: SamplingGrid
    inv_diag: np.ndarray = field(repr=False)

    @property
    def n(self) -> int:
        return self.grid.n

    def unit_triangle(self) -> np.ndarray:
        """The unit upper triangle W with U = W diag(inv_diag).

        W[i, j] = min(phi_i, phi_j) / phi_j for i <= j: t_i / t_j for
        Wiener, exactly 1 for SS-1, taken as such, with no division by a
        clock that may underflow.  It depends on neither c nor beta, so
        those move only the column scales inv_diag.
        """
        chain = _Chain(self.spec, self.grid.times)
        if not chain.rising:
            return np.triu(np.ones((self.n, self.n)))
        t = chain.clock
        return np.triu(t[:, None] / t)

    def to_dense(self) -> np.ndarray:
        return self.unit_triangle() * self.inv_diag


def closed_form_inverse(spec: KernelSpec, grid: SamplingGrid) -> TridiagonalMatrix:
    """Tridiagonal inverse of the Gram matrix, in closed form.

    With r_k = 1/(c*delta_k) in chain order (from the end where the
    clock vanishes), the diagonal is (r_1 + r_2, ..., r_{n-1} + r_n, r_n)
    and the off-diagonal (-r_2, ..., -r_n), both read back in grid order.
    Raises SingularGram where an entry would not be a finite float.
    """
    chain = _Chain(spec, grid.times)
    r = chain.scaled_steps()
    np.divide(1.0, r, out=r)
    r = r[chain.order]
    diag = np.empty(grid.n)
    offdiag = np.empty(grid.n - 1)
    d = diag[chain.order]
    d[:] = r
    d[:-1] += r[1:]
    np.negative(r[1:], out=offdiag[chain.order])
    return TridiagonalMatrix(diag=diag, offdiag=offdiag)


def log_det(spec: KernelSpec, grid: SamplingGrid) -> float:
    """ln det of the Gram matrix: sum ln(c * delta_k), the increments multiply.

    Each term is formed in the log domain (SS-1:
    ln delta_k = -beta*t_k + ln(-expm1(-beta*(t_{k+1} - t_k))) and
    ln delta_n = -beta*t_n), so it stays finite where the increments or
    the raw determinant underflow a double.
    """
    return _Chain(spec, grid.times).log_det()


def precision_factor(spec: KernelSpec, grid: SamplingGrid) -> UpperBidiagonal:
    """Upper bidiagonal F with F.T @ F equal to the Gram inverse.

    Row i < n is the law of point i given point i+1: mean rho_i times
    that point, rho_i = min(phi_i, phi_{i+1}) / phi_{i+1} (1 for SS-1,
    t_i / t_{i+1} for Wiener), variance rho_i * c * |phi_{i+1} - phi_i|;
    row n is the marginal law, variance c * phi_n.  So F(i, i) =
    1/sqrt(variance_i) > 0, which fixes F, and F(i, i+1) = -rho_i * F(i, i).
    """
    chain = _Chain(spec, grid.times)
    phi = chain.clock
    rho = phi[:-1] / phi[1:] if chain.rising else 1.0
    diag = np.empty(grid.n)
    head = diag[:-1]  # 1 / sqrt(rho * c * |phi_{i+1} - phi_i|), formed in place
    # c * |phi_{i+1} - phi_i| is every scaled step but the one at the vanishing end.
    np.multiply(chain.scaled_steps()[chain.order][1:][chain.order], rho, out=head)
    np.sqrt(head, out=head)
    np.divide(1.0, head, out=head)
    # c * phi_n can overflow (Wiener c * t_n) where its reciprocal root does not.
    last = spec.c * float(phi[-1])
    diag[-1] = 1.0 / (math.sqrt(last) if last < math.inf else math.sqrt(spec.c) * math.sqrt(phi[-1]))
    sup = rho * head
    np.negative(sup, out=sup)
    return UpperBidiagonal(diag=diag, super=sup)


def sqrt_factor(spec: KernelSpec, grid: SamplingGrid) -> StructuredSqrt:
    """Closed-form upper-triangular U with U @ U.T equal to the Gram matrix.

    Each column scale sqrt(c * rho_j * |phi_{j+1} - phi_j|) is a product
    of square roots, with no reciprocal: SS-1 exp(-beta*t_j / 2) *
    sqrt(c) * sqrt(rel_j), Wiener (sqrt(t_j) / sqrt(t_{j+1})) *
    sqrt(rel_{j+1}) * sqrt(c) and sqrt(t_n) * sqrt(c).  Each product
    starts from a normal float (for Wiener, when every time is above
    1e-307), and each later factor either keeps it normal or is at most 1,
    so a scale at or above the smallest normal float 2.2e-308 had no
    subnormal intermediate and keeps full precision.  Raises SingularGram
    where a scale is zero (Wiener t1 = 0), not finite or below 2.2e-308,
    or where exp(-beta*t_n / 2) is (SS-1 beta*t_n above about 1416.8,
    twice the precision factor's reach, whatever c).
    """
    chain = _Chain(spec, grid.times)
    message = ("a square-root column scale is zero, subnormal or not finite (Wiener needs t1 > 0, "
               "SS-1 needs exp(-beta*t_n/2) and sqrt(c*delta_j) >= 2.2e-308)")
    with np.errstate(over="ignore"):
        if chain.rising:
            root = np.sqrt(chain.clock)
            root[:-1] /= root[1:]
            root[:-1] *= np.sqrt(chain.rel[1:])
            root *= math.sqrt(spec.c)
        else:
            root = chain.log_scale * 0.5
            np.exp(root, out=root)
            _regular(root[-1:], _MIN_SCALE, message)  # the smallest: every root of the clock is normal
            root *= math.sqrt(spec.c)
            root *= np.sqrt(chain.rel)
    return StructuredSqrt(spec=spec, grid=grid, inv_diag=_regular(root, _MIN_SCALE, message))


def apply_precision(factor: UpperBidiagonal, v: np.ndarray) -> np.ndarray:
    """Multiply the Gram inverse into a vector in O(n): F.T @ (F @ v)."""
    x = np.asarray(v, dtype=float)
    if x.shape != (factor.n,):
        raise DimensionMismatch(f"expected a vector of length {factor.n}, got shape {x.shape}")
    u = factor.diag * x
    u[:-1] += factor.super * x[1:]
    out = factor.diag * u
    out[1:] += factor.super * u[:-1]
    return out
