"""Closed-form structure of Wiener and SS-1 Gram matrices.

Both Gram matrices are the Markov chain c * min(phi_i, phi_j) of
:mod:`stablekern.kernels`, so everything here follows, with no
elimination, from the chain.  Its independent increments c * delta_k
give the tridiagonal inverse and the log-determinant sum of
ln(c * delta_k).  Its backward conditional law, point i given point
i+1, gives both factors, from one factorization: the closed-form
upper-triangular square root U with U @ U.T == P, and its exact inverse,
the upper bidiagonal F = U^{-1} with F.T @ F == inverse(P) (so applying
the precision is two O(n) sweeps).  The factors exist on one domain,
where the chain's roots are normal floats.

Everything here is exact algebra on the chain; there is no iteration
and no tolerance.  The kernel family is read only by the chain.  A grid
keeps the chain of the last kernel asked of it, so the closed forms of one
kernel on one grid form its clock and steps once; every array they return
is new, never a view of that chain.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, InvalidParameter, _real_array
from .grid import SamplingGrid
from .kernels import KernelSpec, _chain, _unit_triangle

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


def _banded(matrix, off: str) -> None:
    """Store a band's diagonal and off-diagonal as float arrays; they must be vectors of lengths n and n-1."""
    diag, band = _real_array(matrix.diag, "diag"), _real_array(getattr(matrix, off), off)
    if diag.ndim != 1 or band.shape != (diag.size - 1,):
        raise DimensionMismatch(f"diag and {off} must be vectors of lengths n and n-1, "
                                f"got shapes {diag.shape} and {band.shape}")
    object.__setattr__(matrix, "diag", diag)
    object.__setattr__(matrix, off, band)


@dataclass(frozen=True, eq=False)
class TridiagonalMatrix:
    """Symmetric tridiagonal matrix: diagonal plus one shared off-diagonal."""

    diag: np.ndarray
    offdiag: np.ndarray

    def __post_init__(self) -> None:
        _banded(self, "offdiag")

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
        _banded(self, "super")

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
    |phi_{j+1} - phi_j|) and inv_diag[n] = sqrt(c * phi_n), the chain's
    roots, the standard deviations of its backward law.  The precision
    factor is the inverse of this U: its diagonal is 1 / inv_diag, bit
    for bit.
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
        Wiener, exactly 1 for SS-1.  It depends on neither c nor beta, so
        those move only the column scales inv_diag.
        """
        return _unit_triangle(self.spec.family, self.grid.times)

    def to_dense(self) -> np.ndarray:
        return self.unit_triangle() * self.inv_diag


def closed_form_inverse(spec: KernelSpec, grid: SamplingGrid) -> TridiagonalMatrix:
    """Tridiagonal inverse of the Gram matrix, in closed form.

    With r_k = 1/(c*delta_k) in chain order (from the end where the
    clock vanishes), the diagonal is (r_1 + r_2, ..., r_{n-1} + r_n, r_n)
    and the off-diagonal (-r_2, ..., -r_n), both read back in grid order.
    Raises SingularGram where an entry would not be a finite float.
    """
    chain = _chain(spec, grid)
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
    return _chain(spec, grid).log_det()


def precision_factor(spec: KernelSpec, grid: SamplingGrid) -> UpperBidiagonal:
    """Upper bidiagonal F with F.T @ F equal to the Gram inverse: the exact inverse of :func:`sqrt_factor`.

    Row i < n is the law of point i given point i+1: mean rho_i times
    that point, rho_i = min(phi_i, phi_{i+1}) / phi_{i+1} (1 for SS-1,
    t_i / t_{i+1} for Wiener), standard deviation root_i; row n is the
    marginal law, standard deviation root_n = sqrt(c * phi_n).  So
    F(i, i) = 1 / root_i > 0, which fixes F, and F(i, i+1) = -rho_i * F(i, i)
    (exactly -F(i, i) for SS-1).  The roots are the square root's column
    scales, so F exists exactly where U does, raising the same
    SingularGram elsewhere; a root is at least 2.2e-308, so F's entries
    are at most 4.5e307.
    """
    chain = _chain(spec, grid)
    diag = 1.0 / chain.roots()
    return UpperBidiagonal(diag=diag, super=-chain.rho * diag[:-1])


def sqrt_factor(spec: KernelSpec, grid: SamplingGrid) -> StructuredSqrt:
    """Closed-form upper-triangular U with U @ U.T equal to the Gram matrix.

    U = W diag(inv_diag): W is the chain's unit triangle, and the column
    scales are its roots, the standard deviations of its backward law,
    each a product of square roots with no reciprocal (see
    ``_Chain.roots`` in :mod:`stablekern.kernels`).  Raises SingularGram
    where a scale is zero (Wiener t1 = 0), not finite or below 2.2e-308,
    or where exp(-beta*t_n / 2) is (SS-1 beta*t_n above about 1416.8,
    whatever c).
    """
    return StructuredSqrt(spec=spec, grid=grid, inv_diag=_chain(spec, grid).roots())


def apply_precision(factor: UpperBidiagonal, v: np.ndarray) -> np.ndarray:
    """Multiply the Gram inverse into a vector in O(n): F.T @ (F @ v).

    Raises InvalidParameter when v is not finite, or when F @ v or
    F.T @ F @ v leaves the float range: a factor's entries reach 4.5e307.
    """
    x = _real_array(v, "v")
    if x.shape != (factor.n,):
        raise DimensionMismatch(f"expected a vector of length {factor.n}, got shape {x.shape}")
    with np.errstate(over="ignore", invalid="ignore"):
        u = factor.diag * x
        # out after u: with glibc's malloc, out first took twice the page faults
        # per markov-1e6 benchmark op, and 10-18% more time.
        out = np.empty(factor.n)
        u[:-1] += np.multiply(factor.super, x[1:], out=out[:-1])
        np.multiply(factor.diag, u, out=out)
        out[1:] += np.multiply(factor.super, u[:-1], out=u[:-1])
    if not np.isfinite(out).all():
        raise InvalidParameter("apply_precision needs a finite vector v, with F'F v in the float range")
    return out
