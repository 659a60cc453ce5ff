"""Kernel specifications, Gram matrices and the Markov-chain core.

Both kernels are K(t, s) = c * min(phi(t), phi(s)) for a monotone clock:
Wiener phi(t) = t, SS-1 phi(t) = exp(-beta*t), the exponential change of
time that turns one into the other.  On a grid either is a Wiener process
run on phi: a Gauss-Markov chain of independent increments started where
phi vanishes (before t_1 for Wiener, after t_n for SS-1).  :class:`_Chain`
holds that fact; the Gram matrix, inverse, log-determinant, factors,
sampler and audits are each written once over it.

Hyperparameters are the scale c > 0 and, for SS-1, the decay beta > 0.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional, Union

import numpy as np

from .errors import InvalidParameter, SingularGram, _check_positive, _is_finite_real
from .grid import SamplingGrid, _open_text, make_grid

__all__ = [
    "WIENER",
    "SS1",
    "KernelSpec",
    "KernelMatrix",
    "kernel_eval",
    "gram",
    "stable_increments",
    "read_kernel_file",
]

WIENER = "wiener"
SS1 = "ss1"
_FAMILIES = (WIENER, SS1)


@dataclass(frozen=True)
class KernelSpec:
    """Kernel family plus hyperparameters.

    ``beta`` must be supplied exactly when ``family`` is SS-1.  The scale
    ``c`` is strictly positive: c = 0 would make every Gram matrix
    singular, so it is rejected at construction.  Both are stored as
    Python floats, so a numpy float32 or integer hyperparameter computes
    in float64 like any other.
    """

    family: str
    c: float
    beta: Optional[float] = None

    def __post_init__(self) -> None:
        if self.family not in _FAMILIES:
            raise InvalidParameter(f"unknown kernel family {self.family!r}")
        _check_positive(self.c, "kernel scale c must be finite and > 0, got {!r}")
        object.__setattr__(self, "c", float(self.c))
        if self.family == SS1:
            _check_positive(self.beta, "SS-1 kernel needs finite beta > 0, got {!r}")
            object.__setattr__(self, "beta", float(self.beta))
        elif self.beta is not None:
            raise InvalidParameter("Wiener kernel takes no beta")

    def to_dict(self) -> dict:
        d = {"family": self.family, "c": self.c}
        if self.family == SS1:
            d["beta"] = self.beta
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "KernelSpec":
        if not isinstance(d, dict) or "family" not in d:
            raise InvalidParameter("kernel spec must be an object with a 'family' key")
        known = {"family", "c", "beta"}
        extra = set(d) - known
        if extra:
            raise InvalidParameter(f"unknown kernel spec keys: {sorted(extra)}")
        if "c" not in d:
            raise InvalidParameter("kernel spec is missing 'c'")
        return cls(family=d["family"], c=d["c"], beta=d.get("beta"))


@dataclass(frozen=True, eq=False)
class KernelMatrix:
    """Gram matrix of a kernel on a grid, exactly symmetric by assembly."""

    grid: SamplingGrid
    values: np.ndarray = field(repr=False)

    @property
    def n(self) -> int:
        return self.grid.n

    def __repr__(self) -> str:
        return f"KernelMatrix(n={self.n})"


def _json_fields(items) -> dict:
    """``dataclasses.asdict`` dict_factory: tuples become lists, as JSON reads them back."""
    return {key: list(value) if isinstance(value, tuple) else value for key, value in items}


# The largest subnormal: an SS-1 relative step or a square-root column
# scale must lie above it, or it has lost digits.
_MIN_SCALE = float(np.nextafter(np.finfo(float).tiny, 0.0))

# Bound on c*delta below which its reciprocal, or the sum of two reciprocals
# on the inverse's diagonal, would leave the float range.
_MIN_STEP = 2.0 / np.finfo(float).max


def _read_only(x: np.ndarray) -> np.ndarray:
    """x, marked read-only: a chain's arrays outlive the call that formed them."""
    x.setflags(write=False)
    return x


def _regular(x: np.ndarray, lo: float, message: str) -> np.ndarray:
    """The chain's one zero/non-finite check: x, unless an entry is NaN, infinite or not above lo."""
    if not (lo < x.min() and x.max() < math.inf):
        raise SingularGram(message)
    return x


class _Chain:
    """A kernel on a grid as the Markov chain c * min(phi_i, phi_j).

    ``clock`` is phi.  Step delta_i is the increment of phi from point i
    to its neighbour toward the end where phi vanishes (phi = 0 past it),
    kept as scale * rel, scale = exp(log_scale), each factor free of
    cancellation: Wiener scale 1, rel = t_i - t_{i-1} (t_0 = 0); SS-1
    scale phi, rel = -expm1(-beta*(t_{i+1} - t_i)), rel_n = 1.  The SS-1
    clock and rel are formed on first read (``log_det`` and
    ``sqrt_factor`` never read the clock, ``kernel_eval`` never reads
    rel).  An SS-1 chain raises SingularGram where -beta*t_n leaves the
    float range, and its rel where an entry is below the normal floats
    (beta*(t_{i+1} - t_i) < 2.2e-308, where it loses digits).
    ``order`` lists the grid from the vanishing end; ``rising`` is true
    when that end is t = 0.

    A chain keeps the n-arrays ``log_scale``, ``clock`` and ``rel`` (a
    Wiener clock is the grid's times, a Wiener log_scale the float 0),
    read-only, and nothing else: every method returns a new array.  A grid
    holds at most one chain, that of the last kernel asked of it
    (:func:`_chain`), so the closed forms and the sampler of one kernel on
    one grid form those arrays once.  Methods allocate at most one n-array each,
    ``roots`` two: the closed forms run at n = 10^6.  ``root_slopes``,
    which only the estimator's gradient reads, at the FIR order, allocates
    about eight.

    Read backward, from the last grid point down, the chain is one
    conditional law: point i given point i+1 is rho_i times it plus
    an independent N(0, roots_i^2), and point n is N(0, roots_n^2).  Both
    factors of the Gram matrix are that law, read two ways: the square
    root U = W diag(roots) and the precision factor F = U^{-1}.
    """

    def __init__(self, spec: KernelSpec, times: np.ndarray) -> None:
        self.spec = spec
        self.c = spec.c
        self.beta = spec.beta
        self.times = times
        self.rising = spec.family == WIENER
        if self.rising:
            self.clock = times
            self.log_scale = 0.0
            self.rel = _read_only(np.diff(times, prepend=0.0))
        else:
            # A Python float product: no numpy overflow warning.  The times
            # ascend, so every other -beta*t and -beta*dt is finite too.
            if spec.beta * float(times[-1]) == math.inf:
                raise SingularGram("the SS-1 log clock -beta*t_n leaves the float range: beta*t_n must be "
                                   "below 1.8e308")
            self.log_scale = _read_only(-spec.beta * times)
        self.order = slice(None) if self.rising else slice(None, None, -1)

    @cached_property
    def clock(self) -> np.ndarray:
        """The SS-1 clock exp(-beta*t); a Wiener chain sets its times."""
        return _read_only(np.exp(self.log_scale))

    @cached_property
    def rel(self) -> np.ndarray:
        """The SS-1 relative steps; a Wiener chain sets its time differences."""
        rel = np.empty(self.times.shape[0])
        rel[-1] = 1.0
        head = rel[:-1]
        np.subtract(self.times[1:], self.times[:-1], out=head)
        head *= -self.beta
        np.expm1(head, out=head)
        np.negative(head, out=head)
        return _read_only(_regular(rel, _MIN_SCALE, "an SS-1 relative step -expm1(-beta*(t_{i+1} - t_i)) is "
                                                    "subnormal or zero: beta*(t_{i+1} - t_i) must be at least "
                                                    "2.2e-308"))

    @property
    def scale(self):
        return 1.0 if self.rising else self.clock

    def steps(self) -> np.ndarray:
        return self.scale * self.rel

    def scaled_steps(self) -> np.ndarray:
        """c * delta, the increments' variances, whose reciprocals are the chain's precisions."""
        cd = self.steps()
        with np.errstate(over="ignore"):
            cd *= self.c
        return _regular(cd, _MIN_STEP, "a chain increment c*delta is zero, too small to invert or "
                                       "too large (Wiener needs t1 > 0, SS-1 needs c*exp(-beta*t_n) > 1e-308)")

    @property
    def rho(self):
        """Backward regression coefficients min(phi_i, phi_{i+1}) / phi_{i+1}: t_i / t_{i+1}, SS-1 1.0."""
        return self.clock[:-1] / self.clock[1:] if self.rising else 1.0

    def roots(self) -> np.ndarray:
        """The backward law's standard deviations sqrt(c * rho_j * |phi_{j+1} - phi_j|), sqrt(c * phi_n).

        Each is a product of square roots, with no reciprocal: SS-1
        exp(-beta*t_j / 2) * sqrt(c) * sqrt(rel_j), Wiener (sqrt(t_j) /
        sqrt(t_{j+1})) * sqrt(rel_{j+1}) * sqrt(c) and sqrt(t_n) * sqrt(c).
        Each product starts from a normal float (for Wiener, when every
        time is above 1e-307), and each later factor either keeps it normal
        or is at most 1, so a root at or above the smallest normal float
        2.2e-308 had no subnormal intermediate and keeps full precision.
        Raises SingularGram where a root is zero (Wiener t1 = 0), not finite
        or below 2.2e-308, or where exp(-beta*t_n / 2) is (SS-1 beta*t_n
        above about 1416.8, whatever c).
        """
        message = ("a square-root column scale is zero, subnormal or not finite (Wiener needs t1 > 0, "
                   "SS-1 needs exp(-beta*t_n/2) and sqrt(c*delta_j) >= 2.2e-308)")
        with np.errstate(over="ignore"):
            if self.rising:
                root = np.sqrt(self.clock)
                root[:-1] /= root[1:]
                root[:-1] *= np.sqrt(self.rel[1:])
                root *= math.sqrt(self.c)
            else:
                root = self.log_scale * 0.5
                np.exp(root, out=root)
                _regular(root[-1:], _MIN_SCALE, message)  # the smallest: every root of the clock is normal
                root *= math.sqrt(self.c)
                root *= np.sqrt(self.rel)
        return _regular(root, _MIN_SCALE, message)

    def root_slopes(self) -> np.ndarray:
        """An SS-1 chain's d ln roots_j / d beta: -t_j/2 + dt_j / (2 expm1(beta*dt_j)), and -t_n/2.

        Past beta*dt_j ~ 709.8 expm1 overflows and the second term is 0,
        below half a unit in the last place of t_j / 2.  A Wiener chain's
        roots do not depend on beta.
        """
        dt = np.diff(self.times)
        with np.errstate(over="ignore"):
            return np.append(dt / (2.0 * np.expm1(self.beta * dt)), 0.0) - 0.5 * self.times

    def scaled(self, phi):
        """c * phi for clock values phi, the Gram entries: Wiener c * t can overflow where each c * delta does not."""
        with np.errstate(over="ignore"):
            cphi = self.c * phi
        return _regular(cphi, -math.inf, "a Gram entry c*min(phi_i, phi_j) leaves the float range "
                                         "(Wiener needs c*t_n < 1.8e308)")

    def log_det(self) -> float:
        """The sum of ln(c * delta) = ln(c * rel) + log_scale, finite where delta underflows."""
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            logs = self.c * self.rel
            np.log(logs, out=logs)
            logs += self.log_scale
            total = logs.sum()
        return float(_regular(total, -math.inf, "a chain increment c*delta is zero or not finite (Wiener needs "
                                                "t1 > 0), or the sum of their logs leaves the float range"))


def _chain(spec: KernelSpec, grid: SamplingGrid) -> _Chain:
    """The chain of ``spec`` on ``grid``, kept on the grid until another spec is asked of it.

    A grid holds one chain: that of the last spec asked of it.  Its times
    are its own read-only copy, so that chain never goes stale.  A new spec
    drops it before building its own, so a grid never holds two.  Each
    caller returns a chain it checked or built itself, so threads sharing a
    grid may build a chain twice but never read another spec's.
    """
    chain = grid._chain
    if chain is None or chain.spec != spec:
        object.__setattr__(grid, "_chain", None)
        chain = _Chain(spec, grid.times)
        object.__setattr__(grid, "_chain", chain)
    return chain


def _unit_triangle(family: str, times: np.ndarray) -> np.ndarray:
    """The unit upper triangle W of the square root U = W diag(roots) of a kernel's Gram matrix on ``times``.

    W[i, j] = min(phi_i, phi_j) / phi_j for i <= j: t_i / t_j for Wiener,
    exactly 1 for SS-1.  It depends on neither c nor beta, so those move
    only the column scales.  Only the ratios with i <= j are formed: one
    below the diagonal can overflow.  At a Wiener t1 = 0, W[0, 0] is
    0/0, NaN, with no warning; the roots fail there.
    """
    w = np.triu(np.ones((times.size, times.size)))
    if family == WIENER:
        with np.errstate(invalid="ignore"):
            np.divide(times[:, None], times, out=w, where=w > 0.0)
    return w


def kernel_eval(spec: KernelSpec, t: float, s: float) -> float:
    """Evaluate K(t, s) = c * min(phi(t), phi(s)) at a single pair of times.

    The times obey the grid rules (:func:`~stablekern.grid.make_grid`):
    a negative time raises NegativeTime; a NaN or infinite one, or one
    that is not a real number (a bool, a string, None), InvalidParameter.
    t == s is allowed.  A value beyond the float range (Wiener c * min(t, s)
    above 1.8e308) raises SingularGram, and so does an SS-1 beta * max(t, s)
    above 1.8e308.
    """
    for name, value in (("t", t), ("s", s)):
        if not _is_finite_real(value):
            raise InvalidParameter(f"kernel_eval needs finite real times, got {name}={value!r}")
    chain = _chain(spec, make_grid(np.unique([float(t), float(s)])))
    return float(chain.scaled(chain.clock.min()))


def gram(spec: KernelSpec, grid: SamplingGrid) -> KernelMatrix:
    """Assemble the Gram matrix P with P[i, j] = c * min(phi_i, phi_j).

    Each entry is the smaller of two scaled clock values c * phi, and
    rounding is monotone, so the result is bit-exact symmetric and
    satisfies ``gram(c) == c * gram(c=1)`` elementwise.

    Raises
    ------
    SingularGram
        When a chain increment is zero or out of range, for example for
        the Wiener family when t1 = 0 (first row and column vanish), when
        an entry leaves the float range (Wiener c * t_n overflows), or
        outside the SS-1 chain's domain (beta * t_n overflows, or a step
        beta * (t_{i+1} - t_i) is below 2.2e-308).
    """
    chain = _chain(spec, grid)
    chain.scaled_steps()
    cphi = chain.scaled(chain.clock)
    values = np.minimum(cphi[:, None], cphi[None, :])
    values.setflags(write=False)
    return KernelMatrix(grid=grid, values=values)


def stable_increments(grid: SamplingGrid, beta: float) -> np.ndarray:
    """Exponential-coordinate increments of the SS-1 kernel on a grid.

    Returns the n positive values

        delta_i = exp(-beta*t_i) - exp(-beta*t_{i+1})   for i < n,
        delta_n = exp(-beta*t_n),

    the last one being the increment down to the virtual instant
    t_{n+1} = +infinity: the SS-1 chain's steps, computed as
    exp(-beta*t_i) * (-expm1(-beta*(t_{i+1} - t_i))) without cancellation.
    """
    _check_positive(beta, "stable increments need finite beta > 0, got {!r}")
    return _chain(KernelSpec(family=SS1, c=1.0, beta=beta), grid).steps()


def read_kernel_file(path: Union[str, os.PathLike]) -> KernelSpec:
    """Load a KernelSpec from a JSON file like {"family": "ss1", "c": 1.0, "beta": 0.69}."""
    with _open_text(path) as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InvalidParameter(f"kernel spec file is not valid JSON: {exc}") from None
    return KernelSpec.from_dict(payload)
