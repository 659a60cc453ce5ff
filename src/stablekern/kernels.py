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
from typing import Optional, Union

import numpy as np

from .errors import InvalidParameter, SingularGram, _check_positive, _is_finite_real
from .grid import SamplingGrid, make_grid

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


# Bound on c*delta below which its reciprocal, or the sum of two reciprocals
# on the inverse's diagonal, would leave the float range.
_MIN_STEP = 2.0 / np.finfo(float).max


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
    scale phi, rel = -expm1(-beta*(t_{i+1} - t_i)), rel_n = 1.  ``order``
    lists the grid from the vanishing end; ``rising`` is true when that
    end is t = 0.  Methods allocate at most one n-array each: the closed
    forms run at n = 10^6.
    """

    def __init__(self, spec: KernelSpec, times: np.ndarray) -> None:
        self.c = spec.c
        self.rising = spec.family == WIENER
        if self.rising:
            self.clock = times
            self.log_scale = 0.0
            self.scale = 1.0
            self.rel = np.diff(times, prepend=0.0)
        else:
            self.log_scale = -spec.beta * times
            self.clock = self.scale = np.exp(self.log_scale)
            self.rel = np.empty(times.shape[0])
            self.rel[-1] = 1.0
            head = self.rel[:-1]
            np.subtract(times[1:], times[:-1], out=head)
            head *= -spec.beta
            np.expm1(head, out=head)
            np.negative(head, out=head)
        self.order = slice(None) if self.rising else slice(None, None, -1)

    def steps(self) -> np.ndarray:
        return self.scale * self.rel

    def scaled_steps(self) -> np.ndarray:
        """c * delta, the increments' variances, whose reciprocals are the chain's precisions."""
        cd = self.steps()
        cd *= self.c
        return _regular(cd, _MIN_STEP, "a chain increment c*delta is zero or too small to invert "
                                       "(Wiener needs t1 > 0, SS-1 needs c*exp(-beta*t_n) > 1e-308)")

    def log_det(self) -> float:
        """The sum of ln(c * delta) = ln(c * rel) + log_scale, finite where delta underflows."""
        logs = self.c * self.rel
        with np.errstate(divide="ignore"):
            np.log(logs, out=logs)
        logs += self.log_scale
        return float(_regular(logs.sum(), -math.inf,
                              "a chain increment c*delta is zero or not finite (Wiener needs t1 > 0)"))


def kernel_eval(spec: KernelSpec, t: float, s: float) -> float:
    """Evaluate K(t, s) = c * min(phi(t), phi(s)) at a single pair of times.

    The times obey the grid rules (:func:`~stablekern.grid.make_grid`):
    a negative time raises NegativeTime; a NaN or infinite one, or one
    that is not a real number (a bool, a string, None), InvalidParameter.
    t == s is allowed.
    """
    for name, value in (("t", t), ("s", s)):
        if not _is_finite_real(value):
            raise InvalidParameter(f"kernel_eval needs finite real times, got {name}={value!r}")
    return spec.c * float(_Chain(spec, make_grid(np.unique([float(t), float(s)])).times).clock.min())


def gram(spec: KernelSpec, grid: SamplingGrid) -> KernelMatrix:
    """Assemble the Gram matrix P with P[i, j] = c * min(phi_i, phi_j).

    Each unit-scale entry is evaluated once and mirrored, then scaled by
    c, so the result is bit-exact symmetric and satisfies
    ``gram(c) == c * gram(c=1)`` elementwise.

    Raises
    ------
    SingularGram
        When a chain increment is zero or out of range, for example for
        the Wiener family when t1 = 0 (first row and column vanish).
    """
    chain = _Chain(spec, grid.times)
    chain.scaled_steps()
    phi = chain.clock
    values = spec.c * np.minimum(phi[:, None], phi[None, :])
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
    return _Chain(KernelSpec(family=SS1, c=1.0, beta=beta), grid.times).steps()


def read_kernel_file(path: Union[str, os.PathLike]) -> KernelSpec:
    """Load a KernelSpec from a JSON file like {"family": "ss1", "c": 1.0, "beta": 0.69}."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InvalidParameter(f"kernel spec file is not valid JSON: {exc}") from None
    return KernelSpec.from_dict(payload)
