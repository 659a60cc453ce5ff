"""Sampling grids: strictly increasing, nonnegative time instants.

A grid is the shared domain object for every kernel operation in this
package.  Grids are immutable; the stored time array is read-only.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence, Tuple, Union

import numpy as np

from .errors import Empty, InvalidParameter, NegativeTime, NonIncreasing, _check_count, _is_real, _real_array

__all__ = ["SamplingGrid", "make_grid", "uniform_grid", "read_grid_file", "parse_grid_lines"]


@dataclass(frozen=True, eq=False)
class SamplingGrid:
    """Finite sequence of time instants t1 < t2 < ... < tn with t1 >= 0."""

    times: np.ndarray = field(repr=False)

    @property
    def n(self) -> int:
        return self.times.shape[0]

    def __len__(self) -> int:
        return self.n

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SamplingGrid):
            return NotImplemented
        return np.array_equal(self.times, other.times)

    def __repr__(self) -> str:
        return f"SamplingGrid(n={self.n}, t1={self.times[0]!r}, tn={self.times[-1]!r})"


def make_grid(times: Union[Sequence[float], np.ndarray]) -> SamplingGrid:
    """Validate and freeze a sequence of time instants.

    Raises
    ------
    Empty
        If ``times`` contains no entries.
    InvalidParameter
        If any entry is not a real number (a string, a complex number),
        or is NaN or infinite.
    NegativeTime
        If any entry is negative.
    NonIncreasing
        If the entries are not strictly increasing.  Duplicates are
        rejected by exact comparison; near-duplicates are the caller's
        responsibility.
    """
    t = _real_array(times, "grid times").reshape(-1)
    if t.size == 0:
        raise Empty("grid contains no time instants")
    if not np.all(np.isfinite(t)):
        raise InvalidParameter("grid times must be finite")
    if np.any(t < 0.0):
        k = int(np.argmax(t < 0.0))
        raise NegativeTime(f"grid times must be nonnegative, got t{k + 1}={float(t[k])!r}")
    if t.size > 1 and not np.all(t[1:] > t[:-1]):
        k = int(np.argmin(t[1:] > t[:-1]))
        raise NonIncreasing(f"grid times must be strictly increasing, got t{k + 2} <= t{k + 1}")
    t = t.copy()
    t.setflags(write=False)
    return SamplingGrid(t)


def uniform_grid(n: int, delta: float, t_start: float) -> SamplingGrid:
    """Grid with t_i = t_start + (i - 1) * delta for i = 1..n."""
    _check_count(n, "uniform grid needs an integer n >= 1, got {!r}")
    for name, value in (("delta", delta), ("t_start", t_start)):
        # inf is left to make_grid's finiteness check.
        if not (_is_real(value) and value > 0.0):
            raise InvalidParameter(f"uniform grid needs {name} > 0, got {value!r}")
    # make_grid rejects the non-finite times an overflow leaves behind; an
    # integer beyond the float range overflows before numpy computes any.
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            times = t_start + delta * np.arange(n, dtype=float)
    except OverflowError:
        raise InvalidParameter("grid times must be finite") from None
    return make_grid(times)


def _data_lines(lines: Iterable[str]) -> Iterator[Tuple[int, str]]:
    """(line number, text) of each line of an input file that holds data.

    '#' starts a comment; lines left blank once it is cut are skipped.
    """
    for lineno, raw in enumerate(lines, start=1):
        text = raw.split("#", 1)[0].strip()
        if text:
            yield lineno, text


def parse_grid_lines(lines: Iterable[str]) -> SamplingGrid:
    """Parse a grid from text: one decimal time per line, '#' starts a comment."""
    times = []
    for lineno, text in _data_lines(lines):
        try:
            times.append(float(text))
        except ValueError:
            raise InvalidParameter(f"line {lineno}: not a decimal time: {text!r}") from None
    return make_grid(times)


def read_grid_file(path: Union[str, os.PathLike]) -> SamplingGrid:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_grid_lines(fh)
