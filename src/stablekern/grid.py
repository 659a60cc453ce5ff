"""Sampling grids: strictly increasing, nonnegative time instants.

A grid is the shared domain object for every kernel operation in this
package.  Grids are immutable; the stored time array is read-only.  A grid
also holds one slot for :mod:`stablekern.kernels`: the Markov chain of the
last kernel asked of it, so that repeated closed forms on one grid share
that chain.

Grid files, and every other table the command line reads, share one text
grammar: '#' starts a comment, lines left blank are skipped, and cells are
split on ','.  A cell is any Python float literal, with blanks around it
allowed; an empty or blank cell is skipped.
"""

from __future__ import annotations

import os
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import IO, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import Empty, InvalidParameter, NegativeTime, NonIncreasing, _check_count, _is_real, _real_array

__all__ = ["SamplingGrid", "make_grid", "uniform_grid", "read_grid_file", "parse_grid_lines"]


@dataclass(frozen=True, eq=False)
class SamplingGrid:
    """Finite sequence of time instants t1 < t2 < ... < tn with t1 >= 0."""

    times: np.ndarray = field(repr=False)
    # The chain of the last kernel asked of this grid, kept by kernels._chain.
    _chain: object = field(default=None, init=False, repr=False, compare=False)

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


@contextmanager
def _open_text(path: Union[str, os.PathLike]) -> Iterator[IO[str]]:
    """``path`` open as UTF-8 text; a byte read from it that does not decode raises InvalidParameter naming it."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise InvalidParameter(f"{path}: not UTF-8 text ({exc.reason}: 0x{exc.object[exc.start]:02x})") from None


def _data_lines(lines: Iterable[str]) -> Iterator[Tuple[int, str]]:
    """(line number, text) of each line of an input file that holds data.

    '#' starts a comment; lines left blank once it is cut are skipped.
    """
    for lineno, raw in enumerate(lines, start=1):
        text = raw.split("#", 1)[0].strip()
        if text:
            yield lineno, text


def _parse_rows(lines: Iterable[str], name: str, width: Optional[int] = None, skip: int = 0,
                ragged: bool = False) -> List[List[float]]:
    """The numbers on each data line after line ``skip`` of a table, one row per line.

    Each row holds ``width`` numbers (by default as many as the first row)
    unless the table is ``ragged``.  A line that breaks the grammar raises
    InvalidParameter naming ``name`` and the line.
    """
    rows = []
    for lineno, text in _data_lines(lines):
        if lineno <= skip:
            continue
        try:
            row = [float(cell) for cell in map(str.strip, text.split(",")) if cell]
        except ValueError:
            raise InvalidParameter(f"{name}: line {lineno} is not numeric CSV") from None
        if not ragged:
            width = len(row) if width is None else width
            if len(row) != width:
                raise InvalidParameter(f"{name}: line {lineno} is {len(row)} wide, not {width}")
        rows.append(row)
    return rows


def _read_table(path: Union[str, os.PathLike], header: Optional[str] = None,
                width: Optional[int] = None) -> np.ndarray:
    """The rows of a table file as a 2-D float64 array.

    With a ``header`` (such as ``"u,y"``), the first data line must name the
    columns, blanks and case aside.  numpy's C parser reads a well-formed
    table; whatever it refuses (blank cells, blank or indented comment lines,
    ``1_0``, non-ASCII digits, a row of the wrong width, no rows at all) is
    read again by :func:`_parse_rows`, which names the first bad line.  Both
    convert a cell with CPython's ``PyOS_string_to_double``, so a table
    either accepts reads to the same bits.
    """
    skip = 0
    if header is not None:
        with _open_text(path) as fh:
            skip, text = next(_data_lines(fh), (0, ""))
        if not skip:
            raise InvalidParameter(f"{path}: empty data file")
        if [cell.strip().lower() for cell in text.split(",")] != header.split(","):
            raise InvalidParameter(f"{path}: expected header {header!r}, got {text!r}")
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # "input contained no data" takes the quiet path below
            table = np.loadtxt(path, delimiter=",", comments="#", ndmin=2, encoding="utf-8", skiprows=skip)
        if width in (None, table.shape[1]):
            return table
    except (ValueError, Warning):  # a UnicodeDecodeError too: the reread below reports it
        pass
    with _open_text(path) as fh:
        rows = _parse_rows(fh, str(path), width, skip)
    if rows:
        return np.array(rows, dtype=float)
    if width is None:
        raise InvalidParameter(f"{path}: no numeric rows")
    return np.empty((0, width))


def parse_grid_lines(lines: Iterable[str]) -> SamplingGrid:
    """Parse a grid from text: one time per data line, in the table grammar of this module."""
    return make_grid(np.array(_parse_rows(lines, "grid", width=1)))


def read_grid_file(path: Union[str, os.PathLike]) -> SamplingGrid:
    return make_grid(_read_table(path, width=1)[:, 0])
