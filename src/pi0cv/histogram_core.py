"""P-value samples, the non-regular partition family, and fast bin counting.

A partition of [0, 1] is encoded as (N, k, l): k regular cells of width 1/N,
one central cell spanning [k/N, l/N], and N - l regular cells of width 1/N.
Cell membership is half-open [a, b), except the cell whose right edge is 1,
which also receives values equal to 1.
"""

from __future__ import annotations

import bisect
import csv
import itertools
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .errors import (
    EmptyInput,
    InputError,
    InvalidRange,
    InvalidSample,
    MismatchedResolution,
    NonFinite,
    OutOfRange,
    TooFewValues,
)

__all__ = [
    "PValueSample",
    "PartitionSpec",
    "BinCounts",
    "GridPrefix",
    "load_sample",
    "read_pvalue_file",
    "enumerate_partitions",
    "partition_count",
    "grid_prefix",
    "bin_counts",
]

# Characters of plain text read per block.  Only a block with a skipped line
# or a fault goes through the line loop; 2^14 to 2^20 read a 1e6-line file
# alike, and a block's list and array stay small.
_BLOCK_CHARS = 1 << 16


@dataclass(frozen=True)
class PValueSample:
    """Sorted, validated vector of p-values.

    ``values`` is ascending and confined to [0, 1]; ``m >= 2`` because the
    risk formulas divide by m - 1.  Construction checks both in one pass and
    raises ``InvalidSample``; ``load_sample`` first cites the bad position.
    """

    values: np.ndarray
    m: int

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        values.flags.writeable = False
        if values.ndim != 1 or values.size != self.m or self.m < 2:
            raise InvalidSample(f"need a 1-D array of m >= 2 values, got shape "
                                f"{values.shape} with m = {self.m}")
        # written with >=, so that a NaN anywhere fails the order test
        if not (values[0] >= 0.0 and values[-1] <= 1.0 and np.all(values[1:] >= values[:-1])):
            raise InvalidSample("values must be ascending and lie in [0, 1]")


@dataclass(frozen=True)
class PartitionSpec:
    """Non-regular partition (N, k, l) with 0 <= k < l <= N."""

    n: int
    k: int
    l: int

    def __post_init__(self):
        if self.n < 1:
            raise InvalidRange(f"grid resolution must be >= 1, got {self.n}")
        if not (0 <= self.k < self.l <= self.n):
            raise InvalidRange(f"need 0 <= k < l <= N, got (N={self.n}, k={self.k}, l={self.l})")

    @property
    def dimension(self) -> int:
        """Number of cells D = k + 1 + (N - l)."""
        return self.k + 1 + (self.n - self.l)

    @property
    def lam(self) -> float:
        return self.k / self.n

    @property
    def mu(self) -> float:
        return self.l / self.n

    @property
    def central_width(self) -> float:
        return (self.l - self.k) / self.n

    def widths(self) -> np.ndarray:
        w = np.full(self.dimension, 1.0 / self.n)
        w[self.k] = self.central_width
        return w


@dataclass(frozen=True)
class BinCounts:
    """Occupancy counts per cell of a generating partition."""

    counts: np.ndarray
    total: int

    def __post_init__(self):
        object.__setattr__(self, "counts", np.asarray(self.counts, dtype=np.int64))
        self.counts.flags.writeable = False


@dataclass(frozen=True)
class GridPrefix:
    """Cumulative counts over the regular N-grid.

    ``cum[j]`` counts values strictly below j/N for j < N; ``cum[N] = m`` so
    that values equal to 1 land in the last cell.
    """

    n: int
    cum: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "cum", np.asarray(self.cum, dtype=np.int64))
        self.cum.flags.writeable = False


def load_sample(raw: Sequence[float] | np.ndarray) -> PValueSample:
    """Validate and sort a vector of p-values.

    Raises ``EmptyInput``, ``NonFinite``, ``OutOfRange`` or ``TooFewValues``.
    Reported positions refer to the original input order.
    """
    arr = np.asarray(list(raw) if not isinstance(raw, np.ndarray) else raw, dtype=float)
    if arr.ndim != 1:
        arr = arr.ravel()
    if arr.size == 0:
        raise EmptyInput("no p-values supplied")
    bad = np.nonzero(~np.isfinite(arr))[0]
    if bad.size:
        raise NonFinite(int(bad[0]))
    bad = np.nonzero((arr < 0.0) | (arr > 1.0))[0]
    if bad.size:
        raise OutOfRange(int(bad[0]), float(arr[bad[0]]))
    if arr.size < 2:
        raise TooFewValues(f"need at least 2 p-values, got {arr.size}")
    return PValueSample(values=np.sort(arr), m=int(arr.size))


def read_pvalue_file(path: str | Path, column: str | None = None) -> np.ndarray:
    """Read raw p-values from a UTF-8 file, preserving input order.

    Plain-text mode (default): one value per line, blank lines and lines
    starting with '#' ignored; lines break at LF, CR and CR LF.  CSV mode
    (``column`` given): values taken from the named column.  A leading
    byte-order mark is dropped.  Parse errors, bytes that are not UTF-8
    included, cite the 1-based line number of the file's first fault.

    Plain text is read once, about ``_BLOCK_CHARS`` of lines at a time, and
    each block is parsed by ``float``.  A block whose every line parses to a
    value in [0, 1] is kept as it is; any other block (a blank or '#' line,
    a value ``float`` refuses or one out of range) goes through
    ``_parse_rows``, which skips and words line by line with the same
    ``float``, so both give the same values.
    """
    path = Path(path)
    with _open_text(path) as fh:
        if column is None:
            return _read_plain(path, fh)
        reader = csv.reader(itertools.chain.from_iterable(_checked_blocks(path, fh)))
        header = next(reader, None)
        if header is None or column not in header:
            raise InputError(f"{path}: no column named {column!r}")
        # as in csv.DictReader: a repeated name means its last field, and
        # a row too short to reach it (a blank row too) reads as blank
        at = len(header) - 1 - header[::-1].index(column)
        # line_num is the physical line a record ends on, which counts
        # the lines of quoted fields that span several and of blank rows
        rows = ((reader.line_num, row[at]) for row in reader if len(row) > at)
        return _parse_rows(path, rows, comments=False)


def _open_text(path: str | Path):
    """Open a UTF-8 input past its BOM, with each bad byte read as a lone surrogate."""
    return open(path, newline="", encoding="utf-8-sig", errors="surrogateescape")


def _check_utf8(path: str | Path, lineno: int, text: str) -> None:
    """Raise the fault of a line that holds a byte that is not UTF-8."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        raise InputError(f"{path}:{lineno}: not valid UTF-8") from None


def _checked_blocks(path: Path, fh) -> Iterator[list[str]]:
    """The file's lines for csv.reader, in blocks checked whole: a bad byte raises at its line."""
    first = 1   # line number of the block's first line
    while lines := fh.readlines(_BLOCK_CHARS):
        try:
            "".join(lines).encode("utf-8")
        except UnicodeEncodeError as exc:
            # the lines before the bad byte's go first, so that an earlier fault is cited
            at = bisect.bisect(list(itertools.accumulate(map(len, lines))), exc.start)
            yield lines[:at]
            _check_utf8(path, first + at, lines[at])
        yield lines
        first += len(lines)


def _read_plain(path: Path, fh) -> np.ndarray:
    """Plain-text values, block by block."""
    blocks = []
    first = 1   # line number of the block's first line
    while lines := fh.readlines(_BLOCK_CHARS):
        try:
            values = np.fromiter(map(float, lines), float, len(lines))
        except ValueError:   # a bad byte's line too: float refuses a surrogate
            values = None
        # NaN fails both comparisons, and infinities the range
        if values is None or not np.all((values >= 0.0) & (values <= 1.0)):
            values = _parse_rows(path, enumerate(lines, start=first), comments=True)
        blocks.append(values)
        first += len(lines)
    return np.concatenate(blocks) if blocks else np.empty(0)


def _parse_rows(path: Path, rows, comments: bool) -> np.ndarray:
    """Values of (line number, text) rows, skipping blank ones and, with
    ``comments``, '#' lines: the only code that words errors, a bad byte's
    first, so that it counts in a skipped line too."""
    out: list[float] = []
    for lineno, text in rows:
        if not text.isascii():
            _check_utf8(path, lineno, text)
        text = text.strip()
        if not text or (comments and text.startswith("#")):
            continue
        try:
            val = float(text)
        except ValueError:
            raise InputError(f"{path}:{lineno}: not a number: {text!r}") from None
        if not math.isfinite(val):
            raise InputError(f"{path}:{lineno}: non-finite value")
        if not 0.0 <= val <= 1.0:
            raise InputError(f"{path}:{lineno}: p-value out of [0, 1]: {val!r}")
        out.append(val)
    return np.asarray(out, dtype=float)


def _check_grid_range(n_min: int, n_max: int) -> None:
    if n_min < 1 or n_min > n_max:
        raise InvalidRange(f"need 1 <= n_min <= n_max, got ({n_min}, {n_max})")


def partition_count(n_min: int, n_max: int) -> int:
    """Closed-form size of the family: sum of N(N+1)/2 over the grid range,
    a difference of tetrahedral numbers b(b+1)(b+2)/6."""
    _check_grid_range(n_min, n_max)
    a, b = n_min, n_max
    return (b * (b + 1) * (b + 2) - (a - 1) * a * (a + 1)) // 6


def enumerate_partitions(n_min: int, n_max: int) -> Iterator[PartitionSpec]:
    """Yield every (N, k, l) with n_min <= N <= n_max and 0 <= k < l <= N.

    Partitions that induce the same cell set at different N (the full-interval
    cell (N, 0, N) for every N) are all yielded; selection tie-breaking
    downstream resolves them deterministically.
    """
    _check_grid_range(n_min, n_max)
    for n in range(n_min, n_max + 1):
        for k in range(n):
            for l in range(k + 1, n + 1):
                yield PartitionSpec(n, k, l)


def grid_prefix(sample: PValueSample, n: int) -> GridPrefix:
    """Cumulative grid counts enabling O(1) cell counts for any (N, k, l)."""
    if n < 1:
        raise InvalidRange(f"grid resolution must be >= 1, got {n}")
    edges = np.arange(n + 1) / n
    cum = np.searchsorted(sample.values, edges, side="left")
    cum[-1] = sample.m  # right-closed last cell: values equal to 1 count
    return GridPrefix(n=n, cum=cum)


def bin_counts(prefix: GridPrefix, spec: PartitionSpec) -> BinCounts:
    """Cell occupancy from prefix differences, O(1) per cell."""
    if prefix.n != spec.n:
        raise MismatchedResolution(f"prefix built for N={prefix.n}, spec has N={spec.n}")
    cum = prefix.cum
    counts = np.concatenate([
        np.diff(cum[: spec.k + 1]),
        [cum[spec.l] - cum[spec.k]],
        np.diff(cum[spec.l:]),
    ])
    return BinCounts(counts=counts, total=int(cum[-1]))

