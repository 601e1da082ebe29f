"""P-value samples, the non-regular partition family, and fast bin counting.

A partition of [0, 1] is encoded as (N, k, l): k regular cells of width 1/N,
one central cell spanning [k/N, l/N], and N - l regular cells of width 1/N.
Cell membership is half-open [a, b), except the cell whose right edge is 1,
which also receives values equal to 1.
"""

from __future__ import annotations

import csv
import itertools
import math
import warnings
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
    "histogram_heights",
]


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

    @property
    def central_index(self) -> int:
        return self.k

    def widths(self) -> np.ndarray:
        w = np.full(self.dimension, 1.0 / self.n)
        w[self.k] = self.central_width
        return w

    def edges(self) -> np.ndarray:
        """Left edges of all cells plus the final right edge 1."""
        left = np.concatenate([
            np.arange(self.k) / self.n,
            [self.lam],
            np.arange(self.l, self.n + 1) / self.n,
        ])
        return left


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
    starting with '#' ignored.  CSV mode (``column`` given): values taken
    from the named column.  Parse errors, bytes that are not UTF-8
    included, cite the 1-based line number.

    Plain text is first parsed in bulk by numpy's C reader.  Its result is
    kept only when it is one column of at least one value, every value in
    [0, 1]; anything else (a '#' or whitespace-only line after the first
    value, two values on a line, an unparsable or out-of-range value, an
    empty file) is read
    again by the line-by-line reader, which alone accepts unusual input and
    words every error, so both paths give the same values and messages.
    """
    path = Path(path)
    if column is None:
        values = _bulk_parse(path)
        if values is not None:
            return values
    try:
        return _read_lines(path, column)
    except UnicodeDecodeError:
        raise _not_utf8(path) from None


def _bulk_parse(path: Path) -> np.ndarray | None:
    """Plain-text values parsed by ``np.loadtxt``, or None to fall back."""
    try:
        # numpy gets an open handle, never the path: given a path it would
        # also try path.gz and friends and decompress them by extension
        with open(path, encoding="utf-8") as fh, warnings.catch_warnings():
            warnings.simplefilter("ignore")   # an empty file warns
            # read past the leading lines the loop skips; numpy refuses any later one
            first = next((line for line in fh if not _skipped(line)), "")
            table = np.loadtxt(itertools.chain([first], fh), dtype=float, comments=None,
                               delimiter=",", ndmin=2)
    except (ValueError, OSError):   # what the C reader refuses, the loop decides
        return None
    # ndmin=2 keeps a one-line "0.1,0.2" as shape (1, 2), which the loop rejects
    if table.shape[0] == 0 or table.shape[1] != 1:
        return None
    values = table.ravel()
    # NaN fails both comparisons, and infinities the range
    if not np.all((values >= 0.0) & (values <= 1.0)):
        return None
    return values


def _skipped(line: str) -> bool:
    """A plain-text line that ``_read_lines`` skips: blank, or a '#' comment."""
    text = line.strip()
    return not text or text.startswith("#")


def _read_lines(path: Path, column: str | None) -> np.ndarray:
    """The line-by-line reader, the only one that words errors."""
    out: list[float] = []
    comments = column is None
    with open(path, newline="", encoding="utf-8") as fh:
        if comments:
            rows = enumerate(fh, start=1)
        else:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None or column not in header:
                raise InputError(f"{path}: no column named {column!r}")
            # as in csv.DictReader: a repeated name means its last field, and
            # a row too short to reach it (a blank row too) reads as blank
            at = len(header) - 1 - header[::-1].index(column)
            # line_num is the physical line a record ends on, which counts
            # the lines of quoted fields that span several and of blank rows
            rows = ((reader.line_num, row[at]) for row in reader if len(row) > at)
        for lineno, text in rows:
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


def _not_utf8(path: Path) -> InputError:
    """The error citing the line of the file's first byte that is not UTF-8,
    counting the line breaks the reader splits on: LF, CR and CR LF."""
    data = path.read_bytes()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = data[:exc.start]
        line = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
        return InputError(f"{path}:{line}: not valid UTF-8")
    return InputError(f"{path}: not valid UTF-8")   # rewritten since the failed read


def partition_count(n_min: int, n_max: int) -> int:
    """Closed-form size of the family: sum of N(N+1)/2 over the grid range."""
    if n_min < 1 or n_min > n_max:
        raise InvalidRange(f"need 1 <= n_min <= n_max, got ({n_min}, {n_max})")
    total = 0
    for n in range(n_min, n_max + 1):
        total += n * (n + 1) // 2
    return total


def enumerate_partitions(n_min: int, n_max: int) -> Iterator[PartitionSpec]:
    """Yield every (N, k, l) with n_min <= N <= n_max and 0 <= k < l <= N.

    Partitions that induce the same cell set at different N (the full-interval
    cell (N, 0, N) for every N) are all yielded; selection tie-breaking
    downstream resolves them deterministically.
    """
    if n_min < 1 or n_min > n_max:
        raise InvalidRange(f"need 1 <= n_min <= n_max, got ({n_min}, {n_max})")
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


def histogram_heights(counts: BinCounts, spec: PartitionSpec) -> np.ndarray:
    """Density heights m_j / (m * w_j); the histogram integrates to 1."""
    if len(counts.counts) != spec.dimension:
        raise MismatchedResolution(
            f"{len(counts.counts)} counts for a {spec.dimension}-cell partition")
    return counts.counts / (counts.total * spec.widths())
