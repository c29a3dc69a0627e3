"""Shared domain model: transaction streams, strategies, blocks, run configuration.

Everything here is immutable after construction and safe to share across
concurrent simulation runs; `Stream` alone decides what a valid stream is.
A `Stream` fills its caches lazily, but only with values of its own columns.
"""

from __future__ import annotations

import csv
import enum
import math
import mmap
import os
import sys
import warnings
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

MIN_POSITIVE_FEE = sys.float_info.min


class Priority(enum.Enum):
    """Transaction incorporation order: first-come-first-served or by fee."""

    TIME = "Time-based"
    FEE = "Fee-based"


@dataclass(frozen=True, slots=True)
class Transaction:
    """A stream's row, as `Stream` yields it; only `Stream.of` checks one."""

    id: int
    amount: float
    fee: float
    arrival_time: int  # milliseconds since stream start


class DataError(ValueError):
    """A transaction stream violates a precondition of the run."""


class StrategyError(ValueError):
    """A strategy breaks an attribute bound, or does not fit the run's config."""


@dataclass(frozen=True, eq=False)
class Stream:
    """A transaction stream as four read-only columns: int64 `ids` and
    `arrivals` (ms since stream start), float64 `amounts` and `fees`.

    Construction raises DataError unless ids are unique, arrivals sorted, ids
    and arrivals fit in 64 bits, arrivals, amounts and fees are finite and
    non-negative, and the fees have a finite sum. Iteration yields
    `Transaction` views; the stream itself is not indexed, its columns are.

    What a run derives from the columns alone is computed on first use and
    kept for the stream's life, read-only: per priority sorted, the
    rank/order pair of `ranks` (16 B per transaction). Every run maps fees
    to slots through the fee order, so a fee-priority stream keeps 16 B per
    transaction and a time-priority one 32 B, and every evaluation of a
    search on one stream reuses one sort per order. A pickled Stream is
    rebuilt through the constructor and carries no cache.
    """

    ids: np.ndarray
    arrivals: np.ndarray
    amounts: np.ndarray
    fees: np.ndarray

    def __post_init__(self):
        try:
            ids, arrivals = (np.array(c, dtype=np.int64) for c in (self.ids, self.arrivals))
        except OverflowError:
            raise DataError("transaction ids and arrival times must fit in 64 bits") from None
        amounts, fees = (np.array(c, dtype=np.float64) for c in (self.amounts, self.fees))
        for name, col in dict(ids=ids, arrivals=arrivals, amounts=amounts, fees=fees).items():
            if col.shape != (ids.size,):
                raise DataError("stream columns must be one-dimensional and of equal length")
            col.flags.writeable = False
            object.__setattr__(self, name, col)
        sorted_ids = np.sort(ids)
        repeated = sorted_ids[1:][sorted_ids[1:] == sorted_ids[:-1]]
        if repeated.size:
            raise DataError(f"transaction id {repeated[0]} appears more than once in the dataset")
        back = np.flatnonzero(np.diff(arrivals) < 0)
        if back.size:
            i = int(back[0]) + 1
            raise DataError(
                f"dataset must be ordered by arrival_time: transaction {ids[i]} at position {i} "
                f"arrives at {arrivals[i]}, before {arrivals[i - 1]} at position {i - 1}")
        for name, col in (("arrival_time", arrivals), ("amount", amounts), ("fee", fees)):
            bad = np.flatnonzero(~((col >= 0) & (col < np.inf)))  # NaN fails both
            if bad.size:
                i = bad[0]
                raise DataError(f"transaction {ids[i]} at position {i} has {name} {col[i]}; "
                                f"it must be finite and >= 0")
        # Fees are >= 0, so a finite total bounds every block's and fate's fsum.
        # numpy's sum is the fast look; math.fsum decides a total near the float max.
        with np.errstate(over="ignore"):
            if not fees.sum() < sys.float_info.max / 2:
                try:
                    math.fsum(fees)
                except OverflowError:
                    raise DataError(f"the fees sum past the largest float, "
                                    f"{sys.float_info.max!r}") from None

    def ranks(self, priority: Priority) -> tuple[np.ndarray, np.ndarray]:
        """Every position's rank in `priority` order, and the positions in rank
        order, as read-only int64 arrays, sorted on the first call per priority:
          time-based  (arrival asc, fee desc, id asc)
          fee-based   (fee desc, arrival asc, id asc)
        The order is total, as a stream's ids are unique."""
        cache = self.__dict__.setdefault("_ranks", {})
        if priority in cache:
            return cache[priority]
        keys = ((self.ids, -self.fees, self.arrivals) if priority is Priority.TIME
                else (self.ids, self.arrivals, -self.fees))
        # Sort by the primary key, then lexsort only the positions tied on it:
        # a stream comes in arrival order, so the time order costs about O(n).
        order = np.argsort(keys[-1], kind="stable").astype(np.int64, copy=False)
        same = np.flatnonzero(keys[-1][order[1:]] == keys[-1][order[:-1]])
        at = np.union1d(same, same + 1)
        tied = order[at]
        order[at] = tied[np.lexsort(tuple(k[tied] for k in keys))]
        rank = np.empty_like(order)
        rank[order] = np.arange(len(order))
        for column in (rank, order):
            column.flags.writeable = False
        return cache.setdefault(priority, (rank, order))

    @classmethod
    def of(cls, transactions: Iterable[Transaction]) -> "Stream":
        """`transactions` as a Stream; a Stream is returned unchanged."""
        if isinstance(transactions, cls):
            return transactions
        txs = list(transactions)
        return cls([t.id for t in txs], [t.arrival_time for t in txs],
                   [t.amount for t in txs], [t.fee for t in txs])

    def __len__(self) -> int:
        return len(self.ids)

    def __iter__(self):
        return map(Transaction, self.ids.tolist(), self.amounts.tolist(), self.fees.tolist(),
                   self.arrivals.tolist())

    def __reduce__(self):
        # Rebuilt through the constructor, so the columns stay read-only.
        return Stream, (self.ids, self.arrivals, self.amounts, self.fees)


@dataclass(frozen=True)
class StrategyCategory:
    """One of the four (priority, designated-space) strategy families."""

    id: int
    priority: Priority
    designated_space: bool


# Category table: ids fix the two qualitative attributes.
CATEGORIES = {
    1: StrategyCategory(1, Priority.TIME, True),
    2: StrategyCategory(2, Priority.TIME, False),
    3: StrategyCategory(3, Priority.FEE, True),
    4: StrategyCategory(4, Priority.FEE, False),
}


def category(category_id: int) -> StrategyCategory:
    try:
        return CATEGORIES[category_id]
    except KeyError:
        raise ValueError(f"unknown strategy category {category_id!r}; expected 1-4") from None


@dataclass(frozen=True)
class DtsStrategy:
    """Full storage-strategy attribute vector, checked once, on construction.

    `small_fee_threshold` / `small_fee_count` exist only when
    `designated_space` is set; they bound the per-block quota of
    below-threshold transactions admitted ahead of the normal ordering.
    """

    mempool_size: int
    priority: Priority
    designated_space: bool
    max_trx_nodes: int
    scale: float
    shape: float
    small_fee_threshold: Optional[float] = None
    small_fee_count: Optional[int] = None

    def __post_init__(self):
        problems = []
        if self.mempool_size < 1:
            problems.append("mempool_size (a1) must be positive")
        if self.max_trx_nodes < 1:
            problems.append("max_trx_nodes (a6) must be >= 1")
        if self.shape <= 0:
            problems.append("shape (a8) must be positive")
        nonfinite = [name for name, value in zip(("a1", "a4", "a5", "a6", "a7", "a8"), (
            self.mempool_size, self.small_fee_threshold, self.small_fee_count,
            self.max_trx_nodes, self.scale, self.shape)) if not -math.inf < (value or 0) < math.inf]
        if nonfinite:
            problems.append(f"{', '.join(nonfinite)} must be finite")
        small_fee = (self.small_fee_threshold, self.small_fee_count)
        if not self.designated_space:
            if small_fee != (None, None):
                problems.append("designated_space (a3) is not set: a4/a5 must not be supplied")
        elif None in small_fee:
            problems.append("designated_space (a3) is set: a4 and a5 are required")
        else:
            if self.small_fee_threshold <= 0:
                problems.append("small_fee_threshold (a4) must be positive")
            if self.small_fee_count < 0:
                problems.append("small_fee_count (a5) must be >= 0")
        if problems:
            raise StrategyError("; ".join(problems))

    def attributes(self) -> dict:
        """Attribute-vector view keyed a1..a8 (a4/a5 omitted when absent)."""
        attrs = {
            "a1": self.mempool_size,
            "a2": self.priority.value,
            "a3": self.designated_space,
            "a6": self.max_trx_nodes,
            "a7": self.scale,
            "a8": self.shape,
        }
        if self.designated_space:
            attrs["a4"] = self.small_fee_threshold
            attrs["a5"] = self.small_fee_count
        return attrs


@dataclass(frozen=True)
class SimulationConfig:
    """Leaf slots per block and the Verkle branching factor of a run. No run
    reads `rng_seed` (a stream's seed is `DatasetSpec.rng_seed`); acceptance
    criterion 6 and, until ROADMAP item 12, perfbench/run.py set it."""

    leaf_capacity: int = 2100
    rng_seed: int = 0
    verkle_branching_factor: int = 5

    def __post_init__(self):
        if self.leaf_capacity < 1:
            raise ValueError("leaf_capacity must be positive")
        if self.verkle_branching_factor < 2:
            raise ValueError("verkle_branching_factor must be >= 2")
        if self.verkle_branching_factor > 65535:
            raise ValueError("verkle_branching_factor must be <= 65535: a commitment "
                             "hashes its child count in 2 bytes")


@dataclass(frozen=True)
class BlockRecord:
    """A sealed block: its transactions, slot usage and total fee income."""

    height: int
    tx_ids: tuple
    occupied_nodes: int
    incentive: float
    seal_time: int
    verkle_root: Optional[bytes] = None

    def __post_init__(self):
        if self.occupied_nodes < 0:
            raise ValueError("occupied_nodes must be >= 0")


def strategy_from_category(cat: StrategyCategory | int, *, a1: int, a6: int,
                           a7: float, a8: float,
                           a4: Optional[float] = None,
                           a5: Optional[int] = None) -> DtsStrategy:
    """Build a strategy from a category plus the six free attributes.

    The category fixes priority (a2) and designated space (a3). a4/a5 are
    required exactly when the category reserves space for small-fee
    transactions, and rejected otherwise; `DtsStrategy` raises StrategyError
    listing every violated attribute bound.
    """
    if isinstance(cat, int):
        cat = category(cat)
    return DtsStrategy(
        mempool_size=a1,
        priority=cat.priority,
        designated_space=cat.designated_space,
        max_trx_nodes=a6,
        scale=a7,
        shape=a8,
        small_fee_threshold=a4,
        small_fee_count=a5,
    )


# The paper's reference strategy (time-based priority, no small-fee space),
# keyed like the [strategy] config section: the default of `dtsim simulate`.
REFERENCE_STRATEGY = {"category": 2, "a1": 25469, "a6": 110, "a7": 6.94, "a8": 1.0}


def validate_strategy(s: DtsStrategy, cfg: SimulationConfig) -> None:
    """Raise StrategyError when `s` breaks an invariant that depends on `cfg`.
    A `DtsStrategy` has already passed its own checks."""
    if s.max_trx_nodes > cfg.leaf_capacity:
        raise StrategyError(f"invalid strategy: max_trx_nodes (a6) {s.max_trx_nodes} "
                            f"exceeds leaf capacity {cfg.leaf_capacity}")


class SchemaError(DataError):
    """A CSV input cannot be read, lacks a column or has a malformed row."""


def optional_float(text: str) -> Optional[float]:
    """A float cell that may be left blank: None for a blank or whitespace-only cell."""
    return float(text) if text.strip() else None


# The cell kinds that `read_csv_columns` parses in numpy's C pass, and the
# dtype of each one's column from either path; `_row_loop_only` says which
# files the pass may read.
NUMERIC_FIELDS = {int: np.int64, float: np.float64, optional_float: np.float64}


def read_csv_columns(path, kinds: dict) -> list:
    """The columns of the CSV file at `path` that `kinds` names, in its order,
    each cell parsed by the callable that `kinds` maps its column to.

    The one input reader of the package. A column of a `NUMERIC_FIELDS` kind
    comes back as a numpy array of its field type, an `optional_float` one
    as a masked array, masked on blank cells; a column of any other kind as a
    list. `csv.reader` reads the header, whose names are stripped. When every
    column present is of a `NUMERIC_FIELDS` kind and the rows are numbers,
    commas and line ends with no empty field, `_numeric_columns` parses them
    in one C pass; else, or when that pass declines, a row loop reads them
    through the same `csv.reader`, parses each cell with its callable and
    skips blank rows. The row loop defines the result: the C pass returns the
    same columns or declines. An `optional_float` column that the header
    lacks is masked in every row. Raises SchemaError naming the file when it
    cannot be read, is empty, lacks a column, names an asked-for column more
    than once or holds an `int` that does not fit in 64 bits, and its line
    when a row is short or a cell fails its callable with ValueError.
    """
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            names = [name.strip() for name in next(reader, ())]
            header = {name: i for i, name in enumerate(names)}
            if not header:
                raise SchemaError(f"{path}: empty file")
            missing = [name for name, k in kinds.items() if name not in header and k is not optional_float]
            if missing:
                raise SchemaError(f"{path}: missing columns {missing}; available: {list(header)}")
            for name in kinds:
                if names.count(name) > 1:
                    raise SchemaError(f"{path}: column {name!r} appears more than once in the header")
            present = [name for name in kinds if name in header]
            cells = [(header[name], kinds[name]) for name in present]
            typed = _numeric_columns(path, reader.line_num, cells)
            if typed:
                columns, rows = typed
            else:
                columns, rows = [[] for _ in cells], 0
                parsers = [(i, kind, col.append) for (i, kind), col in zip(cells, columns)]
                for row in reader:
                    if not any(map(str.strip, row)):
                        continue
                    rows += 1
                    try:
                        for i, kind, append in parsers:
                            append(kind(row[i]))
                    except (ValueError, IndexError) as exc:
                        raise SchemaError(f"{path}:{reader.line_num}: malformed row: {exc}") from None
                columns = [_array(path, name, kinds[name], col) for name, col in zip(present, columns)]
    except csv.Error as exc:
        raise SchemaError(f"{path}:{reader.line_num}: malformed row: {exc}") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise SchemaError(f"cannot read {path}: {getattr(exc, 'strerror', None) or exc}") from None
    columns = iter(columns)
    return [next(columns) if name in header else _array(path, name, kind, [kind("")] * rows)
            for name, kind in kinds.items()]


def _array(path, name: str, kind, values: list):
    """The row loop's `values` of column `name` as `read_csv_columns` returns them."""
    if kind is optional_float:
        return np.ma.masked_array(np.array(values, np.float64), [v is None for v in values])
    if kind not in NUMERIC_FIELDS:
        return values
    try:
        return np.array(values, NUMERIC_FIELDS[kind])
    except OverflowError:
        raise SchemaError(f"{path}: values of column {name!r} must fit in 64 bits") from None


def _numeric_columns(path, header_lines: int, cells) -> Optional[tuple[list, int]]:
    """The columns of `cells`, (header index, kind) pairs of `NUMERIC_FIELDS`
    kinds, as `read_csv_columns` returns them (an `optional_float` one with
    no cell masked), and the row count, parsed from the file at `path` past
    its first `header_lines` lines by one `np.loadtxt` pass, numpy's C
    tokenizer.

    Returns None to leave the rows to the row loop: when a kind has no field,
    when the file cannot be mapped, when `_row_loop_only` finds more than
    rows of numbers past the header or the file holds a line that may pass
    `csv.field_size_limit()`, or when the pass raises or warns for any reason
    (a short row, a value that int64 or float64 cannot hold, a header-only
    file).
    """
    if not cells or not all(kind in NUMERIC_FIELDS for _, kind in cells):
        return None
    try:
        # Scan the file's bytes in place. A line longer than the limit holds
        # a whole block of `step` bytes, as no character is less than a byte.
        with open(path, "rb") as fh, mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ) as raw:
            step = csv.field_size_limit() // 2 + 1
            if _row_loop_only(raw) or any(
                    raw.find(b"\n", at, at + step) < 0 and raw.find(b"\r", at, at + step) < 0
                    for at in range(0, len(raw) - step + 1, step)):
                return None
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = np.loadtxt(  # by an absolute name, which numpy never takes for a URL
                os.path.abspath(path),
                dtype=[(f"f{at}", NUMERIC_FIELDS[kind]) for at, (_, kind) in enumerate(cells)],
                delimiter=",", comments=None, quotechar=None, usecols=[i for i, _ in cells],
                skiprows=header_lines, encoding="utf-8", ndmin=1)
    except Exception:  # whatever failed, the row loop decides the outcome
        return None
    return [np.ma.masked_array(table[name], False) if kind is optional_float else table[name]
            for name, (_, kind) in zip(table.dtype.names, cells)], len(table)


# The bytes of a row of numbers. On them `np.loadtxt` reads a cell as `int`
# and `float` do, or fails: no quote, NUL, space, \x1c-\x1f or letter, each
# of which one of the two reads otherwise, ever reaches the pass.
_NUMBER_BYTES = b"0123456789+-.eE,\r\n"
# Blocks of this many bytes keep the scan in cache: about 9 ms for a 10 MB file.
_SCAN_BYTES = 1 << 16


def _row_loop_only(raw) -> bool:
    """Whether the CSV bytes `raw` hold more than rows of numbers past their
    header's first line end: a byte that is not in `_NUMBER_BYTES`, or an
    empty field, a comma next to a comma, a line end or the end of the
    bytes. An empty field fails the pass only where it reaches it, so a file
    with one near its end would be parsed twice."""
    start = min((at for at in (raw.find(b"\n"), raw.find(b"\r")) if at >= 0), default=len(raw))
    # Each block is one byte longer, to see a pair across its end.
    for at in range(start, len(raw), _SCAN_BYTES):
        block = raw[at:at + _SCAN_BYTES + 1]
        data = np.frombuffer(block, np.uint8)
        comma = data == ord(",")
        sep = comma | (data == ord("\n")) | (data == ord("\r"))
        if block.translate(None, _NUMBER_BYTES) or (sep[1:] & sep[:-1] & (comma[1:] | comma[:-1])).any():
            return True
    return start < len(raw) and raw[-1:] == b","


CSV_CHUNK_ROWS = 4096


def write_csv_rows(path, header: Sequence, rows: Iterable[Sequence]) -> int:
    """Write `rows` under `header` into a CSV file; returns the row count.

    The one output format of the package: utf-8, LF line ends, and values
    written by the csv module, so a float appears as its shortest round-trip
    form (str equals repr for Python floats) and a bool as True/False.
    `write_csv_chunks` writes the same text from numpy columns."""
    rows = list(rows)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    return len(rows)


def write_csv_chunks(path, header: Sequence, chunks: Iterable[Sequence]) -> int:
    """`write_csv_rows` of the rows of `chunks`, each a sequence of equal-length
    int64 or float64 numpy columns, joined with `%s` from one `tolist` per column,
    which gives the same text; returns the row count. Raises TypeError on a
    column of any other kind."""
    count = 0
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerow(header)
        for columns in chunks:
            if not all(getattr(column, "dtype", None) in (np.int64, np.float64) for column in columns):
                raise TypeError("write_csv_chunks takes int64 or float64 numpy columns")
            count += len(columns[0])
            line = ",".join(["%s"] * len(columns)) + "\n"
            fh.write("".join(map(line.__mod__, zip(*(c.tolist() for c in columns)))))
    return count
