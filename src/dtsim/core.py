"""Shared domain model: transaction streams, strategies, blocks, run configuration.

Everything here is immutable after construction and safe to share across
concurrent simulation runs; `Stream` alone decides what a valid stream is.
"""

from __future__ import annotations

import csv
import enum
import sys
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, islice
from typing import Iterable, Optional, Sequence

import numpy as np

from .allocation import fee_logs

MIN_POSITIVE_FEE = sys.float_info.min


class Priority(enum.Enum):
    """Transaction incorporation order: first-come-first-served or by fee."""

    TIME = "Time-based"
    FEE = "Fee-based"


@dataclass(frozen=True, slots=True)
class Transaction:
    id: int
    amount: float
    fee: float
    arrival_time: int  # milliseconds since stream start

    def __post_init__(self):
        # `not x >= 0` also rejects NaN.
        for name in ("amount", "fee", "arrival_time"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"transaction {self.id}: {name} must be >= 0")


class DataError(ValueError):
    """A transaction stream violates a precondition of the run."""


@dataclass(frozen=True, eq=False)
class Stream(Sequence):
    """A transaction stream as four read-only columns: int64 `ids` and
    `arrivals` (ms since stream start), float64 `amounts` and `fees`.

    Construction raises DataError unless ids are unique, arrivals sorted, ids
    and arrivals fit in 64 bits, and arrivals, amounts and fees are finite
    and non-negative. As a Sequence it yields `Transaction` views; a slice
    is a list of views, not a Stream.
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

    @cached_property
    def fee_logs(self) -> np.ndarray:
        """Read-only `allocation.fee_logs` of the fees, a zero fee as MIN_POSITIVE_FEE."""
        logs = fee_logs(np.where(self.fees > 0, self.fees, MIN_POSITIVE_FEE))
        logs.flags.writeable = False
        return logs

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

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        return Transaction(int(self.ids[i]), float(self.amounts[i]), float(self.fees[i]),
                           int(self.arrivals[i]))

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
    """Full storage-strategy attribute vector.

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
            raise ValueError("; ".join(problems))

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
    transactions, and rejected otherwise; `DtsStrategy` raises ValueError
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


def validate_strategy(s: DtsStrategy, cfg: SimulationConfig) -> list[str]:
    """The violated invariants of `s` that depend on `cfg`; empty list when
    valid. A `DtsStrategy` has already passed its own checks."""
    if s.max_trx_nodes > cfg.leaf_capacity:
        return [f"max_trx_nodes (a6) {s.max_trx_nodes} exceeds leaf capacity {cfg.leaf_capacity}"]
    return []


class SchemaError(DataError):
    """A CSV input cannot be read, lacks a column or has a malformed row."""


def read_csv_columns(path, kinds: dict, optional: Sequence[str] = ()) -> list[list]:
    """The columns of the CSV file at `path` that `kinds` names, in its order,
    each cell parsed by the callable that `kinds` maps its column to.

    The one input reader of the package: it streams rows through `csv.reader`,
    strips header names and skips blank rows. A column in `optional` that the
    header lacks holds `kind("")` in every row. Raises SchemaError naming the file
    when it cannot be read, is empty or lacks a column, and its line when a
    row is short or a cell fails its callable with ValueError.
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = {name.strip(): i for i, name in enumerate(next(reader, ()))}
            if not header:
                raise SchemaError(f"{path}: empty file")
            missing = [name for name in kinds if name not in header and name not in optional]
            if missing:
                raise SchemaError(f"{path}: missing columns {missing}; available: {list(header)}")
            columns = [[] for _ in kinds]
            parsers = [(header[name], kind, col.append)
                       for (name, kind), col in zip(kinds.items(), columns) if name in header]
            rows = 0
            for row in reader:
                if not any(map(str.strip, row)):
                    continue
                rows += 1
                try:
                    for i, kind, append in parsers:
                        append(kind(row[i]))
                except (ValueError, IndexError) as exc:
                    raise SchemaError(f"{path}:{reader.line_num}: malformed row: {exc}") from None
    except csv.Error as exc:
        raise SchemaError(f"{path}:{reader.line_num}: malformed row: {exc}") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise SchemaError(f"cannot read {path}: {getattr(exc, 'strerror', None) or exc}") from None
    return [col if name in header else [kind("")] * rows
            for (name, kind), col in zip(kinds.items(), columns)]


CSV_CHUNK_ROWS = 4096


def write_csv_rows(path, header: Sequence, rows: Iterable[Sequence]) -> int:
    """Stream `rows` under `header` into a CSV file; returns the row count.

    The one output format of the package: utf-8, LF line ends, and values
    written by the csv module, so a float appears as its shortest
    round-trip form (str equals repr for Python floats) and a bool as
    True/False. Rows are taken in chunks; a chunk of tuples of the header's
    width that hold only exact ints and floats is joined with `%s`, which
    gives the same text, and any other chunk goes through `csv.writer`.
    """
    line = ",".join(["%s"] * len(header)) + "\n"
    rows, count = iter(rows), 0
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        while chunk := list(islice(rows, CSV_CHUNK_ROWS)):
            count += len(chunk)
            if (set(map(type, chunk)) == {tuple} and set(map(len, chunk)) == {len(header)}
                    and set(map(type, chain.from_iterable(chunk))) <= {int, float}):
                fh.write("".join(map(line.__mod__, chunk)))
            else:
                writer.writerows(chunk)
    return count
