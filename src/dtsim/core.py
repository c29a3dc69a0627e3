"""Shared domain model: transactions, strategies, blocks, run configuration.

Everything here is immutable after construction and safe to share across
concurrent simulation runs.
"""

from __future__ import annotations

import csv
import enum
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence


class Priority(enum.Enum):
    """Transaction incorporation order: first-come-first-served or by fee."""

    TIME = "time-based"
    FEE = "fee-based"

    @property
    def label(self) -> str:
        return "Time-based" if self is Priority.TIME else "Fee-based"


@dataclass(frozen=True, slots=True)
class Transaction:
    id: int
    amount: float
    fee: float
    arrival_time: int  # milliseconds since stream start
    size_bytes: int = 300

    def __post_init__(self):
        if self.amount < 0:
            raise ValueError(f"transaction {self.id}: amount must be >= 0")
        if self.fee < 0:
            raise ValueError(f"transaction {self.id}: fee must be >= 0")
        if self.arrival_time < 0:
            raise ValueError(f"transaction {self.id}: arrival_time must be >= 0")
        if self.size_bytes <= 0:
            raise ValueError(f"transaction {self.id}: size_bytes must be > 0")


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

    def attributes(self) -> dict:
        """Attribute-vector view keyed a1..a8 (a4/a5 omitted when absent)."""
        attrs = {
            "a1": self.mempool_size,
            "a2": self.priority.label,
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
    leaf_capacity: int = 2100
    rng_seed: int = 0
    transaction_budget: Optional[int] = None
    block_count_target: Optional[int] = None
    verkle_branching_factor: int = 5

    def __post_init__(self):
        if self.leaf_capacity < 1:
            raise ValueError("leaf_capacity must be positive")
        if self.verkle_branching_factor < 2:
            raise ValueError("verkle_branching_factor must be >= 2")
        if self.transaction_budget is not None and self.transaction_budget < 1:
            raise ValueError("transaction_budget must be positive when set")
        if self.block_count_target is not None and self.block_count_target < 1:
            raise ValueError("block_count_target must be positive when set")


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
    transactions, and rejected otherwise. Raises ValueError on any violated
    attribute bound.
    """
    if isinstance(cat, int):
        cat = category(cat)
    if cat.designated_space:
        if a4 is None or a5 is None:
            raise ValueError(
                f"category {cat.id} reserves small-fee space: a4 and a5 are required")
    else:
        if a4 is not None or a5 is not None:
            raise ValueError(
                f"category {cat.id} has no designated space: a4/a5 must not be supplied")
    strategy = DtsStrategy(
        mempool_size=a1,
        priority=cat.priority,
        designated_space=cat.designated_space,
        max_trx_nodes=a6,
        scale=a7,
        shape=a8,
        small_fee_threshold=a4,
        small_fee_count=a5,
    )
    problems = _intrinsic_violations(strategy)
    if problems:
        raise ValueError("; ".join(problems))
    return strategy


# The paper's reference strategy (time-based priority, no small-fee space),
# keyed like the [strategy] config section: the default of `dtsim simulate`.
REFERENCE_STRATEGY = {"category": 2, "a1": 25469, "a6": 110, "a7": 6.94, "a8": 1.0}


def _intrinsic_violations(s: DtsStrategy) -> list[str]:
    problems = []
    if s.mempool_size < 1:
        problems.append("mempool_size (a1) must be positive")
    if s.max_trx_nodes < 1:
        problems.append("max_trx_nodes (a6) must be >= 1")
    if s.shape <= 0:
        problems.append("shape (a8) must be positive")
    if s.designated_space:
        if s.small_fee_threshold is None or s.small_fee_threshold <= 0:
            problems.append("small_fee_threshold (a4) must be positive")
        if s.small_fee_count is None or s.small_fee_count < 0:
            problems.append("small_fee_count (a5) must be >= 0")
    else:
        if s.small_fee_threshold is not None or s.small_fee_count is not None:
            problems.append("a4/a5 present despite designated_space=False")
    return problems


def validate_strategy(s: DtsStrategy, cfg: SimulationConfig) -> list[str]:
    """Every violated invariant of `s` under `cfg`; empty list when valid."""
    problems = _intrinsic_violations(s)
    if s.max_trx_nodes > cfg.leaf_capacity:
        problems.append(
            f"max_trx_nodes (a6) {s.max_trx_nodes} exceeds leaf capacity {cfg.leaf_capacity}")
    return problems


def write_csv_rows(path, header: Sequence, rows: Iterable[Sequence]) -> int:
    """Stream `rows` under `header` into a CSV file; returns the row count.

    The one output format of the package: utf-8, LF line ends, and values
    written by the csv module, so a float appears as its shortest
    round-trip form (str equals repr for Python floats) and a bool as
    True/False.
    """
    count = 0
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for count, row in enumerate(rows, start=1):
            writer.writerow(row)
    return count
