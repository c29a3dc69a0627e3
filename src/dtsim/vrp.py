"""Routing-problem view of transaction packing.

Transactions act as customers (demand = occupied leaf slots, value = fee),
blocks as capacity-limited vehicles, and the objective is the variance of
per-block fee totals. The exhaustive solver enumerates every feasible
assignment of a small instance and is the independent check that the greedy
simulator never beats the true optimum.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .core import BlockRecord

MAX_ORACLE_TXS = 12
MAX_ORACLE_BLOCKS = 3


@dataclass(frozen=True)
class VrpInstance:
    """A packing instance: per-transaction fees and slot demands, block capacity."""

    fees: Tuple[float, ...]
    demands: Tuple[int, ...]
    capacity: int

    def __post_init__(self):
        if len(self.fees) != len(self.demands):
            raise ValueError("fees and demands must have equal length")
        if self.capacity < 1:
            raise ValueError("capacity must be positive")


@dataclass(frozen=True)
class AssignmentMatrix:
    """Binary matrix x[i][k] (transaction row i rides in block k), stored by row.

    `blocks[i]` is the block index k in [0, n_blocks) of row i, or None when
    the row is unplaced. Rows align with `tx_ids`, which may repeat: a
    duplicated row is a transaction packed twice.
    """

    blocks: Tuple[Optional[int], ...]
    tx_ids: Tuple[int, ...]
    n_blocks: int

    def __post_init__(self):
        if len(self.blocks) != len(self.tx_ids):
            raise ValueError("blocks and tx_ids must have equal length")
        bad = next((k for k in self.blocks if k is not None and not 0 <= k < self.n_blocks), None)
        if bad is not None:
            raise ValueError(f"block index {bad} is outside [0, {self.n_blocks})")


def encode(blocks: Sequence[BlockRecord], universe: Optional[Sequence[int]] = None) -> AssignmentMatrix:
    """Assignment matrix of a simulated chain.

    Rows follow `universe` (default: every transaction appearing in the
    blocks, ordered by id); columns follow block order. A transaction id
    found in two blocks is an upstream invariant breach and raises.
    """
    placement: dict[int, int] = {}
    for col, block in enumerate(blocks):
        for tx_id in block.tx_ids:
            if tx_id in placement:
                raise ValueError(f"transaction {tx_id} appears in more than one block")
            placement[tx_id] = col
    if universe is None:
        universe = sorted(placement)
    universe = tuple(universe)
    return AssignmentMatrix(blocks=tuple(placement.get(tx_id) for tx_id in universe),
                            tx_ids=universe, n_blocks=len(blocks))


def check_constraints(m: AssignmentMatrix, instance: VrpInstance) -> List[str]:
    """All violated packing constraints; empty when the assignment is valid.

    Checks that every transaction is packed exactly once, that each row
    demands at least 1 slot and that no block's total slot demand exceeds
    the capacity, to which every placed row counts, duplicates included.
    """
    if len(m.blocks) != len(instance.fees):
        return [f"matrix has {len(m.blocks)} rows for {len(instance.fees)} transactions"]
    problems = []
    packed = dict.fromkeys(m.tx_ids, 0)
    demand_per_block = [0] * m.n_blocks
    for tx_id, k, demand in zip(m.tx_ids, m.blocks, instance.demands):
        if k is not None:
            packed[tx_id] += 1
            demand_per_block[k] += demand
    for tx_id, times in packed.items():
        if times > 1:
            problems.append(f"transaction {tx_id} assigned more than once: packed {times} times")
        elif times == 0:
            problems.append(f"transaction {tx_id} packed 0 times (expected once)")
    problems += [f"transaction {tx_id} demand {demand} is below 1 slot"
                 for tx_id, demand in zip(m.tx_ids, instance.demands) if demand < 1]
    for k, demand in enumerate(demand_per_block):
        if demand > instance.capacity:
            problems.append(
                f"block {k} demand {demand} exceeds capacity {instance.capacity}")
    return problems


def block_sums(m: AssignmentMatrix, fees: Sequence[float]) -> List[float]:
    """Per-block fee totals; unplaced rows count toward no block."""
    if len(m.blocks) != len(fees):
        raise ValueError("fee vector length must match matrix rows")
    sums = [0.0] * m.n_blocks
    for k, fee in zip(m.blocks, fees):
        if k is not None:
            sums[k] += fee
    return sums


def variance_objective(m: AssignmentMatrix, fees: Sequence[float]) -> float:
    """Population variance of the per-block fee totals."""
    if m.n_blocks < 1:
        raise ValueError("variance needs at least one block")
    return _population_variance(block_sums(m, fees))


def _population_variance(values: Sequence[float]) -> float:
    n = len(values)
    mean = math.fsum(values) / n
    return math.fsum((v - mean) ** 2 for v in values) / n


def brute_force_min_variance(instance: VrpInstance, block_count: int) -> Tuple[AssignmentMatrix, float]:
    """Global minimum-variance assignment by exhaustive enumeration.

    Every mapping of transactions to `block_count` blocks is tried (empty
    blocks count as zero-incentive blocks); capacity-infeasible mappings are
    skipped. Ties resolve to the lexicographically smallest assignment so
    the witness is deterministic. Limited to 12 transactions and 3 blocks.
    """
    n = len(instance.fees)
    if n == 0:
        raise ValueError("instance has no transactions")
    if n > MAX_ORACLE_TXS:
        raise ValueError(f"oracle limited to {MAX_ORACLE_TXS} transactions, got {n}")
    if not 1 <= block_count <= MAX_ORACLE_BLOCKS:
        raise ValueError(f"oracle limited to {MAX_ORACLE_BLOCKS} blocks, got {block_count}")
    bad = [i for i, d in enumerate(instance.demands) if d > instance.capacity]
    if bad:
        raise ValueError(
            f"transactions {bad} have demands above capacity {instance.capacity}; "
            f"no feasible assignment exists")

    best_assignment = None
    best_var = math.inf
    demands = instance.demands
    fees = instance.fees
    capacity = instance.capacity
    for assignment in itertools.product(range(block_count), repeat=n):
        loads = [0] * block_count
        sums = [0.0] * block_count
        feasible = True
        for i, k in enumerate(assignment):
            loads[k] += demands[i]
            if loads[k] > capacity:
                feasible = False
                break
            sums[k] += fees[i]
        if not feasible:
            continue
        var = _population_variance(sums)
        if var < best_var - 1e-15:
            best_var = var
            best_assignment = assignment
    if best_assignment is None:
        raise ValueError("no capacity-feasible assignment exists")
    matrix = AssignmentMatrix(blocks=best_assignment, tx_ids=tuple(range(n)), n_blocks=block_count)
    return matrix, best_var
