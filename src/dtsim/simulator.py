"""Discrete-event incorporation engine.

Transactions flow through a bounded mempool into blocks under a storage
strategy: the miner repeatedly picks the next transaction per the strategy's
priority, maps its fee to occupied leaf slots, and seals a block whenever the
next pick no longer fits. No block timing is modelled; sealing is purely
capacity-driven, so the incentive series depends only on ordering and fees.

The run loop interleaves arrivals and mining one-for-one after an initial
warm-up that fills the mempool, which keeps the selection window at the
configured pool depth for the whole stream; remaining transactions are
drained through the miner after the last arrival.
"""

from __future__ import annotations

import enum
import heapq
import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from .allocation import AllocationParams, block_incentive, fits, leaf_nodes
from .core import (BlockRecord, DtsStrategy, Priority, SimulationConfig, Transaction,
                   validate_strategy, write_csv_rows)
from .ingest import MIN_POSITIVE_FEE
from . import verkle


class SubmitOutcome(enum.Enum):
    ACCEPTED = "accepted"
    EVICTED_OTHER = "evicted-other"
    REJECTED = "rejected"


class IncorporateOutcome(enum.Enum):
    INCORPORATED = "incorporated"
    SEALED_THEN_INCORPORATED = "sealed-then-incorporated"


class Mempool:
    """Bounded holding area that yields transactions in one priority order.

    Selection order, fixed at construction by the strategy's priority:
      time-based  (arrival asc, fee desc, id asc)
      fee-based   (fee desc, arrival asc, id asc)
    One lazy-deletion heap over a live table holds that order; with a
    small-fee threshold a second heap in the same order holds the
    below-threshold subset for reserved-slot selection. A heap is rebuilt
    from the live table once its dead entries outnumber the pool, so memory
    stays bounded by the capacity rather than the stream length.

    On overflow the cheapest pending transaction by (fee asc, arrival asc,
    id asc) is evicted, and only when the newcomer pays strictly more. That
    is found by scanning the pool rather than kept in an eviction heap:
    `run` takes one pick per arrival after warm-up, so the pool overflows
    at most once per run.
    """

    def __init__(self, capacity: int, priority: Priority = Priority.TIME,
                 small_fee_threshold: Optional[float] = None):
        if capacity < 1:
            raise ValueError("mempool capacity must be positive")
        self.capacity = capacity
        self.priority = priority
        self.small_fee_threshold = small_fee_threshold
        self._live: dict[int, Transaction] = {}
        self._heap: list = []
        self._small: list = []

    def __len__(self) -> int:
        return len(self._live)

    def __contains__(self, tx_id: int) -> bool:
        return tx_id in self._live

    def pending_fees(self) -> float:
        return math.fsum(t.fee for t in self._live.values())

    def submit(self, tx: Transaction):
        """Admit `tx`, evicting the cheapest pending one if needed.

        Returns (SubmitOutcome, evicted transaction or None).
        """
        if tx.id in self._live:
            raise ValueError(f"transaction id {tx.id} already pending")
        evicted = None
        if len(self._live) >= self.capacity:
            cheapest = min(self._live.values(), key=lambda t: (t.fee, t.arrival_time, t.id))
            if tx.fee <= cheapest.fee:
                return SubmitOutcome.REJECTED, None
            del self._live[cheapest.id]
            self._compact()
            evicted = cheapest
        self._live[tx.id] = tx
        if self.priority is Priority.TIME:
            entry = (tx.arrival_time, -tx.fee, tx.id)
        else:
            entry = (-tx.fee, tx.arrival_time, tx.id)
        heapq.heappush(self._heap, entry)
        if self.small_fee_threshold is not None and tx.fee < self.small_fee_threshold:
            heapq.heappush(self._small, entry)
        if evicted is not None:
            return SubmitOutcome.EVICTED_OTHER, evicted
        return SubmitOutcome.ACCEPTED, None

    def select_next(self) -> Optional[Transaction]:
        """Pop the next transaction in priority order, or None when empty."""
        return self._take(self._heap)

    def select_next_small_fee(self) -> Optional[Transaction]:
        """Pop the next below-threshold transaction, or None when there is none."""
        return self._take(self._small)

    def _take(self, heap) -> Optional[Transaction]:
        # Lazy deletion: entries whose id is no longer live are discarded.
        while heap:
            tx = self._live.pop(heapq.heappop(heap)[-1], None)
            if tx is not None:
                self._compact()
                return tx
        return None

    def _compact(self):
        # Every live transaction has an entry in the selection heap, so a
        # heap longer than twice the pool holds more dead entries than live.
        for heap in (self._heap, self._small):
            if len(heap) > 2 * len(self._live):
                heap[:] = [e for e in heap if e[-1] in self._live]
                heapq.heapify(heap)


@dataclass
class _OpenBlock:
    txs: List[Transaction] = field(default_factory=list)
    nodes: List[int] = field(default_factory=list)
    occupied: int = 0
    small_fee_used: int = 0
    last_arrival: int = 0


@dataclass
class MinerState:
    """In-progress block plus the chain of sealed ones."""

    cfg: SimulationConfig
    params: AllocationParams
    build_trees: bool = False
    current: _OpenBlock = field(default_factory=_OpenBlock)
    sealed: List[BlockRecord] = field(default_factory=list)
    assignments: List[Tuple[int, int, float, int]] = field(default_factory=list)

    def seal_current(self) -> Optional[BlockRecord]:
        """Seal the open block into a BlockRecord; None if it is empty."""
        blk = self.current
        if not blk.txs:
            return None
        height = len(self.sealed)
        root = None
        if self.build_trees:
            tree = verkle.build_tree(_slot_digests(blk), self.cfg.verkle_branching_factor)
            root = tree.root
        record = BlockRecord(
            height=height,
            tx_ids=tuple(t.id for t in blk.txs),
            occupied_nodes=blk.occupied,
            incentive=block_incentive(t.fee for t in blk.txs),
            seal_time=blk.last_arrival,
            verkle_root=root,
        )
        self.sealed.append(record)
        for tx, n in zip(blk.txs, blk.nodes):
            self.assignments.append((tx.id, height, tx.fee, n))
        self.current = _OpenBlock()
        return record


def _slot_digests(blk: _OpenBlock) -> List[bytes]:
    digests = []
    for tx, n in zip(blk.txs, blk.nodes):
        digests.extend(verkle.slot_digest(tx.id, slot) for slot in range(n))
    return digests


def try_incorporate(state: MinerState, tx: Transaction, strategy: DtsStrategy,
                    cfg: SimulationConfig) -> IncorporateOutcome:
    """Place `tx` in the open block, sealing first when it no longer fits.

    The occupied slot count comes from the fee-to-space rule; a
    below-threshold transaction consumes one of the block's reserved
    small-fee slots when any remain (the reservation shares the same
    capacity budget and resets at each seal). Zero fees - possible only for
    injected underpayers - are clamped to the minimum positive fee before
    the space rule.
    """
    fee = tx.fee if tx.fee > 0 else MIN_POSITIVE_FEE
    n = leaf_nodes(fee, state.params)
    blk = state.current
    outcome = IncorporateOutcome.INCORPORATED
    if not fits(blk.occupied, n, cfg.leaf_capacity):
        if not blk.txs:
            raise AssertionError("transaction exceeds capacity of an empty block")
        state.seal_current()
        blk = state.current
        outcome = IncorporateOutcome.SEALED_THEN_INCORPORATED
    reserved = (
        strategy.designated_space
        and tx.fee < strategy.small_fee_threshold
        and blk.small_fee_used < strategy.small_fee_count
    )
    if reserved:
        blk.small_fee_used += 1
    blk.txs.append(tx)
    blk.nodes.append(n)
    blk.occupied += n
    if tx.arrival_time > blk.last_arrival:
        blk.last_arrival = tx.arrival_time
    return outcome


@dataclass
class RunResult:
    """Sealed blocks plus an accounting of every submitted transaction's fate."""

    blocks: List[BlockRecord]
    assignments: List[Tuple[int, int, float, int]]
    submitted_count: int = 0
    submitted_fees: float = 0.0
    included_count: int = 0
    evicted_count: int = 0
    evicted_fees: float = 0.0
    rejected_count: int = 0
    rejected_fees: float = 0.0
    pending_count: int = 0
    pending_fees: float = 0.0
    unsealed_count: int = 0
    unsealed_fees: float = 0.0

    @property
    def incentives(self) -> List[float]:
        return [b.incentive for b in self.blocks]


class DataError(ValueError):
    """The input stream violates a precondition of the run."""


def run(dataset: Sequence[Transaction], strategy: DtsStrategy, cfg: SimulationConfig,
        *, force_seal: bool = False, build_trees: bool = False) -> RunResult:
    """Simulate incorporation of `dataset` under `strategy`.

    Deterministic: all randomness lives in the dataset. Every transaction
    ends up included in exactly one block, pending (in the pool or the
    unsealed tail block), evicted, or rejected, and the per-fate fee sums in
    the result add up to the submitted total. The unsealed tail block is
    excluded from the block series unless `force_seal` is given.
    """
    problems = validate_strategy(strategy, cfg)
    if problems:
        raise ValueError("invalid strategy: " + "; ".join(problems))

    txs = list(dataset)
    if cfg.transaction_budget is not None:
        txs = txs[: cfg.transaction_budget]
    last = -1
    for tx in txs:
        if tx.arrival_time < last:
            raise DataError("dataset must be ordered by arrival_time")
        last = tx.arrival_time

    params = AllocationParams(strategy.scale, strategy.shape, strategy.max_trx_nodes)
    pool = Mempool(strategy.mempool_size, strategy.priority, strategy.small_fee_threshold)
    miner = MinerState(cfg=cfg, params=params, build_trees=build_trees)
    result = RunResult(blocks=miner.sealed, assignments=miner.assignments)

    fee_submitted: List[float] = []
    fee_evicted: List[float] = []
    fee_rejected: List[float] = []

    def absorb(tx: Transaction):
        result.submitted_count += 1
        fee_submitted.append(tx.fee)
        outcome, evicted = pool.submit(tx)
        if outcome is SubmitOutcome.REJECTED:
            result.rejected_count += 1
            fee_rejected.append(tx.fee)
        elif outcome is SubmitOutcome.EVICTED_OTHER:
            result.evicted_count += 1
            fee_evicted.append(evicted.fee)

    def mine_one() -> bool:
        tx = None
        if (strategy.designated_space
                and miner.current.small_fee_used < strategy.small_fee_count):
            tx = pool.select_next_small_fee()
        if tx is None:
            tx = pool.select_next()
        if tx is None:
            return False
        try_incorporate(miner, tx, strategy, cfg)
        result.included_count += 1
        return True

    target = cfg.block_count_target
    warm = min(len(txs), strategy.mempool_size)
    for tx in txs[:warm]:
        absorb(tx)
    stopped = False
    for tx in txs[warm:]:
        absorb(tx)
        mine_one()
        if target is not None and len(miner.sealed) >= target:
            stopped = True
            break
    if not stopped:
        while mine_one():
            if target is not None and len(miner.sealed) >= target:
                break

    tail = miner.current
    if force_seal and tail.txs:
        miner.seal_current()
    else:
        result.unsealed_count = len(tail.txs)
        result.unsealed_fees = math.fsum(t.fee for t in tail.txs)
        result.included_count -= len(tail.txs)

    result.pending_count = len(pool)
    result.pending_fees = pool.pending_fees()
    result.submitted_fees = math.fsum(fee_submitted)
    result.evicted_fees = math.fsum(fee_evicted)
    result.rejected_fees = math.fsum(fee_rejected)
    return result


def fixed_block_baseline(dataset: Sequence[Transaction], txs_per_block: int = 2100) -> List[BlockRecord]:
    """Reference chain that packs a fixed transaction count per block.

    Consecutive arrival-order chunks of `txs_per_block` transactions become
    blocks; the final partial chunk is dropped, mirroring the unsealed-tail
    rule of the strategy runs.
    """
    if txs_per_block < 1:
        raise ValueError("txs_per_block must be positive")
    blocks = []
    txs = list(dataset)
    for height, start in enumerate(range(0, len(txs) - txs_per_block + 1, txs_per_block)):
        chunk = txs[start: start + txs_per_block]
        blocks.append(BlockRecord(
            height=height,
            tx_ids=tuple(t.id for t in chunk),
            occupied_nodes=txs_per_block,
            incentive=block_incentive(t.fee for t in chunk),
            seal_time=max(t.arrival_time for t in chunk),
        ))
    return blocks


def write_blocks_csv(blocks: Sequence[BlockRecord], path) -> int:
    """Write the block series CSV (height, tx_count, occupied_nodes, incentive, seal_time)."""
    return write_csv_rows(path, ("height", "tx_count", "occupied_nodes", "incentive", "seal_time"),
                          ((b.height, len(b.tx_ids), b.occupied_nodes, b.incentive, b.seal_time)
                           for b in blocks))


def write_assignments_csv(assignments, path) -> int:
    """Write tx-to-block assignments CSV (tx_id, block, fee, nodes)."""
    return write_csv_rows(path, ("tx_id", "block", "fee", "nodes"), assignments)
