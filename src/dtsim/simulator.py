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

`run` reads the fee, arrival and id columns of one checked `core.Stream`,
maps all fees to slot counts in one vectorized pass and ranks every position
once in the pool's priority order; pool and miner then handle int positions,
and a block is a contiguous slice of the pick sequence.

Mining takes one of two branches. With reserved small-fee slots (a5 > 0)
each pick depends on a quota that resets at every seal, so the pool and
miner step once per pick. Without them (categories 2 and 4, and 1 and 3
with a5 = 0) the run is computed from whole arrays, and exactly: the pool
holds a1 positions after warm-up and loses one to every pick, so it
overflows once, at position a1, where the cheapest pending transaction is
evicted or the newcomer rejected. From then on each arrival is one
`heappushpop` on the rank heap, and the drain is the rest of the heap in
rank order. Every slot count is at least 1, so the running slot total of
the picks rises strictly and each next-fit seal is one `searchsorted` on it;
the block-count target, `force_seal` and the fate of every transaction
follow from the same indices.
"""

from __future__ import annotations

import enum
import math
from array import array
from dataclasses import dataclass
from heapq import heapify, heappop, heappush, heappushpop
from itertools import chain, repeat
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .allocation import AllocationParams, block_incentive, leaf_slots
from .core import (BlockRecord, DataError, DtsStrategy, Priority, SimulationConfig,  # noqa: F401
                   Stream, Transaction, validate_strategy, write_csv_rows)
from .ingest import MIN_POSITIVE_FEE
from . import verkle


class SubmitOutcome(enum.Enum):
    ACCEPTED = "accepted"
    EVICTED_OTHER = "evicted-other"
    REJECTED = "rejected"


_ACCEPTED = (SubmitOutcome.ACCEPTED, None)
_REJECTED = (SubmitOutcome.REJECTED, None)


class Mempool:
    """Bounded holding area that admits, evicts and yields positions into
    `stream` in one priority order.

    Selection order, fixed at construction by the strategy's priority:
      time-based  (arrival asc, fee desc, id asc)
      fee-based   (fee desc, arrival asc, id asc)
    Every position is ranked once in that order (total, as a stream's ids
    are unique), and a lazy-deletion heap of ranks runs over a bytearray of
    live positions; with a small-fee threshold a second heap of the same
    ranks holds the below-threshold subset for reserved-slot selection. A
    heap that reaches twice the capacity drops its dead ranks before the
    next push, so memory stays bounded by the capacity, not the stream.

    On overflow the cheapest pending transaction by (fee asc, arrival asc,
    id asc) is evicted, and only when the newcomer pays strictly more. That
    is found by scanning the live positions rather than kept in an eviction
    heap: `run` takes one pick per arrival after warm-up, so the pool
    overflows at most once per run.

    `run` steps through `submit` and `_take` only when slots are reserved.
    Otherwise it uses just the ranks and the eviction rule (`_evictee`) of
    the pool, and replays the heap itself (see the module docstring).
    """

    def __init__(self, stream: Stream, capacity: int,
                 priority: Priority = Priority.TIME,
                 small_fee_threshold: Optional[float] = None):
        if capacity < 1:
            raise ValueError("mempool capacity must be positive")
        self.capacity = capacity
        self.stream = stream
        fees = stream.fees
        keys = ((stream.ids, -fees, stream.arrivals) if priority is Priority.TIME
                else (stream.ids, stream.arrivals, -fees))
        # Sort by the primary key, then lexsort only the positions tied on it:
        # a stream comes in arrival order, so the time order costs about O(n).
        order = np.argsort(keys[-1], kind="stable")
        same = np.flatnonzero(keys[-1][order[1:]] == keys[-1][order[:-1]])
        at = np.union1d(same, same + 1)
        tied = order[at]
        order[at] = tied[np.lexsort(tuple(k[tied] for k in keys))]
        rank = np.empty_like(order)
        rank[order] = np.arange(len(order))
        self._order = array("q", order.astype(np.int64, copy=False).tobytes())
        self._rank = array("q", rank.astype(np.int64, copy=False).tobytes())
        self._below = bytes(len(order)) if small_fee_threshold is None else \
            (fees < small_fee_threshold).tobytes()
        self._live = bytearray(len(order))
        self._count = 0
        self._heap: List[int] = []
        self._small: List[int] = []

    def __len__(self) -> int:
        return self._count

    def __contains__(self, pos: int) -> bool:
        return bool(self._live[pos])

    def _pending(self) -> np.ndarray:
        return np.flatnonzero(np.frombuffer(self._live, dtype=np.uint8))

    def pending_fees(self) -> float:
        return math.fsum(self.stream.fees[self._pending()].tolist())

    def submit(self, pos: int):
        """Admit position `pos`, evicting the cheapest pending one if needed.

        Returns (SubmitOutcome, evicted position or None).
        """
        outcome = _ACCEPTED
        if self._count >= self.capacity:
            cheapest = self._evictee(self._pending(), pos)
            if cheapest is None:
                return _REJECTED
            self._live[cheapest] = 0
            self._count -= 1
            outcome = (SubmitOutcome.EVICTED_OTHER, cheapest)
        self._live[pos] = 1
        self._count += 1
        r = self._rank[pos]
        for heap in (self._heap, self._small) if self._below[pos] else (self._heap,):
            if len(heap) >= 2 * self.capacity:
                # At most `capacity` ranks are live, so at least half are dead.
                heap[:] = [x for x in heap if self._live[self._order[x]]]
                heapify(heap)
            heappush(heap, r)
        return outcome

    def _evictee(self, pending: np.ndarray, pos: int) -> Optional[int]:
        """The position among `pending` that newcomer `pos` evicts: the
        cheapest by (fee, arrival, id), when `pos` pays strictly more than
        it; None when `pos` is rejected."""
        s = self.stream
        cheapest = int(pending[np.lexsort((s.ids[pending], s.arrivals[pending],
                                           s.fees[pending]))[0]])
        return cheapest if s.fees[pos] > s.fees[cheapest] else None

    def select_next(self) -> Optional[int]:
        """Pop the next position in priority order, or None when empty."""
        return self._take(self._heap)

    def select_next_small_fee(self) -> Optional[int]:
        """Pop the next below-threshold position, or None when there is none."""
        return self._take(self._small)

    def _take(self, heap) -> Optional[int]:
        # Lazy deletion: ranks whose position is no longer live are discarded.
        live, order = self._live, self._order
        while heap:
            pos = order[heappop(heap)]
            if live[pos]:
                live[pos] = 0
                self._count -= 1
                return pos
        return None


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


def run(dataset: Iterable[Transaction], strategy: DtsStrategy, cfg: SimulationConfig,
        *, force_seal: bool = False, build_trees: bool = False) -> RunResult:
    """Simulate incorporation of `dataset` (a Stream, or transactions that
    `Stream.of` turns into one) under `strategy`.

    Deterministic: all randomness lives in the dataset. Every transaction
    ends up included in exactly one block, pending (in the pool or the
    unsealed tail block), evicted, or rejected, and the per-fate fee sums in
    the result add up to the submitted total. The unsealed tail block is
    excluded from the block series unless `force_seal` is given. Raises
    DataError when the transactions do not form a valid Stream.
    """
    problems = validate_strategy(strategy, cfg)
    if problems:
        raise ValueError("invalid strategy: " + "; ".join(problems))

    stream = Stream.of(dataset)
    if cfg.transaction_budget is not None:
        stream = stream.prefix(cfg.transaction_budget)
    result = RunResult(blocks=[], assignments=[])
    # The pool lives only inside _mine, so it is freed before the block
    # records and assignment rows are built.
    picks, sealed, slots = _mine(stream, strategy, cfg, force_seal, result)
    begin = 0
    for height, (end, nodes) in enumerate(sealed):
        block = picks[begin:end]
        tx_ids = tuple(stream.ids[block].tolist())
        block_fees = stream.fees[block].tolist()
        block_slots = slots[block].tolist()
        root = None
        if build_trees:
            digests = [verkle.slot_digest(tx_id, slot)
                       for tx_id, n in zip(tx_ids, block_slots) for slot in range(n)]
            root = verkle.build_tree(digests, cfg.verkle_branching_factor).root
        result.blocks.append(BlockRecord(
            height=height, tx_ids=tx_ids, occupied_nodes=nodes, incentive=math.fsum(block_fees),
            seal_time=int(stream.arrivals[block].max()), verkle_root=root))
        result.assignments.extend(zip(tx_ids, repeat(height), block_fees, block_slots))
        begin = end
    return result


def _mine(stream: Stream, strategy: DtsStrategy, cfg: SimulationConfig,
          force_seal: bool, result: RunResult):
    """The run loop on positions; fills the fate accounting of `result` and
    returns the picks, each sealed block as (end index into the picks,
    occupied slots), and every position's slot count; picks and slot counts
    are int64 arrays. Without reserved slots the picks and seals come from
    whole-array operations; with them, from one step per pick."""
    fees = stream.fees
    # Zero fees (injected underpayers) take the minimum positive fee's slots. Slots
    # come before the pool, so the mapping's temporaries and the ranks never coexist.
    params = AllocationParams(strategy.scale, strategy.shape, strategy.max_trx_nodes)
    slot_of = leaf_slots(np.where(fees > 0, fees, MIN_POSITIVE_FEE), params)
    pool = Mempool(stream, strategy.mempool_size, strategy.priority, strategy.small_fee_threshold)
    reserve = strategy.small_fee_count if strategy.designated_space else 0
    capacity = cfg.leaf_capacity
    target = cfg.block_count_target
    n_txs = submitted = len(stream)
    warm = strategy.mempool_size
    sealed: List[Tuple[int, int]] = []
    evicted: List[int] = []
    rejected: List[int] = []

    if reserve == 0:
        # The pool after the one overflow, at position `warm`, if the stream
        # gets that far: the newcomer is rejected or evicts the cheapest.
        rank = pool._rank
        heap = rank[:warm + 1].tolist()
        overflow = warm < n_txs
        if overflow:
            cheapest = pool._evictee(np.arange(warm), warm)
            victim = warm if cheapest is None else cheapest
            (rejected if cheapest is None else evicted).append(victim)
            heap.remove(rank[victim])
        heapify(heap)
        # The pick at the overflow, one push-pop per later arrival, the drain.
        ranks = np.fromiter(chain(map(heappop, repeat(heap, overflow)),
                                  map(heappushpop, repeat(heap), rank[warm + 1:]),
                                  map(heappop, repeat(heap, len(heap) - overflow))),
                            np.int64, count=n_txs - overflow)
        picks = np.frombuffer(pool._order, dtype=np.int64)[ranks]
        del ranks, heap
        # Next-fit sealing: every slot count is at least 1, so the running
        # total rises strictly and a block ends where it passes base + capacity.
        cum = np.cumsum(slot_of[picks])
        base = 0
        while target is None or len(sealed) < target:
            end = int(np.searchsorted(cum, base + capacity, side="right"))
            if end == len(picks):
                break
            sealed.append((end, int(cum[end - 1]) - base))
            base = int(cum[end - 1])
        else:
            # Pick `end` opened the block past the target and was taken at
            # arrival warm + end, or in the drain.
            picks = picks[:end + 1]
            if end < n_txs - warm:
                submitted = warm + end + 1
        filled = int(cum[len(picks) - 1]) - base if len(picks) else 0
        del cum
    else:
        # The loop reads slot counts from an array('q'); holding the numpy
        # column through it instead raised the peak RSS of a 200k run by
        # 4 MB, with the same traced peak.
        slot_of = array("q", slot_of.tobytes())
        below = pool._below
        picks = array("q")
        filled = small_used = 0
        submit, take = pool.submit, pool._take  # one call per pick, not two
        heap, small_heap = pool._heap, pool._small

        def mine_one() -> bool:
            # Reserved small-fee slots come first while the block has any left; they
            # share the block's capacity, and the quota resets at each seal.
            nonlocal filled, small_used
            pos = take(small_heap) if small_used < reserve else None
            if pos is None:
                pos = take(heap)
                if pos is None:
                    return False
            n = slot_of[pos]
            if filled + n > capacity:
                sealed.append((len(picks), filled))
                filled = small_used = 0
            if below[pos] and small_used < reserve:
                small_used += 1
            picks.append(pos)
            filled += n
            return True

        # Warm-up fills the pool; then one pick per arrival, then the drain.
        for pos in range(n_txs):
            outcome = submit(pos)
            if outcome is _REJECTED:
                rejected.append(pos)
            elif outcome is not _ACCEPTED:
                evicted.append(outcome[1])
            if pos >= warm:
                mine_one()
                if target is not None and len(sealed) >= target:
                    submitted = pos + 1
                    break
        else:
            while mine_one():
                if target is not None and len(sealed) >= target:
                    break
        picks, slot_of = (np.frombuffer(a, dtype=np.int64) for a in (picks, slot_of))

    if force_seal and len(picks) > (sealed[-1][0] if sealed else 0):
        sealed.append((len(picks), filled))
    included = sealed[-1][0] if sealed else 0

    def fee_sum(positions) -> float:
        return math.fsum(fees[positions].tolist())

    live = np.ones(submitted, dtype=bool)
    live[picks] = live[evicted + rejected] = False
    pending = np.flatnonzero(live)

    result.submitted_count, result.submitted_fees = submitted, math.fsum(fees[:submitted])
    result.included_count = included
    result.evicted_count, result.evicted_fees = len(evicted), fee_sum(evicted)
    result.rejected_count, result.rejected_fees = len(rejected), fee_sum(rejected)
    result.pending_count, result.pending_fees = len(pending), fee_sum(pending)
    result.unsealed_count = len(picks) - included
    result.unsealed_fees = fee_sum(picks[included:])
    return picks, sealed, slot_of


def fixed_block_baseline(dataset: Iterable[Transaction], txs_per_block: int = 2100) -> List[BlockRecord]:
    """Reference chain that packs a fixed transaction count per block.

    Consecutive arrival-order chunks of `txs_per_block` transactions become
    blocks; the final partial chunk is dropped, mirroring the unsealed-tail
    rule of the strategy runs.
    """
    if txs_per_block < 1:
        raise ValueError("txs_per_block must be positive")
    stream, n = Stream.of(dataset), txs_per_block
    return [BlockRecord(height=height, tx_ids=tuple(stream.ids[at:at + n].tolist()),
                        occupied_nodes=n, seal_time=int(stream.arrivals[at + n - 1]),
                        incentive=block_incentive(stream.fees[at:at + n].tolist()))
            for height, at in enumerate(range(0, len(stream) - n + 1, n))]


def write_blocks_csv(blocks: Sequence[BlockRecord], path) -> int:
    """Write the block series CSV (height, tx_count, occupied_nodes, incentive, seal_time)."""
    return write_csv_rows(path, ("height", "tx_count", "occupied_nodes", "incentive", "seal_time"),
                          ((b.height, len(b.tx_ids), b.occupied_nodes, b.incentive, b.seal_time)
                           for b in blocks))


def write_assignments_csv(assignments, path) -> int:
    """Write tx-to-block assignments CSV (tx_id, block, fee, nodes)."""
    return write_csv_rows(path, ("tx_id", "block", "fee", "nodes"), assignments)
