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

The pool holds a1 positions after warm-up and loses one to every pick, so
it overflows exactly once, at position a1, before the first pick: the
cheapest pending transaction by (fee, arrival, id) is evicted when the
newcomer pays strictly more, else the newcomer is rejected. `_mine` settles
that once and then takes one of two branches. With reserved small-fee slots
(a5 > 0) each pick depends on a quota that resets at every seal, so the
miner steps once per pick over two disjoint heaps of pending ranks, one for
the fees below the small-fee threshold and one for the rest: it pops the
small heap while the block's quota is open, else the lower of the two heads,
which is the lowest pending rank. Without them (categories 2 and 4, and 1
and 3 with a5 = 0) the run is computed from whole arrays, and exactly: each
arrival after the overflow is one `heappushpop` on the rank heap, and the
drain is the rest of the heap in rank order. Every slot count is at least
1, so the running slot total of the picks rises strictly and each next-fit
seal is one `searchsorted` on it; the block-count target, `force_seal` and
the fate of every transaction follow from the same indices.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from heapq import heapify, heappop, heappush, heappushpop
from itertools import chain, repeat
from typing import Iterable, List, Sequence, Tuple

import numpy as np

from .allocation import AllocationParams, block_incentive, leaf_slots
from .core import (BlockRecord, DataError, DtsStrategy, Priority, SimulationConfig,  # noqa: F401
                   Stream, Transaction, validate_strategy, write_csv_rows)
from .ingest import MIN_POSITIVE_FEE
from . import verkle


def _ranks(stream: Stream, priority: Priority) -> Tuple[array, array]:
    """Every position's rank in `priority` order, and the positions in rank
    order, as array('q')s:
      time-based  (arrival asc, fee desc, id asc)
      fee-based   (fee desc, arrival asc, id asc)
    The order is total, as a stream's ids are unique."""
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
    return (array("q", rank.astype(np.int64, copy=False).tobytes()),
            array("q", order.astype(np.int64, copy=False).tobytes()))


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
    # The ranks and heaps live only inside _mine, so they are freed before
    # the block records and assignment rows are built.
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
    are int64 arrays.

    The one overflow, at position a1, is settled before any pick, so its
    victim never enters the pool. Without reserved slots the picks and seals
    then come from whole-array operations; with them, from one step per
    pick over the disjoint small-fee and other heaps, which together hold
    at most a1 ranks."""
    fees = stream.fees
    # Zero fees (injected underpayers) take the minimum positive fee's slots. Slots
    # come before the ranks, so the mapping's temporaries and the ranks never coexist.
    params = AllocationParams(strategy.scale, strategy.shape, strategy.max_trx_nodes)
    slot_of = leaf_slots(np.where(fees > 0, fees, MIN_POSITIVE_FEE), params)
    rank, order = _ranks(stream, strategy.priority)
    reserve = strategy.small_fee_count if strategy.designated_space else 0
    capacity = cfg.leaf_capacity
    target = cfg.block_count_target
    n_txs = submitted = len(stream)
    warm = strategy.mempool_size
    sealed: List[Tuple[int, int]] = []
    evicted: List[int] = []
    rejected: List[int] = []
    victim = None
    if warm < n_txs:
        # Position warm evicts the cheapest of the full pool by (fee, arrival,
        # id) when it pays strictly more, and is rejected otherwise.
        cheapest = int(np.lexsort((stream.ids[:warm], stream.arrivals[:warm], fees[:warm]))[0])
        victim = cheapest if fees[warm] > fees[cheapest] else warm
        (rejected if victim == warm else evicted).append(victim)

    if reserve == 0:
        # From the pool after the overflow: the pick at the overflow, one
        # push-pop per later arrival, the drain.
        overflow = victim is not None
        heap = rank[:warm + 1].tolist()
        if overflow:
            heap.remove(rank[victim])
        heapify(heap)
        ranks = np.fromiter(chain(map(heappop, repeat(heap, overflow)),
                                  map(heappushpop, repeat(heap), rank[warm + 1:]),
                                  map(heappop, repeat(heap, len(heap) - overflow))),
                            np.int64, count=n_txs - overflow)
        picks = np.frombuffer(order, dtype=np.int64)[ranks]
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
        below = (fees < strategy.small_fee_threshold).tobytes()
        # Two disjoint heaps of the pending ranks, split by the small-fee
        # threshold. Every pick pops the heap it read, so together they hold
        # at most a1 ranks.
        small: List[int] = []
        large: List[int] = []
        picks = array("q")
        filled = small_used = 0

        def mine_one() -> bool:
            # While the block holds fewer than a5 small fees a waiting one
            # comes first; otherwise the lower of the two heads by rank.
            # Reserved slots share the block's capacity; the count resets at
            # each seal.
            nonlocal filled, small_used
            if small and (small_used < reserve or not large or small[0] < large[0]):
                pos = order[heappop(small)]
            elif large:
                pos = order[heappop(large)]
            else:
                return False
            n = slot_of[pos]
            if filled + n > capacity:
                sealed.append((len(picks), filled))
                filled = small_used = 0
            small_used += below[pos]
            picks.append(pos)
            filled += n
            return True

        # Warm-up fills the pool; then one pick per arrival, then the drain.
        for pos in range(n_txs):
            if pos != victim:
                heappush(small if below[pos] else large, rank[pos])
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

    waiting = np.ones(submitted, dtype=bool)
    waiting[picks] = waiting[evicted + rejected] = False
    pending = np.flatnonzero(waiting)

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
