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
(a5 > 0) a waiting small fee comes first while the block's quota is open,
else the lowest pending rank, and the quota resets at every seal. While
arrivals continue the miner steps once per pick over two disjoint heaps of
pending ranks, one for the fees below the small-fee threshold and one for
the rest; after the last arrival the pending ranks are fixed, and `_drain`
takes each block's picks at once by bisection over the two sorted lists.
Without them (categories 2 and 4, and 1 and 3 with a5 = 0) the run is
computed from whole arrays, and exactly: each arrival after the overflow is
one `heappushpop` on the rank heap, and the drain is the rest of the heap in
rank order. Every slot count is at least 1, so the running slot total of
the picks rises strictly and each next-fit seal is one `searchsorted` on it.
Both branches mine the whole stream; `run` alone goes on to `force_seal`,
block records and fates.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from heapq import heapify, heappop, heappush, heappushpop
from itertools import chain, repeat
from typing import Iterable, Iterator, List, Sequence, Tuple

import numpy as np

from .allocation import AllocationParams, block_incentive, log_slots
from .core import (BlockRecord, DataError, DtsStrategy, Priority, SimulationConfig,  # noqa: F401
                   Stream, Transaction, validate_strategy, write_csv_rows)
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
    """Sealed blocks plus an accounting of every submitted transaction's fate.

    A run mines its whole stream, so no transaction is left pending:
    `pending_count` and `pending_fees` keep their 0 and 0.0 for `dtsim
    simulate`'s summary and the benchmark, which read them."""

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
    ends up included in exactly one block, in the unsealed tail block,
    evicted, or rejected, and the per-fate fee sums in the result add up to
    the submitted total, which is the whole stream.
    The unsealed tail block is excluded from the block series unless
    `force_seal` is given. Raises DataError when the transactions do not
    form a valid Stream.

    With `build_trees`, each block's `verkle_root` is `verkle.block_root` of
    its id and slot-count columns, numpy slices at the block's picks: one
    12-byte preimage per occupied leaf slot, one sha256 per leaf and per
    group, and one block's 32-byte leaf digests held at a time. The leaf
    packing takes ids as unsigned, so a negative id is a DataError, raised
    before mining.
    """
    stream = Stream.of(dataset)
    if build_trees:
        negative = np.flatnonzero(stream.ids < 0)
        if negative.size:
            at = int(negative[0])
            raise DataError(f"Verkle roots need non-negative transaction ids: transaction "
                            f"{stream.ids[at]} at position {at} is negative")
    # The ranks and heaps live only inside _mine: freed before the records are built.
    stream, picks, sealed, slot_of, victim = _mine(stream, strategy, cfg)
    bounds = [0, *(end for end, _ in sealed)]
    if force_seal and len(picks) > bounds[-1]:
        sealed.append((len(picks), int(slot_of[picks[bounds[-1]:]].sum())))
        bounds.append(len(picks))
    included = bounds[-1]
    seal_times = np.maximum.reduceat(stream.arrivals[picks[:included]], bounds[:-1]).tolist()
    blocks, assignments = [], []
    for height, (tx_ids, block_fees, block_slots, seal_time, (_, nodes)) in enumerate(zip(
            *(_blocks(column, picks, bounds) for column in (stream.ids, stream.fees, slot_of)),
            seal_times, sealed)):
        tx_ids = tuple(tx_ids)
        root = None
        if build_trees:
            at = picks[bounds[height]:bounds[height + 1]]
            root = verkle.block_root(stream.ids[at], slot_of[at], cfg.verkle_branching_factor)
        blocks.append(BlockRecord(
            height=height, tx_ids=tx_ids, occupied_nodes=nodes, incentive=math.fsum(block_fees),
            seal_time=seal_time, verkle_root=root))
        assignments.extend(zip(tx_ids, repeat(height), block_fees, block_slots))

    def fee_sum(positions) -> float:
        # A memoryview yields Python floats one at a time: no numpy scalars, no list.
        return math.fsum(memoryview(stream.fees[positions]))

    # The overflow's victim is rejected if it is the newcomer at position a1, else evicted.
    lost = [] if victim is None else [victim]
    evicted, rejected = ([], lost) if victim == strategy.mempool_size else (lost, [])
    return RunResult(blocks, assignments, len(stream), fee_sum(slice(None)), included,
                     len(evicted), fee_sum(evicted), len(rejected), fee_sum(rejected),
                     unsealed_count=len(picks) - included, unsealed_fees=fee_sum(picks[included:]))


def incentives(dataset, strategy: DtsStrategy, cfg: SimulationConfig) -> List[float]:
    """`run(dataset, strategy, cfg).incentives` from the same picks, seals and
    slicing, but with no block records, assignment rows or fate accounting."""
    stream, picks, sealed = _mine(dataset, strategy, cfg)[:3]
    return list(map(math.fsum, _blocks(stream.fees, picks, [0, *(end for end, _ in sealed)])))


def _blocks(column: np.ndarray, picks: np.ndarray, bounds: List[int]) -> Iterator[list]:
    """`column` at picks[bounds[i]:bounds[i + 1]] for each block i: slices of one `tolist`
    per run of whole blocks that just reaches 4096 picks, so no whole column is held."""
    at = 0
    while at < len(bounds) - 1:
        ends = bounds[at:bisect_left(bounds, bounds[at] + 4096, at) + 1]
        values = column[picks[ends[0]:ends[-1]]].tolist()
        yield from (values[begin - ends[0]:end - ends[0]] for begin, end in zip(ends, ends[1:]))
        at += len(ends) - 1


def _mine(dataset: Iterable[Transaction], strategy: DtsStrategy, cfg: SimulationConfig):
    """The run loop on positions, shared by `run` and `incentives`, over the
    whole of `dataset`. Returns `dataset` as a Stream, the picks, each sealed
    block as (end index into the picks, occupied slots), every position's
    slot count (picks and slot counts are int64 arrays) and the overflow's
    victim (None without one).

    The one overflow, at position a1, is settled before any pick, so its
    victim never enters the pool. Without reserved slots the picks and seals
    then come from whole-array operations; with them, from one step per
    arrival over the disjoint small-fee and other heaps, which together hold
    at most a1 ranks, and one step per block segment of the drain."""
    problems = validate_strategy(strategy, cfg)
    if problems:
        raise ValueError("invalid strategy: " + "; ".join(problems))
    stream = Stream.of(dataset)
    fees = stream.fees
    # Slots come before the ranks, so the mapping's temporaries and the ranks never coexist.
    params = AllocationParams(strategy.scale, strategy.shape, strategy.max_trx_nodes)
    slot_of = log_slots(stream.fee_logs, params)
    rank, order = _ranks(stream, strategy.priority)
    reserve = strategy.small_fee_count if strategy.designated_space else 0
    capacity = cfg.leaf_capacity
    n_txs = len(stream)
    warm = strategy.mempool_size
    sealed: List[Tuple[int, int]] = []
    victim = None
    if warm < n_txs:
        # Position warm evicts the cheapest of the full pool by (fee, arrival,
        # id) when it pays strictly more, and is rejected otherwise.
        cheapest = int(np.lexsort((stream.ids[:warm], stream.arrivals[:warm], fees[:warm]))[0])
        victim = cheapest if fees[warm] > fees[cheapest] else warm

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
        while (end := int(np.searchsorted(cum, base + capacity, side="right"))) < len(picks):
            sealed.append((end, int(cum[end - 1]) - base))
            base = int(cum[end - 1])
        del cum
    else:
        # The loop reads slot counts from an array('q'); holding the numpy
        # column through it instead raised the peak RSS of a 200k run by
        # 4 MB, with the same traced peak.
        slot_of = array("q", slot_of.tobytes())
        is_small = fees < strategy.small_fee_threshold
        below = is_small.tobytes()
        # Two disjoint heaps of the pending ranks, split by the small-fee
        # threshold: the warm-up pool, less an evicted position. Every pick
        # pops the heap it read, so together they hold at most a1 ranks.
        pool = np.frombuffer(rank, dtype=np.int64)[:warm]
        small, large = pool[is_small[:warm]].tolist(), pool[~is_small[:warm]].tolist()
        del pool, is_small
        if victim is not None and victim < warm:
            (small if below[victim] else large).remove(rank[victim])
        heapify(small)
        heapify(large)
        picks, filled, small_used = array("q"), 0, 0
        # One pick per arrival from a pool that is never empty: the small heap
        # while the quota is open, else the lower of the two heads.
        for pos in range(warm, n_txs):
            if pos != victim:
                heappush(small if below[pos] else large, rank[pos])
            if small and (small_used < reserve or not large or small[0] < large[0]):
                pick = order[heappop(small)]
            else:
                pick = order[heappop(large)]
            n = slot_of[pick]
            if filled + n > capacity:
                sealed.append((len(picks), filled))
                filled = small_used = 0
            small_used += below[pick]
            picks.append(pick)
            filled += n
        picks.frombytes(_drain(small, large, order, slot_of, reserve, capacity,
                               filled, small_used, len(picks), sealed).tobytes())
        picks, slot_of = (np.frombuffer(a, dtype=np.int64) for a in (picks, slot_of))
    return stream, picks, sealed, slot_of, victim


def _drain(S: List[int], L: List[int], order: array, slot_of: array, reserve: int, capacity: int,
           filled: int, small_used: int, done: int, sealed: list) -> np.ndarray:
    """The reserved miner after the last arrival, `done` picks in, with the
    open block's `filled` slots and `small_used` quota: appends its seals to
    `sealed` and returns its picks.

    The pending ranks are fixed, so the heaps of small-fee ranks S and other
    ranks L are sorted once, in place, with prefix sums PS and PL of their slots.
    Every pick takes the head of one, so the state is two indices (i, j), and
    each step takes the picks of one block segment by bisection: S[i:] while
    the quota is open or only small fees wait, L[j:] when only other fees
    wait, else the merge of both by rank, whose slots below rank r rise with
    r. The pick that does not fit opens the next block under the old block's
    quota. Each step's picks are in rank order, so all of them are the taken
    ranks sorted by (step, rank)."""
    S.sort()
    L.sort()
    order_np, slots = (np.frombuffer(a, dtype=np.int64) for a in (order, slot_of))
    PS, PL = (np.concatenate(([0], np.cumsum(slots[order_np[ranks]]))).tolist() for ranks in (S, L))
    n_small, n_large = len(S), len(L)
    i, j, ends = 0, 0, array("q")
    while i < n_small or j < n_large:
        room = capacity - filled
        if i < n_small and (small_used < reserve or j == n_large):
            quota = i + reserve - small_used if small_used < reserve else n_small
            a, b = min(bisect_right(PS, PS[i] + room, i) - 1, quota), j
            seal = a < min(quota, n_small)
        elif i == n_small:
            a, b = i, bisect_right(PL, PL[j] + room, j) - 1
            seal = b < n_large
        elif PS[-1] + PL[-1] <= PS[i] + PL[j] + room:
            a, b, seal = n_small, n_large, False
        else:
            # The first rank whose merged slots overflow the block; at most
            # `room` picks fit, so the (room + 1)-th rank of either list bounds it.
            lo = min(S[i], L[j])
            hi = min(S[i + room:i + room + 1] + L[j + room:j + room + 1] + [max(S[-1], L[-1])])
            first = lo + bisect_right(range(lo, hi + 1), PS[i] + PL[j] + room, key=lambda r: (
                PS[bisect_left(S, r + 1, i)] + PL[bisect_left(L, r + 1, j)]))
            a, b, seal = bisect_left(S, first, i), bisect_left(L, first, j), True
        filled += PS[a] - PS[i] + PL[b] - PL[j]
        small_used += a - i
        done += a - i + b - j
        i, j = a, b
        if seal:
            sealed.append((done, filled))
            done += 1
            if i < n_small and (small_used < reserve or j == n_large or S[i] < L[j]):
                filled, small_used, i = PS[i + 1] - PS[i], 1, i + 1
            else:
                filled, small_used, j = PL[j + 1] - PL[j], 0, j + 1
        ends.extend((i, j))
    took = np.diff(np.frombuffer(ends, dtype=np.int64).reshape(-1, 2), axis=0, prepend=0)
    step = np.repeat(np.tile(np.arange(len(took)), 2), took.T.ravel())
    ranks = np.array(S[:i] + L[:j], dtype=np.int64)
    return order_np[ranks[np.lexsort((ranks, step))]]


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
