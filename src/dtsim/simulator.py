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
that once and then takes one of two branches. Every slot count is at least
1, so the running slot total of a run of picks rises strictly and each
next-fit seal in it is one `searchsorted` on that total (`_next_fit`).

With reserved small-fee slots (a5 > 0) a waiting small fee comes first
while the block's quota is open, else the lowest pending rank, and the
quota resets at every seal. While arrivals continue the pending ranks sit
in two disjoint heaps, one for the fees below the small-fee threshold and
one for the rest. Where the small-fee heap is empty and at least STRETCH
arrivals pass before the next small fee, every pick of that stretch pops
the other heap, so the stretch is one `heappushpop` chain on it; elsewhere
the miner steps once per arrival. After the last arrival the pending ranks
are fixed, and `_drain` takes each block's picks at once by bisection over
the two sorted lists.

Without them (categories 2 and 4, and 1 and 3 with a5 = 0) the run is
computed from whole arrays, and exactly: each arrival after the overflow is
one `heappushpop` on the rank heap, and the drain is the rest of the heap in
rank order. When every rank arrives by its turn, as under time priority
unless tied arrivals put a higher fee later, that chain yields the ranks in
order, and the picks are the rank order less the overflow's victim.

Both branches mine the whole stream; `run` alone goes on to `force_seal`,
block records and fates. It stores no assignment row: `Assignments` derives
the rows from the picks, the block bounds and the slot counts when iterated.
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


# The fewest arrivals a `heappushpop` chain takes in the reserved branch: a
# chain's fixed numpy cost matches about a dozen single steps.
STRETCH = 16


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


class Assignments:
    """A run's (tx_id, block, fee, nodes) rows in block order, each block's in
    pick order: a sized, re-iterable view that derives them a run of blocks
    at a time through `_blocks` and holds no row. Its arrays are read-only."""

    def __init__(self, stream: Stream, picks: np.ndarray, bounds: Sequence[int],
                 slot_of: np.ndarray):
        picks.flags.writeable = slot_of.flags.writeable = False
        self.stream, self.picks, self.bounds, self.slot_of = stream, picks, tuple(bounds), slot_of

    def __len__(self) -> int:
        return self.bounds[-1]

    def __iter__(self) -> Iterator[Tuple[int, int, float, int]]:
        columns = (self.stream.ids, self.stream.fees, self.slot_of)
        for height, (ids, fees, slots) in enumerate(zip(
                *(_blocks(column, self.picks, self.bounds) for column in columns))):
            yield from zip(ids, repeat(height), fees, slots)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Assignments):
            return NotImplemented
        return len(self) == len(other) and all(map(tuple.__eq__, self, other))


@dataclass
class RunResult:
    """Sealed blocks, their assignment rows as a view, and every transaction's fate.

    A run mines its whole stream, so no transaction is left pending:
    `pending_count` and `pending_fees` are always 0; they stay while perfbench
    reads them, until ROADMAP item 12."""

    blocks: List[BlockRecord]
    assignments: Assignments
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
    roots = ((verkle.block_root(stream.ids[at], slot_of[at], cfg.verkle_branching_factor)
              for at in (picks[begin:end] for begin, end in zip(bounds, bounds[1:])))
             if build_trees else repeat(None))
    blocks = [BlockRecord(height, tuple(tx_ids), nodes, math.fsum(block_fees), seal_time, root)
              for height, (tx_ids, block_fees, seal_time, (_, nodes), root) in enumerate(zip(
                  *(_blocks(column, picks, bounds) for column in (stream.ids, stream.fees)),
                  seal_times, sealed, roots))]

    def fee_sum(positions) -> float:
        # A memoryview yields Python floats one at a time: no numpy scalars, no list.
        return math.fsum(memoryview(stream.fees[positions]))

    # The overflow's victim is rejected if it is the newcomer at position a1, else evicted.
    lost = [] if victim is None else [victim]
    evicted, rejected = ([], lost) if victim == strategy.mempool_size else (lost, [])
    return RunResult(blocks, Assignments(stream, picks, bounds, slot_of), len(stream),
                     fee_sum(slice(None)), included, len(evicted), fee_sum(evicted),
                     len(rejected), fee_sum(rejected), unsealed_count=len(picks) - included,
                     unsealed_fees=fee_sum(picks[included:]))


def incentives(dataset, strategy: DtsStrategy, cfg: SimulationConfig) -> List[float]:
    """`run(dataset, strategy, cfg).incentives` from the same picks, seals and
    slicing, but with no block records, assignment rows or fate accounting."""
    stream, picks, sealed = _mine(dataset, strategy, cfg)[:3]
    return list(map(math.fsum, _blocks(stream.fees, picks, [0, *(end for end, _ in sealed)])))


def _blocks(column: np.ndarray, picks: np.ndarray, bounds: Sequence[int]) -> Iterator[list]:
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
    whole of `dataset`, in the two branches the module docstring describes.
    Returns `dataset` as a Stream, the picks, each sealed block as (end index
    into the picks, occupied slots), every position's slot count (picks and
    slot counts are int64 arrays) and the overflow's victim (None without one)."""
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
        # Pick k is made once positions 0 .. a1 + k have arrived. If the k-th
        # rank less the victim's has arrived by then, for every k, the picks
        # are the rank order, as always without an overflow; otherwise they
        # come from the pool after the overflow: the pick at the overflow,
        # one push-pop per later arrival, the drain.
        picks = np.frombuffer(order, dtype=np.int64)
        if victim is not None:
            picks = np.delete(picks, rank[victim])
        if not (picks <= np.arange(warm, warm + len(picks))).all():
            heap = rank[:warm + 1].tolist()
            heap.remove(rank[victim])
            heapify(heap)
            ranks = np.fromiter(chain(map(heappop, repeat(heap, 1)),
                                      map(heappushpop, repeat(heap), rank[warm + 1:]),
                                      map(heappop, repeat(heap, len(heap) - 1))),
                                np.int64, count=n_txs - 1)
            picks = np.frombuffer(order, dtype=np.int64)[ranks]
            del ranks, heap
        _next_fit(np.cumsum(slot_of[picks]), 0, capacity, 0, sealed)
    else:
        # The loop reads slot counts from an array('q'); holding the numpy
        # column through it instead raised the peak RSS of a 200k run by
        # 4 MB, with the same traced peak.
        slot_of = array("q", slot_of.tobytes())
        is_small = fees < strategy.small_fee_threshold
        below = is_small.tobytes()
        # A stretch runs from a position where no small fee waits to the next
        # small-fee arrival (`stops`, ending in n_txs); `heads` are the first
        # positions of the gaps between them that hold at least STRETCH
        # arrivals, past a newcomer rejected at the overflow.
        stops = np.append(np.flatnonzero(is_small[warm:]) + warm, n_txs)
        after = np.append(warm + (victim == warm), stops[:-1] + 1)
        heads = array("q", after[stops - after >= STRETCH].tobytes())
        heads.append(n_txs)
        stops = array("q", stops.tobytes())
        del after
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
        order_np, slots_np = (np.frombuffer(a, dtype=np.int64) for a in (order, slot_of))
        picks, filled, small_used = array("q"), 0, 0
        pos = warm
        while pos < n_txs:
            gate = heads[bisect_left(heads, pos)]
            # One pick per arrival from a pool that is never empty: the small
            # heap while the quota is open, else the lower of the two heads.
            for pos in range(pos, n_txs):
                if pos >= gate and not small:
                    break
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
            else:
                break
            stop = stops[bisect_left(stops, pos)]
            if stop - pos < STRETCH:
                continue
            # No small fee waits or arrives before `stop`, so every pick up
            # to it pops the other heap, and the quota only resets at seals.
            took = order_np[np.fromiter(map(heappushpop, repeat(large), rank[pos:stop]),
                                        np.int64, stop - pos)]
            cum = np.cumsum(slots_np[took])
            blocks = len(sealed)
            filled = int(cum[-1]) - _next_fit(cum, -filled, capacity, len(picks), sealed)
            if len(sealed) > blocks:
                small_used = 0
            picks.frombytes(took.tobytes())
            pos = stop
        picks.frombytes(_drain(small, large, order, slot_of, reserve, capacity,
                               filled, small_used, len(picks), sealed).tobytes())
        picks, slot_of = (np.frombuffer(a, dtype=np.int64) for a in (picks, slot_of))
    return stream, picks, sealed, slot_of, victim


def _next_fit(cum: np.ndarray, base: int, capacity: int, done: int, sealed: list) -> int:
    """Append to `sealed` the next-fit seals of a run of picks, the first
    `done` picks in, whose running slot totals are `cum`; the open block
    holds the picks from running total `base` on (-filled: its slots before
    the run). Returns the base of the block left open."""
    while (end := int(cum.searchsorted(base + capacity, side="right"))) < len(cum):
        opened = int(cum[end - 1]) if end else 0
        sealed.append((done + end, opened - base))
        base = opened
    return base


def _drain(S: List[int], L: List[int], order: array, slot_of: array, reserve: int, capacity: int,
           filled: int, small_used: int, done: int, sealed: list) -> np.ndarray:
    """The reserved miner after the last arrival, `done` picks in, with the
    open block's `filled` slots and `small_used` quota: appends its seals to
    `sealed` and returns its picks.

    The pending ranks are fixed, so the heaps of small-fee ranks S and other
    ranks L are sorted once, in place, and taken as int64 arrays once, for
    the prefix sums PS and PL of their slots and for the final order.
    Every pick takes the head of one, so the state is two indices (i, j), and
    each step takes the picks of one block segment by bisection: S[i:] while
    the quota is open or only small fees wait, L[j:] when only other fees
    wait, else the merge of both by rank, whose slots below rank r rise with
    r. The pick that does not fit opens the next block under the old block's
    quota. Each step's picks are in rank order, and the drain takes every
    pending rank, so its picks are S and L sorted by (step, rank)."""
    S.sort()
    L.sort()
    order_np, slots = (np.frombuffer(a, dtype=np.int64) for a in (order, slot_of))
    taken = [np.array(ranks, dtype=np.int64) for ranks in (S, L)]
    PS, PL = (np.concatenate(([0], np.cumsum(slots[order_np[ranks]]))).tolist() for ranks in taken)
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
    del PS, PL
    took = np.diff(np.frombuffer(ends, dtype=np.int64).reshape(-1, 2), axis=0, prepend=0)
    step = np.repeat(np.tile(np.arange(len(took)), 2), took.T.ravel())
    ranks = np.concatenate(taken)
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
