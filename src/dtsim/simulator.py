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

`run` and `incentives` each check their input once, as `Stream.of`, and
`_mine` maps all the stream's fees to slot counts in one vectorized pass,
through the descending fee order of its fee-priority ranks. It takes every
position's rank in the pool's priority order from the stream too, which
sorts once per priority and keeps the pair for its later runs. Pool and
miner handle int positions; the seals are one array of block ends into the
pick sequence, starting at 0, so block i lies between bounds i and i + 1.

The pool holds a1 positions after warm-up and loses one to every pick, so
it overflows exactly once, at position a1, before the first pick: the
cheapest pending transaction by (fee, arrival, id), first among the lowest
fees in the fee order, is evicted when the newcomer pays strictly more, else
the newcomer is rejected. Every slot count is at least 1, so the running
slot total of a run of picks rises strictly and each next-fit seal in it is
one `searchsorted` on that total (`_next_fit`).

A waiting small fee comes first while the block's quota (a5) is open, else
the lowest pending rank, and the quota resets at every seal. Without a quota
(categories 2 and 4, and 1 and 3 with a5 = 0) no fee counts as small.
The ranks but the victim's split into two ascending int64 queues, S below
the small-fee threshold and L the rest. A run with a quota starts on the
queues: while every pick has arrived by its turn (pick k follows position
a1 + k), each side's picks are a prefix of its queue, so in any rank order
its head is its lowest pending rank, and a count of the small fees come
says whether one waits. From the first pick not come by its turn on, and
from the start without a quota, the miner takes two heaps of the pending
ranks, which start as ascending lists, so need no `heapify`. Where no small
fee waits and at least STRETCH arrivals pass before the next small fee,
every pick of that stretch takes the next rank of L: a slice of the queue,
checked against the arrivals at once, or one `heappushpop` chain; elsewhere
the miner steps once per arrival. After the last arrival `_drain` takes
each block's picks at once by bisection over the pending ranks: the rests
of the queues (whole in a pure drain, a1 >= n), or the heaps sorted.

Without a quota, when every rank arrives by its turn, as under time priority
unless tied arrivals put a higher fee later, the picks are the rank order
less the overflow's victim, and `_mine` returns them with no walk.

`run` alone goes on to `force_seal`, block records (slot totals and seal
times by one `reduceat` each over the bounds) and fates. It stores no
assignment row: `Assignments` derives the rows' columns a chunk at a time
from the picks, bounds and slot counts.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from heapq import heappop, heappush, heappushpop
from itertools import chain, repeat
from typing import Iterable, Iterator, List, Sequence, Tuple

import numpy as np

from .allocation import AllocationParams, fee_slots
from .core import (CSV_CHUNK_ROWS, BlockRecord, DataError, DtsStrategy, Priority,
                   SimulationConfig, Stream, Transaction, validate_strategy, write_csv_chunks,
                   write_csv_rows)
from . import verkle


# The fewest arrivals a `heappushpop` chain takes: a chain's fixed numpy
# cost matches about a dozen single steps.
STRETCH = 16
# Transactions per block of `fixed_block_baseline`: the default leaf capacity.
BASELINE_TXS_PER_BLOCK = 2100


class Assignments:
    """A run's (tx_id, block, fee, nodes) rows in block order, each block's in
    pick order: a sized view that holds no row. Iteration yields the rows of
    `chunks`, the one derivation of their columns. Its arrays are read-only."""

    def __init__(self, stream: Stream, picks: np.ndarray, bounds: Sequence[int],
                 slot_of: np.ndarray):
        picks.flags.writeable = slot_of.flags.writeable = False
        self.stream, self.picks, self.bounds, self.slot_of = stream, picks, tuple(bounds), slot_of

    def __len__(self) -> int:
        return self.bounds[-1]

    def chunks(self) -> Iterator[Tuple[np.ndarray, ...]]:
        """The rows' int64 columns, fee float64, per slice of at most CSV_CHUNK_ROWS picks."""
        bounds = np.array(self.bounds, dtype=np.int64)
        for begin in range(0, len(self), CSV_CHUNK_ROWS):
            at = self.picks[begin:min(begin + CSV_CHUNK_ROWS, len(self))]
            heights = bounds.searchsorted(np.arange(begin, begin + len(at)), side="right") - 1
            yield self.stream.ids[at], heights, self.stream.fees[at], self.slot_of[at]

    def __iter__(self) -> Iterator[Tuple[int, int, float, int]]:
        return chain.from_iterable(zip(*(c.tolist() for c in cols)) for cols in self.chunks())

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
    # The heaps live only inside _mine: freed before the records are built. The
    # ranks stay with the stream, for its next run.
    picks, bounds, slot_of, victim = _mine(stream, strategy, cfg)
    if force_seal and len(picks) > bounds[-1]:
        bounds.append(len(picks))
    included, starts = bounds[-1], bounds[:-1]
    seal_times = np.maximum.reduceat(stream.arrivals[picks[:included]], starts).tolist()
    occupied = np.add.reduceat(slot_of[picks[:included]], starts).tolist()
    roots = ((verkle.block_root(stream.ids[at], slot_of[at], cfg.verkle_branching_factor)
              for at in (picks[begin:end] for begin, end in zip(bounds, bounds[1:])))
             if build_trees else repeat(None))
    blocks = [BlockRecord(height, tuple(tx_ids), nodes, math.fsum(block_fees), seal_time, root)
              for height, (tx_ids, block_fees, nodes, seal_time, root) in enumerate(zip(
                  *(_blocks(column, picks, bounds) for column in (stream.ids, stream.fees)),
                  occupied, seal_times, roots))]

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
    stream = Stream.of(dataset)
    picks, bounds = _mine(stream, strategy, cfg)[:2]
    return list(map(math.fsum, _blocks(stream.fees, picks, bounds)))


def _blocks(column: np.ndarray, picks: np.ndarray, bounds: Sequence[int]) -> Iterator[memoryview]:
    """`column` at picks[bounds[i]:bounds[i + 1]] for each block i: memoryview slices of one
    gather per run of whole blocks that just reaches 4096 picks, so no whole column is held."""
    at = 0
    while at < len(bounds) - 1:
        ends = bounds[at:bisect_left(bounds, bounds[at] + 4096, at) + 1]
        values = memoryview(column[picks[ends[0]:ends[-1]]])
        yield from (values[begin - ends[0]:end - ends[0]] for begin, end in zip(ends, ends[1:]))
        at += len(ends) - 1


def _mine(stream: Stream, strategy: DtsStrategy, cfg: SimulationConfig):
    """The run loop on positions, shared by `run` and `incentives`, over the
    whole of `stream`, as the module docstring describes.
    Returns the picks, the bounds (an array('q'): 0, then each sealed block's
    end index into the picks), every position's slot count (picks and slot
    counts are int64 arrays) and the overflow's victim (None without one)."""
    validate_strategy(strategy, cfg)
    fees = stream.fees
    fee_rank, fee_order = stream.ranks(Priority.FEE)
    params = AllocationParams(strategy.scale, strategy.shape, strategy.max_trx_nodes)
    slot_of = fee_slots(fees, fee_order, params)
    rank, order = stream.ranks(strategy.priority)
    # The Python loops read single ranks, positions and slot counts as ints through memoryviews.
    rank_at, order_at, slots_at = memoryview(rank), memoryview(order), memoryview(slot_of)
    reserve = strategy.small_fee_count or 0
    capacity = cfg.leaf_capacity
    n_txs = len(stream)
    warm = strategy.mempool_size
    bounds = array("q", [0])
    victim = None
    if warm < n_txs:
        # Position warm evicts the pool's cheapest by (fee, arrival, id), the first
        # of the lowest fees in the fee order, if it pays strictly more; else it is rejected.
        cheapest = int(fee_order[fee_rank[:warm][fees[:warm] == fees[:warm].min()].min()])
        victim = cheapest if fees[warm] > fees[cheapest] else warm

    if reserve == 0:
        # Pick k is made once positions 0 .. a1 + k have arrived. If the k-th
        # rank less the victim's has arrived by then, for every k, the picks
        # are the rank order, as always without an overflow.
        picks = order if victim is None else np.delete(order, rank[victim])
        if (picks <= np.arange(warm, warm + len(picks))).all():
            _next_fit(np.cumsum(slot_of[picks]), 0, capacity, 0, bounds)
            return picks, bounds, slot_of, victim
    # Fees are >= 0, so without a quota no fee is small. The victim is never
    # pending, so it counts as neither.
    is_small = fees < (strategy.small_fee_threshold if reserve else 0.0)
    kept = np.ones(n_txs, dtype=bool)
    if victim is not None:
        is_small[victim] = kept[rank[victim]] = False
    below = is_small.tobytes()
    # A stretch runs from a position where no small fee waits to the next
    # small-fee arrival (`stops`, ending in n_txs); `heads` are the first
    # positions of the gaps between them that hold at least STRETCH
    # arrivals, past a newcomer rejected at the overflow.
    stops = np.append(np.flatnonzero(is_small[warm:]) + warm, n_txs)
    after = np.append(warm + (victim == warm), stops[:-1] + 1)
    heads = memoryview(np.append(after[stops - after >= STRETCH], n_txs))
    stops = memoryview(stops)
    # Every rank but the victim's, split by the small-fee threshold into the
    # ascending queues S and L.
    small_at = is_small[order]
    S, L = (np.flatnonzero(kept & side) for side in (small_at, ~small_at))
    del after, kept, small_at, is_small
    picks, filled, small_used, pos, i, j = array("q"), 0, 0, warm, 0, 0
    # A run with a quota starts on the queues: S[:i] and L[:j] are picked,
    # and `arrived` counts the small fees come before `pos`.
    queued = reserve > 0
    if queued:
        S_at, L_at, n_large = memoryview(S), memoryview(L), len(L)
        arrived = below[:warm].count(1)
    else:
        small, large = _heaps(order, pos, S, L)
    while pos < n_txs:
        gate = heads[bisect_left(heads, pos)]
        # One pick per arrival from a pool that is never empty: a waiting
        # small fee while the quota is open, else the lower of the two heads.
        for pos in range(pos, n_txs):
            if queued:
                if pos >= gate and arrived == i:
                    break
                arrived += below[pos]
                if arrived > i and (small_used < reserve or j == n_large or S_at[i] < L_at[j]):
                    pick, i = order_at[S_at[i]], i + 1
                else:
                    pick, j = order_at[L_at[j]], j + 1
                if pick > pos:
                    # The head is yet to arrive: the heaps take this arrival
                    # on, and hold that head only once it comes.
                    queued = False
                    small, large = _heaps(order, pos, S[i:], L[j:])
            if not queued:
                if pos >= gate and not small:
                    break
                if pos != victim:
                    heappush(small if below[pos] else large, rank_at[pos])
                if small and (small_used < reserve or not large or small[0] < large[0]):
                    pick = order_at[heappop(small)]
                else:
                    pick = order_at[heappop(large)]
            n = slots_at[pick]
            if filled + n > capacity:
                bounds.append(len(picks))
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
        # to it takes the next rank of L, and the quota only resets at seals.
        if queued:
            took = order[L[j:j + stop - pos]]
            if (took <= np.arange(pos, stop)).all():
                j += stop - pos
            else:
                queued = False
                small, large = _heaps(order, pos, S[i:], L[j:])
        if not queued:
            took = order[np.fromiter(map(heappushpop, repeat(large), rank_at[pos:stop]),
                                     np.int64, stop - pos)]
        cum = np.cumsum(slot_of[took])
        blocks = len(bounds)
        filled = int(cum[-1]) - _next_fit(cum, -filled, capacity, len(picks), bounds)
        if len(bounds) > blocks:
            small_used = 0
        picks.frombytes(took.tobytes())
        pos = stop
    if queued:
        S, L = S[i:], L[j:]
    else:
        S, L = (np.array(heap, dtype=np.int64) for heap in (small, large))
        S.sort()
        L.sort()
    picks.frombytes(_drain(S, L, order, slot_of, reserve, capacity,
                           filled, small_used, len(picks), bounds).tobytes())
    return np.frombuffer(picks, dtype=np.int64), bounds, slot_of, victim


def _heaps(order: np.ndarray, pos: int, *queues: np.ndarray) -> List[List[int]]:
    """The ranks of each ascending queue that arrived before `pos`: ascending
    lists, so heaps already."""
    return [queue[order[queue] < pos].tolist() for queue in queues]


def _next_fit(cum: np.ndarray, base: int, capacity: int, done: int, bounds: array) -> int:
    """Append to `bounds` the pick index ending each next-fit seal of a run
    of picks, the first `done` picks in, whose running slot totals are `cum`;
    the open block holds the picks from running total `base` on (-filled: its
    slots before the run). Returns the base of the block left open."""
    while (end := int(cum.searchsorted(base + capacity, side="right"))) < len(cum):
        bounds.append(done + end)
        base = int(cum[end - 1]) if end else 0
    return base


def _drain(S: np.ndarray, L: np.ndarray, order: np.ndarray, slots: np.ndarray, reserve: int,
           capacity: int, filled: int, small_used: int, done: int, bounds: array) -> np.ndarray:
    """The miner after the last arrival, `done` picks in, with the
    open block's `filled` slots and `small_used` quota: appends the pick
    index ending each of its seals to `bounds` and returns its picks.

    The pending ranks are fixed: S holds the small-fee ranks and L the
    others, each an ascending int64 array, summed into the prefix sums PS
    and PL of their slots; the walk reads all four as ints through
    memoryviews. Every pick takes the head of one, so the state is two
    indices (i, j). While both wait, each step takes the picks of one block
    segment by bisection: S[i:] while the quota is open, else the merge of
    both by rank, whose slots below rank r rise with r. The pick that does
    not fit opens the next block under the old block's quota. Once one side
    is left, it takes the rest in rank order, sealed by `_next_fit`. Each
    step's picks are in rank order, so the picks are the steps' slices of S
    and L in turn, and a step that took from both sorts only its own."""
    sides = (S, L)
    prefixes = [np.concatenate(([0], np.cumsum(slots[order[ranks]]))) for ranks in sides]
    S, L, PS, PL = map(memoryview, (*sides, *prefixes))
    n_small, n_large = len(S), len(L)
    i, j, pieces = 0, 0, []
    while i < n_small and j < n_large:
        i0, j0, room = i, j, capacity - filled
        if small_used < reserve:
            quota = i + reserve - small_used
            a, b = min(bisect_right(PS, PS[i] + room, i) - 1, quota), j
            seal = a < min(quota, n_small)
        elif PS[-1] + PL[-1] <= PS[i] + PL[j] + room:
            a, b, seal = n_small, n_large, False
        else:
            # The first rank whose merged slots overflow the block; at most
            # `room` picks fit, so the (room + 1)-th rank of either array bounds it.
            lo = min(S[i], L[j])
            hi = min([max(S[-1], L[-1]), *S[i + room:i + room + 1], *L[j + room:j + room + 1]])
            first = lo + bisect_right(range(lo, hi + 1), PS[i] + PL[j] + room, key=lambda r: (
                PS[bisect_left(S, r + 1, i)] + PL[bisect_left(L, r + 1, j)]))
            a, b, seal = bisect_left(S, first, i), bisect_left(L, first, j), True
        filled += PS[a] - PS[i] + PL[b] - PL[j]
        small_used += a - i
        done += a - i + b - j
        i, j = a, b
        if seal:
            bounds.append(done)
            done += 1
            if i < n_small and (small_used < reserve or j == n_large or S[i] < L[j]):
                filled, small_used, i = PS[i + 1] - PS[i], 1, i + 1
            else:
                filled, small_used, j = PL[j + 1] - PL[j], 0, j + 1
        took = sides[0][i0:i], sides[1][j0:j]
        pieces.append(np.sort(np.concatenate(took)) if i > i0 and j > j0 else took[j > j0])
    # One side is left, and it takes the rest in rank order.
    side, at = (0, i) if i < n_small else (1, j)
    _next_fit(prefixes[side][at + 1:] - prefixes[side][at], -filled, capacity, done, bounds)
    pieces.append(sides[side][at:])
    return order[np.concatenate(pieces)]


def fixed_block_baseline(dataset: Iterable[Transaction]) -> List[BlockRecord]:
    """Reference chain that packs a fixed transaction count per block.

    Consecutive arrival-order chunks of BASELINE_TXS_PER_BLOCK transactions
    become blocks, each with the `math.fsum` of its fees; the final partial
    chunk is dropped, mirroring the unsealed-tail rule of the strategy runs.
    """
    stream, n = Stream.of(dataset), BASELINE_TXS_PER_BLOCK
    return [BlockRecord(height=height, tx_ids=tuple(stream.ids[at:at + n].tolist()),
                        occupied_nodes=n, seal_time=int(stream.arrivals[at + n - 1]),
                        incentive=math.fsum(memoryview(stream.fees[at:at + n])))
            for height, at in enumerate(range(0, len(stream) - n + 1, n))]


def write_blocks_csv(blocks: Sequence[BlockRecord], path) -> int:
    """Write the block series CSV (height, tx_count, occupied_nodes, incentive, seal_time)."""
    return write_csv_rows(path, ("height", "tx_count", "occupied_nodes", "incentive", "seal_time"),
                          ((b.height, len(b.tx_ids), b.occupied_nodes, b.incentive, b.seal_time)
                           for b in blocks))


def write_assignments_csv(assignments: Assignments, path) -> int:
    """Write tx-to-block assignments CSV (tx_id, block, fee, nodes) from column chunks."""
    return write_csv_chunks(path, ("tx_id", "block", "fee", "nodes"), assignments.chunks())
