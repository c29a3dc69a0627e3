"""Differential checks of reserved-slot runs (categories 1 and 3, a5 > 0) at
scale, against a stepwise two-heap miner.

The naive model of test_reference_model.py rescans its whole pool for every
pick, which limits it to a few hundred transactions. This oracle takes one
Python step per pick over two heaps of pending ranks, one for fees below
the small-fee threshold and one for the rest, so it runs 20k-transaction
streams in well under a second while its ordering rules still read off
directly. It shares only the fee-to-slot mapping with the package.
"""

import math
from heapq import heappop, heappush

import numpy as np
import pytest

from dtsim.allocation import AllocationParams, log_slots
from dtsim.core import BlockRecord, Priority, SimulationConfig, Stream, strategy_from_category
from dtsim.ingest import DatasetSpec, IrrationalMix, generate, inject_irrational
from dtsim.simulator import run

from test_reference_model import observed


def heap_run(stream, strategy, cfg, force_seal):
    """The run loop with one pick per step; returns what `observed` reads
    off a RunResult."""
    fees, arrivals, ids = (c.tolist() for c in (stream.fees, stream.arrivals, stream.ids))
    n = len(fees)
    if strategy.priority is Priority.TIME:
        order = sorted(range(n), key=lambda p: (arrivals[p], -fees[p], ids[p]))
    else:
        order = sorted(range(n), key=lambda p: (-fees[p], arrivals[p], ids[p]))
    rank = [0] * n
    for r, p in enumerate(order):
        rank[p] = r
    params = AllocationParams(strategy.scale, strategy.shape, strategy.max_trx_nodes)
    slots = log_slots(stream.fee_logs, params).tolist()
    below = [fee < strategy.small_fee_threshold for fee in fees]
    reserve, capacity = strategy.small_fee_count, cfg.leaf_capacity
    warm = strategy.mempool_size

    evicted, rejected, victim = [], [], None
    if warm < n:
        cheapest = min(range(warm), key=lambda p: (fees[p], arrivals[p], ids[p]))
        victim = cheapest if fees[warm] > fees[cheapest] else warm
        (rejected if victim == warm else evicted).append(victim)

    small, large, picks, seals = [], [], [], []
    filled = small_used = 0

    def mine_one():
        # A waiting small fee comes first while the block's quota is open,
        # else the lower of the two heads; the quota resets at each seal.
        nonlocal filled, small_used
        if small and (small_used < reserve or not large or small[0] < large[0]):
            pos = order[heappop(small)]
        elif large:
            pos = order[heappop(large)]
        else:
            return False
        if filled + slots[pos] > capacity:
            seals.append((len(picks), filled))
            filled = small_used = 0
        small_used += below[pos]
        picks.append(pos)
        filled += slots[pos]
        return True

    for pos in range(n):
        if pos != victim:
            heappush(small if below[pos] else large, rank[pos])
        if pos >= warm:
            mine_one()
    while mine_one():
        pass

    if force_seal and len(picks) > (seals[-1][0] if seals else 0):
        seals.append((len(picks), filled))
    blocks, assignments, begin = [], [], 0
    for height, (end, nodes) in enumerate(seals):
        block = picks[begin:end]
        blocks.append(BlockRecord(
            height=height, tx_ids=tuple(ids[p] for p in block), occupied_nodes=nodes,
            incentive=math.fsum(fees[p] for p in block),
            seal_time=max(arrivals[p] for p in block)))
        assignments.extend((ids[p], height, fees[p], slots[p]) for p in block)
        begin = end

    def fates(positions):
        return len(positions), math.fsum(fees[p] for p in positions)

    return {
        "blocks": blocks,
        "assignments": assignments,
        "submitted": fates(range(n)),
        "included": (begin, math.fsum(b.incentive for b in blocks)),
        "evicted": fates(evicted),
        "rejected": fates(rejected),
        "pending": fates([order[r] for r in small + large]),
        "unsealed": fates(picks[begin:]),
    }


@pytest.fixture(scope="module")
def streams_20k():
    """A 20k stream, the same with 10% over- and 10% underpaid fees, and the
    same with every 97th fee zero."""
    stream = generate(DatasetSpec(count=20_000, rng_seed=31))
    mixed = inject_irrational(stream, IrrationalMix(0.8, 0.1, 0.1), seed=32)
    zeros = Stream(stream.ids, stream.arrivals, stream.amounts,
                   np.where(np.arange(len(stream)) % 97 == 0, 0.0, stream.fees))
    return stream, mixed, zeros


@pytest.mark.parametrize("case", range(24))
def test_reserved_run_matches_heap_miner(case, streams_20k):
    # Both categories on each stream, half the cases force-sealed; the rest
    # of the candidate is drawn from the search box, with pools from a few
    # blocks' worth to past the stream length.
    rng = np.random.default_rng(case)
    strategy = strategy_from_category(
        (1, 3)[case % 2], a1=int(rng.integers(100, 25_000)), a4=float(rng.uniform(1.0, 2.0)),
        a5=int(rng.integers(1, 201)), a6=int(rng.integers(10, 801)),
        a7=float(rng.uniform(4.0, 10.0)), a8=float(rng.uniform(0.1, 1.0)))
    cfg = SimulationConfig()
    force_seal = case // 6 % 2 == 1
    stream = streams_20k[case // 2 % 3]
    result = run(stream, strategy, cfg, force_seal=force_seal)
    assert observed(result) == heap_run(stream, strategy, cfg, force_seal)


@pytest.mark.parametrize("case", range(12))
def test_small_fee_heavy_run_matches_heap_miner(case, streams_20k):
    # a4 at the 10th or 50th fee percentile of the plain stream, so small
    # fees arrive often, wait behind a closed quota and fill whole blocks;
    # a5 of 1, 3 or 200 (a quota that closes at once, soon, or never).
    stream = streams_20k[0]
    cat, percentile, a5 = (1, 3)[case % 2], (10, 50)[case // 2 % 2], (1, 3, 200)[case // 4]
    rng = np.random.default_rng(100 + case)
    strategy = strategy_from_category(
        cat, a1=int(rng.integers(100, 25_000)), a4=float(np.percentile(stream.fees, percentile)),
        a5=a5, a6=int(rng.integers(10, 801)), a7=float(rng.uniform(4.0, 10.0)),
        a8=float(rng.uniform(0.1, 1.0)))
    cfg = SimulationConfig()
    force_seal = case % 3 == 0
    result = run(stream, strategy, cfg, force_seal=force_seal)
    assert observed(result) == heap_run(stream, strategy, cfg, force_seal)
