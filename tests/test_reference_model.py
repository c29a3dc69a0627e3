"""Differential checks of the simulator against a deliberately naive model.

The reference miner keeps its pool as a plain list and rescans it with
`min()` for every pick and every eviction, so its ordering rules can be read
off directly. Only the fee-to-slot mapping is shared with the package; it
has its own oracle tests in test_allocation.py. Blocks are summed with
`math.fsum`.
"""

import math

import pytest
from hypothesis import example, given, settings, strategies as st

from dtsim.allocation import AllocationParams, leaf_nodes
from dtsim.core import (MIN_POSITIVE_FEE, BlockRecord, Priority, SimulationConfig, Transaction,
                        strategy_from_category)
from dtsim.simulator import run


def time_key(tx):
    return (tx.arrival_time, -tx.fee, tx.id)


def fee_key(tx):
    return (-tx.fee, tx.arrival_time, tx.id)


def evict_key(tx):
    return (tx.fee, tx.arrival_time, tx.id)


class NaivePool:
    def __init__(self, capacity, priority, threshold):
        self.capacity = capacity
        self.key = time_key if priority is Priority.TIME else fee_key
        self.threshold = threshold
        self.txs = []

    def submit(self, tx):
        """("accepted", None), ("evicted", the evicted transaction) or
        ("rejected", None)."""
        if len(self.txs) < self.capacity:
            self.txs.append(tx)
            return "accepted", None
        cheapest = min(self.txs, key=evict_key)
        if tx.fee <= cheapest.fee:
            return "rejected", None
        self.txs.remove(cheapest)
        self.txs.append(tx)
        return "evicted", cheapest

    def take(self, small_only=False):
        candidates = self.txs
        if small_only:
            if self.threshold is None:
                return None
            candidates = [t for t in self.txs if t.fee < self.threshold]
        if not candidates:
            return None
        best = min(candidates, key=self.key)
        self.txs.remove(best)
        return best


def naive_run(txs, strategy, cfg, force_seal):
    """The run loop spelled out: warm-up, one arrival per pick, then drain."""
    params = AllocationParams(strategy.scale, strategy.shape, strategy.max_trx_nodes)
    pool = NaivePool(strategy.mempool_size, strategy.priority, strategy.small_fee_threshold)
    blocks, assignments = [], []
    block, small_used = [], 0
    fates = {"submitted": [], "evicted": [], "rejected": []}

    def seal():
        nonlocal block, small_used
        height = len(blocks)
        blocks.append(BlockRecord(
            height=height,
            tx_ids=tuple(t.id for t, _ in block),
            occupied_nodes=sum(n for _, n in block),
            incentive=math.fsum(t.fee for t, _ in block),
            seal_time=max(t.arrival_time for t, _ in block),
        ))
        assignments.extend((t.id, height, t.fee, n) for t, n in block)
        block, small_used = [], 0

    def absorb(tx):
        fates["submitted"].append(tx.fee)
        outcome, evicted = pool.submit(tx)
        if outcome == "rejected":
            fates["rejected"].append(tx.fee)
        elif outcome == "evicted":
            fates["evicted"].append(evicted.fee)

    def mine_one():
        nonlocal small_used
        tx = None
        if strategy.designated_space and small_used < strategy.small_fee_count:
            tx = pool.take(small_only=True)
        if tx is None:
            tx = pool.take()
        if tx is None:
            return False
        n = leaf_nodes(tx.fee if tx.fee > 0 else MIN_POSITIVE_FEE, params)
        if sum(m for _, m in block) + n > cfg.leaf_capacity:
            seal()
        if (strategy.designated_space and tx.fee < strategy.small_fee_threshold
                and small_used < strategy.small_fee_count):
            small_used += 1
        block.append((tx, n))
        return True

    warm = min(len(txs), strategy.mempool_size)
    for tx in txs[:warm]:
        absorb(tx)
    for tx in txs[warm:]:
        absorb(tx)
        mine_one()
    while mine_one():
        pass

    tail = [t for t, _ in block]
    if force_seal and tail:
        seal()
        tail = []
    return {
        "blocks": blocks,
        "assignments": assignments,
        "submitted": (len(fates["submitted"]), math.fsum(fates["submitted"])),
        "included": (len(assignments), math.fsum(b.incentive for b in blocks)),
        "evicted": (len(fates["evicted"]), math.fsum(fates["evicted"])),
        "rejected": (len(fates["rejected"]), math.fsum(fates["rejected"])),
        "pending": (len(pool.txs), math.fsum(t.fee for t in pool.txs)),
        "unsealed": (len(tail), math.fsum(t.fee for t in tail)),
    }


def observed(result):
    return {
        "blocks": result.blocks,
        "assignments": list(result.assignments),
        "submitted": (result.submitted_count, result.submitted_fees),
        "included": (result.included_count, math.fsum(result.incentives)),
        "evicted": (result.evicted_count, result.evicted_fees),
        "rejected": (result.rejected_count, result.rejected_fees),
        "pending": (result.pending_count, result.pending_fees),
        "unsealed": (result.unsealed_count, result.unsealed_fees),
    }


# Fees: exact zeros and underpayments, a few repeated values (fee ties) and
# a wide continuous range around the slot-mapping medians used below.
FEES = st.one_of(
    st.sampled_from([0.0, 1e-9, 0.01, 1.0, 2.0, 50.0, 1000.0]),
    st.floats(min_value=1e-6, max_value=5000.0, allow_nan=False, allow_infinity=False),
)


@st.composite
def streams(draw, max_size=60):
    """Arrival-ordered transactions with tied arrival times and shuffled ids."""
    fees = draw(st.lists(FEES, max_size=max_size))
    gaps = draw(st.lists(st.sampled_from([0, 0, 1, 3]), min_size=len(fees),
                         max_size=len(fees)))
    ids = draw(st.permutations(range(len(fees))))
    txs, t = [], 0
    for tx_id, fee, gap in zip(ids, fees, gaps):
        t += gap
        txs.append(Transaction(id=tx_id, amount=fee * 500.0, fee=fee, arrival_time=t))
    return txs


@st.composite
def setups(draw):
    """A valid strategy with a small pool and a small leaf capacity, and its config."""
    leaf_capacity = draw(st.integers(min_value=1, max_value=60))
    cat = draw(st.integers(min_value=1, max_value=4))
    small = {}
    if cat in (1, 3):
        small = {"a4": draw(st.sampled_from([0.5, 2.0, 100.0])),
                 "a5": draw(st.integers(min_value=0, max_value=4))}
    strategy = strategy_from_category(
        cat,
        a1=draw(st.integers(min_value=1, max_value=12)),
        a6=draw(st.integers(min_value=1, max_value=leaf_capacity)),
        a7=draw(st.sampled_from([-1.0, 0.5, 3.0])),
        a8=draw(st.sampled_from([0.5, 1.0, 2.5])),
        **small,
    )
    return strategy, SimulationConfig(leaf_capacity=leaf_capacity)


def pair(cat, a1=2, **small):
    """A strategy of `cat` with pool a1 and a config whose blocks hold every
    pick of the small examples below."""
    return (strategy_from_category(cat, a1=a1, a6=3, a7=0.5, a8=1.0, **small),
            SimulationConfig(leaf_capacity=60))


# Ties that each ordering rule settles against the id order, in a pool of 2:
# a pick and an overflow between equal fees (earlier arrival first, then
# lower id), and time-order picks between equal arrivals (higher fee first,
# then lower id). The overflow examples run the reserved (stepwise) branch.
@settings(max_examples=300, deadline=None)
@given(txs=streams(), setup=setups(), force_seal=st.booleans())
@example(txs=[Transaction(1, 1.0, 1.0, 0), Transaction(0, 1.0, 1.0, 1)],
         setup=pair(4), force_seal=True)
@example(txs=[Transaction(1, 1.0, 1.0, 0), Transaction(0, 1.0, 1.0, 1),
              Transaction(2, 1.0, 2.0, 1)], setup=pair(3, a4=0.5, a5=1), force_seal=True)
@example(txs=[Transaction(1, 1.0, 1.0, 0), Transaction(0, 1.0, 1.0, 0),
              Transaction(2, 1.0, 2.0, 0)], setup=pair(3, a4=0.5, a5=1), force_seal=True)
@example(txs=[Transaction(0, 1.0, 1.0, 0), Transaction(1, 1.0, 2.0, 0)],
         setup=pair(2), force_seal=True)
@example(txs=[Transaction(1, 1.0, 1.0, 0), Transaction(0, 1.0, 1.0, 0)],
         setup=pair(2), force_seal=True)
def test_run_matches_naive_miner(txs, setup, force_seal):
    strategy, cfg = setup
    result = run(txs, strategy, cfg, force_seal=force_seal)
    assert observed(result) == naive_run(txs, strategy, cfg, force_seal)


# Explicit cases of the loop-free path that `run` takes when no slots are
# reserved (categories 2 and 4, and 1 and 3 with a5 = 0), each checked
# against the naive miner.
SMALL_BLOCKS = SimulationConfig(leaf_capacity=8)


def check_unreserved(txs, priority, a1, cfg=SMALL_BLOCKS, force_seal=True):
    """`run` equals `naive_run` for both unreserved strategies of `priority`,
    which agree with each other; returns their result."""
    cats = (2, 1) if priority is Priority.TIME else (4, 3)
    results = []
    for cat, small in zip(cats, ({}, {"a4": 2.0, "a5": 0})):
        strategy = strategy_from_category(cat, a1=a1, a6=3, a7=0.5, a8=1.0, **small)
        result = run(txs, strategy, cfg, force_seal=force_seal)
        assert observed(result) == naive_run(txs, strategy, cfg, force_seal)
        results.append(result)
    assert results[0] == results[1]
    return results[0]


def picked_ids(result):
    return [tx_id for tx_id, _block, _fee, _nodes in result.assignments]


def mixed_stream(n):
    """Fees from 0.7 to 7.7 with repeats, three arrivals per millisecond, shuffled ids."""
    return [Transaction(id=(i * 7) % n, amount=1.0, fee=((i * 37) % 11 + 1) * 0.7,
                        arrival_time=i // 3) for i in range(n)]


# Time priority on tie-heavy streams: three arrivals per millisecond, so a
# later arrival often outranks an earlier one of its millisecond (a tie
# inversion). A fee below 3.6 is small, five of the eleven fee levels,
# and two of them share a millisecond with the later one paying more. Pools
# of one or two hit an inversion within a few picks; a pool of 64 with a
# quota of 1 or 3 never does, and one of n - 1 mines everything in the drain.
@pytest.mark.parametrize("n, a1", [(5000, 1), (5000, 2), (5000, 64), (2000, 1999)])
@pytest.mark.parametrize("cat, a5", [(2, None), (1, 1), (1, 3), (1, 200)])
def test_time_order_on_tied_arrivals_matches_naive_miner(n, a1, cat, a5):
    txs = mixed_stream(n)
    small = {} if a5 is None else {"a4": 3.6, "a5": a5}
    strategy = strategy_from_category(cat, a1=a1, a6=3, a7=0.5, a8=1.0, **small)
    cfg = SimulationConfig(leaf_capacity=60)
    result = run(txs, strategy, cfg, force_seal=True)
    assert observed(result) == naive_run(txs, strategy, cfg, True)


# Fee priority with a quota on streams whose fees fall with arrival, one per
# millisecond, so each position's fee rank is the position: every pick has
# arrived by its turn and the rank queues stay exact for the whole run. A fee
# at position p raised to just above position q's outranks the arrivals
# between them; with a pool of 1 or 64 its turn comes before its arrival,
# and the miner hands over to the heaps at that single step among the small
# fees (below 2.0, the last 99 positions; raised-step, late in the run), or
# at the start of the stretch whose check it fails (raised-stretch).
def falling_fees(n, raised=None):
    fees = [0.02 * (n - at) for at in range(n)]
    if raised is not None:
        p, q = raised
        fees[p] = fees[q] + 0.01
    return [Transaction(at, 1.0, fee, at) for at, fee in enumerate(fees)]


@pytest.mark.parametrize("a1", [1, 64, 999, 1005])
@pytest.mark.parametrize("raised", [None, (995, 910), (700, 500)],
                         ids=["falling", "raised-step", "raised-stretch"])
@pytest.mark.parametrize("a5", [1, 3])
def test_fee_order_on_the_rank_queues_matches_naive_miner(a1, raised, a5):
    txs = falling_fees(1000, raised)
    strategy = strategy_from_category(3, a1=a1, a6=3, a7=0.5, a8=1.0, a4=2.0, a5=a5)
    cfg = SimulationConfig(leaf_capacity=60)
    result = run(txs, strategy, cfg, force_seal=True)
    assert observed(result) == naive_run(txs, strategy, cfg, True)


# Without a quota, tied arrivals that put a higher fee later fail the
# rank-order check at a1 = 1 under either priority, and the walk starts on
# the heaps.
@pytest.mark.parametrize("cat", [2, 4])
def test_an_unreserved_run_past_the_rank_order_check_matches_naive_miner(cat):
    txs = mixed_stream(5000)
    strategy = strategy_from_category(cat, a1=1, a6=3, a7=0.5, a8=1.0)
    cfg = SimulationConfig(leaf_capacity=60)
    result = run(txs, strategy, cfg, force_seal=True)
    assert observed(result) == naive_run(txs, strategy, cfg, True)


@pytest.mark.parametrize("priority", list(Priority))
@pytest.mark.parametrize("fee,evicted", [(9.0, True), (1.0, False), (2.0, False)])
def test_unreserved_overflow_at_a1(priority, fee, evicted):
    # The pool of 4 is full when id 9 arrives. Its cheapest by (fee,
    # arrival, id) is id 4: it ties id 7 on fee and arrival and has the
    # lower id, and ties id 1 on fee and arrives earlier. A newcomer paying
    # more evicts it; one paying less, or the same 2.0, is rejected.
    txs = [Transaction(3, 1.0, 5.0, 0), Transaction(7, 1.0, 2.0, 1), Transaction(4, 1.0, 2.0, 1),
           Transaction(1, 1.0, 2.0, 2), Transaction(9, 1.0, fee, 2)] + \
        [Transaction(10 + i, 1.0, 1.0 + i, 3 + i) for i in range(6)]
    result = check_unreserved(txs, priority, a1=4)
    assert (result.evicted_count, result.rejected_count) == ((1, 0) if evicted else (0, 1))
    assert (result.evicted_fees or result.rejected_fees) == (2.0 if evicted else fee)
    assert set(picked_ids(result)) == {t.id for t in txs} - {4 if evicted else 9}


@pytest.mark.parametrize("priority,order", [(Priority.TIME, [8, 2, 6, 9]),
                                            (Priority.FEE, [8, 2, 9, 6])])
def test_unreserved_newcomer_outranks_heap_minimum_on_tie(priority, order):
    # Id 8 evicts id 5 and, arriving with id 6, outranks it: by fee in both
    # orders. Id 2 ties id 6 on fee and arrival and outranks it by id.
    txs = [Transaction(5, 1.0, 1.0, 0), Transaction(6, 1.0, 3.0, 1), Transaction(8, 1.0, 4.0, 1),
           Transaction(2, 1.0, 3.0, 1), Transaction(9, 1.0, 9.0, 2)]
    result = check_unreserved(txs, priority, a1=2, cfg=SimulationConfig(leaf_capacity=100))
    assert picked_ids(result) == order and result.evicted_fees == 1.0


@pytest.mark.parametrize("priority", list(Priority))
@pytest.mark.parametrize("first_fee", [0.1, 50.0])
def test_unreserved_pool_of_one(priority, first_fee):
    txs = mixed_stream(40)
    txs[0] = Transaction(txs[0].id, 1.0, first_fee, 0)
    result = check_unreserved(txs, priority, a1=1)
    assert (result.evicted_count, result.rejected_count) == \
        ((1, 0) if first_fee < txs[1].fee else (0, 1))
    assert result.included_count == 39


@pytest.mark.parametrize("priority", list(Priority))
@pytest.mark.parametrize("extra", [0, 5])
def test_unreserved_pool_larger_than_stream(priority, extra):
    # No overflow: every transaction waits for the drain, in priority order.
    txs = mixed_stream(30)
    result = check_unreserved(txs, priority, a1=30 + extra)
    assert result.evicted_count == result.rejected_count == 0
    key = time_key if priority is Priority.TIME else fee_key
    assert picked_ids(result) == [t.id for t in sorted(txs, key=key)]


@pytest.mark.parametrize("force_seal", [False, True])
@pytest.mark.parametrize("priority,a1,target,sealed_at", [
    (Priority.TIME, 5, 2, "arrival"), (Priority.FEE, 5, 2, "arrival"),
    (Priority.TIME, 52, 3, "first drain pick"), (Priority.FEE, 52, 4, "first drain pick"),
    (Priority.TIME, 55, 3, "drain"), (Priority.FEE, 55, 3, "drain")])
def test_unreserved_block_target(force_seal, priority, a1, target, sealed_at):
    # The pick after the seal of block `target`, which opens the next one,
    # is made at an arrival, is the first pick of the drain, or a later one:
    # the 60 - a1 arrivals after the overflow each make one pick. A head of
    # the stream that ends at that pick's arrival seals the same first
    # `target` blocks.
    txs = mixed_stream(60)
    full = check_unreserved(txs, priority, a1=a1, force_seal=force_seal)
    assert len(full.blocks) > target
    end = sum(len(b.tx_ids) for b in full.blocks[:target])
    assert (end < 60 - a1) == (sealed_at == "arrival")
    assert (end == 60 - a1) == (sealed_at == "first drain pick")
    result = check_unreserved(txs[:a1 + end + 1], priority, a1=a1, force_seal=force_seal)
    assert result.blocks[:target] == full.blocks[:target]



def lost_ids(result, txs):
    """The ids of `txs` that no block or open block took."""
    return {t.id for t in txs} - set(picked_ids(result))


@pytest.mark.parametrize("a1", [1, 2])
def test_unreserved_time_order_with_a_higher_fee_later_in_a_tie(a1):
    # Ids 4, 5 and 6 arrive together with rising fees, so id 6 ranks first
    # of the three but arrives two picks after id 4's turn: the picks are
    # not the rank order less the overflow's victim.
    fees = [3.0, 5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 6.0, 1.5, 8.0, 2.5, 7.0]
    arrivals = [0, 1, 2, 3, 4, 4, 4, 5, 6, 7, 8, 9]
    txs = [Transaction(i, 1.0, fee, t) for i, (fee, t) in enumerate(zip(fees, arrivals))]
    result = check_unreserved(txs, Priority.TIME, a1=a1)
    in_rank_order = [t.id for t in sorted(txs, key=time_key) if t.id not in lost_ids(result, txs)]
    assert picked_ids(result) != in_rank_order


@pytest.mark.parametrize("a1", [1, 2])
def test_unreserved_time_order_that_is_the_rank_order(a1):
    # Ties put the higher fee first, so every rank has arrived by its turn
    # and the picks are the rank order less the overflow's victim.
    fees = [3.0, 5.0, 1.0, 4.0, 9.0, 3.0, 2.0, 6.0, 8.0, 1.5, 2.5, 7.0]
    arrivals = [0, 1, 2, 3, 4, 4, 4, 5, 6, 6, 8, 9]
    txs = [Transaction(i, 1.0, fee, t) for i, (fee, t) in enumerate(zip(fees, arrivals))]
    result = check_unreserved(txs, Priority.TIME, a1=a1)
    assert len(lost_ids(result, txs)) == 1
    assert picked_ids(result) == [t.id for t in sorted(txs, key=time_key)
                                  if t.id not in lost_ids(result, txs)]


# Explicit cases of the stepwise path that `run` takes when slots are
# reserved (categories 1 and 3 with a5 > 0), each checked against the naive
# miner. Every transaction takes one slot, and a fee below 2.0 is small.
def check_reserved(fees, cat, a1, a5, cfg=SimulationConfig(leaf_capacity=60), force_seal=True):
    """`run` equals `naive_run` on transactions with ids 0, 1, ... and the
    given fees, arriving one per millisecond; returns the blocks' tx ids."""
    txs = [Transaction(i, 1.0, fee, i) for i, fee in enumerate(fees)]
    strategy = strategy_from_category(cat, a1=a1, a6=1, a7=0.5, a8=1.0, a4=2.0, a5=a5)
    result = run(txs, strategy, cfg, force_seal=force_seal)
    assert observed(result) == naive_run(txs, strategy, cfg, force_seal)
    return [b.tx_ids for b in result.blocks]


def test_reserved_pick_falls_through_when_no_small_fee_waits():
    # The quota is open at the first pick, but the pool holds no small fee,
    # so id 1 is picked by fee; id 3 then takes the reserved slot ahead of
    # id 0, and the quota's second slot again falls through to id 4.
    # Id 2 is rejected at the overflow.
    assert check_reserved([5.0, 6.0, 4.0, 1.0, 7.0], cat=3, a1=2, a5=2) == [(1, 3, 4, 0)]


def test_small_fee_wins_in_rank_order_once_the_quota_is_full():
    # Time order. Id 0 takes the one reserved slot; id 1 is small too, but
    # arrived before id 2, so it is picked next by rank, not held back.
    # Id 3 is rejected at the overflow.
    fees = [1.0, 1.5, 5.0, 0.5, 8.0, 1.2, 9.0]
    assert check_reserved(fees, cat=1, a1=3, a5=1) == [(0, 1, 2, 4, 5, 6)]


@pytest.mark.parametrize("fees,a1,blocks", [
    # The quota of block 0 is still open when id 4 is picked, from the small
    # fees; it does not fit and opens block 1, where it fills the new quota,
    # so id 0 outranks the small id 5.
    ([5.0, 6.0, 4.0, 7.0, 1.5, 1.0, 3.0], 2, [(1, 3), (4, 0), (6, 5)]),
    # The quota of block 0 is full when id 3 is picked by fee; it opens
    # block 1 although the small id 0 waits and the new quota is open.
    ([1.0, 1.5, 5.0, 6.0, 0.5, 7.0, 4.0, 3.0], 4, [(1, 5), (3, 0), (2, 6), (7,)]),
])
def test_pick_that_opens_a_block_follows_the_old_quota(fees, a1, blocks):
    assert check_reserved(fees, cat=3, a1=a1, a5=1, cfg=SimulationConfig(leaf_capacity=2)) == blocks


@pytest.mark.parametrize("cat", [1, 3])
@pytest.mark.parametrize("extra", [0, 5])
def test_reserved_pool_larger_than_stream(cat, extra):
    # No overflow: every pick is made in the drain, two small fees per block
    # of four slots first, while any wait.
    fees = [((i * 37) % 11 + 1) * 0.35 for i in range(30)]
    blocks = check_reserved(fees, cat=cat, a1=30 + extra, a5=2,
                            cfg=SimulationConfig(leaf_capacity=4))
    assert sum(map(len, blocks)) == 30


# Explicit cases of the drain after the last arrival (or of a pool larger
# than the stream) with reserved slots, where every pick comes from a fixed
# pending set; each is checked against the naive miner.
def test_drain_blocks_shorter_than_the_quota():
    # Two-slot blocks never fill a quota of 3: every block takes the best
    # small fees first while any wait, then the rest in rank order.
    fees = [5.0, 1.0, 6.0, 1.5, 0.5, 7.0, 3.0, 1.2]
    assert check_reserved(fees, cat=3, a1=8, a5=3, cfg=SimulationConfig(leaf_capacity=2)) == \
        [(3, 7), (1, 4), (5, 2), (0, 6)]
    assert check_reserved(fees, cat=1, a1=8, a5=3, cfg=SimulationConfig(leaf_capacity=2)) == \
        [(1, 3), (4, 7), (0, 2), (5, 6)]


def test_drain_starts_with_the_quota_the_last_arrival_left():
    # Id 7 evicts id 6 and its arrival picks the small id 1, which uses one
    # of the block's two reserved slots; the drain then takes only id 3 as
    # small before id 0 by rank, and the small id 4 waits for block 1.
    fees = [5.0, 1.5, 6.0, 1.2, 1.1, 7.0, 0.5, 8.0]
    assert check_reserved(fees, cat=1, a1=7, a5=2, cfg=SimulationConfig(leaf_capacity=3)) == \
        [(1, 3, 0), (2, 4, 5), (7,)]


@pytest.mark.parametrize("force_seal", [False, True])
def test_drain_stops_at_the_block_target(force_seal):
    # The drain stops when the pool is empty. After ids 3, 5, 2 and 7, id 0
    # opens block 2 and the small id 1 fills it; ids 6 and 4 fill block 3,
    # which no later pick seals, so it stays open unless force_seal.
    fees = [5.0, 1.0, 6.0, 1.5, 0.5, 7.0, 3.0, 1.2]
    assert check_reserved(fees, cat=3, a1=8, a5=1, cfg=SimulationConfig(leaf_capacity=2),
                          force_seal=force_seal) == [(3, 5), (2, 7), (0, 1)] + [(6, 4)] * force_seal


@pytest.mark.parametrize("fees,cat,blocks", [
    # Only small fees wait: the quota of 2 goes to the best two, the third
    # slot to the next by rank, which is small as well.
    ([1.0, 1.5, 0.5, 1.9, 1.2, 0.7, 1.1], 3, [(3, 1, 4), (6, 0, 5), (2,)]),
    ([1.0, 1.5, 0.5, 1.9, 1.2, 0.7, 1.1], 1, [(0, 1, 2), (3, 4, 5), (6,)]),
    # No small fee waits: every pick is by rank.
    ([3.0, 2.5, 5.0, 2.0, 4.0, 9.0, 7.0], 3, [(5, 6, 2), (4, 0, 1), (3,)]),
    ([3.0, 2.5, 5.0, 2.0, 4.0, 9.0, 7.0], 1, [(0, 1, 2), (3, 4, 5), (6,)]),
])
def test_drain_with_one_kind_of_fee_pending(fees, cat, blocks):
    assert check_reserved(fees, cat=cat, a1=7, a5=2, cfg=SimulationConfig(leaf_capacity=3)) == blocks


def test_drain_seal_opened_by_a_small_fee_by_rank():
    # Block 0's quota of 1 is full, so id 2 is picked by rank; it is small
    # and opens block 1, whose quota it fills, so id 3 outranks the small
    # id 5 there. Id 4 opens block 2 with its quota open for id 5.
    fees = [5.0, 1.5, 1.2, 6.0, 7.0, 1.1, 8.0]
    assert check_reserved(fees, cat=1, a1=7, a5=1, cfg=SimulationConfig(leaf_capacity=2)) == \
        [(1, 0), (2, 3), (4, 5), (6,)]


@settings(max_examples=150, deadline=None)
@given(txs=streams(max_size=200), data=st.data(), force_seal=st.booleans())
def test_reserved_multi_block_drain_matches_naive_miner(txs, data, force_seal):
    # Small blocks and pools up to past the stream length, so most runs end
    # in a drain of many blocks.
    leaf_capacity = data.draw(st.integers(min_value=1, max_value=30))
    strategy = strategy_from_category(
        data.draw(st.sampled_from([1, 3])),
        a1=data.draw(st.integers(min_value=1, max_value=len(txs) + 10)),
        a4=data.draw(st.sampled_from([0.5, 2.0, 100.0])),
        a5=data.draw(st.integers(min_value=1, max_value=12)),
        a6=data.draw(st.integers(min_value=1, max_value=leaf_capacity)),
        a7=data.draw(st.sampled_from([-1.0, 0.5, 3.0])),
        a8=data.draw(st.sampled_from([0.5, 1.0, 2.5])),
    )
    cfg = SimulationConfig(leaf_capacity=leaf_capacity)
    result = run(txs, strategy, cfg, force_seal=force_seal)
    assert observed(result) == naive_run(txs, strategy, cfg, force_seal)


# Reserved runs whose small fees are rare: long stretches of other fees
# between small-fee arrivals, each checked against the naive miner. A fee
# below 2.0 is small; ids rise with arrival, two arrivals per millisecond.
LARGE, SMALL = 7.0, 1.0
STRETCH_FEES = st.sampled_from([2.5, 4.0, LARGE, 30.0] * 5 + [0.5, SMALL, 1.5])


@pytest.mark.parametrize("cat", [1, 3])
@settings(max_examples=100, deadline=None)
@given(fees=st.lists(STRETCH_FEES, max_size=120), a1=st.integers(min_value=1, max_value=20),
       a5=st.integers(min_value=1, max_value=4), leaf_capacity=st.integers(min_value=3, max_value=30),
       a6=st.sampled_from([1, 3]))
# A small fee at position a1 + 1, right after the overflow.
@example(fees=[4.0, 2.5, LARGE, 30.0, SMALL] + [LARGE] * 20 + [SMALL] + [2.5] * 17,
         a1=3, a5=2, leaf_capacity=20, a6=3)
# Two small fees back to back.
@example(fees=[4.0, LARGE] + [LARGE] * 18 + [SMALL, 0.5] + [LARGE] * 18,
         a1=2, a5=2, leaf_capacity=12, a6=3)
# A small fee arriving with the quota of one already used in its block.
@example(fees=[4.0, LARGE] + [LARGE] * 17 + [SMALL] + [LARGE] * 2 + [0.5] + [LARGE] * 20,
         a1=2, a5=1, leaf_capacity=8, a6=1)
# A seal on a stretch's first pick: one-slot picks fill the block of 9
# exactly when the small fee's pick ends the first stretch.
@example(fees=[4.0, LARGE] + [LARGE] * 17 + [SMALL] + [LARGE] * 20,
         a1=2, a5=2, leaf_capacity=9, a6=1)
# A last stretch that runs to the end of the stream, then the drain.
@example(fees=[SMALL, 4.0, LARGE, 2.5, 30.0] + [LARGE] * 10 + [SMALL] + [LARGE] * 18,
         a1=5, a5=1, leaf_capacity=10, a6=3)
# A small-fee victim: evicted from the warm-up pool, or the rejected newcomer.
@example(fees=[0.5, 4.0, LARGE, 30.0] + [LARGE] * 20, a1=3, a5=1, leaf_capacity=10, a6=3)
@example(fees=[4.0, LARGE, 2.5, 0.5] + [LARGE] * 20, a1=3, a5=1, leaf_capacity=10, a6=3)
def test_reserved_stretches_match_naive_miner(cat, fees, a1, a5, leaf_capacity, a6):
    txs = [Transaction(i, 1.0, fee, i // 2) for i, fee in enumerate(fees)]
    strategy = strategy_from_category(cat, a1=a1, a6=a6, a7=0.5, a8=1.0, a4=2.0, a5=a5)
    cfg = SimulationConfig(leaf_capacity=leaf_capacity)
    result = run(txs, strategy, cfg, force_seal=True)
    assert observed(result) == naive_run(txs, strategy, cfg, True)
