"""Differential checks of the simulator against a deliberately naive model.

The reference miner keeps its pool as a plain list and rescans it with
`min()` for every pick and every eviction, so its ordering rules can be read
off directly. Only the fee-to-slot mapping and the incentive sum are shared
with the package; both have their own oracle tests in test_allocation.py.
"""

import math
from itertools import accumulate

from hypothesis import example, given, settings, strategies as st

from dtsim.allocation import AllocationParams, block_incentive, leaf_nodes
from dtsim.core import (BlockRecord, Priority, SimulationConfig, Stream, Transaction,
                        strategy_from_category)
from dtsim.ingest import MIN_POSITIVE_FEE
from dtsim.simulator import Mempool, SubmitOutcome, run


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
        """(outcome, evicted transaction or None), as Mempool.submit."""
        evicted = None
        if len(self.txs) >= self.capacity:
            cheapest = min(self.txs, key=evict_key)
            if tx.fee <= cheapest.fee:
                return SubmitOutcome.REJECTED, None
            self.txs.remove(cheapest)
            evicted = cheapest
        self.txs.append(tx)
        if evicted is None:
            return SubmitOutcome.ACCEPTED, None
        return SubmitOutcome.EVICTED_OTHER, evicted

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
    if cfg.transaction_budget is not None:
        txs = txs[: cfg.transaction_budget]
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
            incentive=block_incentive(t.fee for t, _ in block),
            seal_time=max(t.arrival_time for t, _ in block),
        ))
        assignments.extend((t.id, height, t.fee, n) for t, n in block)
        block, small_used = [], 0

    def absorb(tx):
        fates["submitted"].append(tx.fee)
        outcome, evicted = pool.submit(tx)
        if outcome is SubmitOutcome.REJECTED:
            fates["rejected"].append(tx.fee)
        elif outcome is SubmitOutcome.EVICTED_OTHER:
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

    def reached_target():
        return cfg.block_count_target is not None and len(blocks) >= cfg.block_count_target

    warm = min(len(txs), strategy.mempool_size)
    for tx in txs[:warm]:
        absorb(tx)
    stopped = False
    for tx in txs[warm:]:
        absorb(tx)
        mine_one()
        if reached_target():
            stopped = True
            break
    if not stopped:
        while mine_one() and not reached_target():
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
        "assignments": result.assignments,
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
    cfg = SimulationConfig(
        leaf_capacity=leaf_capacity,
        block_count_target=draw(st.none() | st.integers(min_value=1, max_value=4)),
        transaction_budget=draw(st.none() | st.integers(min_value=1, max_value=40)),
    )
    return strategy, cfg


@settings(max_examples=300, deadline=None)
@given(txs=streams(), setup=setups(), force_seal=st.booleans())
def test_run_matches_naive_miner(txs, setup, force_seal):
    strategy, cfg = setup
    result = run(txs, strategy, cfg, force_seal=force_seal)
    assert observed(result) == naive_run(txs, strategy, cfg, force_seal)


OPS = st.lists(
    st.one_of(
        st.tuples(st.just("submit"), FEES, st.integers(min_value=0, max_value=5)),
        st.tuples(st.just("select"), st.none(), st.none()),
        st.tuples(st.just("small"), st.none(), st.none()),
    ),
    max_size=80,
)


# Ties that each ordering rule settles against the id order, in a pool of 2:
# a pick and an overflow between equal fees (earlier arrival first, then
# lower id), and time-order picks between equal arrivals (higher fee first,
# then lower id).
_SWAPPED_IDS = [1, 0, *range(2, 80)]
_FEE_TIE_PICK = [("submit", 1.0, 0), ("submit", 1.0, 2), ("select", None, None)]
_FEE_TIE_EVICT = [("submit", 1.0, 0), ("submit", 1.0, 2), ("submit", 2.0, 0)]
_FEE_AND_ARRIVAL_TIE_EVICT = [("submit", 1.0, 0), ("submit", 1.0, 0), ("submit", 2.0, 0)]
_ARRIVAL_TIE_PICK = [("submit", 1.0, 0), ("submit", 2.0, 0), ("select", None, None)]
_FEE_AND_ARRIVAL_TIE_PICK = [("submit", 1.0, 0), ("submit", 1.0, 0), ("select", None, None)]


@settings(max_examples=300, deadline=None)
@given(ops=OPS, capacity=st.integers(min_value=1, max_value=4),
       priority=st.sampled_from(list(Priority)),
       threshold=st.sampled_from([None, 0.5, 2.0, 100.0]), ids=st.permutations(range(80)))
@example(ops=_FEE_TIE_PICK, capacity=2, priority=Priority.FEE, threshold=None, ids=_SWAPPED_IDS)
@example(ops=_FEE_TIE_EVICT, capacity=2, priority=Priority.FEE, threshold=None, ids=_SWAPPED_IDS)
@example(ops=_FEE_AND_ARRIVAL_TIE_EVICT, capacity=2, priority=Priority.FEE, threshold=None,
         ids=_SWAPPED_IDS)
@example(ops=_ARRIVAL_TIE_PICK, capacity=2, priority=Priority.TIME, threshold=None,
         ids=list(range(80)))
@example(ops=_FEE_AND_ARRIVAL_TIE_PICK, capacity=2, priority=Priority.TIME, threshold=None,
         ids=_SWAPPED_IDS)
def test_mempool_matches_naive_pool(ops, capacity, priority, threshold, ids):
    # Submits outnumber picks, so a full pool overflows again and again,
    # which `run` itself never reaches. The pool works on positions into
    # the columns of every transaction the ops submit. A stream's arrivals are
    # sorted, so each submit's number, halved, is its gap to the previous
    # arrival (a tie one time in three); the ids, unique and shuffled, are
    # independent of arrival order (80 covers the longest ops list), so the
    # two tie-breaks stay distinct.
    fees = [fee for op, fee, _gap in ops if op == "submit"]
    arrivals = accumulate(gap // 2 for op, _fee, gap in ops if op == "submit")
    txs = [Transaction(id=tx_id, amount=0.0, fee=fee, arrival_time=arrival)
           for tx_id, fee, arrival in zip(ids, fees, arrivals)]
    pool = Mempool(Stream.of(txs), capacity, priority, threshold)
    naive = NaivePool(capacity, priority, threshold)

    def tx_at(pos):
        return None if pos is None else txs[pos]

    submitted = iter(range(len(txs)))
    for op, _fee, _arrival in ops:
        if op == "submit":
            pos = next(submitted)
            outcome, evicted = pool.submit(pos)
            assert (outcome, tx_at(evicted)) == naive.submit(txs[pos])
        elif op == "select":
            assert tx_at(pool.select_next()) == naive.take()
        else:
            assert tx_at(pool.select_next_small_fee()) == naive.take(small_only=True)
        assert len(pool) == len(naive.txs)
        assert pool.pending_fees() == math.fsum(t.fee for t in naive.txs)
