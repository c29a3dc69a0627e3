import gc
import hashlib
import math
import tracemalloc
from array import array
from bisect import bisect_left, bisect_right
from collections import Counter
from heapq import heappop, heappush, heappushpop
from itertools import groupby

import pytest
from hypothesis import given, settings, strategies as st

import numpy as np

from dtsim import simulator
from dtsim.core import (DataError, Priority, SimulationConfig, Stream, Transaction, category,
                        strategy_from_category)
from dtsim.ingest import DatasetSpec, generate
from dtsim.metrics import MIN_INCENTIVES, series_volatility
from dtsim.optimize import evaluate_attrs
from dtsim.simulator import (
    BASELINE_TXS_PER_BLOCK,
    Assignments,
    fixed_block_baseline,
    incentives,
    run,
    write_assignments_csv,
    write_blocks_csv,
)


def tx(i, fee, t=None, amount=None):
    return Transaction(id=i, amount=amount if amount is not None else fee * 500.0,
                       fee=fee, arrival_time=t if t is not None else i)


CFG = SimulationConfig()


@pytest.fixture(scope="module")
def stream_30k():
    return generate(DatasetSpec(count=30_000, rng_seed=11))


def head(stream, n):
    """The first n transactions of `stream`, the way a caller shortens a run."""
    return Stream(*(column[:n] for column in (stream.ids, stream.arrivals, stream.amounts,
                                              stream.fees)))


# The unreserved and a reserved strategy of each priority (time: categories
# 2 and 1, fee: 4 and 3). No fee below falls under the reserve's threshold,
# so both pick alike, with and without a small-fee quota.
POOLS = [(Priority.TIME, 2, {}), (Priority.TIME, 1, {"a4": 0.01, "a5": 2}),
         (Priority.FEE, 4, {}), (Priority.FEE, 3, {"a4": 0.01, "a5": 2})]


def mined(txs, a1):
    """(priority, `run` result) for each of POOLS with pool a1, every pick
    in one force-sealed block, so the assignments list the picks in order."""
    for priority, cat, small in POOLS:
        s = strategy_from_category(cat, a1=a1, a6=110, a7=6.94, a8=1.0, **small)
        yield priority, run(txs, s, CFG, force_seal=True)


def pick_order(result):
    return [tx_id for tx_id, _block, _fee, _nodes in result.assignments]


class TestMempoolSubmit:
    """The pool's one overflow, at the arrival of position a1, seen through `run`."""

    def test_accept_below_capacity(self):
        for _, result in mined([tx(1, 5.0)], a1=2):
            assert (result.evicted_count, result.rejected_count) == (0, 0)
            assert pick_order(result) == [1]

    def test_overflow_evicts_cheapest_when_newcomer_pays_more(self):
        for _, result in mined([tx(1, 5.0), tx(2, 9.0), tx(3, 7.0)], a1=2):
            assert (result.evicted_count, result.evicted_fees, result.rejected_count) == \
                (1, 5.0, 0)
            assert sorted(pick_order(result)) == [2, 3]

    def test_overflow_rejects_cheap_newcomer(self):
        for _, result in mined([tx(1, 5.0), tx(2, 9.0), tx(3, 1.0)], a1=2):
            assert (result.rejected_count, result.rejected_fees, result.evicted_count) == \
                (1, 1.0, 0)
            assert sorted(pick_order(result)) == [1, 2]

    def test_equal_fee_newcomer_rejected(self):
        for _, result in mined([tx(1, 5.0), tx(2, 5.0)], a1=1):
            assert (result.rejected_count, result.rejected_fees, result.evicted_count) == \
                (1, 5.0, 0)
            assert pick_order(result) == [1]

    @pytest.mark.parametrize("arrivals,victim", [((0, 1), 2), ((0, 0), 1)])
    def test_eviction_tie_breaks_by_arrival_then_id(self, arrivals, victim):
        # Ids 2 and 1 tie on fee: the earlier arrival goes first, and on
        # equal arrivals the lower id.
        txs = [tx(2, 1.0, t=arrivals[0]), tx(1, 1.0, t=arrivals[1]), tx(3, 2.0, t=1)]
        for _, result in mined(txs, a1=2):
            assert (result.evicted_count, result.evicted_fees) == (1, 1.0)
            assert sorted(pick_order(result)) == sorted({1, 2, 3} - {victim})

    @pytest.mark.parametrize("cat, small", [(1, {"a4": 60.0, "a5": 100}), (2, {}),
                                            (3, {"a4": 60.0, "a5": 100}), (4, {})])
    def test_an_overflowing_run_sorts_nothing_itself(self, stream_30k, cat, small, monkeypatch):
        # Counted work: the victim comes from the stream's fee order, and the
        # drain orders its picks by one key, so the simulator calls no lexsort.
        lexsorts = []

        class Numpy:
            """numpy as `dtsim.simulator` sees it, counting `lexsort` calls."""

            def __getattr__(self, name):
                return getattr(np, name)

            def lexsort(self, *args, **kwargs):
                lexsorts.append(args)
                return np.lexsort(*args, **kwargs)

        monkeypatch.setattr(simulator, "np", Numpy())
        s = strategy_from_category(cat, a1=1000, a6=110, a7=6.94, a8=1.0, **small)
        result = run(stream_30k, s, CFG)
        assert result.evicted_count + result.rejected_count == 1
        assert lexsorts == []

    def test_duplicate_id_rejected(self):
        # Ranks need unique ids; `run` refuses a stream that repeats one.
        with pytest.raises(DataError, match="transaction id 1 appears more than once"):
            list(mined([tx(1, 5.0), tx(2, 1.0), tx(1, 6.0)], a1=3))


class TestSelectNext:
    """Drain order of a pool larger than the stream, seen through `run`."""

    def test_time_priority_is_fifo(self):
        for priority, result in mined([tx(1, 9.0, t=1), tx(2, 100.0, t=2)], a1=10):
            if priority is Priority.TIME:
                assert pick_order(result) == [1, 2]

    def test_fee_priority_takes_richest(self):
        for priority, result in mined([tx(1, 9.0, t=1), tx(2, 100.0, t=2)], a1=10):
            if priority is Priority.FEE:
                assert pick_order(result) == [2, 1]

    def test_tie_breaks_deterministic(self):
        # Same arrival: higher fee first (fee order agrees). Same fee:
        # earlier arrival first (time order agrees). Same fee and arrival:
        # lower id first.
        for txs, order in (([tx(1, 2.0, t=5), tx(2, 8.0, t=5)], [2, 1]),
                           ([tx(2, 3.0, t=5), tx(1, 3.0, t=6)], [2, 1]),
                           ([tx(7, 3.0, t=5), tx(4, 3.0, t=5)], [4, 7])):
            for _, result in mined(txs, a1=10):
                assert pick_order(result) == order

    def test_empty_pool_returns_none(self):
        # The drain ends when the pool runs empty.
        for txs in ([], [tx(1, 5.0)]):
            for _, result in mined(txs, a1=5):
                assert pick_order(result) == [t.id for t in txs]


class TestHeapBound:
    def test_heaps_together_stay_within_the_pool(self, monkeypatch):
        # Fee priority with designated space: reserved small-fee picks and
        # ordinary picks alternate, and every pick pops the heap it read, so
        # the two disjoint heaps hold at most the a1 pending ranks together.
        heaps, peak = {}, 0

        def recording_push(heap, item):
            nonlocal peak
            heappush(heap, item)
            heaps[id(heap)] = heap
            peak = max(peak, sum(map(len, heaps.values())))

        monkeypatch.setattr("dtsim.simulator.heappush", recording_push)
        stream = generate(DatasetSpec(count=50_000, rng_seed=7))
        s = strategy_from_category(3, a1=2000, a6=110, a7=6.94, a8=1.0, a4=60.0, a5=200)
        result = run(stream, s, CFG)
        assert result.included_count > 40_000
        assert len(heaps) == 2
        assert peak == 2000  # never above a1, and reached when the pool fills


class TestWholeStretches:
    """The arrival loop's picks come from whole stretches, not one heap call
    per arrival, where no small fee waits, or every rank arrives by its turn
    (time priority)."""

    def test_reserved_arrivals_rarely_touch_the_heaps_one_at_a_time(self, monkeypatch):
        # a4 = 2.0 makes about 0.05% of the 50k seed-2024 fees small, and the
        # quota of 200 never closes, so each small fee is picked on arrival.
        calls = 0

        def counted(call):
            def wrapper(*args):
                nonlocal calls
                calls += 1
                return call(*args)
            return wrapper

        monkeypatch.setattr("dtsim.simulator.heappush", counted(heappush))
        monkeypatch.setattr("dtsim.simulator.heappop", counted(heappop))
        stream = generate(DatasetSpec(count=50_000, rng_seed=2024))
        s = strategy_from_category(3, a1=25469, a6=110, a7=6.94, a8=1.0, a4=2.0, a5=200)
        result = run(stream, s, CFG)
        assert result.included_count > 49_000
        assert calls < 0.01 * (50_000 - 25469)

    def test_time_order_without_late_ranks_is_the_rank_order(self, monkeypatch):
        calls = 0

        def counted(heap, item):
            nonlocal calls
            calls += 1
            return heappushpop(heap, item)

        monkeypatch.setattr("dtsim.simulator.heappushpop", counted)
        stream = generate(DatasetSpec(count=50_000, rng_seed=2024))
        s = strategy_from_category(2, a1=25469, a6=110, a7=6.94, a8=1.0)
        assert run(stream, s, CFG).included_count > 49_000
        assert calls == 0

    # Unique arrival times leave no tie inversion, so every rank of each
    # queue arrives before its turn: whether small fees are rare (a4 = 2.0),
    # or wait behind a quota that fills (a4 = 60.0, 44% of the fees), or
    # the pool holds one transaction.
    @pytest.mark.parametrize("a1, a4, a5", [(25469, 2.0, 200), (1000, 60.0, 3), (25469, 60.0, 1),
                                            (1, 60.0, 2)])
    def test_time_order_without_tie_inversions_takes_no_heap(self, stream_50k, a1, a4, a5,
                                                             monkeypatch):
        calls = Counter()

        def counted(call):
            def wrapper(*args):
                calls[call.__name__] += 1
                return call(*args)
            return wrapper

        for call in (heappush, heappop, heappushpop):
            monkeypatch.setattr(simulator, call.__name__, counted(call))
        untied = Stream(stream_50k.ids, np.arange(len(stream_50k)), stream_50k.amounts,
                        stream_50k.fees)
        assert (untied.ranks(Priority.TIME)[0] == np.arange(len(untied))).all()
        s = strategy_from_category(1, a1=a1, a6=110, a7=6.94, a8=1.0, a4=a4, a5=a5)
        assert run(untied, s, CFG).included_count > 49_000
        assert calls == {}

    # Fees that fall with arrival make each position's fee rank the position,
    # so under fee priority too every rank of each queue arrives by its turn:
    # whether the 199 small fees (below a4 = 1.0, the last positions) meet a
    # quota that fills, or one that never does, or the pool holds one.
    @pytest.mark.parametrize("a1, a5", [(1000, 3), (1, 1), (5000, 200)])
    def test_fee_order_without_late_ranks_takes_no_heap(self, stream_50k, a1, a5, monkeypatch):
        calls = Counter()

        def counted(call):
            def wrapper(*args):
                calls[call.__name__] += 1
                return call(*args)
            return wrapper

        for call in (heappush, heappop, heappushpop):
            monkeypatch.setattr(simulator, call.__name__, counted(call))
        n = 20_000
        falling = Stream(stream_50k.ids[:n], np.arange(n), stream_50k.amounts[:n],
                         np.arange(n, 0, -1) / 200)
        assert (falling.ranks(Priority.FEE)[0] == np.arange(n)).all()
        s = strategy_from_category(3, a1=a1, a6=110, a7=6.94, a8=1.0, a4=1.0, a5=a5)
        assert run(falling, s, CFG).included_count > 18_000
        assert calls == {}

    @pytest.mark.parametrize("cat, small", [(4, {}), (3, {"a4": 60.0, "a5": 0})])
    @pytest.mark.parametrize("a1", [1000, 25469])
    def test_fee_order_without_a_quota_is_one_chain(self, stream_50k, cat, small, a1,
                                                    monkeypatch):
        # Every arrival from the overflow on is one push-pop of one chain, the
        # victim is evicted, and the drain bisects the pool's sorted ranks.
        calls = Counter()

        def counted(call):
            def wrapper(*args):
                calls[call.__name__] += 1
                return call(*args)
            return wrapper

        for call in (heappush, heappop, heappushpop):
            monkeypatch.setattr(simulator, call.__name__, counted(call))
        s = strategy_from_category(cat, a1=a1, a6=110, a7=6.94, a8=1.0, **small)
        result = run(stream_50k, s, CFG)
        assert (result.evicted_count, result.rejected_count) == (1, 0)
        assert calls == {"heappushpop": len(stream_50k) - a1}
        assert not hasattr(simulator, "heapify")


class TestTryIncorporate:
    """Placement of one pick in the open block, observed through `run`."""

    def test_empty_block_always_accepts(self):
        s = strategy_from_category(2, a1=10, a6=110, a7=6.94, a8=1.0)
        result = run([tx(1, 1e9)], s, CFG, force_seal=True)
        assert result.blocks[0].occupied_nodes == 110
        assert list(result.assignments) == [(1, 0, 1e9, 110)]

    def test_twentieth_max_fee_transaction_seals_at_2090(self):
        s = strategy_from_category(2, a1=100, a6=110, a7=6.94, a8=1.0)
        stream = [tx(i, 1e9, t=i) for i in range(20)]
        result = run(stream, s, CFG)
        assert len(result.blocks) == 1
        sealed = result.blocks[0]
        assert sealed.occupied_nodes == 2090
        assert sealed.tx_ids == tuple(range(19))
        # the 20th opened the next block, which stays unsealed
        assert result.unsealed_count == 1 and result.unsealed_fees == 1e9
        assert run(stream, s, CFG, force_seal=True).blocks[1].occupied_nodes == 110

    def test_reserved_small_fee_accounting(self):
        # Designated-space attributes: low threshold, one reserved slot.
        # Pool of 2: id 3 evicts id 1 and id 2 is picked, above threshold,
        # so the reserved slot stays free for id 4, which is picked ahead
        # of the earlier id 3. Then the slot is used: id 3 precedes id 5.
        s = strategy_from_category(1, a1=2, a6=93, a7=6.72, a8=0.91, a4=1.41, a5=1)
        stream = [tx(1, 500.0), tx(2, 600.0), tx(3, 800.0), tx(4, 1.0), tx(5, 1.0)]
        result = run(stream, s, CFG, force_seal=True)
        assert result.evicted_count == 1 and result.evicted_fees == 500.0
        assert result.blocks[0].tx_ids == (2, 4, 3, 5)

    def test_reserved_quota_exhausts(self):
        stream = [tx(1, 500.0), tx(2, 1.0), tx(3, 1.0)]
        for quota, order in ((1, (2, 1, 3)), (2, (2, 3, 1))):
            s = strategy_from_category(1, a1=100, a6=93, a7=6.72, a8=0.91, a4=1.41, a5=quota)
            assert run(stream, s, CFG, force_seal=True).blocks[0].tx_ids == order


def uniform_halfcap_stream(n, fee_for_100_nodes):
    return [tx(i, fee_for_100_nodes, t=i) for i in range(n)]


class TestRun:
    def test_uniform_stream_makes_constant_21_tx_blocks(self):
        # A6=200 at the distribution median -> exactly 100 nodes per tx,
        # so every sealed block holds 21 transactions and pays the same.
        fee = math.exp(6.94)
        s = strategy_from_category(2, a1=50, a6=200, a7=6.94, a8=1.0)
        stream = uniform_halfcap_stream(500, fee)
        result = run(stream, s, CFG)
        # 483 sealed in 23 blocks; one equal-fee arrival bounced off the
        # briefly-full pool right after warm-up; 16 drain into the tail.
        assert len(result.blocks) == 23
        assert result.rejected_count == 1
        assert result.unsealed_count == 16
        for b in result.blocks:
            assert len(b.tx_ids) == 21
            assert b.occupied_nodes == 2100
            assert b.incentive == pytest.approx(21 * fee, abs=1e-9)

    def test_single_transaction_never_seals(self):
        s = strategy_from_category(2, a1=50, a6=110, a7=6.94, a8=1.0)
        result = run([tx(1, 100.0)], s, CFG)
        assert result.blocks == []
        assert result.unsealed_count == 1

    def test_force_seal_flushes_tail(self):
        s = strategy_from_category(2, a1=50, a6=110, a7=6.94, a8=1.0)
        result = run([tx(1, 100.0)], s, CFG, force_seal=True)
        assert len(result.blocks) == 1
        assert result.unsealed_count == 0

    def test_unordered_stream_rejected(self):
        s = strategy_from_category(2, a1=50, a6=110, a7=6.94, a8=1.0)
        with pytest.raises(DataError, match="ordered by arrival_time: transaction 2 at "
                                            "position 1 arrives at 5, before 10 at position 0"):
            run([tx(1, 1.0, t=10), tx(2, 1.0, t=5)], s, CFG)
        stream = [tx(1, 1.0, t=3), tx(2, 1.0, t=10), tx(9, 1.0, t=10), tx(4, 1.0, t=7),
                  tx(5, 1.0, t=2)]
        with pytest.raises(DataError, match="transaction 4 at position 3 arrives at 7, "
                                            "before 10 at position 2$"):
            run(stream, s, CFG)

    @pytest.mark.parametrize("a1", [5, 1])
    def test_repeated_id_rejected(self, a1):
        # With a1=5 the first copy of id 7 is still pending when the second
        # arrives; with a1=1 it has already been mined.
        s = strategy_from_category(2, a1=a1, a6=110, a7=6.94, a8=1.0)
        stream = [tx(7, 1.0, t=0), tx(2, 1.0, t=1), tx(3, 1.0, t=2), tx(7, 2.0, t=3)]
        with pytest.raises(DataError, match="^transaction id 7 appears more than once"):
            run(stream, s, CFG, force_seal=True)

    def test_id_beyond_64_bits_rejected(self):
        s = strategy_from_category(2, a1=5, a6=110, a7=6.94, a8=1.0)
        with pytest.raises(DataError, match="must fit in 64 bits"):
            run([tx(1, 1.0, t=0), tx(2**64, 1.0, t=1)], s, CFG)

    def test_iterator_input_matches_list(self):
        stream = generate(DatasetSpec(count=5_000, rng_seed=4))
        s = strategy_from_category(1, a1=300, a6=110, a7=6.94, a8=1.0, a4=200.0, a5=40)
        assert run(iter(stream), s, CFG) == run(stream, s, CFG)

    def test_conservation_and_capacity_on_synthetic_stream(self):
        stream = generate(DatasetSpec(count=30_000, rng_seed=11))
        s = strategy_from_category(4, a1=2000, a6=110, a7=6.94, a8=1.0)
        result = run(stream, s, CFG)
        total = (math.fsum(result.incentives) + result.pending_fees
                 + result.unsealed_fees + result.evicted_fees + result.rejected_fees)
        assert total == pytest.approx(result.submitted_fees, abs=1e-9)
        assert all(b.occupied_nodes <= CFG.leaf_capacity for b in result.blocks)

    def test_no_transaction_in_two_blocks(self):
        stream = generate(DatasetSpec(count=20_000, rng_seed=3))
        s = strategy_from_category(2, a1=1000, a6=110, a7=6.94, a8=1.0)
        result = run(stream, s, CFG)
        seen = set()
        for b in result.blocks:
            for t in b.tx_ids:
                assert t not in seen
                seen.add(t)

    def test_determinism(self):
        stream = generate(DatasetSpec(count=15_000, rng_seed=5))
        s = strategy_from_category(4, a1=800, a6=110, a7=6.94, a8=1.0)
        r1 = run(stream, s, CFG)
        r2 = run(stream, s, CFG)
        assert [b.incentive for b in r1.blocks] == [b.incentive for b in r2.blocks]
        assert [b.tx_ids for b in r1.blocks] == [b.tx_ids for b in r2.blocks]

    # A run stops where its stream does, and a head of the stream seals the
    # blocks of the whole stream's run up to its last arrival. The pick that
    # opens block k + 1 of the whole run, index `end` (the transaction count
    # of the first k blocks), is taken at arrival a1 + end, or in the drain:
    # with a1 = 1000 while transactions arrive, with a1 = 25000 in the drain
    # after the overflow, and with a1 = 40000 (no overflow) in a pure drain.
    # The head ends at that arrival, so it is the whole stream when the pick
    # falls in the drain. Every category, 1 and 3 with and without reserved
    # slots.
    @pytest.mark.parametrize("force_seal", [False, True], ids=["open", "forced"])
    @pytest.mark.parametrize("a1, target", [(1000, 3), (25000, 20), (40000, 3)],
                             ids=["arrivals", "drain", "pure-drain"])
    @pytest.mark.parametrize("cat, small", [
        (1, {"a4": 60.0, "a5": 0}), (1, {"a4": 1.5, "a5": 100}), (2, {}),
        (3, {"a4": 60.0, "a5": 0}), (3, {"a4": 60.0, "a5": 200}), (4, {}),
    ], ids=["cat1-a5_0", "cat1-a5_100", "cat2", "cat3-a5_0", "cat3-a5_200", "cat4"])
    def test_block_count_target_stops_early(self, stream_30k, cat, small, a1, target, force_seal):
        s = strategy_from_category(cat, a1=a1, a6=110, a7=6.94, a8=1.0, **small)
        full = run(stream_30k, s, CFG)
        n = len(stream_30k)
        assert len(full.blocks) > target
        included = sum(len(b.tx_ids) for b in full.blocks[:target])
        m = min(a1 + included + 1, n)
        assert (m < n) == (a1 == 1000)
        result = run(head(stream_30k, m), s, CFG, force_seal=force_seal)
        assert result.blocks[:target] == full.blocks[:target]
        # Both runs make the pick that opens block k + 1; the head may leave
        # that block unsealed, unless force_seal.
        picked = included + force_seal
        assert list(result.assignments)[:picked] == list(full.assignments)[:picked]
        assert result.submitted_count == m
        assert result.included_count == sum(len(b.tx_ids) for b in result.blocks)
        if force_seal:
            assert result.unsealed_count == 0
        assert (result.included_count + result.unsealed_count + result.evicted_count
                + result.rejected_count + result.pending_count == result.submitted_count)
        total = (math.fsum(result.incentives) + result.pending_fees
                 + result.unsealed_fees + result.evicted_fees + result.rejected_fees)
        assert total == pytest.approx(result.submitted_fees, abs=1e-9)

    def test_eviction_happens_under_tight_pool(self):
        # The pool is full only at the first arrival after warm-up (one
        # arrival per pick from then on). That arrival, id 5, pays 1001 and
        # so evicts the cheapest of the five pending transactions.
        stream = [tx(i, 1.0 + (i % 5 == 0) * 1000.0, t=i) for i in range(2000)]
        s = strategy_from_category(4, a1=5, a6=110, a7=6.94, a8=1.0)
        result = run(stream, s, CFG)
        assert result.evicted_count == 1
        assert result.rejected_count == 0
        total = (math.fsum(result.incentives) + result.pending_fees
                 + result.unsealed_fees + result.evicted_fees + result.rejected_fees)
        assert total == pytest.approx(result.submitted_fees, abs=1e-9)

    def test_validates_strategy_against_config(self):
        s = strategy_from_category(2, a1=50, a6=110, a7=6.94, a8=1.0)
        with pytest.raises(ValueError, match="leaf capacity"):
            run([tx(1, 1.0)], s, SimulationConfig(leaf_capacity=100))

    def test_verkle_roots_emitted_and_distinct(self):
        stream = generate(DatasetSpec(count=4_000, rng_seed=2))
        s = strategy_from_category(2, a1=500, a6=110, a7=6.94, a8=1.0)
        result = run(stream, s, CFG, build_trees=True)
        roots = [b.verkle_root for b in result.blocks]
        assert all(isinstance(r, bytes) and len(r) == 32 for r in roots)
        assert len(set(roots)) == len(roots)


    def test_verkle_roots_reject_a_negative_id_before_mining(self, monkeypatch):
        stream = [tx(3, 2.0, t=0), tx(-6, 1.0, t=1), tx(-9, 1.0, t=2), tx(4, 3.0, t=3)]
        s = strategy_from_category(2, a1=2, a6=110, a7=6.94, a8=1.0)
        assert run(stream, s, CFG, force_seal=True).blocks[0].tx_ids == (3, -6, 4)
        monkeypatch.setattr("dtsim.simulator._mine", None)  # mining would raise TypeError
        with pytest.raises(DataError, match="transaction -6 at position 1 is negative"):
            run(stream, s, CFG, build_trees=True)


class TestBaseline:
    def test_chunks_of_fixed_size(self):
        stream = [tx(i, 2.0, t=i) for i in range(5000)]
        blocks = fixed_block_baseline(stream)
        assert BASELINE_TXS_PER_BLOCK == 2100
        assert len(blocks) == 2
        assert all(len(b.tx_ids) == 2100 for b in blocks)
        assert blocks[0].incentive == pytest.approx(4200.0)

    def test_incentive_is_the_correctly_rounded_sum(self):
        # 0.1 + 0.2 + 0.3 sums to 0.6000000000000001 left to right; fsum gives 0.6.
        fees = (0.1, 0.2, 0.3) + (0.0,) * (BASELINE_TXS_PER_BLOCK - 3)
        stream = [tx(i, fee, t=i) for i, fee in enumerate(fees)]
        assert fixed_block_baseline(stream)[0].incentive == 0.6

    def test_a_stream_shorter_than_a_block_gives_no_block(self):
        stream = [tx(i, 1.0, t=i) for i in range(BASELINE_TXS_PER_BLOCK - 1)]
        assert fixed_block_baseline(stream) == []
        assert fixed_block_baseline([]) == []


class TestGoldenRun:
    """Regression pin: the first verified build's block series for the
    reference strategy on the seed-42 synthetic stream."""

    def _fresh_run(self):
        stream = generate(DatasetSpec(count=30_000, rng_seed=42))
        s = strategy_from_category(2, a1=25469, a6=110, a7=6.94, a8=1.00)
        return run(stream, s, SimulationConfig(rng_seed=42))

    def test_block_series_matches_golden_file(self, tmp_path):
        from dtsim.simulator import write_blocks_csv

        result = self._fresh_run()
        fresh = tmp_path / "blocks.csv"
        write_blocks_csv(result.blocks, fresh)
        import pathlib

        golden = pathlib.Path(__file__).parent / "data" / "golden_blocks_reference_seed42.csv"
        assert fresh.read_bytes() == golden.read_bytes()

    def test_golden_volatility_value(self):
        from dtsim.metrics import series_volatility

        result = self._fresh_run()
        assert series_volatility(result.incentives) == pytest.approx(
            0.07730597612164632, abs=1e-12)

    def test_golden_assignment_passes_vrp_constraints(self):
        from dtsim.vrp import VrpInstance, check_constraints, encode

        result = self._fresh_run()
        included = sorted(t for b in result.blocks for t in b.tx_ids)
        nodes_of = {tx_id: n for tx_id, _h, _f, n in result.assignments}
        fee_of = {tx_id: f for tx_id, _h, f, _n in result.assignments}
        matrix = encode(result.blocks, universe=included)
        instance = VrpInstance(
            fees=tuple(fee_of[i] for i in included),
            demands=tuple(nodes_of[i] for i in included),
            capacity=2100,
        )
        assert check_constraints(matrix, instance) == []


# Outputs of categories 2 and 4, and of 1 and 3 with a threshold but no
# reserved slots (a5 = 0), on the 50k seed-2024 stream: (cat, a1, k,
# force_seal) -> (sha256 of blocks.csv, of assignments.csv, first 16 hex
# digits each; (blocks, submitted, included, evicted, rejected, pending,
# unsealed); sha256 of the repr of the submitted, evicted, rejected, pending
# and unsealed fee sums). a1 = 80000 exceeds the stream: no overflow, a pure drain.
# k = 7 pins the run's first seven blocks, which a run cut at its seventh seal
# wrote; of the rest of the pin it reads only the block and included counts.
_PINNED_RUNS = {
    (1, 1000, 7, False): ('8a18eb75025303f6', '09d48de4fb083ec1', (7, 4731, 3730, 1, 0, 999, 1), '39f322683950d168'),
    (1, 1000, None, True): ('497292022e953f7f', 'e042bdd7a08bb958', (106, 50000, 49999, 1, 0, 0, 0), '6b3498a6c88a290c'),
    (1, 25469, 7, False): ('148baffdc8b15b78', '75bfbf836d8f082e', (7, 29200, 3730, 1, 0, 25468, 1), '68dbbc59604f6c7e'),
    (1, 25469, None, True): ('aa93d45fb60bdf04', '9884a34dc7ebdc45', (106, 50000, 49999, 1, 0, 0, 0), 'dabb18e3493aba4f'),
    (1, 80000, 7, False): ('4bd17be83b7237ba', '56f7a374b0b0fb4e', (7, 50000, 3731, 0, 0, 46268, 1), '29a3e6ccd0db9b43'),
    (1, 80000, None, True): ('36aa7d32a634117f', 'fa8520968e9f675d', (106, 50000, 50000, 0, 0, 0, 0), '6cb47dd5c59cb7f5'),
    (2, 1000, 7, False): ('8a18eb75025303f6', '09d48de4fb083ec1', (7, 4731, 3730, 1, 0, 999, 1), '39f322683950d168'),
    (2, 1000, None, True): ('497292022e953f7f', 'e042bdd7a08bb958', (106, 50000, 49999, 1, 0, 0, 0), '6b3498a6c88a290c'),
    (2, 25469, 7, False): ('148baffdc8b15b78', '75bfbf836d8f082e', (7, 29200, 3730, 1, 0, 25468, 1), '68dbbc59604f6c7e'),
    (2, 25469, None, True): ('aa93d45fb60bdf04', '9884a34dc7ebdc45', (106, 50000, 49999, 1, 0, 0, 0), 'dabb18e3493aba4f'),
    (2, 80000, 7, False): ('4bd17be83b7237ba', '56f7a374b0b0fb4e', (7, 50000, 3731, 0, 0, 46268, 1), '29a3e6ccd0db9b43'),
    (2, 80000, None, True): ('36aa7d32a634117f', 'fa8520968e9f675d', (106, 50000, 50000, 0, 0, 0, 0), '6cb47dd5c59cb7f5'),
    (3, 1000, 7, False): ('f741e8c2fa092d39', 'f518e437c49b2a57', (7, 3931, 2930, 1, 0, 999, 1), '682386f8619e3492'),
    (3, 1000, None, True): ('fc1967d9cf60db19', '760a277805ec10d5', (106, 50000, 49999, 1, 0, 0, 0), '6b3498a6c88a290c'),
    (3, 25469, 7, False): ('54cba14274f730cd', '783f3d2269b74385', (7, 25668, 198, 1, 0, 25468, 1), '40460626593d67a0'),
    (3, 25469, None, True): ('8701676d92aec8c1', 'cbdb18c78ff66f9a', (106, 50000, 49999, 1, 0, 0, 0), 'dabb18e3493aba4f'),
    (3, 80000, 7, False): ('bd0404be2c95daee', 'd2a987e02448cb9a', (7, 50000, 194, 0, 0, 49805, 1), '5a18c4f40d23b165'),
    (3, 80000, None, True): ('f21abdd1c581c1d0', '21dfb8bcdf311ce9', (106, 50000, 50000, 0, 0, 0, 0), '6cb47dd5c59cb7f5'),
    (4, 1000, 7, False): ('f741e8c2fa092d39', 'f518e437c49b2a57', (7, 3931, 2930, 1, 0, 999, 1), '682386f8619e3492'),
    (4, 1000, None, True): ('fc1967d9cf60db19', '760a277805ec10d5', (106, 50000, 49999, 1, 0, 0, 0), '6b3498a6c88a290c'),
    (4, 25469, 7, False): ('54cba14274f730cd', '783f3d2269b74385', (7, 25668, 198, 1, 0, 25468, 1), '40460626593d67a0'),
    (4, 25469, None, True): ('8701676d92aec8c1', 'cbdb18c78ff66f9a', (106, 50000, 49999, 1, 0, 0, 0), 'dabb18e3493aba4f'),
    (4, 80000, 7, False): ('bd0404be2c95daee', 'd2a987e02448cb9a', (7, 50000, 194, 0, 0, 49805, 1), '5a18c4f40d23b165'),
    (4, 80000, None, True): ('f21abdd1c581c1d0', '21dfb8bcdf311ce9', (106, 50000, 50000, 0, 0, 0, 0), '6cb47dd5c59cb7f5'),
}


@pytest.fixture(scope="module")
def stream_50k():
    return generate(DatasetSpec(count=50_000, rng_seed=2024))


def _check_pinned(r, k, pin, tmp_path):
    """`r`'s outputs against `pin`: the whole run for k = None; its first k
    blocks and their assignments, with the block and included counts,
    otherwise."""
    blocks = r.blocks if k is None else r.blocks[:k]
    included = sum(len(b.tx_ids) for b in blocks)
    write_blocks_csv(blocks, tmp_path / "blocks.csv")
    view = r.assignments if k is None else Assignments(
        r.assignments.stream, r.assignments.picks, r.assignments.bounds[:k + 1],
        r.assignments.slot_of)
    write_assignments_csv(view, tmp_path / "assignments.csv")

    def digest(data):
        return hashlib.sha256(data).hexdigest()[:16]

    outputs = (digest((tmp_path / "blocks.csv").read_bytes()),
               digest((tmp_path / "assignments.csv").read_bytes()))
    if k is not None:
        assert outputs + ((len(blocks), included),) == pin[:2] + ((pin[2][0], pin[2][2]),)
        return
    counts = (len(r.blocks), r.submitted_count, r.included_count, r.evicted_count,
              r.rejected_count, r.pending_count, r.unsealed_count)
    fees = (r.submitted_fees, r.evicted_fees, r.rejected_fees, r.pending_fees, r.unsealed_fees)
    assert outputs + (counts, digest(repr(fees).encode())) == pin


@pytest.mark.parametrize("case", sorted(_PINNED_RUNS, key=repr), ids=repr)
def test_pinned_unreserved_runs(case, stream_50k, tmp_path):
    cat, a1, k, force_seal = case
    small = {"a4": 60.0, "a5": 0} if cat in (1, 3) else {}
    s = strategy_from_category(cat, a1=a1, a6=110, a7=6.94, a8=1.0, **small)
    _check_pinned(run(stream_50k, s, CFG, force_seal=force_seal), k, _PINNED_RUNS[case], tmp_path)


# Outputs of categories 1 and 3 with reserved small-fee slots (a5 > 0) on the
# 50k seed-2024 stream, in the layout of _PINNED_RUNS: (cat, a4, a5, a1,
# k, force_seal) -> (sha256 of blocks.csv, of assignments.csv, first 16
# hex digits each; the seven counts; sha256 of the repr of the five fee sums).
_PINNED_RESERVED_RUNS = {
    (1, 1.5, 100, 1000, 7, False): ('8a18eb75025303f6', '09d48de4fb083ec1', (7, 4731, 3730, 1, 0, 999, 1), '39f322683950d168'),
    (1, 1.5, 100, 1000, None, False): ('39514647c31fb3bc', 'df6a812e33b1e698', (105, 50000, 49529, 1, 0, 0, 470), '8214f1474c8ce6e7'),
    (1, 1.5, 100, 1000, None, True): ('ec9a0ed84d471b62', '176b40e8b826c9ca', (106, 50000, 49999, 1, 0, 0, 0), '6b3498a6c88a290c'),
    (1, 1.5, 100, 25469, 7, False): ('6e1645e7dbf961d3', 'ef51e604cec75891', (7, 29201, 3731, 1, 0, 25468, 1), '365fc112fa7345ff'),
    (1, 1.5, 100, 25469, None, False): ('a6615a778f32a9e2', 'cea14a81a5c6db0b', (105, 50000, 49535, 1, 0, 0, 464), '6509b09c48a5fef6'),
    (1, 1.5, 100, 25469, None, True): ('ed349974bd1524ac', 'd173d5a5aae2ebbf', (106, 50000, 49999, 1, 0, 0, 0), 'dabb18e3493aba4f'),
    (1, 1.5, 100, 80000, 7, False): ('d1cd0d6395252e38', '4587d2662d6c4881', (7, 50000, 3742, 0, 0, 46257, 1), '15cd8a51e0ca219d'),
    (1, 1.5, 100, 80000, None, False): ('ecea24b47d2f1a8e', '2adfb4a7ba3f6884', (105, 50000, 49536, 0, 0, 0, 464), '878d139bdf5a4d54'),
    (1, 1.5, 100, 80000, None, True): ('1a7ae5f31e2ce9e8', '28db04e9965bd4e4', (106, 50000, 50000, 0, 0, 0, 0), '6cb47dd5c59cb7f5'),
    (1, 60.0, 200, 1000, 7, False): ('f384423c549223c7', '8cf06518258ddca6', (7, 4871, 3870, 1, 0, 999, 1), 'd85115705e9f3839'),
    (1, 60.0, 200, 1000, None, False): ('b2361a75e2f722ee', 'f84d3e8111b271f0', (105, 50000, 49550, 1, 0, 0, 449), '4c3336416442439c'),
    (1, 60.0, 200, 1000, None, True): ('dd915c24bcd28d22', '339c88f5fb92f931', (106, 50000, 49999, 1, 0, 0, 0), '6b3498a6c88a290c'),
    (1, 60.0, 200, 25469, 7, False): ('aa66e621c0143ead', '7d2b213574dbdb50', (7, 29340, 3870, 1, 0, 25468, 1), '830a494d1c07ef1e'),
    (1, 60.0, 200, 25469, None, False): ('e72ea3d2f9b87b7d', '81ed3a82be6c7154', (105, 50000, 49667, 1, 0, 0, 332), '2d5ee9b7fa2fc374'),
    (1, 60.0, 200, 25469, None, True): ('31624057223a9824', 'd85643042908fd39', (106, 50000, 49999, 1, 0, 0, 0), 'dabb18e3493aba4f'),
    (1, 60.0, 200, 80000, 7, False): ('adf43fcbf695083d', 'abf938485021637b', (7, 50000, 3871, 0, 0, 46128, 1), '4a8cb351f6579955'),
    (1, 60.0, 200, 80000, None, False): ('0f4a58d14ce958fd', 'dcc840c8f275d5b1', (105, 50000, 49668, 0, 0, 0, 332), '468e8a34292dcab5'),
    (1, 60.0, 200, 80000, None, True): ('7db2594b08ac5c7a', '214b7ff14ddf74b9', (106, 50000, 50000, 0, 0, 0, 0), '6cb47dd5c59cb7f5'),
    (3, 1.5, 100, 1000, 7, False): ('f741e8c2fa092d39', 'f518e437c49b2a57', (7, 3931, 2930, 1, 0, 999, 1), '682386f8619e3492'),
    (3, 1.5, 100, 1000, None, False): ('2ba7787593768de8', 'fe61c778e8893807', (105, 50000, 49266, 1, 0, 0, 733), 'a0788d7dbee4ed12'),
    (3, 1.5, 100, 1000, None, True): ('d158c2ffecfef9f8', 'a7a2bc8357b22d55', (106, 50000, 49999, 1, 0, 0, 0), '6b3498a6c88a290c'),
    (3, 1.5, 100, 25469, 7, False): ('54cba14274f730cd', '783f3d2269b74385', (7, 25668, 198, 1, 0, 25468, 1), '40460626593d67a0'),
    (3, 1.5, 100, 25469, None, False): ('73aa23ba8e934d3c', 'e4865388c36a24a6', (105, 50000, 49329, 1, 0, 0, 670), 'e7f51c867e6c9853'),
    (3, 1.5, 100, 25469, None, True): ('b7a2e5a4b10e3123', '67b7b14aae0578df', (106, 50000, 49999, 1, 0, 0, 0), 'dabb18e3493aba4f'),
    (3, 1.5, 100, 80000, 7, False): ('4fc3ecfb39be09d1', 'd4b18bfec29afa54', (7, 50000, 205, 0, 0, 49794, 1), '6a44ed87df263125'),
    (3, 1.5, 100, 80000, None, False): ('b4be2605d6ae786f', '89e3dbc982dfec58', (105, 50000, 49576, 0, 0, 0, 424), '1b0170691310d06f'),
    (3, 1.5, 100, 80000, None, True): ('98dc61ebcfd7859e', '9a40dcd5efcba8db', (106, 50000, 50000, 0, 0, 0, 0), '6cb47dd5c59cb7f5'),
    (3, 60.0, 200, 1000, 7, False): ('e857c7bd05d798e2', '970af155226b1320', (7, 3931, 2930, 1, 0, 999, 1), '0aedfac53746f259'),
    (3, 60.0, 200, 1000, None, False): ('0e3b9bd82f026adf', 'f3c3d3ff03485045', (105, 50000, 49578, 1, 0, 0, 421), 'bc6c98cfae734891'),
    (3, 60.0, 200, 1000, None, True): ('0474be9eaaa2d1a6', '9ec84d98a2e88d18', (106, 50000, 49999, 1, 0, 0, 0), '6b3498a6c88a290c'),
    (3, 60.0, 200, 25469, 7, False): ('15c58bc2a61a0ca4', 'b715893a5b6a97e9', (7, 27044, 1574, 1, 0, 25468, 1), '9498f2b5fcf1f0fc'),
    (3, 60.0, 200, 25469, None, False): ('88a3ff6799d88437', '9c39d774e7195fdf', (105, 50000, 49361, 1, 0, 0, 638), '3df3aa60fbdc2c8c'),
    (3, 60.0, 200, 25469, None, True): ('d1c5640cf410d95c', '62225240d6f2abff', (106, 50000, 49999, 1, 0, 0, 0), 'dabb18e3493aba4f'),
    (3, 60.0, 200, 80000, 7, False): ('a1ffd227659d77c3', 'c91696a4eb441582', (7, 50000, 1572, 0, 0, 48427, 1), '7195943d565dd17e'),
    (3, 60.0, 200, 80000, None, False): ('18f2013b7fbb6e56', '7bbdc07f98e1222f', (105, 50000, 49325, 0, 0, 0, 675), 'a88049946d9dfc72'),
    (3, 60.0, 200, 80000, None, True): ('1fa4e4d5e3894694', '3796fbf4e87679e7', (106, 50000, 50000, 0, 0, 0, 0), '6cb47dd5c59cb7f5'),
}


@pytest.mark.parametrize("case", sorted(_PINNED_RESERVED_RUNS, key=repr), ids=repr)
def test_pinned_reserved_runs(case, stream_50k, tmp_path):
    cat, a4, a5, a1, k, force_seal = case
    s = strategy_from_category(cat, a1=a1, a6=110, a7=6.94, a8=1.0, a4=a4, a5=a5)
    _check_pinned(run(stream_50k, s, CFG, force_seal=force_seal), k,
                  _PINNED_RESERVED_RUNS[case], tmp_path)


# The objective's path against `run`: every category, 1 and 3 with and
# without reserved slots, a pool that overflows (a1 = 1000) and one that
# never does (a1 = 40000, a pure drain), over the whole 30k stream and two
# heads of it: 3,000 transactions, a run of a few blocks, and 7,000. The ids
# of the heads name the run-length settings a caller once used to cut a run
# this short: a block target inside the run and a transaction budget.
INCENTIVE_CATEGORIES = [(1, {"a4": 60.0, "a5": 0}), (1, {"a4": 1.5, "a5": 100}), (2, {}),
                        (3, {"a4": 60.0, "a5": 0}), (3, {"a4": 60.0, "a5": 200}), (4, {})]
INCENTIVE_IDS = ["cat1-a5_0", "cat1-a5_100", "cat2", "cat3-a5_0", "cat3-a5_200", "cat4"]


def _bits(values):
    return [float(v).hex() for v in values]


@pytest.mark.parametrize("n", [None, 3_000, 7_000], ids=["full", "target-inside", "budget"])
@pytest.mark.parametrize("a1", [1000, 40000])
@pytest.mark.parametrize("cat, small", INCENTIVE_CATEGORIES, ids=INCENTIVE_IDS)
def test_incentives_equal_the_run_series(stream_30k, cat, small, a1, n):
    stream = stream_30k if n is None else head(stream_30k, n)
    s = strategy_from_category(cat, a1=a1, a6=110, a7=6.94, a8=1.0, **small)
    series = incentives(stream, s, CFG)
    assert len(series) >= 3
    assert _bits(series) == _bits(run(stream, s, CFG).incentives)


@pytest.mark.parametrize("cat, small", INCENTIVE_CATEGORIES, ids=INCENTIVE_IDS)
def test_incentives_equal_the_run_series_with_zero_fees(stream_30k, cat, small):
    zeros = Stream(stream_30k.ids, stream_30k.arrivals, stream_30k.amounts,
                   np.where(np.arange(len(stream_30k)) % 97 == 0, 0.0, stream_30k.fees))
    s = strategy_from_category(cat, a1=1000, a6=110, a7=6.94, a8=1.0, **small)
    series = incentives(zeros, s, CFG)
    assert _bits(series) == _bits(run(zeros, s, CFG).incentives)
    assert _bits(series) != _bits(incentives(stream_30k, s, CFG))


# A pool that never overflows (a1 = 40,000 > 30,000) builds no heap: the
# warm-up split's ascending rank arrays go to `_drain` as they are, with no
# round trip through a list, and the drain turns no list into an array.
@pytest.mark.parametrize("cat, small", [(1, {"a4": 1.5, "a5": 100}), (3, {"a4": 60.0, "a5": 200})],
                         ids=["cat1-a5_100", "cat3-a5_200"])
def test_a_pure_drain_takes_the_warm_up_arrays_as_they_are(stream_30k, cat, small, monkeypatch):
    drained, listed = [], []

    class Numpy:
        """numpy as `dtsim.simulator` sees it, recording `array` calls on a list."""

        def __getattr__(self, name):
            return getattr(np, name)

        def array(self, obj, *args, **kwargs):
            if isinstance(obj, list):
                listed.append(len(obj))
            return np.array(obj, *args, **kwargs)

    def recording_drain(S, L, *args, drain=simulator._drain):
        drained.append((S, L))
        return drain(S, L, *args)

    monkeypatch.setattr(simulator, "np", Numpy())
    monkeypatch.setattr(simulator, "_drain", recording_drain)
    s = strategy_from_category(cat, a1=40_000, a6=110, a7=6.94, a8=1.0, **small)
    assert len(incentives(stream_30k, s, CFG)) >= 3
    assert len(drained) == 1
    for ranks in drained[0]:
        assert type(ranks) is np.ndarray and ranks.dtype == np.int64 and len(ranks) > 0
        assert (np.diff(ranks) > 0).all()
    assert sum(map(len, drained[0])) == len(stream_30k)
    assert listed == []


# A pure drain sorts only the picks of its merged steps, those that take
# from both sides: with fewer small fees (30 below a4 = 1.5) than the quota
# of 200, every step is one-sided and nothing is sorted; with a quota of 1,
# each block's merged step sorts at most the block's own picks.
@pytest.mark.parametrize("a5, merged", [(200, False), (1, True)])
def test_a_pure_drain_sorts_only_its_merged_steps(stream_30k, a5, merged, monkeypatch):
    sorted_lengths = []

    class Numpy:
        """numpy as `dtsim.simulator` sees it, recording `sort` calls."""

        def __getattr__(self, name):
            return getattr(np, name)

        def sort(self, a, *args, **kwargs):
            sorted_lengths.append(len(a))
            return np.sort(a, *args, **kwargs)

    monkeypatch.setattr(simulator, "np", Numpy())
    s = strategy_from_category(1, a1=40_000, a6=110, a7=6.94, a8=1.0, a4=1.5, a5=a5)
    assert len(incentives(stream_30k, s, CFG)) >= 3
    assert bool(sorted_lengths) == merged
    assert max(sorted_lengths, default=0) <= CFG.leaf_capacity + 1


def drain_by_sort(S, L, order, slots, reserve, capacity, filled, small_used, done, bounds):
    """`simulator._drain` as it was before its picks were assembled from
    per-step slices: the same walk, recording each step's end (i, j), then
    one sort of every pending rank by (step, rank), that is by
    step * len(order) + rank."""
    taken = (S, L)
    PS, PL = (np.concatenate(([0], np.cumsum(slots[order[ranks]]))).tolist() for ranks in taken)
    S, L = (ranks.tolist() for ranks in taken)
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
        ends.extend((i, j))
    took = np.diff(np.frombuffer(ends, dtype=np.int64).reshape(-1, 2), axis=0, prepend=0)
    step = np.repeat(np.tile(np.arange(len(took)), 2), took.T.ravel())
    return order[np.sort(step * len(order) + np.concatenate(taken)) % len(order)]


@st.composite
def drains(draw):
    """`_drain`'s arguments: pending ranks out of up to 150, each small or
    not, one-slot to full-block slot counts in blocks of 1-12 slots, quotas
    of 0-4, and an open block part used."""
    n = draw(st.integers(min_value=0, max_value=150))
    capacity = draw(st.integers(min_value=1, max_value=12))
    reserve = draw(st.integers(min_value=0, max_value=4))

    def flags(p):
        return np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)) if p is None
                        else np.random.default_rng(draw(st.integers(0, 2**32))).random(n) < p,
                        dtype=bool)

    pending = flags(draw(st.sampled_from([None, 0.5, 0.9, 1.0])))
    small = flags(draw(st.sampled_from([None, 0.05, 0.3, 0.7])))
    order = np.array(draw(st.permutations(range(n))), dtype=np.int64)
    slots = np.array(draw(st.lists(st.integers(min_value=1, max_value=capacity), min_size=n,
                                   max_size=n)), dtype=np.int64)
    S, L = (np.flatnonzero(pending & side) for side in (small, ~small))
    filled = draw(st.integers(min_value=0, max_value=capacity))
    small_used = draw(st.integers(min_value=0, max_value=reserve + 1))
    return S, L, order, slots, reserve, capacity, filled, small_used, draw(st.integers(0, 9))


@settings(max_examples=300, deadline=None)
@given(args=drains())
def test_drain_picks_are_its_steps_sorted_by_step_then_rank(args):
    bounds, expected_bounds = array("q"), array("q")
    picks = simulator._drain(*args, bounds)
    expected = drain_by_sort(*args, expected_bounds)
    assert picks.dtype == np.int64
    assert picks.tolist() == expected.tolist()
    assert bounds == expected_bounds


# `_blocks` hands out memoryview slices; the records still hold Python
# numbers, not numpy scalars.
@pytest.mark.parametrize("a1", [1000, 40000])
@pytest.mark.parametrize("cat, small", INCENTIVE_CATEGORIES, ids=INCENTIVE_IDS)
def test_block_records_hold_python_ints_and_floats(stream_30k, cat, small, a1):
    s = strategy_from_category(cat, a1=a1, a6=110, a7=6.94, a8=1.0, **small)
    blocks = run(stream_30k, s, CFG).blocks
    assert len(blocks) >= 3
    for block in blocks:
        assert type(block.tx_ids) is tuple and {type(tx_id) for tx_id in block.tx_ids} == {int}
        assert type(block.incentive) is float


# The first 1,500 and 500 transactions of the 30k stream seal two blocks and
# none, fewer than the MIN_INCENTIVES that a volatility needs.
@pytest.mark.parametrize("n, blocks", [(1_500, 2), (500, 0)], ids=["two-blocks", "no-block"])
@pytest.mark.parametrize("cat, small", INCENTIVE_CATEGORIES, ids=INCENTIVE_IDS)
def test_fewer_than_three_blocks_score_inf(stream_30k, cat, small, n, blocks):
    first = head(stream_30k, n)
    attrs = {"a1": 1000, "a6": 110, "a7": 6.94, "a8": 1.0, **small}
    s = strategy_from_category(cat, **attrs)
    series = incentives(first, s, CFG)
    assert len(series) == len(run(first, s, CFG).blocks) == blocks < MIN_INCENTIVES
    assert evaluate_attrs(attrs, category(cat), first, CFG) == math.inf
    assert evaluate_attrs(attrs, category(cat), stream_30k, CFG) == series_volatility(
        run(stream_30k, s, CFG).incentives)


@pytest.fixture(scope="module")
def stream_100k():
    return generate(DatasetSpec(count=100_000, rng_seed=2024))


# The reference strategy (category 2), and a reserved one with trees: a run
# retains its blocks and the columns its assignment rows are derived from,
# not a Python tuple per row, which took about 145 B per included transaction.
@pytest.mark.parametrize("cat, small, build_trees", [
    (2, {}, False), (3, {"a4": 2.0, "a5": 200}, True)], ids=["cat2", "cat3-a5_200-trees"])
def test_a_run_retains_under_80_bytes_per_included_transaction(stream_100k, cat, small,
                                                               build_trees):
    s = strategy_from_category(cat, a1=25469, a6=110, a7=6.94, a8=1.0, **small)
    run(stream_100k, s, CFG, build_trees=build_trees)  # warm: caches, fee logs
    gc.collect()
    tracemalloc.start()
    try:
        result = run(stream_100k, s, CFG, build_trees=build_trees)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert result.included_count > 90_000
    assert retained / result.included_count < 80


class TestAssignmentsView:
    """`RunResult.assignments` is a view that derives its rows from the picks
    on every iteration; these are the rows a list of them would hold."""

    @pytest.mark.parametrize("force_seal", [False, True], ids=["open", "forced"])
    @pytest.mark.parametrize("cat, small", INCENTIVE_CATEGORIES, ids=INCENTIVE_IDS)
    def test_rows_are_the_blocks_in_order(self, stream_30k, cat, small, force_seal):
        s = strategy_from_category(cat, a1=1000, a6=110, a7=6.94, a8=1.0, **small)
        result = run(stream_30k, s, CFG, force_seal=force_seal)
        rows = list(result.assignments)
        assert len(result.assignments) == len(rows) == result.included_count
        assert list(result.assignments) == rows
        assert (result.unsealed_count == 0) if force_seal else (result.unsealed_count > 0)
        grouped = [(height, list(block)) for height, block in groupby(rows, key=lambda r: r[1])]
        assert len(grouped) == len(result.blocks)
        for (height, block), record in zip(grouped, result.blocks):
            assert height == record.height
            assert tuple(tx_id for tx_id, *_ in block) == record.tx_ids
            assert sum(nodes for *_, nodes in block) == record.occupied_nodes
            assert math.fsum(fee for _, _, fee, _ in block) == record.incentive

    def test_a_run_that_seals_no_block_yields_no_rows(self):
        s = strategy_from_category(2, a1=10, a6=110, a7=6.94, a8=1.0)
        result = run([tx(1, 1e9), tx(2, 5.0)], s, CFG)
        assert result.blocks == [] and result.unsealed_count == 2
        assert len(result.assignments) == 0 and list(result.assignments) == []

    def test_blocks_longer_than_a_chunk_are_plain_slices(self, stream_30k):
        # a6 = 1 maps every fee to one slot, so a block holds 10,000 picks,
        # more than the 4096 that `_blocks` converts per chunk.
        s = strategy_from_category(2, a1=1000, a6=1, a7=6.94, a8=1.0)
        view = run(stream_30k, s, SimulationConfig(leaf_capacity=10_000)).assignments
        assert view.bounds == (0, 10_000, 20_000)
        columns = (stream_30k.ids, stream_30k.fees, view.slot_of)
        plain = [(tx_id, height, fee, nodes)
                 for height, (begin, end) in enumerate(zip(view.bounds, view.bounds[1:]))
                 for tx_id, fee, nodes in zip(*(c[view.picks[begin:end]].tolist() for c in columns))]
        assert list(view) == plain
        assert {nodes for *_, nodes in plain} == {1}

    def test_a_view_equals_no_list_of_its_rows(self):
        s = strategy_from_category(2, a1=10, a6=110, a7=6.94, a8=1.0)
        view, again = (run([tx(1, 5.0), tx(2, 5.0)], s, CFG, force_seal=True).assignments
                       for _ in range(2))
        rows = list(view)
        assert view.__eq__(rows) is NotImplemented and view != rows
        assert view == again and list(again) == rows

    def test_view_is_read_only(self, stream_30k):
        s = strategy_from_category(3, a1=1000, a6=110, a7=6.94, a8=1.0, a4=60.0, a5=200)
        view = run(stream_30k, s, CFG).assignments
        rows = list(view)
        for array in (view.picks, view.slot_of):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = array[1]
        assert list(view) == rows
