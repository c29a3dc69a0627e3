import csv
import gc
import io
import math
import pickle
import sys
import weakref

import numpy as np
import pytest
from hypothesis import given, strategies as st

from dtsim.core import (
    CATEGORIES,
    CSV_CHUNK_ROWS,
    MIN_POSITIVE_FEE,
    BlockRecord,
    DataError,
    Priority,
    SimulationConfig,
    Stream,
    Transaction,
    category,
    strategy_from_category,
    validate_strategy,
    write_csv_chunks,
    write_csv_rows,
)
from dtsim.ingest import DatasetSpec, generate


def test_category_table_matches_published_rows():
    assert (CATEGORIES[1].priority, CATEGORIES[1].designated_space) == (Priority.TIME, True)
    assert (CATEGORIES[2].priority, CATEGORIES[2].designated_space) == (Priority.TIME, False)
    assert (CATEGORIES[3].priority, CATEGORIES[3].designated_space) == (Priority.FEE, True)
    assert (CATEGORIES[4].priority, CATEGORIES[4].designated_space) == (Priority.FEE, False)


def test_unknown_category_rejected():
    with pytest.raises(ValueError):
        category(5)


def test_reference_strategy_construction():
    s = strategy_from_category(2, a1=25469, a6=110, a7=6.94, a8=1.00)
    assert s.priority is Priority.TIME
    assert s.designated_space is False
    assert s.mempool_size == 25469
    assert s.max_trx_nodes == 110
    assert s.scale == 6.94
    assert s.shape == 1.00
    assert s.small_fee_threshold is None and s.small_fee_count is None


def test_designated_category_requires_threshold_attrs():
    with pytest.raises(ValueError, match="a4 and a5 are required"):
        strategy_from_category(1, a1=1000, a6=50, a7=6.0, a8=0.5)


def test_plain_category_rejects_threshold_attrs():
    with pytest.raises(ValueError, match="must not be supplied"):
        strategy_from_category(4, a1=71907, a6=56, a7=6.19, a8=1.00, a4=1.47, a5=17)


def test_published_fee_space_row_accepts_thresholds():
    # The same attribute values are fine on the designated-space fee category.
    s = strategy_from_category(3, a1=71907, a6=56, a7=6.19, a8=1.00, a4=1.47, a5=17)
    assert s.small_fee_threshold == 1.47
    assert s.small_fee_count == 17


def test_zero_small_fee_count_is_admissible():
    s = strategy_from_category(1, a1=1000, a6=50, a7=6.0, a8=0.5, a4=1.2, a5=0)
    assert s.small_fee_count == 0


def test_out_of_bounds_attributes_rejected():
    with pytest.raises(ValueError, match="shape"):
        strategy_from_category(2, a1=1000, a6=50, a7=6.0, a8=0.0)
    with pytest.raises(ValueError, match="mempool"):
        strategy_from_category(2, a1=0, a6=50, a7=6.0, a8=0.5)


class TestValidateStrategy:
    def test_reference_strategy_valid_under_defaults(self):
        s = strategy_from_category(2, a1=25469, a6=110, a7=6.94, a8=1.00)
        assert validate_strategy(s, SimulationConfig()) is None

    def test_capacity_violation(self):
        s = strategy_from_category(2, a1=1000, a6=5000, a7=6.0, a8=0.5)
        with pytest.raises(ValueError, match="exceeds leaf capacity"):
            validate_strategy(s, SimulationConfig(leaf_capacity=2100))

    def test_total_function_collects_everything(self):
        from dtsim.core import DtsStrategy

        with pytest.raises(ValueError) as excinfo:
            DtsStrategy(mempool_size=0, priority=Priority.TIME, designated_space=False,
                        max_trx_nodes=9000, scale=1.0, shape=-1.0)
        assert "(a1)" in str(excinfo.value) and "(a8)" in str(excinfo.value)
        s = DtsStrategy(mempool_size=1, priority=Priority.TIME, designated_space=False,
                        max_trx_nodes=9000, scale=1.0, shape=1.0)
        with pytest.raises(ValueError) as excinfo:
            validate_strategy(s, SimulationConfig())
        assert str(excinfo.value) == ("invalid strategy: max_trx_nodes (a6) 9000 "
                                      "exceeds leaf capacity 2100")


@given(
    cat_id=st.sampled_from([1, 2, 3, 4]),
    a1=st.integers(1, 100_000),
    a6=st.integers(1, 2100),
    a7=st.floats(-5, 15, allow_nan=False),
    a8=st.floats(0.01, 5, allow_nan=False),
    a4=st.floats(0.1, 10, allow_nan=False),
    a5=st.integers(0, 500),
)
def test_round_trip_reproduces_inputs(cat_id, a1, a6, a7, a8, a4, a5):
    cat = category(cat_id)
    kwargs = dict(a1=a1, a6=a6, a7=a7, a8=a8)
    if cat.designated_space:
        kwargs.update(a4=a4, a5=a5)
    s = strategy_from_category(cat, **kwargs)
    attrs = s.attributes()
    assert attrs["a1"] == a1
    assert attrs["a2"] == cat.priority.value
    assert attrs["a3"] == cat.designated_space
    assert attrs["a6"] == a6
    assert attrs["a7"] == a7
    assert attrs["a8"] == a8
    if cat.designated_space:
        assert attrs["a4"] == a4
        assert attrs["a5"] == a5
    else:
        assert "a4" not in attrs and "a5" not in attrs


def test_transaction_invariants():
    # A Transaction is a plain row; Stream.of names the one that breaks a rule.
    first = Transaction(id=1, amount=100.0, fee=0.2, arrival_time=5)
    assert list(Stream.of([first])) == [first]
    for bad, message in ((Transaction(id=2, amount=-1.0, fee=0.0, arrival_time=5), "amount -1.0"),
                         (Transaction(id=3, amount=1.0, fee=-0.1, arrival_time=5), "fee -0.1"),
                         (Transaction(id=4, amount=1.0, fee=0.1, arrival_time=-2),
                          "arrival_time -2")):
        with pytest.raises(DataError) as raised:
            Stream.of([bad, first])
        assert f"transaction {bad.id} at position 0 has {message}" in str(raised.value)


@pytest.mark.parametrize("field", ["amount", "fee"])
@pytest.mark.parametrize("value", [math.nan, -0.5, math.inf])
def test_transaction_rejects_nan_and_negative_values(field, value):
    values = {"amount": 1.0, "fee": 0.1, field: value}
    with pytest.raises(DataError, match=f"transaction 1 at position 0 has {field} {value}; "
                                        f"it must be finite and >= 0"):
        Stream.of([Transaction(id=1, arrival_time=0, **values)])


def txs_of(*rows):
    """Transactions from (id, fee, arrival) rows."""
    return [Transaction(id=i, amount=fee * 500.0, fee=fee, arrival_time=t) for i, fee, t in rows]


class TestStream:
    def test_round_trip_of_transactions(self):
        txs = txs_of((3, 0.5, 0), (1, 2.0, 0), (2, 0.0, 7))
        stream = Stream.of(txs)
        assert list(stream) == txs
        assert len(stream) == 3
        assert Stream.of(stream) is stream

    def test_columns_are_typed_and_read_only(self):
        stream = generate(DatasetSpec(count=100, rng_seed=1))
        for col, dtype in ((stream.ids, np.int64), (stream.arrivals, np.int64),
                           (stream.amounts, np.float64), (stream.fees, np.float64)):
            assert col.dtype == dtype
            with pytest.raises(ValueError, match="read-only"):
                col[0] = 1

    def test_columns_are_copied_from_caller_arrays(self):
        fees = np.array([0.1, 0.2])
        stream = Stream([1, 2], [0, 1], [1.0, 1.0], fees)
        fees[0] = 9.0
        assert stream.fees[0] == 0.1 and fees.flags.writeable

    @pytest.mark.parametrize("rows,message", [
        (((1, 0.1, 5), (2, 0.1, 4)), "dataset must be ordered by arrival_time: transaction 2 "
                                     "at position 1 arrives at 4, before 5 at position 0"),
        (((1, 0.1, -4), (2, 0.1, 3)), "transaction 1 at position 0 has arrival_time -4"),
        (((1, 0.1, 0), (1, 0.2, 3)), "transaction id 1 appears more than once in the dataset"),
        (((2**63, 0.1, 0),), "transaction ids and arrival times must fit in 64 bits"),
        (((1, 0.1, 2**63),), "transaction ids and arrival times must fit in 64 bits"),
    ])
    def test_rejections(self, rows, message):
        ids, fees, arrivals = zip(*rows)
        with pytest.raises(DataError) as info:
            Stream(ids, arrivals, [1.0] * len(ids), fees)
        assert message in str(info.value)

    @pytest.mark.parametrize("column", ["amounts", "fees"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, -1.0])
    def test_nonfinite_or_negative_values_rejected(self, column, value):
        cols = {"ids": [1, 2], "arrivals": [0, 1], "amounts": [1.0, 1.0], "fees": [0.1, 0.1]}
        cols[column] = [1.0, value]
        with pytest.raises(DataError, match="transaction 2 at position 1 has"):
            Stream(**cols)

    def test_fees_must_have_a_finite_sum(self):
        # Every block's and fate's fsum is bounded by the total; one just below
        # the float max passes.
        with pytest.raises(DataError, match="the fees sum past the largest float"):
            Stream([1, 2, 3], [0, 0, 0], [1.0] * 3, [1e308] * 3)
        top = sys.float_info.max
        assert Stream([1, 2], [0, 0], [1.0] * 2, [top, top * 2**-54]).fees[0] == top

    def test_unequal_columns_rejected(self):
        with pytest.raises(DataError, match="equal length"):
            Stream([1, 2], [0], [1.0, 1.0], [0.1, 0.1])

    def test_empty_stream_is_valid_but_not_for_the_grid(self):
        from dtsim.optimize import experiment_grid

        empty = Stream.of([])
        assert len(empty) == 0 and list(empty) == []
        with pytest.raises(DataError, match="non-empty"):
            experiment_grid(empty, SimulationConfig())

    def test_pickle_round_trip(self):
        stream = generate(DatasetSpec(count=500, rng_seed=2))
        again = pickle.loads(pickle.dumps(stream))
        assert list(again) == list(stream)
        assert not again.fees.flags.writeable and not again.ids.flags.writeable

    def test_new_fee_column_takes_its_own_fee_order_and_slots(self):
        from dtsim.simulator import run

        stream = generate(DatasetSpec(count=5000, rng_seed=11))
        order = stream.ranks(Priority.FEE)[1]
        fees = stream.fees * 3.0
        fees[[1, 2]] = 0.0, 1e9
        tripled = Stream(stream.ids, stream.arrivals, stream.amounts, fees)
        fees[0] = 7.0
        assert tripled.fees[0] == 3.0 * stream.fees[0] and not tripled.ids.flags.writeable
        assert "_ranks" not in tripled.__dict__
        assert tripled.ranks(Priority.FEE)[1].tolist() == np.lexsort(
            (tripled.ids, tripled.arrivals, -tripled.fees)).tolist() != order.tolist()
        assert stream.ranks(Priority.FEE)[1] is order
        strategy = strategy_from_category(4, a1=400, a6=110, a7=6.94, a8=1.0)
        result = run(tripled, strategy, SimulationConfig())
        slots = [nodes for *_, nodes in result.assignments]
        assert slots != [nodes for *_, nodes in run(stream, strategy, SimulationConfig()).assignments]

    @pytest.mark.parametrize("cat", [1, 2, 3, 4])
    def test_run_reads_a_stream_like_its_transactions(self, cat):
        from dtsim.simulator import run

        stream = generate(DatasetSpec(count=5000, rng_seed=11))
        extra = {"a4": 40.0, "a5": 5} if cat in (1, 3) else {}
        strategy = strategy_from_category(cat, a1=400, a6=110, a7=6.94, a8=1.0, **extra)
        cfg = SimulationConfig(leaf_capacity=600)
        assert run(stream, strategy, cfg) == run(list(stream), strategy, cfg)


def tied_stream(n=3000, seed=9):
    """About ten arrivals per millisecond, six fee levels including zero, ids shuffled."""
    rng = np.random.default_rng(seed)
    return Stream(rng.permutation(n) + 7, np.sort(rng.integers(0, n // 10, n)),
                  rng.uniform(1.0, 100.0, n), rng.choice([0.0, 0.05, 1.0, 2.0, 40.0, 1e3], n))


class TestStreamCaches:
    """The rank/order pair of each priority, which a Stream sorts once and keeps."""

    def test_ranks_are_a_full_lexsort_of_each_prioritys_keys(self):
        stream = tied_stream()
        ids, arrivals, fees = stream.ids, stream.arrivals, stream.fees
        for priority, keys in ((Priority.TIME, (ids, -fees, arrivals)),
                               (Priority.FEE, (ids, arrivals, -fees))):
            rank, order = stream.ranks(priority)
            assert rank.dtype == order.dtype == np.int64
            assert order.tolist() == np.lexsort(keys).tolist()
            assert rank[order].tolist() == list(range(len(stream)))
            assert stream.ranks(priority)[0] is rank and stream.ranks(priority)[1] is order

    def test_fee_order_maps_slots_like_the_per_fee_rule(self):
        from dtsim.allocation import AllocationParams, fee_slots, leaf_nodes

        stream = tied_stream()
        order = stream.ranks(Priority.FEE)[1]
        clamped = [f if f > 0 else MIN_POSITIVE_FEE for f in stream.fees.tolist()]
        for params in (AllocationParams(6.94, 1.0, 110), AllocationParams(0.5, 0.3, 800)):
            assert fee_slots(stream.fees, order, params).tolist() == [leaf_nodes(f, params)
                                                                      for f in clamped]
        assert stream.ranks(Priority.FEE)[1] is order

    @pytest.mark.parametrize("stream", [tied_stream(),
                                        generate(DatasetSpec(count=5000, rng_seed=4))],
                             ids=["tied", "generated"])
    def test_alternating_priorities_score_as_on_a_fresh_stream(self, stream):
        from dtsim.optimize import SearchSpace, evaluate
        from dtsim.simulator import run

        cfg = SimulationConfig(leaf_capacity=600)
        # Time and fee priority in turn; the a1 = 8000 candidates only drain.
        candidates = [(1, [400, 1.5, 5, 110, 6.94, 1.0]), (3, [400, 1.5, 5, 110, 6.94, 1.0]),
                      (2, [900, 60, 3.5, 0.8]), (4, [900, 60, 3.5, 0.8]),
                      (3, [8000, 2.0, 40, 300, 4.0, 0.5]), (1, [8000, 2.0, 40, 300, 4.0, 0.5]),
                      (4, [50, 110, 6.94, 1.0]), (1, [1200, 1.0, 0, 110, 6.94, 1.0])]
        for cat_id, vec in candidates:
            fresh = Stream(stream.ids, stream.arrivals, stream.amounts, stream.fees)
            assert evaluate(vec, category(cat_id), stream, cfg) == evaluate(
                vec, category(cat_id), fresh, cfg)
            attrs = SearchSpace(category(cat_id)).decode(vec)
            strategy = strategy_from_category(cat_id, **attrs)
            assert run(stream, strategy, cfg) == run(fresh, strategy, cfg)
        assert set(stream.__dict__["_ranks"]) == {Priority.TIME, Priority.FEE}

    def test_cached_arrays_are_read_only(self):
        stream = tied_stream()
        for column in (*stream.ranks(Priority.TIME), *stream.ranks(Priority.FEE)):
            assert not column.flags.writeable
            with pytest.raises(ValueError):
                column[0] = 1

    def test_a_pickled_stream_carries_no_cache(self):
        stream = tied_stream()
        stream.ranks(Priority.FEE)
        again = pickle.loads(pickle.dumps(stream))
        columns = {"ids", "arrivals", "amounts", "fees"}
        assert stream.__dict__.keys() == columns | {"_ranks"}
        assert again.__dict__.keys() == columns
        assert again.ranks(Priority.FEE)[1].tolist() == stream.ranks(Priority.FEE)[1].tolist()

    def test_caches_do_not_outlive_their_stream(self):
        stream = tied_stream()
        cached = [weakref.ref(column) for column in (*stream.ranks(Priority.TIME),
                                                     *stream.ranks(Priority.FEE))]
        assert all(ref() is not None for ref in cached)
        del stream
        gc.collect()
        assert all(ref() is None for ref in cached)


@pytest.mark.parametrize("build, message", [
    (lambda: strategy_from_category(2, a1=1000, a6=0, a7=6.0, a8=0.5),
     "max_trx_nodes (a6) must be >= 1"),
    (lambda: strategy_from_category(1, a1=1000, a6=50, a7=6.0, a8=0.5, a4=0.0, a5=1),
     "small_fee_threshold (a4) must be positive"),
    (lambda: strategy_from_category(1, a1=1000, a6=50, a7=6.0, a8=0.5, a4=1.2, a5=-1),
     "small_fee_count (a5) must be >= 0"),
    (lambda: strategy_from_category(2, a1=1000, a6=50, a7=math.nan, a8=0.5), "a7 must be finite"),
    (lambda: strategy_from_category(2, a1=1000, a6=50, a7=6.0, a8=math.nan), "a8 must be finite"),
    (lambda: strategy_from_category(2, a1=1000, a6=50, a7=6.0, a8=math.inf), "a8 must be finite"),
    (lambda: strategy_from_category(3, a1=1000, a6=50, a7=-math.inf, a8=0.5, a4=math.nan, a5=5),
     "a4, a7 must be finite"),
    (lambda: strategy_from_category(2, a1=math.nan, a6=50, a7=6.0, a8=0.5), "a1 must be finite"),
    (lambda: strategy_from_category(1, a1=1000, a6=50, a7=6.0, a8=0.5, a4=1.2, a5=math.inf),
     "a5 must be finite"),
    (lambda: strategy_from_category(2, a1=1000, a6=math.nan, a7=6.0, a8=0.5), "a6 must be finite"),
    (lambda: strategy_from_category(3, a1=-math.inf, a6=math.inf, a7=6.0, a8=0.5, a4=1.2,
                                    a5=-math.inf),
     "mempool_size (a1) must be positive; a1, a5, a6 must be finite; "
     "small_fee_count (a5) must be >= 0"),
    (lambda: SimulationConfig(leaf_capacity=0), "leaf_capacity must be positive"),
    (lambda: SimulationConfig(verkle_branching_factor=65_536),
     "verkle_branching_factor must be <= 65535: a commitment hashes its child count in 2 bytes"),
    (lambda: BlockRecord(height=0, tx_ids=(), occupied_nodes=-1, incentive=0.0, seal_time=0),
     "occupied_nodes must be >= 0"),
], ids=["a6", "a4", "a5", "a7-nan", "a8-nan", "a8-inf", "a4-a7-nonfinite", "a1-nan", "a5-inf",
        "a6-nan", "a1-a5-a6-nonfinite", "leaf-capacity", "branching-factor", "occupied-nodes"])
def test_each_bound_raises_its_message(build, message):
    with pytest.raises(ValueError) as raised:
        build()
    assert str(raised.value) == message


def test_an_int_attribute_of_any_size_is_finite():
    assert strategy_from_category(2, a1=10**400, a6=50, a7=6.0, a8=0.5).mempool_size == 10**400


def test_simulation_config_bounds():
    with pytest.raises(ValueError):
        SimulationConfig(verkle_branching_factor=1)
    with pytest.raises(ValueError):
        DatasetSpec(arrival_rate_tps=0.0)


@pytest.mark.parametrize("n", [0, CSV_CHUNK_ROWS, 7 * CSV_CHUNK_ROWS + 5])
def test_write_csv_rows_matches_csv_writer_across_chunks(tmp_path, n):
    # Plain int/float tuples, with special floats and a large int, and one
    # row per chunk that leaves the fast path (a quoted str, a bool, None,
    # an np.float64, a list, a short tuple) at a chunk's last row, its first
    # row or mid-chunk. Chunk 6 and the tail are plain.
    rows = [(i, 10**30 + i, i / 3, (math.inf, -0.0, 1e-300, math.nan)[i % 4]) for i in range(n)]
    odd = {CSV_CHUNK_ROWS - 1: (1, "a,b", 2.5, 3), CSV_CHUNK_ROWS + 17: (True, 0, False, 1),
           2 * CSV_CHUNK_ROWS: (None, 1, 2.0, 3), 4 * CSV_CHUNK_ROWS - 1: (1, 2, np.float64(0.1), 4),
           4 * CSV_CHUNK_ROWS: [1, 2, 3.5, 4], 5 * CSV_CHUNK_ROWS + 100: (1, 2, 3)}
    for at, row in odd.items():
        if at < n:
            rows[at] = row
    header = ("a", "b", "c", "d")
    path = tmp_path / "rows.csv"
    assert write_csv_rows(path, header, iter(rows)) == n
    expected = io.StringIO()
    writer = csv.writer(expected, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    assert path.read_bytes() == expected.getvalue().encode("utf-8")


@pytest.mark.parametrize("column", [[1, 2], np.array([1, 2], dtype=np.int32),
                                    np.array([True, False])])
def test_write_csv_chunks_takes_only_int64_and_float64_columns(tmp_path, column):
    chunk = (np.array([1, 2]), column)
    with pytest.raises(TypeError, match="int64 or float64"):
        write_csv_chunks(tmp_path / "chunks.csv", ("a", "b"), [chunk])
