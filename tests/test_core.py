import csv
import gc
import io
import math
import pickle
import weakref

import numpy as np
import pytest
from hypothesis import given, strategies as st

from dtsim.core import (
    CATEGORIES,
    CSV_CHUNK_ROWS,
    MIN_POSITIVE_FEE,
    DataError,
    Priority,
    SimulationConfig,
    Stream,
    Transaction,
    category,
    strategy_from_category,
    validate_strategy,
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
        assert validate_strategy(s, SimulationConfig()) == []

    def test_capacity_violation(self):
        s = strategy_from_category(2, a1=1000, a6=5000, a7=6.0, a8=0.5)
        problems = validate_strategy(s, SimulationConfig(leaf_capacity=2100))
        assert any("exceeds leaf capacity" in p for p in problems)

    def test_total_function_collects_everything(self):
        from dtsim.core import DtsStrategy

        with pytest.raises(ValueError) as excinfo:
            DtsStrategy(mempool_size=0, priority=Priority.TIME, designated_space=False,
                        max_trx_nodes=9000, scale=1.0, shape=-1.0)
        assert "(a1)" in str(excinfo.value) and "(a8)" in str(excinfo.value)
        s = DtsStrategy(mempool_size=1, priority=Priority.TIME, designated_space=False,
                        max_trx_nodes=9000, scale=1.0, shape=1.0)
        (problem,) = validate_strategy(s, SimulationConfig())
        assert "exceeds leaf capacity" in problem


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
    Transaction(id=1, amount=100.0, fee=0.2, arrival_time=5)
    with pytest.raises(ValueError):
        Transaction(id=2, amount=-1.0, fee=0.0, arrival_time=0)
    with pytest.raises(ValueError):
        Transaction(id=3, amount=1.0, fee=-0.1, arrival_time=0)
    with pytest.raises(ValueError):
        Transaction(id=4, amount=1.0, fee=0.1, arrival_time=-2)


@pytest.mark.parametrize("field", ["amount", "fee"])
@pytest.mark.parametrize("value", [math.nan, -0.5])
def test_transaction_rejects_nan_and_negative_values(field, value):
    values = {"amount": 1.0, "fee": 0.1, field: value}
    with pytest.raises(ValueError, match=field):
        Transaction(id=1, arrival_time=0, **values)


def txs_of(*rows):
    """Transactions from (id, fee, arrival) rows."""
    return [Transaction(id=i, amount=fee * 500.0, fee=fee, arrival_time=t) for i, fee, t in rows]


class TestStream:
    def test_round_trip_of_transactions(self):
        txs = txs_of((3, 0.5, 0), (1, 2.0, 0), (2, 0.0, 7))
        stream = Stream.of(txs)
        assert list(stream) == txs
        assert len(stream) == 3 and stream[-1] == txs[-1]
        assert stream[::-1] == txs[::-1]
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

    def test_fee_logs_are_math_log_of_the_clamped_fees_taken_once(self):
        base = generate(DatasetSpec(count=500, rng_seed=3))
        stream = Stream(base.ids, base.arrivals, base.amounts,
                        np.r_[0.0, np.linspace(1e-3, 1e4, 499)])
        logs = stream.fee_logs
        assert logs.tolist() == [math.log(f if f > 0 else MIN_POSITIVE_FEE)
                                 for f in stream.fees.tolist()]
        assert stream.fee_logs is logs and not logs.flags.writeable
        with pytest.raises(ValueError):
            logs[0] = 1.0

    def test_new_fee_column_takes_its_own_fee_logs_and_slots(self):
        from dtsim.simulator import run

        stream = generate(DatasetSpec(count=5000, rng_seed=11))
        logs = stream.fee_logs
        fees = stream.fees * 3.0
        tripled = Stream(stream.ids, stream.arrivals, stream.amounts, fees)
        fees[0] = 7.0
        assert tripled.fees[0] == 3.0 * stream.fees[0] and not tripled.ids.flags.writeable
        assert "fee_logs" not in tripled.__dict__
        assert tripled.fee_logs.tolist() == [math.log(f) for f in tripled.fees.tolist()]
        assert stream.fee_logs is logs
        strategy = strategy_from_category(4, a1=400, a6=110, a7=6.94, a8=1.0)
        result = run(tripled, strategy, SimulationConfig())
        slots = [nodes for *_, nodes in result.assignments]
        assert slots != [nodes for *_, nodes in run(stream, strategy, SimulationConfig()).assignments]

    def test_fee_logs_do_not_outlive_their_stream(self):
        stream = generate(DatasetSpec(count=500, rng_seed=3))
        logs = weakref.ref(stream.fee_logs)
        assert logs() is not None
        del stream
        gc.collect()
        assert logs() is None

    @pytest.mark.parametrize("cat", [1, 2, 3, 4])
    def test_run_reads_a_stream_like_its_transactions(self, cat):
        from dtsim.simulator import run

        stream = generate(DatasetSpec(count=5000, rng_seed=11))
        extra = {"a4": 40.0, "a5": 5} if cat in (1, 3) else {}
        strategy = strategy_from_category(cat, a1=400, a6=110, a7=6.94, a8=1.0, **extra)
        cfg = SimulationConfig(leaf_capacity=600)
        assert run(stream, strategy, cfg) == run(list(stream), strategy, cfg)


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
