"""Byte-level pins for every CSV the package writes.

Each output is written from small fixed inputs and compared with literal
text, so any change to the shared format (utf-8, "\\n" line ends, floats in
their shortest round-trip form, bools and "-" placeholders as text) shows up
here first. The CSVs written from numpy column chunks are also compared with
`csv.writer` of their rows on runs that cross chunk boundaries.
"""

import csv
import io
import math

import numpy as np

from dtsim import core, simulator
from dtsim.cli import main
from dtsim.core import (CSV_CHUNK_ROWS, BlockRecord, SimulationConfig, Stream, Transaction,
                        strategy_from_category)
from dtsim.ingest import DatasetSpec, generate, load_csv, write_csv
from dtsim.optimize import OptimizationRun, grid_rows, write_grid_csv, write_trace_csv
from dtsim.simulator import Assignments, run, write_assignments_csv, write_blocks_csv
from dtsim.verkle import write_bandwidth_csv

LONG = 0.1 + 0.2  # repr: 0.30000000000000004


def test_stream_csv(tmp_path):
    path = tmp_path / "stream.csv"
    assert write_csv([Transaction(1, LONG, 1e-300, 0), Transaction(2, 150.0, 0.3, 7)], path) == 2
    assert path.read_bytes() == (
        b"id,amount,arrival_time_ms,fee\n"
        b"1,0.30000000000000004,0,1e-300\n"
        b"2,150.0,7,0.3\n")


def test_blocks_csv(tmp_path):
    path = tmp_path / "blocks.csv"
    blocks = [BlockRecord(0, (1, 2), 3, LONG, 7), BlockRecord(1, (3,), 1, 1e-300, 9)]
    assert write_blocks_csv(blocks, path) == 2
    assert path.read_bytes() == (
        b"height,tx_count,occupied_nodes,incentive,seal_time\n"
        b"0,2,3,0.30000000000000004,7\n"
        b"1,1,1,1e-300,9\n")


def test_assignments_csv(tmp_path):
    path = tmp_path / "assignments.csv"
    stream = Stream([1, 2], [0, 0], [0.0, 0.0], [LONG, 1e-300])
    view = Assignments(stream, np.array([0, 1]), (0, 2), np.array([2, 1]))
    assert write_assignments_csv(view, path) == 2
    assert path.read_bytes() == (
        b"tx_id,block,fee,nodes\n"
        b"1,0,0.30000000000000004,2\n"
        b"2,0,1e-300,1\n")


def _runs():
    return [
        OptimizationRun("pso", 2, {"a1": 2000, "a6": 110, "a7": LONG, "a8": 1.0},
                        1e-300, [math.inf, LONG], 2),
        OptimizationRun("ga", 1, {"a1": 40, "a4": 1.5, "a5": 3, "a6": 7, "a7": 6.94, "a8": 2.5},
                        math.inf, [math.inf], 1),
    ]


def test_grid_csv(tmp_path):
    path = tmp_path / "grid.csv"
    assert write_grid_csv(grid_rows(_runs()), path) == 2
    assert path.read_bytes() == (
        b"algorithm,experiment,a1,a2,a3,a4,a5,a6,a7,a8,volatility\n"
        b"pso,1,2000,Time-based,False,-,-,110,0.30000000000000004,1.0,1e-300\n"
        b"ga,2,40,Time-based,True,1.5,3,7,6.94,2.5,inf\n")


def test_trace_csv(tmp_path):
    path = tmp_path / "trace.csv"
    assert write_trace_csv(_runs()[0], path) == 2
    assert path.read_bytes() == (
        b"generation,best_volatility\n"
        b"0,inf\n"
        b"1,0.30000000000000004\n")


def test_bandwidth_csv(tmp_path):
    path = tmp_path / "bandwidth.csv"
    rows = [{"scenario": "tiny", "n_t": 4, "structure": "verkle", "k": 3,
             "mode": "smooth", "bytes": LONG}]
    assert write_bandwidth_csv(rows, path) == 1
    assert path.read_bytes() == (
        b"scenario,n_t,structure,k,mode,bytes\n"
        b"tiny,4,verkle,3,smooth,0.30000000000000004\n")


def test_simulate_summary_csv(tmp_path, capsys):
    stream = tmp_path / "stream.csv"
    stream.write_text("id,amount,arrival_time_ms,fee\n1,10.0,0,0.1\n2,10.0,1,0.2\n"
                      "3,10.0,2,0.1\n4,10.0,3,0.2\n5,10.0,4,0.3\n6,10.0,5,0.1\n7,10.0,6,0.2\n")
    cfg = tmp_path / "cfg.ini"
    cfg.write_text("[simulation]\nleaf_capacity = 2\n")
    out = tmp_path / "sim"
    assert main(["simulate", "--config", str(cfg), "--dataset", str(stream),
                 "--a1", "10", "--a6", "1", "--out", str(out)]) == 0
    assert (out / "summary.csv").read_bytes() == (
        b"key,value\n"
        b"blocks_sealed,3\n"
        b"submitted,7\n"
        b"included,6\n"
        b"evicted,0\n"
        b"rejected,0\n"
        b"unsealed,1\n"
        b"submitted_fees,1.2\n"
        b"block_fees,1.0\n"
        b"volatility,0.2034219442564539\n"
        b"benchmark,within\n")


def test_volatility_rolling_csv(tmp_path, capsys):
    series = tmp_path / "series.csv"
    series.write_text("incentive\n1.0\n1.1\n0.9\n1.3\n")
    out = tmp_path / "rolling.csv"
    assert main(["volatility", "--in", str(series), "--window", "2", "--out", str(out)]) == 0
    assert out.read_bytes() == (
        b"index,volatility\n"
        b"0,0.20929008400245502\n"
        b"1,0.4019162951836518\n")


# The column path: assignments.csv and the transaction CSV are written from
# numpy column chunks, and must read as `csv.writer` renders their rows.

ASSIGNMENT_HEADER = ("tx_id", "block", "fee", "nodes")
EXTREME_FEES = (0.0, 5e-324, 1.7976931348623157e308)
TOP_ID = 2**63 - 1


def _csv_writer_bytes(header, rows):
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return text.getvalue().encode("utf-8")


def _check_column_path(result, stream, path):
    """The row view against the block records, and the written file against
    `csv.writer` of the row view; returns the rows."""
    rows = list(result.assignments)
    position = {tx_id: i for i, tx_id in enumerate(stream.ids.tolist())}
    slot_of = result.assignments.slot_of
    assert rows == [(tx_id, b.height, float(stream.fees[position[tx_id]]),
                     int(slot_of[position[tx_id]])) for b in result.blocks for tx_id in b.tx_ids]
    assert write_assignments_csv(result.assignments, path) == len(rows) == result.included_count
    assert path.read_bytes() == _csv_writer_bytes(ASSIGNMENT_HEADER, rows)
    return rows


def _strategy(a1=1000, a6=110):
    return strategy_from_category(2, a1=a1, a6=a6, a7=6.94, a8=1.0)


def test_assignments_block_across_a_chunk_boundary(tmp_path):
    stream = generate(DatasetSpec(count=12_000, rng_seed=11))
    result = run(stream, _strategy(), SimulationConfig())
    bounds = result.assignments.bounds
    assert any(begin < CSV_CHUNK_ROWS < end for begin, end in zip(bounds, bounds[1:]))
    _check_column_path(result, stream, tmp_path / "assignments.csv")


def test_assignments_blocks_longer_than_a_chunk(tmp_path):
    # a6 = 1 maps every fee to one slot, so each block holds 10,000 picks.
    stream = generate(DatasetSpec(count=25_000, rng_seed=11))
    result = run(stream, _strategy(a6=1), SimulationConfig(leaf_capacity=10_000))
    assert result.assignments.bounds == (0, 10_000, 20_000)
    _check_column_path(result, stream, tmp_path / "assignments.csv")


def test_assignments_force_sealed_tail(tmp_path):
    stream = generate(DatasetSpec(count=9_000, rng_seed=3))
    result = run(stream, _strategy(), SimulationConfig(), force_seal=True)
    tail = result.blocks[-1]
    assert result.unsealed_count == 0 and tail.occupied_nodes < 2100 - 110
    rows = _check_column_path(result, stream, tmp_path / "assignments.csv")
    assert rows[-1][1] == tail.height


def test_assignments_of_a_run_with_no_sealed_block(tmp_path):
    stream = Stream([1, 2], [0, 1], [500.0, 5.0], [1.0, 0.01])
    result = run(stream, _strategy(a1=10), SimulationConfig())
    assert result.blocks == []
    path = tmp_path / "assignments.csv"
    assert write_assignments_csv(result.assignments, path) == 0
    assert path.read_bytes() == b"tx_id,block,fee,nodes\n"


def test_assignments_with_extreme_ids_and_fees(tmp_path):
    n = 40
    fees = [(0.3, LONG, 7.5, *EXTREME_FEES[:2])[i % 5] for i in range(n)]
    fees[17] = EXTREME_FEES[2]
    stream = Stream([TOP_ID - i for i in range(n)], list(range(n)), [0.0] * n, fees)
    result = run(stream, _strategy(a1=5), SimulationConfig(leaf_capacity=120), force_seal=True)
    assert len(result.blocks) > 1
    rows = _check_column_path(result, stream, tmp_path / "assignments.csv")
    assert {TOP_ID, *EXTREME_FEES} <= {value for row in rows for value in row}
    text = (tmp_path / "assignments.csv").read_bytes()
    assert b"\n9223372036854775807," in text and b",1.7976931348623157e+308," in text
    assert b",5e-324," in text and b",0.0," in text


def test_stream_csv_round_trip_across_chunks(tmp_path):
    n = 2 * CSV_CHUNK_ROWS + 3
    rng = np.random.default_rng(5)
    fees = rng.lognormal(0.0, 3.0, n)
    amounts = fees * 500
    fees[[0, CSV_CHUNK_ROWS, n - 1]] = EXTREME_FEES
    amounts[[1, CSV_CHUNK_ROWS - 1]] = (0.0, EXTREME_FEES[2])
    arrivals = np.sort(rng.integers(0, 2**62, n))
    arrivals[-1] = TOP_ID
    ids = TOP_ID - rng.permutation(n)
    stream = Stream(ids, arrivals, amounts, fees)
    path = tmp_path / "stream.csv"
    assert write_csv(stream, path) == n
    columns = (stream.ids, stream.amounts, stream.arrivals, stream.fees)
    assert path.read_bytes() == _csv_writer_bytes(
        ("id", "amount", "arrival_time_ms", "fee"), zip(*(c.tolist() for c in columns)))
    loaded = load_csv(path)
    for name in ("ids", "arrivals", "amounts", "fees"):
        assert getattr(loaded, name).tolist() == getattr(stream, name).tolist()


def test_assignments_csv_work_is_per_column_chunk(tmp_path, monkeypatch):
    # Counts of work, not times: no row tuples from the view's iteration, no
    # per-value `type` call, and one `tolist` per column per chunk.
    stream = generate(DatasetSpec(count=6_000, rng_seed=5))
    result = run(stream, _strategy(), SimulationConfig())
    rows = len(result.assignments)
    assert rows > CSV_CHUNK_ROWS
    expected = _csv_writer_bytes(ASSIGNMENT_HEADER, result.assignments)
    tolists, longest, types = [0] * 4, [0], []

    def counting(i):
        class Column(np.ndarray):
            def tolist(self):
                tolists[i] += 1
                return super().tolist()
        return Column

    kinds = [counting(i) for i in range(4)]
    chunks = Assignments.chunks

    def counted_chunks(view):
        for columns in chunks(view):
            longest[0] = max(longest[0], *map(len, columns))
            yield tuple(column.view(kind) for column, kind in zip(columns, kinds))

    monkeypatch.setattr(Assignments, "chunks", counted_chunks)
    monkeypatch.setattr(Assignments, "__iter__", None)
    for module in (core, simulator):
        monkeypatch.setattr(module, "type", lambda *a: types.append(a) or type(*a), raising=False)
    path = tmp_path / "assignments.csv"
    assert write_assignments_csv(result.assignments, path) == rows
    assert path.read_bytes() == expected
    assert tolists == [-(-rows // CSV_CHUNK_ROWS)] * 4 and longest == [CSV_CHUNK_ROWS]
    assert types == []
