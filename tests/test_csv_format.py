"""Byte-level pins for every CSV the package writes.

Each output is written from small fixed inputs and compared with literal
text, so any change to the shared format (utf-8, "\\n" line ends, floats in
their shortest round-trip form, bools and "-" placeholders as text) shows up
here first.
"""

import math

from dtsim.cli import main
from dtsim.core import BlockRecord, Transaction
from dtsim.ingest import write_csv
from dtsim.optimize import OptimizationRun, grid_rows, write_grid_csv, write_trace_csv
from dtsim.simulator import write_assignments_csv, write_blocks_csv
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
    assert write_assignments_csv([(1, 0, LONG, 2), (2, 0, 1e-300, 1)], path) == 2
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
