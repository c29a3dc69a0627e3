"""Tests of the benchmark's own logic: span self time, percentiles with their
sample counts, the repeat ratio of search candidates and the output checks.

Run from the repository root: python3 -m pytest perfbench -q
"""

import dataclasses
import itertools
import os
import statistics
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import harness  # noqa: E402
import run as bench  # noqa: E402

AFFINITY = os.sched_getaffinity(0)


def fake_clock(monkeypatch, ticks):
    ticks = iter(ticks)
    monkeypatch.setattr(harness.time, "perf_counter", lambda: next(ticks))


def test_self_time_subtracts_direct_children_only(monkeypatch):
    # root [0, 10]; child a [1, 3] holding grandchild [1.5, 2.5]; child b [4, 8]
    fake_clock(monkeypatch, [0.0, 1.0, 1.5, 2.5, 3.0, 4.0, 8.0, 10.0])
    tracer = harness.Tracer()
    with tracer.span("root"):
        with tracer.span("a"):
            with tracer.span("a.inner"):
                pass
        with tracer.span("b"):
            pass
    root, a, inner, b = range(4)
    assert [s.parent for s in tracer.spans] == [None, root, a, root]
    assert tracer.self_time(root) == pytest.approx(10.0 - 2.0 - 4.0)
    assert tracer.self_time(a) == pytest.approx(2.0 - 1.0)
    assert tracer.self_time(inner) == pytest.approx(1.0)
    assert tracer.total("b") == pytest.approx(4.0)


def test_null_tracer_records_nothing():
    tracer = harness.NullTracer()
    with tracer.span("x"):
        pass
    assert tracer.spans == [] and not tracer.enabled


def test_percentiles_and_sample_counts():
    values = list(range(100, 0, -1))  # 1..100 in reverse order
    assert harness.percentile(values, 50) == 50
    assert harness.percentile(values, 90) == 90
    assert sum(v > harness.percentile(values, 90) for v in values) == 10
    assert sum(v > harness.percentile(values[:10], 90) for v in values[:10]) == 1
    assert harness.percentile([7.0], 90) == 7.0
    with pytest.raises(ValueError):
        harness.percentile([], 50)


def test_summarize_reports_quartiles_and_count():
    values = [5.0, 1.0, 3.0, 2.0, 4.0]
    s = harness.summarize(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert s == {"median": 3.0, "q1": q1, "q3": q3, "n": 5}
    assert harness.summarize([2.5]) == {"median": 2.5, "q1": 2.5, "q3": 2.5, "n": 1}


def test_unique_ratio_counts_decoded_integer_rounded_candidates():
    from dtsim.core import category
    from dtsim.optimize import SearchSpace

    space = SearchSpace(category=category(1))
    # a1, a4, a5, a6, a7, a8: the first two differ only below the integer
    # rounding of a1, a5 and a6, so they decode to the same candidate.
    xs = [[1000.2, 1.5, 10.4, 50.1, 5.0, 0.5],
          [999.8, 1.5, 9.6, 49.9, 5.0, 0.5],
          [1000.2, 1.5, 10.4, 50.1, 5.0, 0.6]]
    keys = [tuple(space.decode(x).items()) for x in xs]
    assert harness.unique_ratio(keys) == pytest.approx(2 / 3)
    assert harness.unique_ratio(keys[:1] * 4) == 0.25


def small_context(tmp_path, **workload):
    from dtsim.ingest import DatasetSpec, generate

    w = dataclasses.replace(bench.WORKLOADS["simulate-ref-400k"], name="small", count=3000,
                            **workload)
    stream = generate(DatasetSpec(count=w.count, rng_seed=5))
    return bench.Context(w, 5, tmp_path, stream, expected=None)


def test_output_check_fails_on_tampered_blocks_csv(tmp_path):
    ctx = small_context(tmp_path)
    it = bench.simulate_once(ctx, harness.NullTracer())
    assert len(it["result"].blocks) >= 2
    assert bench.check_simulation(ctx, it, harness.NullTracer()) == []

    path = tmp_path / "blocks.csv"
    lines = path.read_text().splitlines()
    height, count, nodes, incentive, seal = lines[1].split(",")
    lines[1] = ",".join([height, count, nodes, repr(float(incentive) * 1.5), seal])
    path.write_text("\n".join(lines) + "\n")

    problems = bench.check_simulation(ctx, it, harness.NullTracer())
    assert any("block 0 row" in p for p in problems)
    assert any("repeat blocks_sha256" in p for p in problems)


def test_default_seed_output_must_match_recorded_digest(tmp_path):
    ctx = small_context(tmp_path)
    ctx.seed = bench.DEFAULT_SEED
    ctx.expected = {"blocks_sha256": "0" * 64}
    it = bench.simulate_once(ctx, harness.NullTracer())
    problems = bench.check_simulation(ctx, it, harness.NullTracer())
    assert problems == [f"blocks_sha256: got {harness.file_sha256(tmp_path / 'blocks.csv')!r}, "
                        f"recorded {'0' * 64!r}"]


def test_run_check_catches_lost_fees_and_overfull_blocks(tmp_path):
    ctx = small_context(tmp_path)
    result = bench.simulate_once(ctx, harness.NullTracer())["result"]
    assert harness.check_run_result(result, ctx.cfg.leaf_capacity) == []
    lost = dataclasses.replace(result, evicted_fees=result.evicted_fees + 1.0)
    assert any("fees across fates" in p for p in harness.check_run_result(lost, 2100))
    assert any("exceed leaf capacity" in p
               for p in harness.check_run_result(result, max(b.occupied_nodes
                                                             for b in result.blocks) - 1))


def test_verkle_check_fails_on_a_wrong_root(tmp_path):
    ctx = small_context(tmp_path, build_trees=True)
    result = bench.simulate_once(ctx, harness.NullTracer())["result"]
    problems, leaves = harness.check_verkle_roots(result, ctx.cfg.verkle_branching_factor)
    assert problems == []
    assert leaves == sum(nodes for *_, nodes in result.assignments)
    blocks = list(result.blocks)
    blocks[1] = dataclasses.replace(blocks[1], verkle_root=b"\0" * 32)
    tampered = dataclasses.replace(result, blocks=blocks)
    problems, _ = harness.check_verkle_roots(tampered, ctx.cfg.verkle_branching_factor)
    assert problems == ["recomputed Verkle roots differ on blocks [1]"]


def test_speed_factor_needs_enough_samples():
    factor = harness.SpeedIndex.factor
    assert factor((1.0, 100.0), (2.0, 100.0 + harness.REFERENCE_UNITS_PER_S)) == 1.0
    assert factor((1.0, 100.0), (1.5, 100.0 + harness.REFERENCE_UNITS_PER_S)) == 2.0
    with pytest.raises(RuntimeError):
        factor((1.0, 100.0), (1.0, 100.0 + harness.MIN_UNITS - 1))


def test_speed_index_samples_its_core_and_stops():
    index = harness.SpeedIndex()
    try:
        start = index.mark()
        assert index.factor_since(start) > 0
        assert os.sched_getaffinity(0) == {index.cpu}
    finally:
        index.close()
        os.sched_setaffinity(0, AFFINITY)
    assert index._proc.returncode is not None


def test_missing_sources_exit_nonzero_without_a_result(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(bench, "SRC", tmp_path / "src")
    assert bench.main(["--workload", "simulate-ref-400k", "--seed", "1", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""


def test_every_workload_names_a_reason_for_each_absent_metric():
    for name in bench.WORKLOADS:
        assert set(bench.ABSENT[name]) <= set(bench.LAYER_UNITS)
    names = list(itertools.chain(bench.LAYER_UNITS, bench.E2E_UNITS))
    assert len(names) == len(set(names))


def test_benchmark_json_lists_the_metrics_the_runner_prints():
    import json

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert spec["paths"] == [HERE.name]
    assert {w["name"] for w in spec["workloads"]} == set(bench.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.LAYER_UNITS
