"""dtsim benchmark: host time, throughput and memory of one workload.

Run from the repository root:

    python3 perfbench/run.py --workload simulate-ref-400k --seed 2024 --seconds 10 --trace 0

Each invocation is one fresh, single-threaded process driving one workload in
a closed loop: it repeats the workload's timed steps until `--seconds` have
passed (at least once), checks every output, and prints a human summary
followed by one JSON line with `correct`, `attempted`, `failed` and
`metrics`. `--trace 0` reports the end-to-end metrics; `--trace 1` runs one
traced iteration plus direct layer probes, then the same untraced loop, and
reports the per-layer metrics. Times are scaled to a reference core speed
(harness.SpeedIndex). The full result, machine facts and spans go to
`.perfbench_runs/results/`. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

import harness
from harness import NullTracer, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_runs"
EXPECTED = Path(__file__).resolve().parent / "expected.json"

PROCESS_START = time.monotonic()
# A run must end within 180 s; a traced run skips untraced iterations that
# would take it past this.
TIME_LIMIT_S = 150.0

DEFAULT_SEED = 2024
# Set-up is timed in this many fresh processes per run; the median is reported.
SETUP_SAMPLES = 3
# The reference strategy of the paper and of `dtsim simulate` defaults.
REFERENCE_ATTRS = {"a1": 25469, "a6": 110, "a7": 6.94, "a8": 1.0}


@dataclass(frozen=True)
class Workload:
    name: str
    count: int
    category: int
    small_fee: Dict[str, float] = field(default_factory=dict)
    stream: Dict[str, float] = field(default_factory=dict)
    search_seed: Optional[int] = None
    from_csv: bool = False
    build_trees: bool = False
    write_assignments: bool = False
    n_pop: int = 0
    n_eval: int = 0

    @property
    def optimizes(self) -> bool:
        return self.n_eval > 0


WORKLOADS = {
    w.name: w for w in (
        Workload("simulate-ref-400k", count=400_000, category=2, write_assignments=True),
        Workload("simulate-fee-space-verkle", count=200_000, category=3,
                 small_fee={"a4": 2.0, "a5": 200}, stream={"drift_sigma": 0.0},
                 from_csv=True, build_trees=True),
        Workload("optimize-ga-cell", count=30_000, category=1, stream={"drift_sigma": 0.0},
                 search_seed=DEFAULT_SEED, n_pop=10, n_eval=100),
    )
}

# Per-layer metrics: name -> unit. Every traced run reports all of them; a
# metric the workload has no layer call for reads 0 and its reason is printed.
LAYER_UNITS = {
    "ingest.generate_s": "s",
    "ingest.load_csv_s": "s",
    "allocation.leaf_nodes_s": "s",
    "allocation.slots_total": "count",
    "simulator.run_s": "s",
    "simulator.run_self_s": "s",
    "simulator.blocks_sealed": "count",
    "simulator.included": "count",
    "simulator.evicted": "count",
    "simulator.rejected": "count",
    "simulator.pending": "count",
    "simulator.unsealed": "count",
    "simulator.small_fee_share": "ratio",
    "simulator.rss_growth_mb": "MB",
    "simulator.write_blocks_csv_s": "s",
    "simulator.write_assignments_csv_s": "s",
    "simulator.csv_bytes": "B",
    "verkle.build_s": "s",
    "verkle.leaves": "count",
    "verkle.leaves_per_s": "1/s",
    "metrics.series_volatility_s": "s",
    "metrics.returns": "count",
    "optimizers.self_s": "s",
    "optimizers.generations": "count",
    "optimizers.evaluations": "count",
    "optimize.evaluate_s": "s",
    "optimize.evaluate_p50_ms": "ms",
    "optimize.evaluate_p90_ms": "ms",
    "optimize.evaluate_samples": "count",
    "optimize.finite_ratio": "ratio",
    "optimize.unique_ratio": "ratio",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}
E2E_UNITS = {"setup_s": "s", "run_s": "s", "tx_per_s": "tx/s", "evals_per_s": "1/s",
             "peak_rss_mb": "MB"}

NO_SEARCH = "no optimizer runs on this workload"
ABSENT = {
    "simulate-ref-400k": {
        "ingest.load_csv_s": "the stream is generated, not loaded",
        "simulator.small_fee_share": "category 2 has no small-fee threshold a4",
        "verkle.build_s": "commitment trees are off", "verkle.leaves": "commitment trees are off",
        "verkle.leaves_per_s": "commitment trees are off",
    },
    "simulate-fee-space-verkle": {
        "ingest.generate_s": "the stream is generated and written to CSV in another process "
                             "before set-up; set-up loads it",
        "simulator.write_assignments_csv_s": "the assignments CSV is off",
    },
    "optimize-ga-cell": {
        "ingest.load_csv_s": "the stream is generated, not loaded",
        "simulator.write_blocks_csv_s": "the cell writes grid and trace CSVs only",
        "simulator.write_assignments_csv_s": "the cell writes grid and trace CSVs only",
        "simulator.csv_bytes": "the cell writes grid and trace CSVs only",
        "verkle.build_s": "commitment trees are off", "verkle.leaves": "commitment trees are off",
        "verkle.leaves_per_s": "commitment trees are off",
    },
}
for _name in ("simulate-ref-400k", "simulate-fee-space-verkle"):
    ABSENT[_name].update({m: NO_SEARCH for m in LAYER_UNITS
                          if m.startswith(("optimizers.", "optimize."))})


# --------------------------------------------------------------------------
# Inputs


def make_stream(w: Workload, seed: int, csv_path: Path, tracer):
    """The workload's input stream, in memory; the step set-up time covers."""
    from dtsim.ingest import DatasetSpec, generate, load_csv

    if w.from_csv:
        with tracer.span("ingest.load_csv"):
            return load_csv(csv_path)
    with tracer.span("ingest.generate"):
        return generate(DatasetSpec(count=w.count, rng_seed=seed, **w.stream))


def prepare_csv(w: Workload, seed: int, csv_path: Path) -> None:
    """Write the workload's CSV input: 10% overpaid and 10% underpaid fees."""
    from dtsim.ingest import DatasetSpec, IrrationalMix, generate, inject_irrational, write_csv

    stream = generate(DatasetSpec(count=w.count, rng_seed=seed, **w.stream))
    mix = IrrationalMix(rational_fraction=0.8, overpaid_fraction=0.1, underpaid_fraction=0.1)
    # The CLI perturbs fees with seed + 1; the benchmark does the same.
    write_csv(inject_irrational(stream, mix, seed + 1), csv_path)


def _child(*args: str) -> str:
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), *args],
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"child {args} failed: {proc.stderr.strip()[-2000:]}")
    return proc.stdout


def setup_samples(w: Workload, seed: int, csv_path: Path, pace) -> List[dict]:
    """Seconds from process start until dtsim is imported and the stream is in
    memory, each measured in a fresh interpreter on the measured core."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        mark = pace.mark()
        started = time.monotonic()
        out = _child("--internal", "setup", "--workload", w.name, "--seed", str(seed),
                     "--csv", str(csv_path))
        raw = json.loads(out.strip().splitlines()[-1])["ready"] - started
        samples.append(_scaled(raw, pace.factor_since(mark)))
    return samples


def _scaled(raw_s: float, factor: float) -> dict:
    return {"raw_s": raw_s, "speed_factor": factor, "s": raw_s * factor}


def internal(args) -> int:
    w = WORKLOADS[args.workload]
    if args.internal == "prepare":
        prepare_csv(w, args.seed, Path(args.csv))
        return 0
    stream = make_stream(w, args.seed, Path(args.csv), NullTracer())
    ready = time.monotonic()
    print(json.dumps({"ready": ready, "transactions": len(stream)}))
    return 0


# --------------------------------------------------------------------------
# Timed steps


class Context:
    """Inputs, outputs and bookkeeping shared by the iterations of one run."""

    def __init__(self, w: Workload, seed: int, work: Path, stream, expected: Optional[dict]):
        from dtsim.core import SimulationConfig, strategy_from_category

        self.w = w
        self.seed = seed
        self.work = work
        self.stream = stream
        self.expected = expected
        self.cfg = SimulationConfig(rng_seed=seed)
        self.strategy = (None if w.optimizes else
                         strategy_from_category(w.category, **REFERENCE_ATTRS, **w.small_fee))
        self.first: Optional[dict] = None
        self.rss_growth_mb: Optional[float] = None
        self.layers: Dict[str, float] = {}

    def track_rss(self, call: Callable):
        """Run `call`, recording the peak-RSS growth of the first such call."""
        before = harness.peak_rss_mb()
        value = call()
        if self.rss_growth_mb is None:
            self.rss_growth_mb = harness.peak_rss_mb() - before
        return value


def simulate_once(ctx: Context, tracer) -> dict:
    """`dtsim simulate` steps: run, blocks (and assignments) CSV, volatility."""
    from dtsim.metrics import series_volatility
    from dtsim.simulator import run, write_assignments_csv, write_blocks_csv

    w = ctx.w
    t0 = time.perf_counter()
    with tracer.span("simulator.run"):
        result = ctx.track_rss(lambda: run(ctx.stream, ctx.strategy, ctx.cfg,
                                           build_trees=w.build_trees))
    with tracer.span("simulator.write_blocks_csv"):
        write_blocks_csv(result.blocks, ctx.work / "blocks.csv")
    if w.write_assignments:
        with tracer.span("simulator.write_assignments_csv"):
            write_assignments_csv(result.assignments, ctx.work / "assignments.csv")
    with tracer.span("metrics.series_volatility"):
        vol = series_volatility(result.incentives)
    elapsed = time.perf_counter() - t0
    return {"run_s": elapsed, "result": result, "volatility": vol,
            "transactions": len(ctx.stream), "evaluations": 1}


def optimize_once(ctx: Context, tracer) -> dict:
    """`dtsim optimize` steps for one cell: GA search with `optimize.evaluate`
    as the objective, then the result and trace CSVs."""
    from dtsim.core import category
    from dtsim.optimize import (OptimizerConfig, SearchSpace, evaluate, grid_rows,
                                run_optimizer, write_grid_csv, write_trace_csv)

    w = ctx.w
    cat = category(w.category)
    space = SearchSpace(category=cat)
    config = OptimizerConfig(algorithm="ga", n_pop=w.n_pop, max_gen=w.n_eval // w.n_pop,
                             n_eval=w.n_eval, rng_seed=w.search_seed)
    candidates: List[tuple] = []
    values: List[float] = []

    def objective(attrs):
        candidates.append(tuple(attrs.items()))
        with tracer.span("optimize.evaluate"):
            f = ctx.track_rss(lambda: evaluate([attrs[n] for n in space.names], cat,
                                               ctx.stream, ctx.cfg))
        values.append(f)
        return f

    t0 = time.perf_counter()
    with tracer.span("optimizers.run_optimizer"):
        opt = run_optimizer("ga", space, objective, config)
    with tracer.span("optimize.write_csv"):
        write_grid_csv(grid_rows([opt]), ctx.work / "grid.csv")
        write_trace_csv(opt, ctx.work / "trace.csv")
    elapsed = time.perf_counter() - t0
    simulated = sum(1 for c in candidates if _valid(cat, dict(c)))
    return {"run_s": elapsed, "opt": opt, "candidates": candidates, "values": values,
            "transactions": simulated * len(ctx.stream), "evaluations": len(values)}


def _valid(cat, attrs) -> bool:
    """Whether `evaluate` reaches the simulator for these attributes."""
    from dtsim.core import strategy_from_category

    try:
        strategy_from_category(cat, **attrs)
    except ValueError:
        return False
    return True


# --------------------------------------------------------------------------
# Checks and layer probes (outside the timed steps)


def check_simulation(ctx: Context, it: dict, tracer) -> List[str]:
    from dtsim.allocation import AllocationParams

    w, result = ctx.w, it["result"]
    blocks_csv = ctx.work / "blocks.csv"
    problems = harness.check_run_result(result, ctx.cfg.leaf_capacity)
    problems += harness.check_blocks_csv(blocks_csv, result.blocks)
    digest = harness.file_sha256(blocks_csv)
    counts = _counts(result)
    problems += _check_repeat(ctx, {"blocks_sha256": digest, "volatility": it["volatility"],
                                    **counts})
    if w.build_trees and (ctx.first["iteration"] == 1 or tracer.enabled):
        with tracer.span("verkle.build"):
            found, leaves = harness.check_verkle_roots(result, ctx.cfg.verkle_branching_factor)
        problems += found
        ctx.layers["verkle.leaves"] = leaves
    if tracer.enabled:
        params = AllocationParams(ctx.strategy.scale, ctx.strategy.shape,
                                  ctx.strategy.max_trx_nodes)
        _probe_allocation(ctx, params, tracer)
        size = blocks_csv.stat().st_size
        if w.write_assignments:
            size += (ctx.work / "assignments.csv").stat().st_size
        ctx.layers.update(counts)
        ctx.layers["simulator.csv_bytes"] = size
        ctx.layers["metrics.returns"] = len(result.blocks) - 1
        if ctx.strategy.small_fee_threshold is not None:
            ctx.layers["simulator.small_fee_share"] = _small_fee_share(
                ctx.stream, ctx.strategy.small_fee_threshold)
    return problems


def check_optimization(ctx: Context, it: dict, tracer) -> List[str]:
    """Re-evaluate the best candidate and re-run it through the simulator."""
    from dtsim.allocation import AllocationParams
    from dtsim.core import category, strategy_from_category
    from dtsim.metrics import series_volatility
    from dtsim.optimize import SearchSpace, evaluate
    from dtsim.simulator import run

    opt = it["opt"]
    cat = category(ctx.w.category)
    names = SearchSpace(category=cat).names
    problems = []
    again = evaluate([opt.best_attrs[n] for n in names], cat, ctx.stream, ctx.cfg)
    problems += harness.check_expected("re-evaluated best volatility", again, opt.best_volatility)
    strategy = strategy_from_category(cat, **opt.best_attrs)
    with tracer.span("simulator.run"):
        result = run(ctx.stream, strategy, ctx.cfg)
    with tracer.span("metrics.series_volatility"):
        vol = series_volatility(result.incentives)
    problems += harness.check_expected("best candidate re-run volatility", vol,
                                       opt.best_volatility)
    problems += harness.check_run_result(result, ctx.cfg.leaf_capacity)
    counts = _counts(result)
    problems += _check_repeat(ctx, {"grid_sha256": harness.file_sha256(ctx.work / "grid.csv"),
                                    "volatility": opt.best_volatility, **counts})
    if tracer.enabled:
        params = AllocationParams(strategy.scale, strategy.shape, strategy.max_trx_nodes)
        _probe_allocation(ctx, params, tracer)
        ctx.layers.update(counts)
        ctx.layers["metrics.returns"] = len(result.blocks) - 1
        ctx.layers["simulator.small_fee_share"] = _small_fee_share(
            ctx.stream, strategy.small_fee_threshold)
        ctx.layers["optimizers.generations"] = len(opt.trace)
        ctx.layers["optimizers.evaluations"] = opt.evaluations
        ctx.layers["optimize.finite_ratio"] = (
            sum(1 for v in it["values"] if math.isfinite(v)) / len(it["values"]))
        ctx.layers["optimize.unique_ratio"] = harness.unique_ratio(it["candidates"])
    return problems


def _probe_allocation(ctx: Context, params, tracer) -> None:
    """Direct fee-to-slot mapping over the workload's fees, as the simulator
    maps them (zero fees clamped to the minimum positive fee)."""
    from dtsim.allocation import leaf_nodes
    from dtsim.ingest import MIN_POSITIVE_FEE

    fees = [tx.fee if tx.fee > 0 else MIN_POSITIVE_FEE for tx in ctx.stream]
    with tracer.span("allocation.leaf_nodes"):
        slots = sum(leaf_nodes(fee, params) for fee in fees)
    ctx.layers["allocation.slots_total"] = slots


def _small_fee_share(stream, threshold: float) -> float:
    return sum(1 for tx in stream if tx.fee < threshold) / len(stream)


def _counts(result) -> dict:
    return {"simulator.blocks_sealed": len(result.blocks),
            "simulator.included": result.included_count,
            "simulator.evicted": result.evicted_count,
            "simulator.rejected": result.rejected_count,
            "simulator.pending": result.pending_count,
            "simulator.unsealed": result.unsealed_count}


def _check_repeat(ctx: Context, outcome: dict) -> List[str]:
    """Every iteration must repeat the first exactly; at the default seed the
    first must equal the figures recorded in expected.json."""
    if ctx.first is None:
        ctx.first = {"iteration": 1, **outcome}
        if ctx.seed != DEFAULT_SEED:
            return []
        if ctx.expected is None:
            return [f"no recorded outputs for {ctx.w.name} at seed {DEFAULT_SEED}"]
        return [p for key, want in ctx.expected.items()
                for p in harness.check_expected(key, outcome.get(key), want)]
    ctx.first["iteration"] += 1
    return [p for key, got in outcome.items()
            for p in harness.check_expected(f"repeat {key}", got, ctx.first[key])]


# --------------------------------------------------------------------------
# Measurement


def measure(args, w: Workload) -> dict:
    import dtsim

    if Path(dtsim.__file__).resolve().parent != SRC / "dtsim":
        raise RuntimeError(f"imported dtsim from {dtsim.__file__}, not from {SRC}")
    facts = harness.machine_facts(ROOT)  # before the run is pinned to one core
    pace = harness.SpeedIndex()
    try:
        return {**_measure(args, w, pace), "machine": {**facts, "measured_cpu": pace.cpu}}
    finally:
        pace.close()


def _measure(args, w: Workload, pace) -> dict:
    work = OUT / "work" / w.name
    work.mkdir(parents=True, exist_ok=True)
    csv_path = work / "stream.csv"
    if w.from_csv:
        _child("--internal", "prepare", "--workload", w.name, "--seed", str(args.seed),
               "--csv", str(csv_path))
    setup = setup_samples(w, args.seed, csv_path, pace)

    tracer = Tracer() if args.trace else NullTracer()
    stream = make_stream(w, args.seed, csv_path, tracer)
    expected = json.loads(EXPECTED.read_text()).get(w.name)
    ctx = Context(w, args.seed, work, stream, expected)
    once, check = ((optimize_once, check_optimization) if w.optimizes
                   else (simulate_once, check_simulation))

    def iteration(tracer) -> tuple:
        mark = pace.mark()
        it = once(ctx, tracer)
        timing = _scaled(it["run_s"], pace.factor_since(mark))
        tracer.trace_id = "checks"
        found = check(ctx, it, tracer)
        return it, {**timing, "transactions": it["transactions"],
                    "evaluations": it["evaluations"], "failed": bool(found)}, found

    problems: List[str] = []
    traced = None
    if args.trace:
        # Traced iteration first, so that the untraced baseline can give way
        # when a slow core would push the run past its time limit.
        tracer.trace_id = "traced"
        it, traced, problems = iteration(tracer)
        del it
    iterations: List[dict] = []
    started = time.perf_counter()
    while not iterations or time.perf_counter() - started < args.seconds:
        if args.trace:
            longest = max(i["raw_s"] for i in iterations + [traced])
            if time.monotonic() - PROCESS_START + 1.25 * longest > TIME_LIMIT_S:
                break
        it, record, found = iteration(NullTracer())
        del it
        iterations.append(record)
        problems += found

    absent = dict(ABSENT[w.name]) if args.trace else {}
    layers = {}
    if args.trace:
        if iterations:
            overhead = traced["s"] - statistics.median(i["s"] for i in iterations)
        else:
            overhead = 0
            absent["trace.overhead_s"] = (f"no untraced iteration fitted in the {TIME_LIMIT_S} s "
                                          f"limit after the traced one")
        layers = layer_metrics(ctx, tracer, overhead)

    e2e = {}
    if iterations:
        e2e = {
            "setup_s": harness.summarize([x["s"] for x in setup]),
            "run_s": harness.summarize([i["s"] for i in iterations]),
            "tx_per_s": harness.summarize([i["transactions"] / i["s"] for i in iterations]),
            "evals_per_s": harness.summarize([i["evaluations"] / i["s"] for i in iterations]),
            "peak_rss_mb": harness.summarize([harness.peak_rss_mb()]),
            "raw_setup_s": harness.summarize([x["raw_s"] for x in setup]),
            "raw_run_s": harness.summarize([i["raw_s"] for i in iterations]),
        }
    if traced:
        iterations.append({**traced, "traced": True})
    attempted = len(iterations)
    failed = sum(i["failed"] for i in iterations)
    csv_path.unlink(missing_ok=True)
    return {
        "workload": w.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "inputs": {"transactions": len(stream), "category": w.category,
                   "strategy": None if ctx.strategy is None else ctx.strategy.attributes(),
                   "from_csv": w.from_csv, "build_trees": w.build_trees,
                   "n_pop": w.n_pop or None, "n_eval": w.n_eval or None},
        "attempted": attempted, "failed": failed, "failed_fraction": failed / attempted,
        "problems": problems, "setup": setup, "iterations": iterations,
        "end_to_end": e2e, "layers": layers, "absent": absent,
        "outputs": ctx.first, "spans": tracer.as_rows() if args.trace else [],
    }


def layer_metrics(ctx: Context, tracer: Tracer, overhead_s: float) -> dict:
    """Per-layer metrics from the traced iteration's spans and the probes."""
    w = ctx.w
    m = {name: 0 for name in LAYER_UNITS}
    m.update(ctx.layers)
    m["ingest.generate_s"] = tracer.total("ingest.generate")
    m["ingest.load_csv_s"] = tracer.total("ingest.load_csv")
    m["allocation.leaf_nodes_s"] = tracer.total("allocation.leaf_nodes")
    # One traced simulator run: the timed one, or for the search the re-run of
    # its best candidate.
    m["simulator.run_s"] = tracer.total("simulator.run")
    m["verkle.build_s"] = tracer.total("verkle.build")
    m["simulator.run_self_s"] = (m["simulator.run_s"] - m["allocation.leaf_nodes_s"]
                                 - m["verkle.build_s"])
    m["simulator.rss_growth_mb"] = ctx.rss_growth_mb
    if not w.optimizes:
        m["simulator.write_blocks_csv_s"] = tracer.total("simulator.write_blocks_csv", "traced")
        m["simulator.write_assignments_csv_s"] = tracer.total("simulator.write_assignments_csv",
                                                              "traced")
    if m["verkle.build_s"] > 0:
        m["verkle.leaves_per_s"] = m["verkle.leaves"] / m["verkle.build_s"]
    m["metrics.series_volatility_s"] = tracer.total("metrics.series_volatility")
    if w.optimizes:
        evals = [tracer.spans[i].duration for i in tracer.named("optimize.evaluate", "traced")]
        (root,) = tracer.named("optimizers.run_optimizer", "traced")
        m["optimizers.self_s"] = tracer.self_time(root)
        m["optimize.evaluate_s"] = math.fsum(evals)
        m["optimize.evaluate_p50_ms"] = 1000.0 * harness.percentile(evals, 50)
        m["optimize.evaluate_p90_ms"] = 1000.0 * harness.percentile(evals, 90)
        m["optimize.evaluate_samples"] = len(evals)
    m["trace.overhead_s"] = overhead_s
    m["trace.spans"] = len(tracer.spans)
    return m


def print_report(report: dict) -> None:
    print(f"workload {report['workload']}  seed {report['seed']}  "
          f"transactions {report['inputs']['transactions']}  trace {report['trace']}")
    facts = report["machine"]
    print(f"machine: {facts['cpu_count']} cpus ({facts['cpus_usable']} usable), "
          f"{facts['cpu_model']}, python {facts['python']}, numpy {facts['numpy']}, "
          f"git {facts['git_sha'] or 'unavailable'}, source {facts['source_sha256'][:12]}")
    for name, s in report["end_to_end"].items():
        unit = E2E_UNITS.get(name, "s")
        print(f"  {name:<12} median {s['median']:.6g} {unit}  "
              f"(q1 {s['q1']:.6g}, q3 {s['q3']:.6g}, n={s['n']})")
    print(f"  failed_fraction {report['failed_fraction']:.6g} "
          f"({report['failed']} of {report['attempted']} checked iterations)")
    for name, value in report["layers"].items():
        note = report["absent"].get(name)
        shown = f"absent: {note}" if note else f"{value:.6g} {LAYER_UNITS[name]}"
        print(f"  {name:<36} {shown}")
    for problem in report["problems"]:
        print(f"  CHECK FAILED: {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Used by the benchmark itself to time set-up in a fresh process.
    parser.add_argument("--internal", choices=("setup", "prepare"), help=argparse.SUPPRESS)
    parser.add_argument("--csv", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    # A terminated run still stops its speed-index process on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "dtsim" / "__init__.py").is_file():
        print(f"error: no dtsim sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.internal:
        return internal(args)

    report = measure(args, WORKLOADS[args.workload])
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (results / f"{stem}.json").write_text(json.dumps(report, indent=1, default=str) + "\n")
    print_report(report)
    if args.trace:
        metrics = {n: {"value": report["layers"][n], "unit": u} for n, u in LAYER_UNITS.items()}
    else:
        metrics = {n: {"value": report["end_to_end"][n]["median"], "unit": u}
                   for n, u in E2E_UNITS.items()}
    print(json.dumps({"correct": report["failed"] == 0, "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))
    return 0 if report["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
