"""Command-line surface: reproducible simulation, search and analysis runs.

`simulate` and `optimize` take the same stream and output flags (`optimize`
spends --budget evaluations per cell, n_pop x 100 by default) and write CSV
artifacts plus a `manifest.json`, and `proofsize --out X.csv` writes
`X.manifest.json` beside its CSV; a manifest embeds the effective
configuration verbatim, so those outputs are traceable to their exact inputs
(`volatility --out` writes none). Configuration precedence: command-line flags
> config file > built-in defaults, which are the library's dataclass defaults;
the DTSIM_SEED environment variable overrides the built-in default seed only.

Exit codes: 0 success, 1 `vrp-check` found a violated constraint or a
negative oracle gap, 2 configuration error or an output that cannot be
written, 3 data error.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import io
import json
import math
import os
import sys
import time
from pathlib import Path

from . import __version__
from .core import (REFERENCE_STRATEGY, SimulationConfig, read_csv_columns,
                   strategy_from_category, validate_strategy, write_csv_rows)
from .ingest import DatasetSpec, IrrationalMix, generate, inject_irrational, load_csv
from .metrics import MIN_INCENTIVES, benchmark_check, rolling_volatility, series_volatility
from .optimize import (
    ALGORITHMS,
    PSO_COEFFICIENTS,
    OptimizerConfig,
    experiment_grid,
    grid_cell,
    grid_rows,
    write_grid_csv,
    write_trace_csv,
)
from .simulator import DataError, run, write_assignments_csv, write_blocks_csv
from .verkle import (
    BRANCHING_FACTORS,
    INTEGRATION_SCENARIO,
    PUBLISHED_SCENARIOS,
    bandwidth_report,
    check_published_cells,
    graphene_integration_summary,
    write_bandwidth_csv,
)
from .vrp import (
    MAX_ORACLE_BLOCKS,
    MAX_ORACLE_TXS,
    AssignmentMatrix,
    VrpInstance,
    block_sums,
    brute_force_min_variance,
    check_constraints,
    variance_objective,
)

ENV_SEED = "DTSIM_SEED"


class ConfigError(ValueError):
    pass


def _defaults() -> dict:
    """The config file schema, valued with the library's defaults."""
    sim, spec, opt, mix = SimulationConfig(), DatasetSpec(), OptimizerConfig(), IrrationalMix()
    return {
        "simulation": {
            "leaf_capacity": sim.leaf_capacity,
            "commission_ratio": spec.commission_ratio,
            "arrival_rate_tps": spec.arrival_rate_tps,
            "verkle_branching_factor": sim.verkle_branching_factor,
            "seed": spec.rng_seed,
        },
        "dataset": {key: getattr(spec, key) for key in
                    ("count", "amount_mu", "amount_sigma", "drift_sigma", "drift_tau_s")},
        "strategy": dict(REFERENCE_STRATEGY),
        "optimizer": {"algorithm": opt.algorithm, "n_pop": opt.n_pop},
        "irrational": {
            "rational_fraction": mix.rational_fraction,
            "overpaid_fraction": mix.overpaid_fraction,
            "underpaid_fraction": mix.underpaid_fraction,
            "over_multiplier_low": mix.over_multiplier[0],
            "over_multiplier_high": mix.over_multiplier[1],
            "under_multiplier_low": mix.under_multiplier[0],
            "under_multiplier_high": mix.under_multiplier[1],
        },
    }


DEFAULTS = _defaults()


def default_config_text() -> str:
    parser = configparser.ConfigParser()
    parser.read_dict(DEFAULTS)
    buf = io.StringIO()
    parser.write(buf)
    return buf.getvalue()


def _typed(text: str, kind: type, name: str):
    try:
        return kind(text)
    except ValueError:
        raise ConfigError(f"{name} must be of type {kind.__name__}, got {text!r}") from None


def load_config(args) -> tuple[dict, str]:
    """Typed settings: flags over the config file over the defaults.

    A flag overrides the config key of its own name. DTSIM_SEED replaces
    the default seed when neither --seed nor the file sets one. Returns
    (values by section and key, the config text).
    """
    config = {section: dict(values) for section, values in DEFAULTS.items()}
    text = default_config_text()
    seed_in_file = False
    path = getattr(args, "config", None)
    if path is not None:
        parser = configparser.ConfigParser()
        if not parser.read(path):
            raise ConfigError(f"config file not found: {path}")
        for section in parser.sections():
            if section not in config:
                raise ConfigError(f"unknown config section [{section}]")
            for key, value in parser[section].items():
                if key not in config[section]:
                    raise ConfigError(f"unknown config key {key!r} in [{section}]")
                config[section][key] = _typed(value, type(DEFAULTS[section][key]),
                                              f"{key} in [{section}]")
        text = Path(path).read_text(encoding="utf-8")
        seed_in_file = parser.has_option("simulation", "seed")
    env = os.environ.get(ENV_SEED)
    if env is not None and not seed_in_file and getattr(args, "seed", None) is None:
        config["simulation"]["seed"] = _typed(env, int, ENV_SEED)
    for values in config.values():
        for key in values:
            if getattr(args, key, None) is not None:
                values[key] = getattr(args, key)
    return config, text


def _sim_config(config) -> SimulationConfig:
    sim = config["simulation"]
    return SimulationConfig(leaf_capacity=sim["leaf_capacity"],
                            verkle_branching_factor=sim["verkle_branching_factor"])


def _dataset(args, config):
    """Load or synthesize the transaction stream per flags and config."""
    sim, irr = config["simulation"], config["irrational"]
    if args.dataset:
        stream = load_csv(args.dataset, commission_ratio=sim["commission_ratio"])
        if not stream:
            raise DataError(f"dataset {args.dataset} holds no transactions")
    else:
        stream = generate(DatasetSpec(**config["dataset"], arrival_rate_tps=sim["arrival_rate_tps"],
                                      commission_ratio=sim["commission_ratio"],
                                      rng_seed=sim["seed"]))
    mix = IrrationalMix(
        rational_fraction=irr["rational_fraction"],
        overpaid_fraction=irr["overpaid_fraction"],
        underpaid_fraction=irr["underpaid_fraction"],
        over_multiplier=(irr["over_multiplier_low"], irr["over_multiplier_high"]),
        under_multiplier=(irr["under_multiplier_low"], irr["under_multiplier_high"]),
    )
    if mix.rational_fraction < 1.0:
        stream = inject_irrational(stream, mix, sim["seed"] + 1)
    return stream


def _strategy(args, config, cfg: SimulationConfig):
    """The configured strategy, checked against `cfg` before any input is read."""
    attrs = dict(config["strategy"])
    strategy = strategy_from_category(attrs.pop("category"), **attrs, a4=args.a4, a5=args.a5)
    problems = validate_strategy(strategy, cfg)
    if problems:
        raise ConfigError("invalid strategy: " + "; ".join(problems))
    return strategy


def _write_manifest(path: Path, args, seed: int, config_text: str,
                    outputs: list, wall_time: float, extras: dict | None = None):
    manifest = {
        "command": args.command,
        "argv": args.argv,
        "package_version": __version__,
        "seed": seed,
        "config_digest": hashlib.sha256(config_text.encode()).hexdigest(),
        "config_text": config_text,
        "outputs": [str(p) for p in outputs],
        "wall_time_s": round(wall_time, 3),
        **(extras or {}),
    }
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_simulate(args, config, config_text) -> int:
    t0 = time.perf_counter()
    seed = config["simulation"]["seed"]
    cfg = _sim_config(config)
    strategy = _strategy(args, config, cfg)
    stream = _dataset(args, config)

    result = run(stream, strategy, cfg, force_seal=args.force_seal,
                 build_trees=args.verkle_roots)

    out = _out_dir(args)
    outputs = [out / "blocks.csv"]
    write_blocks_csv(result.blocks, outputs[-1])
    if not args.no_assignments:
        outputs.append(out / "assignments.csv")
        write_assignments_csv(result.assignments, outputs[-1])
    if args.verkle_roots:
        outputs.append(out / "roots.csv")
        write_csv_rows(outputs[-1], ("height", "verkle_root"),
                       ((b.height, b.verkle_root.hex()) for b in result.blocks))

    summary = {
        "blocks_sealed": len(result.blocks),
        "submitted": result.submitted_count,
        "included": result.included_count,
        "evicted": result.evicted_count,
        "rejected": result.rejected_count,
        "unsealed": result.unsealed_count,
        "submitted_fees": result.submitted_fees,
        "block_fees": math.fsum(result.incentives),
    }
    if len(result.blocks) >= MIN_INCENTIVES:
        vol = series_volatility(result.incentives)
        summary["volatility"] = vol
        summary["benchmark"] = benchmark_check(vol)
    outputs.append(out / "summary.csv")
    write_csv_rows(outputs[-1], ("key", "value"), summary.items())

    manifest = _write_manifest(out / "manifest.json", args, seed, config_text, outputs,
                               time.perf_counter() - t0,
                               {"strategy": strategy.attributes()})
    for key, value in summary.items():
        print(f"{key}: {value}")
    print(f"manifest: {manifest}")
    return 0


def cmd_optimize(args, config, config_text) -> int:
    t0 = time.perf_counter()
    seed = config["simulation"]["seed"]
    cfg = _sim_config(config)
    if args.jobs < 1:
        raise ConfigError("--jobs must be positive")
    base = OptimizerConfig(**config["optimizer"], n_eval=args.budget, rng_seed=seed)
    w, c1, c2 = PSO_COEFFICIENTS

    stream = _dataset(args, config)
    out = _out_dir(args)

    if args.grid:
        runs = experiment_grid(stream, cfg, base_config=base, jobs=args.jobs)
    else:
        runs = [grid_cell(config["strategy"]["category"], base, stream, cfg)]

    rows = grid_rows(runs)
    outputs = [out / ("grid.csv" if args.grid else "result.csv")]
    write_grid_csv(rows, outputs[-1])
    for r in runs:
        outputs.append(out / f"trace_{r.algorithm}_cat{r.category_id}.csv")
        write_trace_csv(r, outputs[-1])

    manifest = _write_manifest(
        out / "manifest.json", args, seed, config_text, outputs, time.perf_counter() - t0,
        {"pso_derived": {"w": round(w, 6), "c1": round(c1, 6), "c2": round(c2, 6)},
         "budget": base.budget,
         "cells": [{"algorithm": r.algorithm, "category": r.category_id,
                    "evaluations": r.evaluations, "simulations": r.simulations} for r in runs]})
    for row in rows:
        print(f"{row['algorithm']} experiment {row['experiment']} "
              f"cat ({row['a2']}, space={row['a3']}): volatility {row['volatility']:.6f}")
    print(f"pso derived (w, c1, c2) = ({w:.2f}, {c1:.2f}, {c2:.2f})")
    print(f"manifest: {manifest}")
    return 0


def _parse_scenarios(text: str):
    scenarios = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" in part:
            name, _, num = part.partition("=")
            scenarios.append((name.strip(), int(num)))
        else:
            scenarios.append((part, int(part)))
    if not scenarios:
        raise ConfigError("no scenarios given")
    return scenarios


def cmd_proofsize(args, config, config_text) -> int:
    t0 = time.perf_counter()
    scenarios = (_parse_scenarios(args.scenarios) if args.scenarios
                 else [*PUBLISHED_SCENARIOS, INTEGRATION_SCENARIO])
    ks = [int(k) for k in args.k.split(",")] if args.k else BRANCHING_FACTORS
    modes = ("smooth", "ceil") if args.mode == "both" else (args.mode,)

    rows = bandwidth_report(scenarios, ks, modes)
    for row in rows:
        print(f"{row['scenario']:>14s} n_t={row['n_t']:>7d} {row['structure']:6s} "
              f"k={row['k']:<5d} {row['mode']:6s} {row['bytes']:10.2f} bytes")

    published = check_published_cells()
    flagged = [c for c in published if not c["matches"]]
    print(f"published cells checked: {len(published)}, inconsistent: {len(flagged)}")
    for cell in flagged:
        print(f"  flagged: {cell['scenario']} {cell['structure']} k={cell['k']} "
              f"published {cell['published_bytes']} vs computed {cell['computed_bytes']:.2f}")
    summary = graphene_integration_summary()
    print(f"integration scenario n_t={summary.n_t}: merkle {summary.merkle_levels} levels "
          f"= {summary.merkle_proof_bytes:.0f} bytes; "
          f"k={summary.verkle_branching} proof {summary.verkle_proof_bytes:.1f} bytes")

    if args.out:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        write_bandwidth_csv(rows, out)
        _write_manifest(out.with_suffix(".manifest.json"), args, config["simulation"]["seed"],
                        config_text, [out], time.perf_counter() - t0)
    return 0


def _block_mismatches(path, rows) -> list[str]:
    """Heights where blocks.csv disagrees with the (tx_id, block, fee, nodes)
    rows. `run` writes each block's tx_count, occupied_nodes and the fsum of
    its fees, and CSV floats round-trip, so the totals must match exactly."""
    heights, *totals = read_csv_columns(path, {
        "height": int, "tx_count": int, "occupied_nodes": int, "incentive": float})
    listed = dict(zip(heights, zip(*totals)))
    problems = [f"{path} lists a height more than once"] if len(listed) < len(heights) else []
    packed = {}
    for _, block, fee, nodes in rows:
        packed.setdefault(block, []).append((fee, nodes))
    for height in sorted(listed.keys() | packed.keys()):
        txs = packed.get(height, [])
        found = (len(txs), sum(n for _, n in txs), math.fsum(f for f, _ in txs))
        if listed.get(height) != found:
            problems.append(f"block {height}: (tx_count, occupied_nodes, incentive) is "
                            f"{listed.get(height)} in {path}, {found} by its assignments")
    return problems


def _packing(rows, heights, capacity):
    """Assignment and instance of (tx_id, block, fee, nodes) rows over `heights`.

    Block k of the assignment is the k-th entry of `heights`.
    """
    column = {b: k for k, b in enumerate(heights)}
    matrix = AssignmentMatrix(blocks=tuple(column[block] for _, block, _, _ in rows),
                              tx_ids=tuple(tx_id for tx_id, _, _, _ in rows),
                              n_blocks=len(heights))
    instance = VrpInstance(fees=tuple(fee for _, _, fee, _ in rows),
                           demands=tuple(nodes for _, _, _, nodes in rows),
                           capacity=capacity)
    return matrix, instance


def cmd_vrp_check(args, config, config_text) -> int:
    if not 1 <= args.oracle_max_n <= MAX_ORACLE_TXS:
        raise ConfigError(f"--oracle-max-n must be between 1 and {MAX_ORACLE_TXS}")
    if not 1 <= args.oracle_blocks <= MAX_ORACLE_BLOCKS:
        raise ConfigError(f"--oracle-blocks must be between 1 and {MAX_ORACLE_BLOCKS}")
    assignments_path = args.assignments or Path(args.blocks).with_name("assignments.csv")
    rows = list(zip(*read_csv_columns(
        assignments_path, {"tx_id": int, "block": int, "fee": float, "nodes": int})))
    if not rows:
        raise DataError(f"{assignments_path}: no assignment rows")
    capacity = config["simulation"]["leaf_capacity"]

    # Full-chain constraint check.
    block_ids = sorted({block for _, block, _, _ in rows})
    matrix, instance = _packing(rows, block_ids, capacity)
    unpackable = check_constraints(matrix, instance)
    violations = unpackable + _block_mismatches(args.blocks, rows)
    print(f"transactions: {len(set(matrix.tx_ids))}, blocks: {len(block_ids)}, capacity: {capacity}")
    if violations:
        print(f"violations ({len(violations)}):")
        for v in violations:
            print(f"  {v}")
    else:
        print("violations (0): none")

    if args.target_incentive is not None:
        # Depot-style report: how far block incomes sit from the target level.
        deviations = [abs(s - args.target_incentive) for s in block_sums(matrix, instance.fees)]
        print(f"target incentive {args.target_incentive!r}: "
              f"mean |deviation| {sum(deviations) / len(deviations)!r}, "
              f"max |deviation| {max(deviations)!r}")

    # Oracle gap on the first few blocks and txs; meaningless for an unpackable assignment.
    if unpackable:
        print("oracle gap: skipped, the assignment violates a packing constraint")
        return 1
    chosen_blocks = block_ids[: args.oracle_blocks]
    truncated = [row for row in rows if row[1] in chosen_blocks][: args.oracle_max_n]
    actual, oracle_instance = _packing(truncated, chosen_blocks, capacity)
    actual_var = variance_objective(actual, oracle_instance.fees)
    _witness, best_var = brute_force_min_variance(oracle_instance, len(chosen_blocks))
    gap = actual_var - best_var
    print(f"oracle instance: {len(truncated)} txs over {len(chosen_blocks)} blocks")
    print(f"assignment variance: {actual_var!r}")
    print(f"oracle minimum variance: {best_var!r}")
    print(f"gap (assignment - optimum, >= 0): {gap!r}")
    if gap < -1e-9:
        print("ERROR: greedy assignment beats exhaustive optimum; invariant broken")
        return 1
    return 1 if violations else 0


def _incentive(text: str) -> float:
    """A cell of `volatility`'s column: returns need finite values > 0."""
    value = float(text)
    if not 0 < value < math.inf:
        raise ValueError(f"incentive {value} must be finite and > 0")
    return value


def cmd_volatility(args, config, config_text) -> int:
    (values,) = read_csv_columns(args.infile, {args.column: _incentive})
    if len(values) < 2:
        raise DataError("need at least two incentives")

    if args.window is not None:
        series = rolling_volatility(values, args.window)
        print(f"rolling volatility, window {args.window}: {len(series)} values")
        print(f"first {series[0]!r}, last {series[-1]!r}")
        if args.out:
            write_csv_rows(args.out, ("index", "volatility"), enumerate(series))
    overall = series_volatility(values)
    print(f"volatility: {overall!r}")
    print(f"benchmark: {benchmark_check(overall)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dtsim",
        description="Fee-driven dynamic block-space simulation and strategy search.")
    parser.add_argument("--print-defaults", action="store_true",
                        help="print the default configuration and exit")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="INI config file layered over built-in defaults")
    common.add_argument("--seed", type=int, help="run seed (overrides config and DTSIM_SEED)")
    runs = argparse.ArgumentParser(add_help=False, parents=[common])  # simulate and optimize
    runs.add_argument("--dataset", help="transaction CSV (default: synthetic stream)")
    runs.add_argument("--count", type=int, help="synthetic stream length")
    runs.add_argument("--category", type=int, choices=(1, 2, 3, 4))
    runs.add_argument("--out", required=True, help="output directory")
    sub = parser.add_subparsers(dest="command")

    sim = sub.add_parser("simulate", parents=[runs], help="run one strategy over a stream")
    sim.add_argument("--a1", type=int, help="mempool size")
    sim.add_argument("--a4", type=float, help="small-fee threshold (categories 1 and 3)")
    sim.add_argument("--a5", type=int, help="small-fee per-block count (categories 1 and 3)")
    sim.add_argument("--a6", type=int, help="max leaf nodes per transaction")
    sim.add_argument("--a7", type=float, help="CDF scale")
    sim.add_argument("--a8", type=float, help="CDF shape")
    sim.add_argument("--force-seal", action="store_true",
                     help="seal the partial tail block at end of stream")
    sim.add_argument("--verkle-roots", action="store_true",
                     help="build a commitment tree per sealed block and write roots.csv")
    sim.add_argument("--no-assignments", action="store_true",
                     help="skip writing assignments.csv")

    opt = sub.add_parser("optimize", parents=[runs], help="search strategy attributes")
    opt.add_argument("--algo", dest="algorithm", choices=ALGORITHMS)
    opt.add_argument("--grid", action="store_true", help="run every algorithm x category cell")
    opt.add_argument("--budget", type=int, help="objective evaluations per cell (default n_pop x 100)")
    opt.add_argument("--n-pop", type=int, dest="n_pop")
    opt.add_argument("--jobs", type=int, default=1,
                     help="worker processes for independent grid cells")

    proof = sub.add_parser("proofsize", parents=[common], help="closed-form proof-size tables")
    proof.add_argument("--scenarios", help="comma list of name=n_t (default: published set)")
    proof.add_argument("--k", help="comma list of branching factors (default "
                       f"{','.join(map(str, BRANCHING_FACTORS))})")
    proof.add_argument("--mode", choices=("smooth", "ceil", "both"), default="both")
    proof.add_argument("--out", help="write the report CSV here")

    vrp = sub.add_parser("vrp-check", parents=[common], help="constraint and oracle-gap check of a run")
    vrp.add_argument("--blocks", required=True, help="blocks.csv from a simulate run")
    vrp.add_argument("--assignments", help="assignments.csv (default: next to blocks.csv)")
    vrp.add_argument("--oracle-max-n", type=int, default=10)
    vrp.add_argument("--oracle-blocks", type=int, default=3)
    vrp.add_argument("--target-incentive", type=float,
                     help="report per-block deviation from this depot incentive level")

    vol = sub.add_parser("volatility", parents=[common], help="volatility of an incentive column")
    vol.add_argument("--in", dest="infile", required=True, help="CSV with an incentive column")
    vol.add_argument("--column", default="incentive")
    vol.add_argument("--window", type=int, help="rolling window in returns")
    vol.add_argument("--out", help="write rolling series CSV here")

    return parser


COMMANDS = {
    "simulate": cmd_simulate,
    "optimize": cmd_optimize,
    "proofsize": cmd_proofsize,
    "vrp-check": cmd_vrp_check,
    "volatility": cmd_volatility,
}


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(argv)
    args.argv = argv  # the manifest records what was parsed, not the host's sys.argv
    if args.print_defaults:
        print(default_config_text(), end="")
        return 0
    if args.command is None:
        parser.print_help()
        return 2
    try:
        return COMMANDS[args.command](args, *load_config(args))
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # every input read maps its OSError to a DataError
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
