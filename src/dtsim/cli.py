"""Command-line surface: reproducible simulation, search and analysis runs.

`simulate` and `optimize` take the same stream and output flags (`optimize`
spends --budget evaluations per cell, n_pop x 100 by default) and write CSV
artifacts plus a `manifest.json`, and `proofsize --out X.csv` writes
`X.manifest.json` beside its CSV (`volatility --out` writes none). A manifest
holds the settings the run used as config text, and its sha256: that text as
a `--config` file repeats the run (`simulate --a4/--a5` are flags only, which
the manifest records under `strategy`) over the same input, which a `simulate`
or `optimize` manifest names by `dataset_sha256`, the sha256 of the `--dataset`
file (null for a generated stream). Settings precedence: command-line flags >
config file > the DTSIM_SEED environment variable, which sets the seed only >
built-in defaults, which are the library's dataclass defaults.

Exit codes: 0 success, 1 `vrp-check` listed a violation, 2 configuration
error or an output that cannot be written, 3 data error.
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
from dataclasses import asdict
from pathlib import Path

from . import __version__
from .core import (REFERENCE_STRATEGY, DataError, SimulationConfig, read_csv_columns,
                   strategy_from_category, validate_strategy, write_csv_rows)
from .ingest import DatasetSpec, IrrationalMix, generate, inject_irrational, load_csv
from .metrics import MIN_INCENTIVES, benchmark_check, rolling_volatility, series_volatility
from .optimize import (
    ALGORITHMS,
    OptimizerConfig,
    experiment_grid,
    grid_cell,
    grid_rows,
    write_grid_csv,
    write_trace_csv,
)
from .optimizers import PSO_COEFFICIENTS
from .simulator import run, write_assignments_csv, write_blocks_csv
from .verkle import (
    BRANCHING_FACTORS,
    INTEGRATION_SCENARIO,
    PUBLISHED_SCENARIOS,
    bandwidth_report,
    check_published_cells,
    graphene_integration_summary,
    write_bandwidth_csv,
)
from .vrp import AssignmentMatrix, VrpInstance, check_constraints

ENV_SEED = "DTSIM_SEED"


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
        "irrational": asdict(mix),
    }


DEFAULTS = _defaults()


def config_text(config: dict = DEFAULTS) -> str:
    """`config` as INI text: the schema's order, each value as `str` writes it."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_dict(config)
    buf = io.StringIO()
    parser.write(buf)
    return buf.getvalue()


def _typed(text: str, kind: type, name: str):
    try:
        return kind(text)
    except ValueError:
        raise ValueError(f"{name} must be of type {kind.__name__}, got {text!r}") from None


def load_config(args) -> dict:
    """The effective settings by section and key: flags over the config file
    over DTSIM_SEED over the defaults. A flag overrides the config key of its
    own name, and DTSIM_SEED the default seed; a negative seed, from any of
    them, is a ValueError."""
    config = {section: dict(values) for section, values in DEFAULTS.items()}
    env = os.environ.get(ENV_SEED)
    if env is not None:
        config["simulation"]["seed"] = _typed(env, int, ENV_SEED)
    if args.config is not None:
        # No header names the section "", so a [DEFAULT] section is unknown.
        parser = configparser.ConfigParser(interpolation=None, default_section="")
        try:
            parser.read_string(Path(args.config).read_text(encoding="utf-8-sig"), source=args.config)
        except OSError:
            raise ValueError(f"config file not found: {args.config}") from None
        except UnicodeDecodeError as exc:
            raise ValueError(f"cannot read {args.config}: {exc}") from None
        except configparser.Error as exc:  # its messages name the file, some over lines
            raise ValueError(" ".join(str(exc).split())) from None
        for section in parser.sections():
            if section not in config:
                raise ValueError(f"unknown config section [{section}]")
            for key, value in parser[section].items():
                if key not in config[section]:
                    raise ValueError(f"unknown config key {key!r} in [{section}]")
                config[section][key] = _typed(value, type(DEFAULTS[section][key]),
                                              f"{key} in [{section}]")
    for values in config.values():
        for key in values:
            if getattr(args, key, None) is not None:
                values[key] = getattr(args, key)
    if config["simulation"]["seed"] < 0:
        raise ValueError(f"seed must be non-negative, got {config['simulation']['seed']}")
    return config


def _sim_config(config) -> SimulationConfig:
    sim = config["simulation"]
    return SimulationConfig(leaf_capacity=sim["leaf_capacity"],
                            verkle_branching_factor=sim["verkle_branching_factor"])


def _dataset(args, config):
    """The transaction stream per flags and config, and the hex sha256 of a loaded
    file (None for a generated stream). The [irrational] mix and the stream
    settings are checked first, with a file too; `load_csv` checks the
    commission ratio it derives a file's blank fees with."""
    sim = config["simulation"]
    mix = IrrationalMix(**config["irrational"])
    ratio = DatasetSpec.commission_ratio if args.dataset else sim["commission_ratio"]
    spec = DatasetSpec(**config["dataset"], arrival_rate_tps=sim["arrival_rate_tps"],
                       commission_ratio=ratio, rng_seed=sim["seed"])
    digest = None
    if args.dataset:
        stream = load_csv(args.dataset, commission_ratio=sim["commission_ratio"])
        if not stream:
            raise DataError(f"dataset {args.dataset} holds no transactions")
        digest = hashlib.sha256(Path(args.dataset).read_bytes()).hexdigest()
    else:
        stream = generate(spec)
    if mix.rational_fraction < 1.0:
        stream = inject_irrational(stream, mix, sim["seed"] + 1)
    return stream, digest


def _strategy(args, config, cfg: SimulationConfig):
    """The configured strategy, checked against `cfg` before any input is read."""
    attrs = dict(config["strategy"])
    strategy = strategy_from_category(attrs.pop("category"), **attrs, a4=args.a4, a5=args.a5)
    validate_strategy(strategy, cfg)
    return strategy


def _write_manifest(path: Path, args, config, outputs: list, extras: dict | None = None):
    text = config_text(config)
    manifest = {
        "command": args.command,
        "argv": args.argv,
        "package_version": __version__,
        "seed": config["simulation"]["seed"],
        "config_digest": hashlib.sha256(text.encode()).hexdigest(),
        "config_text": text,
        "outputs": [str(p) for p in outputs],
        "wall_time_s": round(time.perf_counter() - args.started, 3),
        **(extras or {}),
    }
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_simulate(args, config) -> int:
    cfg = _sim_config(config)
    strategy = _strategy(args, config, cfg)
    stream, dataset_sha256 = _dataset(args, config)

    result = run(stream, strategy, cfg, force_seal=args.force_seal,
                 build_trees=args.verkle_roots)

    # The summary comes first, so the volatility's DataError precedes every output.
    summary = {"blocks_sealed": len(result.blocks), "submitted": result.submitted_count,
               "included": result.included_count, "evicted": result.evicted_count,
               "rejected": result.rejected_count, "unsealed": result.unsealed_count,
               "submitted_fees": result.submitted_fees, "block_fees": math.fsum(result.incentives)}
    if len(result.blocks) >= MIN_INCENTIVES:
        vol = series_volatility(result.incentives)
        summary["volatility"] = vol
        summary["benchmark"] = benchmark_check(vol)

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
    outputs.append(out / "summary.csv")
    write_csv_rows(outputs[-1], ("key", "value"), summary.items())

    manifest = _write_manifest(out / "manifest.json", args, config, outputs,
                               {"strategy": strategy.attributes(),
                                "dataset_sha256": dataset_sha256})
    for key, value in summary.items():
        print(f"{key}: {value}")
    print(f"manifest: {manifest}")
    return 0


def cmd_optimize(args, config) -> int:
    cfg = _sim_config(config)
    if args.jobs < 1:
        raise ValueError("--jobs must be positive")
    if args.grid:
        # A config file's algorithm and category stay defaults; a flag would be ignored.
        for flag, value in (("--algo", args.algorithm), ("--category", args.category)):
            if value is not None:
                raise ValueError(f"--grid runs every algorithm and category; drop {flag}")
    base = OptimizerConfig(**config["optimizer"], n_eval=args.budget,
                           rng_seed=config["simulation"]["seed"])
    w, c1, c2 = PSO_COEFFICIENTS

    stream, dataset_sha256 = _dataset(args, config)
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
        out / "manifest.json", args, config, outputs,
        {"pso_derived": {"w": round(w, 6), "c1": round(c1, 6), "c2": round(c2, 6)},
         "budget": base.budget,
         "dataset_sha256": dataset_sha256,
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
    for part in filter(None, map(str.strip, text.split(","))):
        name, sep, num = part.partition("=")
        if not name.strip():
            raise ValueError(f"scenario {part!r} has an empty name")
        try:
            scenarios.append((name.strip(), int(num if sep else name)))
        except ValueError:
            raise ValueError(f"scenario {part!r}: n_t must be an integer") from None
        if scenarios[-1][1] < 2:
            raise ValueError(f"scenario {part!r}: n_t must be >= 2")
    if not scenarios:
        raise ValueError("no scenarios given")
    return scenarios


def _parse_ks(text: str):
    ks = []
    for part in filter(None, map(str.strip, text.split(","))):
        try:
            ks.append(int(part))
        except ValueError:
            raise ValueError(f"--k entry {part!r} is not an integer") from None
        if ks[-1] < 2:
            raise ValueError(f"--k entry {part!r}: a branching factor must be >= 2")
    if not ks:
        raise ValueError("--k lists no branching factor")
    return ks


def cmd_proofsize(args, config) -> int:
    scenarios = (_parse_scenarios(args.scenarios) if args.scenarios
                 else [*PUBLISHED_SCENARIOS, INTEGRATION_SCENARIO])
    ks = _parse_ks(args.k) if args.k else BRANCHING_FACTORS
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
        _write_manifest(out.with_suffix(".manifest.json"), args, config, [out])
    return 0


def _block_mismatches(path, totals: dict) -> list[str]:
    """Heights where blocks.csv disagrees with the assignments' `totals`. `run`
    writes each block's tx_count, occupied_nodes and the fsum of its fees, and
    CSV floats round-trip, so the totals must match exactly. `cmd_vrp_check`
    sums each block's fees with `math.fsum` itself, an oracle independent of
    the grid sums (`simulator._fsums`) that `run` takes its incentives from."""
    heights, *columns = (column.tolist() for column in read_csv_columns(path, {
        "height": int, "tx_count": int, "occupied_nodes": int, "incentive": float}))
    listed = dict(zip(heights, zip(*columns)))
    problems = [f"{path} lists a height more than once"] if len(listed) < len(heights) else []
    for height in sorted(listed.keys() | totals.keys()):
        found = totals.get(height, (0, 0, 0.0))
        if listed.get(height) != found:
            problems.append(f"block {height}: (tx_count, occupied_nodes, incentive) is "
                            f"{listed.get(height)} in {path}, {found} by its assignments")
    return problems


def cmd_vrp_check(args, config) -> int:
    if args.target_incentive is not None and not math.isfinite(args.target_incentive):
        raise ValueError(f"--target-incentive must be finite, got {args.target_incentive!r}")
    assignments_path = args.assignments or Path(args.blocks).with_name("assignments.csv")
    # Python numbers, as in `_block_mismatches`: the report reads the same under every numpy.
    tx_ids, blocks, fees, nodes = (column.tolist() for column in read_csv_columns(
        assignments_path, {"tx_id": int, "block": int, "fee": float, "nodes": int}))
    if not tx_ids:
        raise DataError(f"{assignments_path}: no assignment rows")
    at = next((i for i, fee in enumerate(fees) if not 0 <= fee < math.inf), None)
    if at is not None:
        raise DataError(f"{assignments_path}: transaction {tx_ids[at]} has fee {fees[at]!r}; "
                        f"it must be finite and >= 0")
    capacity = config["simulation"]["leaf_capacity"]

    # A block's column is its height: a run's K blocks hold at least K rows.
    bad = next((b for b in blocks if not 0 <= b < len(blocks)), None)
    if bad is not None:
        raise DataError(f"{assignments_path}: block {bad} is not a height below the "
                        f"row count, {len(blocks)}")
    matrix = AssignmentMatrix(blocks=tuple(blocks), tx_ids=tuple(tx_ids), n_blocks=len(blocks))
    instance = VrpInstance(fees=tuple(fees), demands=tuple(nodes), capacity=capacity)
    packed = {}
    for block, fee, n in zip(blocks, fees, nodes):
        packed.setdefault(block, []).append((fee, n))
    totals = {height: (len(txs), sum(n for _, n in txs), math.fsum(f for f, _ in txs))
              for height, txs in packed.items()}
    violations = check_constraints(matrix, instance) + _block_mismatches(args.blocks, totals)
    print(f"transactions: {len(set(tx_ids))}, blocks: {len(totals)}, capacity: {capacity}")
    if violations:
        print(f"violations ({len(violations)}):")
        for v in violations:
            print(f"  {v}")
    else:
        print("violations (0): none")

    if args.target_incentive is not None:
        # Depot-style report: how far the block incomes just checked sit from the target.
        deviations = [abs(incentive - args.target_incentive) for _, _, incentive in totals.values()]
        print(f"target incentive {args.target_incentive!r}: "
              f"mean |deviation| {math.fsum(deviations) / len(deviations)!r}, "
              f"max |deviation| {max(deviations)!r}")
    return 1 if violations else 0


def _incentive(text: str) -> float:
    """A cell of `volatility`'s column: returns need finite values > 0."""
    value = float(text)
    if not 0 < value < math.inf:
        raise ValueError(f"incentive {value} must be finite and > 0")
    return value


def cmd_volatility(args, config) -> int:
    if args.out and args.window is None:
        raise ValueError("--out writes the rolling series; give --window")
    # Python floats: the returns' quotients overflow to inf without a numpy warning.
    values = read_csv_columns(args.infile, {args.column: _incentive})[0].tolist()
    if len(values) < MIN_INCENTIVES:
        raise DataError(f"{args.infile}: {len(values)} incentives; volatility needs "
                        f"at least {MIN_INCENTIVES}")

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
    opt.add_argument("--grid", action="store_true",
                     help="run every algorithm x category cell (not with --algo or --category)")
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

    vrp = sub.add_parser("vrp-check", parents=[common], help="packing and block-total check of a run")
    vrp.add_argument("--blocks", required=True, help="blocks.csv from a simulate run")
    vrp.add_argument("--assignments", help="assignments.csv (default: next to blocks.csv)")
    vrp.add_argument("--target-incentive", type=float,
                     help="report per-block deviation from this depot incentive level")

    vol = sub.add_parser("volatility", parents=[common], help="volatility of an incentive column")
    vol.add_argument("--in", dest="infile", required=True, help="CSV with an incentive column")
    vol.add_argument("--column", default="incentive")
    vol.add_argument("--window", type=int, help="rolling window in returns")
    vol.add_argument("--out", help="write the rolling series CSV here (needs --window)")

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
    args.started = time.perf_counter()  # a manifest's wall time covers the whole command
    args.argv = argv  # the manifest records what was parsed, not the host's sys.argv
    if args.print_defaults:
        print(config_text(), end="")
        return 0
    if args.command is None:
        parser.print_help()
        return 2
    try:
        return COMMANDS[args.command](args, load_config(args))
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
