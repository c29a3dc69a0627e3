import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from dtsim.cli import main
from dtsim.core import REFERENCE_STRATEGY, SimulationConfig, category, strategy_from_category
from dtsim.ingest import DatasetSpec, generate, write_csv
from dtsim.optimize import (OptimizerConfig, SearchSpace, evaluate, grid_rows, run_optimizer,
                            write_grid_csv)
from dtsim.simulator import run, write_blocks_csv


def run_cli(args, env_extra=None):
    env = dict(os.environ)
    env.pop("DTSIM_SEED", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run([sys.executable, "-m", "dtsim.cli", *args],
                          capture_output=True, text=True, env=env)


DEFAULTS_TEXT = """\
[simulation]
leaf_capacity = 2100
commission_ratio = 0.002
arrival_rate_tps = 3.5
verkle_branching_factor = 5
seed = 0

[dataset]
count = 400000
amount_mu = 10.214608098422191
amount_sigma = 1.0
drift_sigma = 0.6
drift_tau_s = 14400.0

[strategy]
category = 2
a1 = 25469
a6 = 110
a7 = 6.94
a8 = 1.0

[optimizer]
algorithm = pso
n_pop = 50

[irrational]
rational_fraction = 1.0
overpaid_fraction = 0.0
underpaid_fraction = 0.0
over_multiplier_low = 1.5
over_multiplier_high = 3.0
under_multiplier_low = 0.1
under_multiplier_high = 0.7

"""


def test_print_defaults_text_is_pinned(capsys):
    # Sections, keys, order and values are the config file schema; a manifest's
    # config_digest hashes this text, so it must not drift.
    assert main(["--print-defaults"]) == 0
    assert capsys.readouterr().out == DEFAULTS_TEXT


def test_print_defaults_round_trips_through_config(tmp_path):
    proc = run_cli(["--print-defaults"])
    assert proc.returncode == 0
    cfg_path = tmp_path / "defaults.ini"
    cfg_path.write_text(proc.stdout)
    # Feeding the printed defaults back must be accepted verbatim.
    proc2 = run_cli(["proofsize", "--config", str(cfg_path), "--mode", "smooth"])
    assert proc2.returncode == 0


class TestExitCodes:
    def test_unknown_algo_is_config_error(self, tmp_path):
        proc = run_cli(["optimize", "--algo", "annealing", "--out", str(tmp_path)])
        assert proc.returncode == 2

    def test_zero_budget_is_config_error(self, tmp_path):
        proc = run_cli(["optimize", "--algo", "pso", "--category", "2", "--count", "500",
                        "--budget", "0", "--out", str(tmp_path / "o")])
        assert proc.returncode == 2

    @pytest.mark.parametrize("algo", ["pso", "de", "ga", "cmaes", "gbo"])
    @pytest.mark.parametrize("n_pop", ["0", "-3"])
    def test_nonpositive_population_is_config_error(self, tmp_path, capsys, algo, n_pop):
        out = tmp_path / "o"
        assert main(["optimize", "--algo", algo, "--n-pop", n_pop, "--budget", "12",
                     "--count", "3000", "--out", str(out)]) == 2
        assert capsys.readouterr().err == "config error: n_pop must be positive\n"
        assert not out.exists()

    def test_missing_dataset_is_data_error(self, tmp_path):
        proc = run_cli(["simulate", "--dataset", str(tmp_path / "nope.csv"),
                        "--out", str(tmp_path / "o")])
        assert proc.returncode == 3
        assert "data error" in proc.stderr

    def test_bad_category_attrs_config_error(self, tmp_path):
        proc = run_cli(["simulate", "--count", "100", "--category", "4",
                        "--a4", "1.5", "--out", str(tmp_path / "o")])
        assert proc.returncode == 2

    def test_low_branching_factor_rejected(self):
        proc = run_cli(["proofsize", "--k", "1"])
        assert proc.returncode == 2

    # vrp-check has no oracle: any oracle request is an unrecognized argument.
    def test_oversize_oracle_request_rejected(self, tmp_path):
        blocks = tmp_path / "blocks.csv"
        blocks.write_text("height,tx_count,occupied_nodes,incentive,seal_time\n")
        proc = run_cli(["vrp-check", "--blocks", str(blocks), "--oracle-max-n", "13"])
        assert proc.returncode == 2
        assert "unrecognized arguments: --oracle-max-n 13" in proc.stderr

    @pytest.mark.parametrize("flag", ["--oracle-max-n", "--oracle-blocks"])
    def test_the_oracle_flags_are_unrecognized(self, tmp_path, capsys, flag):
        blocks = tmp_path / "blocks.csv"
        blocks.write_text("height,tx_count,occupied_nodes,incentive,seal_time\n")
        for value in ("10", "0", "-5990"):
            with pytest.raises(SystemExit) as excinfo:
                main(["vrp-check", "--blocks", str(blocks), flag, value])
            assert excinfo.value.code == 2
            assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err

    @pytest.mark.parametrize("args", [
        ["volatility", "--in", "{tmp}/series.csv", "--window", "1", "--out", "{tmp}/rolling.csv"],
        ["volatility", "--in", "{tmp}/missing.csv", "--out", "{tmp}/rolling.csv"],
        ["proofsize", "--scenarios", "1"],
        ["proofsize", "--k", "1", "--out", "{tmp}/x.csv"],
        ["optimize", "--budget", "-3", "--count", "500", "--out", "{tmp}/o"],
    ])
    def test_out_of_range_value_is_one_line_config_error_before_any_output(
            self, tmp_path, capsys, args):
        (tmp_path / "series.csv").write_text("incentive\n5.0\n6.0\n7.0\n")
        assert main([a.format(tmp=tmp_path) for a in args]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert [p.name for p in tmp_path.iterdir()] == ["series.csv"]

    @pytest.mark.parametrize("args, code, phrases", [
        (["simulate", "--count", "500", "--category", "1", "--out", "{tmp}/o"], 2, ["a4", "a5"]),
        (["simulate", "--count", "500", "--a6", "5000", "--out", "{tmp}/o"], 2,
         ["exceeds leaf capacity"]),
        (["vrp-check", "--blocks", "{tmp}/blocks.csv"], 3, ["{tmp}/assignments.csv"]),
        (["volatility", "--in", "{tmp}/blocks.csv", "--column", "nope"], 3,
         ["{tmp}/blocks.csv", "nope"]),
    ])
    def test_rejected_input_is_one_stderr_line_before_any_output(
            self, tmp_path, capsys, args, code, phrases):
        (tmp_path / "blocks.csv").write_text(
            "height,tx_count,occupied_nodes,incentive,seal_time\n0,1,1,5.0,9\n")
        assert main([a.format(tmp=tmp_path) for a in args]) == code
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("config error: " if code == 2 else "data error: ")
        assert err.count("\n") == 1
        for phrase in phrases:
            assert phrase.format(tmp=tmp_path) in err
        assert [p.name for p in tmp_path.iterdir()] == ["blocks.csv"]

    def test_over_capacity_a6_is_reported_before_the_dataset_is_read(self, tmp_path, capsys):
        # The strategy is checked against the config first, so a dataset
        # that would fail its own checks (arrivals out of order) is never read.
        path = tmp_path / "stream.csv"
        path.write_text("id,amount,arrival_time_ms,fee\n1,100.0,9,0.2\n2,100.0,5,0.2\n")
        assert main(["simulate", "--dataset", str(path), "--a6", "5000",
                     "--out", str(tmp_path / "o")]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert "exceeds leaf capacity" in err
        assert [p.name for p in tmp_path.iterdir()] == ["stream.csv"]

    # A multiplier range that `inject_irrational` would clamp, or that numpy
    # would reject only after the stream is generated.
    @pytest.mark.parametrize("keys, named", [
        ("underpaid_fraction = 0.2\nunder_multiplier_low = -1.0\n",
         "under_multiplier_low (-1.0) and under_multiplier_high (0.7)"),
        ("overpaid_fraction = 0.2\nover_multiplier_low = 4.0\nover_multiplier_high = 2.0\n",
         "over_multiplier_low (4.0) and over_multiplier_high (2.0)"),
    ], ids=["negative-under-low", "over-low-above-high"])
    def test_a_bad_multiplier_range_is_reported_before_any_input_is_read(
            self, tmp_path, capsys, keys, named):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text("[irrational]\nrational_fraction = 0.8\n" + keys)
        path = tmp_path / "stream.csv"
        path.write_text("id,amount,arrival_time_ms,fee\n1,100.0,9,0.2\n2,100.0,5,0.2\n")
        for command, dataset in (("simulate", []), ("simulate", ["--dataset", str(path)]),
                                 ("optimize", ["--dataset", str(path)])):
            assert main([command, "--config", str(cfg), *dataset, "--count", "3000",
                         "--out", str(tmp_path / "o")]) == 2
            out, err = capsys.readouterr()
            assert out == "" and err.count("\n") == 1
            assert err.startswith(f"config error: {named} must satisfy 0 <= low <= high")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.ini", "stream.csv"]

    def test_nonpositive_jobs_rejected_before_any_work(self, tmp_path):
        out = tmp_path / "o"
        assert main(["optimize", "--grid", "--count", "1500", "--budget", "2", "--n-pop", "2",
                     "--jobs", "0", "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("flag, value", [("--algo", "de"), ("--category", "3")])
    def test_grid_rejects_the_cell_flags_it_would_ignore(self, tmp_path, capsys, flag, value):
        out = tmp_path / "o"
        assert main(["optimize", "--grid", flag, value, "--count", "1500", "--budget", "2",
                     "--n-pop", "2", "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"config error: --grid runs every algorithm and category; drop {flag}\n")
        assert not out.exists()

    @pytest.mark.parametrize("args", [["proofsize", "--k", "3", "--scenarios", "100"],
                                      ["simulate", "--count", "500"]])
    def test_unwritable_output_is_one_line_error(self, tmp_path, args):
        # proofsize writes to --out itself (here a directory); simulate
        # makes --out a directory (here a file).
        target = tmp_path / "taken"
        if args[0] == "proofsize":
            target.mkdir()
        else:
            target.write_text("")
        proc = run_cli([*args, "--out", str(target)])
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: cannot write output: ")
        assert proc.stderr.count("\n") == 1

    def test_repeated_transaction_id_is_data_error(self, tmp_path):
        path = tmp_path / "stream.csv"
        path.write_text("id,amount,arrival_time_ms,fee\n1,100.0,0,0.2\n7,100.0,5,0.2\n"
                        "7,300.0,9,0.6\n")
        proc = run_cli(["simulate", "--dataset", str(path), "--out", str(tmp_path / "o")])
        assert proc.returncode == 3
        assert proc.stderr == f"data error: {path}: transaction id 7 appears more than once in the dataset\n"

    @pytest.mark.parametrize("fee", ["nan", "inf", "-1"])
    def test_nonfinite_or_negative_fee_is_data_error(self, tmp_path, fee):
        path = tmp_path / "stream.csv"
        path.write_text(f"id,amount,arrival_time_ms,fee\n1,100.0,0,0.2\n2,100.0,5,{fee}\n")
        proc = run_cli(["simulate", "--dataset", str(path), "--a1", "2",
                        "--out", str(tmp_path / "o")])
        assert proc.returncode == 3
        assert proc.stderr.startswith("data error: ") and proc.stderr.count("\n") == 1
        assert "fee" in proc.stderr
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("args", [["simulate", "--a1", "10"],
                                      ["optimize", "--budget", "4", "--n-pop", "2"]])
    def test_fee_total_past_the_float_max_is_data_error(self, tmp_path, capsys, args):
        path = tmp_path / "stream.csv"
        path.write_text("id,amount,arrival_time_ms,fee\n" + "".join(
            f"{i},100.0,{10 * i},{'1e308' if i in (10, 20, 30) else '0.2'}\n"
            for i in range(50)))
        assert main([*args, "--dataset", str(path), "--out", str(tmp_path / "o")]) == 3
        assert capsys.readouterr().err == (
            f"data error: {path}: the fees sum past the largest float, 1.7976931348623157e+308\n")
        assert not (tmp_path / "o").exists()

    def test_negative_id_with_verkle_roots_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "stream.csv"
        path.write_text("id,amount,arrival_time_ms,fee\n1,100.0,0,0.2\n-6,100.0,5,0.3\n")
        args = ["simulate", "--dataset", str(path), "--a1", "2", "--out", str(tmp_path / "o")]
        assert main([*args, "--verkle-roots"]) == 3
        assert capsys.readouterr().err == (
            "data error: Verkle roots need non-negative transaction ids: "
            "transaction -6 at position 1 is negative\n")
        assert not (tmp_path / "o").exists()
        assert main(args) == 0

    def test_zero_incentive_block_is_data_error_before_any_output(
            self, tmp_path, capsys, zero_incentive_stream):
        path = tmp_path / "stream.csv"
        write_csv(zero_incentive_stream, path)
        assert main(["simulate", "--dataset", str(path), "--category", "2", "--a1", "50",
                     "--out", str(tmp_path / "o")]) == 3
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert err.startswith("data error: block 2 has incentive 0.0")
        assert [p.name for p in tmp_path.iterdir()] == ["stream.csv"]

    def test_nonpositive_incentive_is_data_error(self, tmp_path):
        path = tmp_path / "series.csv"
        path.write_text("incentive\n5.0\n0.0\n7.0\n")
        proc = run_cli(["volatility", "--in", str(path)])
        assert proc.returncode == 3
        assert f"{path}:3:" in proc.stderr

    @pytest.mark.parametrize("text, line", [("incentive\n5\n\n0\n7\n", 4),
                                            ("incentive\n5\n6\nnan\n7\n", 4),
                                            ("incentive\n5\n\n6\n-inf\n", 5)])
    def test_bad_incentive_names_its_file_line(self, tmp_path, capsys, text, line):
        path = tmp_path / "series.csv"
        path.write_text(text)
        assert main(["volatility", "--in", str(path)]) == 3
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"data error: {path}:{line}: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("flag", ["--block-target", "--budget-txs"])
    def test_removed_run_length_flags_are_usage_errors(self, tmp_path, flag):
        proc = run_cli(["simulate", "--count", "500", flag, "3", "--out", str(tmp_path / "o")])
        assert proc.returncode == 2 and "unrecognized arguments" in proc.stderr
        assert not (tmp_path / "o").exists()

    def test_removed_search_constant_is_unknown_config_key(self, tmp_path, capsys):
        config = tmp_path / "dtsim.ini"
        config.write_text("[optimizer]\nde_f = 0.7\n")
        out = tmp_path / "o"
        assert main(["optimize", "--config", str(config), "--count", "500", "--out", str(out)]) == 2
        assert capsys.readouterr().err == "config error: unknown config key 'de_f' in [optimizer]\n"
        assert not out.exists()

    def test_removed_max_gen_is_a_usage_error_and_an_unknown_config_key(self, tmp_path, capsys):
        # --budget is the one budget setting.
        out = tmp_path / "o"
        proc = run_cli(["optimize", "--max-gen", "5", "--count", "500", "--out", str(out)])
        assert proc.returncode == 2 and "unrecognized arguments: --max-gen" in proc.stderr
        config = tmp_path / "dtsim.ini"
        config.write_text("[optimizer]\nmax_gen = 5\n")
        assert main(["optimize", "--config", str(config), "--count", "500", "--out", str(out)]) == 2
        assert capsys.readouterr().err == "config error: unknown config key 'max_gen' in [optimizer]\n"
        assert not out.exists()

    @pytest.mark.parametrize("text, message", [
        ("seed = 3\n", "File contains no section headers. file: '{ini}', line: 1 'seed = 3\\n'"),
        ("[simulation]\nseed = 3\n[simulation]\nseed = 4\n",
         "While reading from '{ini}' [line 3]: section 'simulation' already exists"),
        ("[simulation]\nseed = 3\nseed = 4\n",
         "While reading from '{ini}' [line 3]: option 'seed' in section 'simulation' already exists"),
        ("[simulation]\ngarbage\n", "Source contains parsing errors: '{ini}' [line 2]: 'garbage\\n'"),
        # No interpolation: a '%' is a plain character of the value.
        ("[simulation]\nseed = 5%\n", "seed in [simulation] must be of type int, got '5%'"),
        # [DEFAULT] is no section of dtsim's, first or after another.
        ("[DEFAULT]\nseed = 3\n", "unknown config section [DEFAULT]"),
        ("[simulation]\n[DEFAULT]\nleaf_capacity = 50\n", "unknown config section [DEFAULT]"),
        # A UTF-8 byte-order mark, as spreadsheet and Windows editors write it.
        ("\ufeff[simulation]\nseed = 5%\n", "seed in [simulation] must be of type int, got '5%'"),
    ], ids=["no-header", "duplicate-section", "duplicate-key", "no-key-value", "percent",
            "default", "default-after-section", "byte-order-mark"])
    def test_malformed_config_is_one_line_config_error_before_any_output(
            self, tmp_path, capsys, text, message):
        config = tmp_path / "dtsim.ini"
        config.write_text(text, encoding="utf-8")
        assert main(["proofsize", "--config", str(config), "--out", str(tmp_path / "p.csv")]) == 2
        assert capsys.readouterr() == ("", f"config error: {message.format(ini=config)}\n")
        assert [p.name for p in tmp_path.iterdir()] == ["dtsim.ini"]

    def test_config_that_is_not_utf8_is_a_config_error_naming_the_file(self, tmp_path, capsys):
        config = tmp_path / "dtsim.ini"
        config.write_bytes("# r\xe9glages\n[simulation]\nseed = 3\n".encode("latin-1"))
        assert main(["proofsize", "--config", str(config), "--out", str(tmp_path / "p.csv")]) == 2
        assert capsys.readouterr() == ("", f"config error: cannot read {config}: 'utf-8' codec "
                                           "can't decode byte 0xe9 in position 3: invalid "
                                           "continuation byte\n")
        assert [p.name for p in tmp_path.iterdir()] == ["dtsim.ini"]

    # Paths of cli.py that no other test runs in process.
    BLOCKS_HEADER = "height,tx_count,occupied_nodes,incentive,seal_time\n"
    TWO_HEIGHTS = {"assignments.csv": "tx_id,block,fee,nodes\n1,0,1.0,100\n2,2,1.5,200\n3,2,2.5,200\n",
                   "blocks.csv": BLOCKS_HEADER + "0,1,100,1.0,0\n2,2,400,4.0,0\n"}

    @pytest.mark.parametrize("args, files, code, line", [
        (["proofsize", "--config", "{tmp}/absent.ini"], {}, 2,
         "config error: config file not found: {tmp}/absent.ini"),
        (["simulate", "--dataset", "{tmp}/stream.csv", "--out", "{tmp}/o"],
         {"stream.csv": "id,amount,arrival_time_ms,fee\n"}, 3,
         "data error: dataset {tmp}/stream.csv holds no transactions"),
        (["proofsize", "--scenarios", ","], {}, 2, "config error: no scenarios given"),
        (["vrp-check", "--blocks", "{tmp}/blocks.csv"],
         {"assignments.csv": "tx_id,block,fee,nodes\n", "blocks.csv": BLOCKS_HEADER}, 3,
         "data error: {tmp}/assignments.csv: no assignment rows"),
        # Deviations over the heights present, 0 and 2: |1.0 - 2| and |4.0 - 2|.
        (["vrp-check", "--blocks", "{tmp}/blocks.csv", "--target-incentive", "2"], TWO_HEIGHTS, 0,
         "target incentive 2.0: mean |deviation| 1.5, max |deviation| 2.0"),
        # The deviation of the incentive just checked, the fsum 0.6, not the
        # left-to-right sum 0.6000000000000001.
        (["vrp-check", "--blocks", "{tmp}/blocks.csv", "--target-incentive", "0"],
         {"assignments.csv": "tx_id,block,fee,nodes\n1,0,0.1,1\n2,0,0.2,1\n3,0,0.3,1\n",
          "blocks.csv": BLOCKS_HEADER + "0,3,3,0.6,0\n"}, 0,
         "target incentive 0.0: mean |deviation| 0.6, max |deviation| 0.6"),
        (["volatility", "--in", "{tmp}/series.csv"], {"series.csv": "incentive\n5.0\n6.0\n"}, 3,
         "data error: {tmp}/series.csv: 2 incentives; volatility needs at least 3"),
    ], ids=["config-not-found", "empty-dataset", "no-scenarios", "no-assignment-rows",
            "target-incentive", "target-incentive-fsum", "too-few-incentives"])
    def test_each_rarely_taken_path_prints_its_one_line(self, tmp_path, capsys, args, files, code,
                                                        line):
        for name, text in files.items():
            (tmp_path / name).write_text(text)
        assert main([a.format(tmp=tmp_path) for a in args]) == code
        out, err = capsys.readouterr()
        if code:
            assert (out, err) == ("", line.format(tmp=tmp_path) + "\n")
            assert sorted(p.name for p in tmp_path.iterdir()) == sorted(files)
        else:
            assert err == "" and out.splitlines()[-1] == line

    SIM = ["simulate", "--count", "3000", "--out", "{tmp}/o"]

    @pytest.mark.parametrize("args, files, message", [
        (SIM + ["--a7", "nan"], {}, "a7 must be finite"),
        (SIM + ["--a8", "nan"], {}, "a8 must be finite"),
        (SIM + ["--config", "{tmp}/dtsim.ini"], {"dtsim.ini": "[strategy]\na7 = nan\n"},
         "a7 must be finite"),
        (SIM + ["--config", "{tmp}/dtsim.ini"], {"dtsim.ini": "\ufeff[strategy]\na7 = nan\n"},
         "a7 must be finite"),
        (SIM + ["--category", "3", "--a4", "nan", "--a5", "5"], {}, "a4 must be finite"),
        (["vrp-check", "--blocks", "{tmp}/blocks.csv", "--target-incentive", "nan"], TWO_HEIGHTS,
         "--target-incentive must be finite, got nan"),
        (["proofsize", "--scenarios", "=5"], {}, "scenario '=5' has an empty name"),
        (["proofsize", "--scenarios", "a=5, b=x"], {}, "scenario 'b=x': n_t must be an integer"),
        (["proofsize", "--k", "3,,5, x"], {}, "--k entry 'x' is not an integer"),
        (["proofsize", "--k", "3, 2.5"], {}, "--k entry '2.5' is not an integer"),
        (["proofsize", "--k", " , ,"], {}, "--k lists no branching factor"),
        (["proofsize", "--k", "3, 1"], {}, "--k entry '1': a branching factor must be >= 2"),
        (["proofsize", "--scenarios", "a=5, b=1"], {}, "scenario 'b=1': n_t must be >= 2"),
    ], ids=["a7", "a8", "a7-config", "a7-marked-config", "a4", "target-incentive", "empty-name",
            "count", "k-text", "k-float", "k-blank", "k-below-2", "n_t-below-2"])
    def test_a_nonfinite_value_or_malformed_scenario_is_a_config_error(
            self, tmp_path, capsys, args, files, message):
        for name, text in files.items():
            (tmp_path / name).write_text(text, encoding="utf-8")
        assert main([a.format(tmp=tmp_path) for a in args]) == 2
        assert capsys.readouterr() == ("", f"config error: {message}\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(files)


class TestVolatilityCommand:
    def test_constant_column_is_below_range(self, tmp_path):
        path = tmp_path / "series.csv"
        path.write_text("incentive\n" + "8.25\n" * 40)
        proc = run_cli(["volatility", "--in", str(path)])
        assert proc.returncode == 0
        assert "volatility: 0.0" in proc.stdout
        assert "benchmark: below" in proc.stdout

    def test_rolling_output(self, tmp_path):
        path = tmp_path / "series.csv"
        path.write_text("incentive\n" + "\n".join(str(10 + (i % 5)) for i in range(50)) + "\n")
        out = tmp_path / "rolling.csv"
        proc = run_cli(["volatility", "--in", str(path), "--window", "10",
                        "--out", str(out)])
        assert proc.returncode == 0
        assert out.read_text().startswith("index,volatility\n")


class TestSimulateCommand:
    def test_small_synthetic_run(self, tmp_path):
        out = tmp_path / "run"
        proc = run_cli(["simulate", "--count", "8000", "--seed", "11", "--out", str(out)])
        assert proc.returncode == 0, proc.stderr
        assert (out / "blocks.csv").exists()
        assert (out / "assignments.csv").exists()
        assert (out / "summary.csv").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 11
        assert manifest["command"] == "simulate"
        assert manifest["config_digest"]

    def test_manifest_records_the_parsed_argv(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(sys, "argv", ["host", "--unrelated"])
        args = ["simulate", "--count", "1500", "--seed", "5", "--out", str(tmp_path / "a")]
        assert main(args) == 0
        assert json.loads((tmp_path / "a" / "manifest.json").read_text())["argv"] == args
        args[-1] = str(tmp_path / "b")
        monkeypatch.setattr(sys, "argv", ["dtsim", *args])
        assert main() == 0
        assert json.loads((tmp_path / "b" / "manifest.json").read_text())["argv"] == args

    def test_proofsize_beside_a_run_keeps_the_runs_manifest(self, tmp_path):
        run_dir = tmp_path / "run"
        assert main(["simulate", "--count", "3000", "--out", str(run_dir)]) == 0
        proof = run_dir / "proof.csv"
        assert main(["proofsize", "--k", "3", "--scenarios", "100", "--out", str(proof)]) == 0
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["command"] == "simulate"
        assert str(run_dir / "blocks.csv") in manifest["outputs"]
        beside = json.loads((run_dir / "proof.manifest.json").read_text())
        assert (beside["command"], beside["outputs"]) == ("proofsize", [str(proof)])

    def test_verkle_roots_are_written_and_leave_blocks_bytes_alone(self, tmp_path, capsys):
        plain, rooted = tmp_path / "plain", tmp_path / "rooted"
        args = ["simulate", "--count", "3000", "--seed", "6", "--force-seal", "--out"]
        assert main([*args, str(plain)]) == 0
        assert main([*args, str(rooted), "--verkle-roots"]) == 0
        assert (plain / "blocks.csv").read_bytes() == (rooted / "blocks.csv").read_bytes()
        assert not (plain / "roots.csv").exists()
        assert str(rooted / "roots.csv") in json.loads(
            (rooted / "manifest.json").read_text())["outputs"]
        attrs = dict(REFERENCE_STRATEGY)
        strategy = strategy_from_category(attrs.pop("category"), **attrs)
        result = run(generate(DatasetSpec(count=3000, rng_seed=6)), strategy,
                     SimulationConfig(rng_seed=6), force_seal=True, build_trees=True)
        assert (rooted / "roots.csv").read_text().splitlines() == ["height,verkle_root", *(
            f"{b.height},{b.verkle_root.hex()}" for b in result.blocks)]

    def test_seed_repeat_reproduces_blocks_bytes(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            proc = run_cli(["simulate", "--count", "6000", "--seed", "4", "--out", str(out)])
            assert proc.returncode == 0, proc.stderr
        assert (out1 / "blocks.csv").read_bytes() == (out2 / "blocks.csv").read_bytes()

    def test_env_seed_used_as_default(self, tmp_path):
        out = tmp_path / "env"
        proc = run_cli(["simulate", "--count", "2000", "--out", str(out)],
                       env_extra={"DTSIM_SEED": "123"})
        assert proc.returncode == 0, proc.stderr
        assert json.loads((out / "manifest.json").read_text())["seed"] == 123

    def test_flag_beats_config_beats_default(self, tmp_path):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text("[simulation]\nseed = 50\n\n[strategy]\na6 = 40\n")
        out1 = tmp_path / "c1"
        proc = run_cli(["simulate", "--config", str(cfg), "--count", "2000", "--out", str(out1)])
        assert proc.returncode == 0, proc.stderr
        m1 = json.loads((out1 / "manifest.json").read_text())
        assert m1["seed"] == 50
        assert m1["strategy"]["a6"] == 40
        out2 = tmp_path / "c2"
        proc = run_cli(["simulate", "--config", str(cfg), "--count", "2000",
                        "--seed", "60", "--a6", "77", "--out", str(out2)])
        assert proc.returncode == 0, proc.stderr
        m2 = json.loads((out2 / "manifest.json").read_text())
        assert m2["seed"] == 60
        assert m2["strategy"]["a6"] == 77

    @pytest.mark.parametrize("env, file_seed, flag_seed, seed", [
        (None, None, None, 0),
        ("123", None, None, 123),
        ("123", 50, None, 50),
        ("123", None, 60, 60),
        (None, 50, 60, 60),
    ], ids=["default", "env", "file-over-env", "flag-over-env", "flag-over-file"])
    def test_seed_is_flag_over_file_over_env_over_default(
            self, tmp_path, monkeypatch, capsys, env, file_seed, flag_seed, seed):
        monkeypatch.delenv("DTSIM_SEED", raising=False)
        if env is not None:
            monkeypatch.setenv("DTSIM_SEED", env)
        args = ["proofsize", "--k", "3", "--scenarios", "100", "--out", str(tmp_path / "p.csv")]
        if file_seed is not None:
            (tmp_path / "cfg.ini").write_text(f"[simulation]\nseed = {file_seed}\n")
            args += ["--config", str(tmp_path / "cfg.ini")]
        if flag_seed is not None:
            args += ["--seed", str(flag_seed)]
        assert main(args) == 0
        manifest = json.loads((tmp_path / "p.manifest.json").read_text())
        assert manifest["seed"] == seed
        if (env, file_seed, flag_seed) == (None, None, None):
            capsys.readouterr()
            assert main(["--print-defaults"]) == 0
            defaults = capsys.readouterr().out
            assert manifest["config_digest"] == hashlib.sha256(defaults.encode()).hexdigest()

    def test_a_manifests_config_text_repeats_its_run(self, tmp_path, monkeypatch):
        monkeypatch.delenv("DTSIM_SEED", raising=False)
        flags = ["--seed", "11", "--a1", "500", "--category", "4"]
        assert main(["simulate", "--count", "3000", *flags, "--out", str(tmp_path / "a")]) == 0
        first = json.loads((tmp_path / "a" / "manifest.json").read_text())
        (tmp_path / "a.ini").write_text(first["config_text"])
        assert main(["simulate", "--config", str(tmp_path / "a.ini"),
                     "--out", str(tmp_path / "b")]) == 0
        for name in ("blocks.csv", "assignments.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        replay = json.loads((tmp_path / "b" / "manifest.json").read_text())
        assert (replay["config_text"], replay["config_digest"]) == (
            first["config_text"], first["config_digest"])
        assert main(["simulate", "--count", "4000", *flags, "--out", str(tmp_path / "c")]) == 0
        other = json.loads((tmp_path / "c" / "manifest.json").read_text())
        assert other["config_digest"] != first["config_digest"]

    def test_a_manifest_names_its_dataset_by_the_sha256_of_its_bytes(self, tmp_path):
        # Two input files under one configuration: the config digest is the
        # same, and only dataset_sha256 tells the runs apart.
        manifests = {}
        flags = {"simulate": [], "optimize": ["--budget", "2", "--n-pop", "2"]}
        for seed in (1, 2):
            path = tmp_path / f"stream{seed}.csv"
            write_csv(generate(DatasetSpec(count=1500, rng_seed=seed)), path)
            for command in flags:
                out = tmp_path / f"{command}{seed}"
                assert main([command, "--dataset", str(path), *flags[command],
                             "--out", str(out)]) == 0
                manifest = json.loads((out / "manifest.json").read_text())
                assert manifest["dataset_sha256"] == hashlib.sha256(path.read_bytes()).hexdigest()
                manifests[command, seed] = manifest
        for command in flags:
            one, two = manifests[command, 1], manifests[command, 2]
            assert one["config_digest"] == two["config_digest"]
            assert one["dataset_sha256"] != two["dataset_sha256"]
        assert main(["simulate", "--count", "1500", "--out", str(tmp_path / "generated")]) == 0
        generated = json.loads((tmp_path / "generated" / "manifest.json").read_text())
        assert generated["dataset_sha256"] is None


class TestOptimizeCommand:
    def test_single_cell_writes_trace_and_derived_params(self, tmp_path):
        out = tmp_path / "opt"
        proc = run_cli(["optimize", "--algo", "pso", "--category", "2", "--count", "2500",
                        "--budget", "24", "--n-pop", "8", "--seed", "3", "--out", str(out)])
        assert proc.returncode == 0, proc.stderr
        assert "(w, c1, c2) = (0.73, 1.50, 1.50)" in proc.stdout
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["pso_derived"]["w"] == pytest.approx(0.7298, abs=1e-3)
        assert (out / "trace_pso_cat2.csv").exists()
        assert (out / "result.csv").exists()

    def test_manifest_records_evaluations_and_simulations_per_cell(self, tmp_path):
        # GA re-evaluates its elite in every later generation: no simulation
        # is run for those repeats, but each counts as an evaluation.
        out = tmp_path / "opt"
        proc = run_cli(["optimize", "--algo", "ga", "--category", "2", "--count", "2500",
                        "--budget", "24", "--n-pop", "8", "--seed", "3", "--out", str(out)])
        assert proc.returncode == 0, proc.stderr
        (cell,) = json.loads((out / "manifest.json").read_text())["cells"]
        assert (cell["algorithm"], cell["category"], cell["evaluations"]) == ("ga", 2, 24)
        assert 1 <= cell["simulations"] <= 24 - 2

    def test_grid_keeps_a_config_files_algorithm_and_category_as_defaults(self, tmp_path):
        config = tmp_path / "dtsim.ini"
        config.write_text("[optimizer]\nalgorithm = de\n[strategy]\ncategory = 3\n")
        out = tmp_path / "o"
        assert main(["optimize", "--grid", "--config", str(config), "--count", "1500",
                     "--budget", "2", "--n-pop", "2", "--out", str(out)]) == 0
        cells = json.loads((out / "manifest.json").read_text())["cells"]
        assert len(cells) == 20 and {c["category"] for c in cells} == {1, 2, 3, 4}

    def test_default_budget_is_100_populations(self, tmp_path):
        out = tmp_path / "opt"
        assert main(["optimize", "--category", "2", "--count", "1500", "--n-pop", "3",
                     "--seed", "1", "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["budget"] == 300
        assert [cell["evaluations"] for cell in manifest["cells"]] == [300]


class TestLibraryDefaults:
    """A command without flags or config runs the library's own defaults."""

    def test_simulate_matches_library_run(self, tmp_path):
        assert main(["simulate", "--count", "6000", "--seed", "4",
                     "--out", str(tmp_path / "cli")]) == 0
        attrs = dict(REFERENCE_STRATEGY)
        strategy = strategy_from_category(attrs.pop("category"), **attrs)
        result = run(generate(DatasetSpec(count=6000, rng_seed=4)), strategy,
                     SimulationConfig(rng_seed=4))
        write_blocks_csv(result.blocks, tmp_path / "lib.csv")
        assert (tmp_path / "cli" / "blocks.csv").read_bytes() == (tmp_path / "lib.csv").read_bytes()

    def test_optimize_matches_library_run(self, tmp_path):
        assert main(["optimize", "--algo", "pso", "--category", "2", "--count", "2500",
                     "--budget", "24", "--n-pop", "8", "--seed", "3",
                     "--out", str(tmp_path / "cli")]) == 0
        stream = generate(DatasetSpec(count=2500, rng_seed=3))
        cat, cfg = category(2), SimulationConfig(rng_seed=3)
        space = SearchSpace(category=cat)

        def objective(attrs):
            return evaluate([attrs[n] for n in space.names], cat, stream, cfg)

        result = run_optimizer("pso", space, objective,
                               OptimizerConfig(n_pop=8, n_eval=24, rng_seed=3))
        write_grid_csv(grid_rows([result]), tmp_path / "lib.csv")
        assert (tmp_path / "cli" / "result.csv").read_bytes() == (tmp_path / "lib.csv").read_bytes()


class TestVrpCheckCommand:
    def test_clean_run_passes_and_tampering_is_reported(self, tmp_path):
        out = tmp_path / "run"
        proc = run_cli(["simulate", "--count", "6000", "--seed", "2", "--out", str(out)])
        assert proc.returncode == 0, proc.stderr
        check = run_cli(["vrp-check", "--blocks", str(out / "blocks.csv")])
        assert check.returncode == 0, check.stderr
        assert check.stdout.endswith("violations (0): none\n")

        # Duplicate an assignment row: the duplicate must be listed.
        assignments = out / "assignments.csv"
        lines = assignments.read_text().splitlines()
        lines.append(lines[1])
        tampered = tmp_path / "tampered.csv"
        tampered.write_text("\n".join(lines) + "\n")
        check2 = run_cli(["vrp-check", "--blocks", str(out / "blocks.csv"),
                          "--assignments", str(tampered)])
        assert "assigned more than once" in check2.stdout
        assert check2.returncode == 1

    @pytest.fixture(scope="class")
    def run_dir(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("vrp") / "run"
        assert main(["simulate", "--count", "6000", "--seed", "2", "--out", str(out)]) == 0
        return out

    @pytest.mark.parametrize("field, edit", [
        (3, lambda v: repr(math.nextafter(float(v), math.inf))),  # incentive, one ulp up
        (2, lambda v: str(int(v) + 1)),  # occupied_nodes
        (1, lambda v: str(int(v) - 1)),  # tx_count
    ])
    def test_blocks_row_that_disagrees_with_assignments_is_a_violation(
            self, run_dir, tmp_path, capsys, field, edit):
        lines = (run_dir / "blocks.csv").read_text().splitlines()
        cells = lines[1].split(",")
        cells[field] = edit(cells[field])
        lines[1] = ",".join(cells)
        blocks = tmp_path / "blocks.csv"
        blocks.write_text("\n".join(lines) + "\n")
        assert main(["vrp-check", "--blocks", str(blocks),
                     "--assignments", str(run_dir / "assignments.csv")]) == 1
        out = capsys.readouterr().out
        assert "violations (1):" in out
        assert f"block 0: (tx_count, occupied_nodes, incentive) is (" in out

    # The whole report and exit code, recorded while the reader returned lists.
    PINNED_REPORTS = {
        "clean": (0, "transactions: 5665, blocks: 9, capacity: 2100\nviolations (0): none\n"),
        "duplicated-row": (1, (
            "transactions: 5665, blocks: 9, capacity: 2100\nviolations (3):\n"
            "  transaction 0 assigned more than once: packed 2 times\n"
            "  block 0 demand 2101 exceeds capacity 2100\n"
            "  block 0: (tx_count, occupied_nodes, incentive) is (911, 2100, 69432.22523601081) "
            "in {blocks}, (912, 2101, 69465.55360192692) by its assignments\n")),
        "one-ulp-incentive": (1, (
            "transactions: 5665, blocks: 9, capacity: 2100\nviolations (1):\n"
            "  block 0: (tx_count, occupied_nodes, incentive) is (911, 2100, 69432.22523601083) "
            "in {blocks}, (911, 2100, 69432.22523601081) by its assignments\n")),
        "overfull-0": (1, "transactions: 1, blocks: 1, capacity: 2100\nviolations (1):\n"
                          "  block 0 demand 2200 exceeds capacity 2100\n"),
        "overfull-1": (1, "transactions: 2, blocks: 1, capacity: 2100\nviolations (1):\n"
                          "  block 0 demand 3000 exceeds capacity 2100\n"),
    }
    # One transaction above the capacity, and two that fit only apart.
    OVERFULL = [("1,0,1.0,2200\n", "0,1,2200,1.0,0\n"),
                ("1,0,1.0,1500\n2,0,2.0,1500\n", "0,2,3000,3.0,0\n")]

    @pytest.mark.parametrize("case", PINNED_REPORTS)
    def test_report_and_exit_code_are_pinned(self, run_dir, tmp_path, capsys, case):
        blocks, assignments = run_dir / "blocks.csv", run_dir / "assignments.csv"
        if case == "duplicated-row":
            lines = assignments.read_text().splitlines()
            assignments = tmp_path / "assignments.csv"
            assignments.write_text("\n".join([*lines, lines[1]]) + "\n")
        elif case == "one-ulp-incentive":
            lines = blocks.read_text().splitlines()
            cells = lines[1].split(",")
            cells[3] = repr(math.nextafter(float(cells[3]), math.inf))
            blocks = tmp_path / "blocks.csv"
            blocks.write_text("\n".join([lines[0], ",".join(cells), *lines[2:]]) + "\n")
        elif case.startswith("overfull"):
            rows, block = self.OVERFULL[int(case[-1])]
            blocks, assignments = tmp_path / "blocks.csv", tmp_path / "assignments.csv"
            assignments.write_text("tx_id,block,fee,nodes\n" + rows)
            blocks.write_text("height,tx_count,occupied_nodes,incentive,seal_time\n" + block)
        code, report = self.PINNED_REPORTS[case]
        assert main(["vrp-check", "--blocks", str(blocks), "--assignments", str(assignments)]) == code
        assert capsys.readouterr().out == report.format(blocks=blocks)

    @pytest.mark.parametrize("rows, block", OVERFULL)
    def test_overfull_block_is_a_violation(self, tmp_path, capsys, rows, block):
        (tmp_path / "assignments.csv").write_text("tx_id,block,fee,nodes\n" + rows)
        blocks = tmp_path / "blocks.csv"
        blocks.write_text("height,tx_count,occupied_nodes,incentive,seal_time\n" + block)
        assert main(["vrp-check", "--blocks", str(blocks)]) == 1
        out, err = capsys.readouterr()
        demand = block.split(",")[2]
        assert f"violations (1):\n  block 0 demand {demand} exceeds capacity 2100\n" in out
        assert err == ""

    def test_an_overfull_block_is_named_by_its_height(self, tmp_path, capsys):
        (tmp_path / "assignments.csv").write_text(
            "tx_id,block,fee,nodes\n1,0,1.0,100\n2,2,1.0,1500\n3,2,2.0,1500\n")
        blocks = tmp_path / "blocks.csv"
        blocks.write_text("height,tx_count,occupied_nodes,incentive,seal_time\n"
                          "0,1,100,1.0,0\n2,2,3000,3.0,0\n")
        assert main(["vrp-check", "--blocks", str(blocks)]) == 1
        assert capsys.readouterr() == ("transactions: 3, blocks: 2, capacity: 2100\n"
                                       "violations (1):\n  block 2 demand 3000 exceeds capacity 2100\n",
                                       "")

    # Every transaction occupies at least 1 slot, so a row below that could
    # hide an over-capacity row in a block whose total fits.
    @pytest.mark.parametrize("rows, block, demand", [
        ("1,0,1.0,3000\n2,0,2.0,-1000\n", "0,2,2000,3.0,5\n", -1000),
        ("1,0,1.0,2100\n2,0,2.0,0\n", "0,2,2100,3.0,5\n", 0),
    ], ids=["negative", "zero"])
    def test_a_row_below_one_slot_is_a_violation(self, tmp_path, capsys, rows, block, demand):
        (tmp_path / "assignments.csv").write_text("tx_id,block,fee,nodes\n" + rows)
        blocks = tmp_path / "blocks.csv"
        blocks.write_text("height,tx_count,occupied_nodes,incentive,seal_time\n" + block)
        assert main(["vrp-check", "--blocks", str(blocks)]) == 1
        assert capsys.readouterr() == ("transactions: 2, blocks: 1, capacity: 2100\n"
                                       "violations (1):\n"
                                       f"  transaction 2 demand {demand} is below 1 slot\n", "")

    @pytest.mark.parametrize("fee", ["nan", "inf", "-1.0"])
    def test_a_negative_or_nonfinite_fee_is_a_data_error(self, tmp_path, capsys, fee):
        assignments = tmp_path / "assignments.csv"
        assignments.write_text(f"tx_id,block,fee,nodes\n1,0,1.0,100\n2,0,{fee},100\n")
        blocks = tmp_path / "blocks.csv"
        blocks.write_text("height,tx_count,occupied_nodes,incentive,seal_time\n0,2,200,nan,5\n")
        assert main(["vrp-check", "--blocks", str(blocks)]) == 3
        assert capsys.readouterr() == ("", f"data error: {assignments}: transaction 2 has fee "
                                           f"{float(fee)!r}; it must be finite and >= 0\n")

    # A run's K blocks hold at least K rows, so each height is below the row count.
    @pytest.mark.parametrize("height", [-1, 2, 2**62])
    def test_a_height_outside_the_row_count_is_a_data_error(self, tmp_path, capsys, height):
        assignments = tmp_path / "assignments.csv"
        assignments.write_text(f"tx_id,block,fee,nodes\n1,0,1.0,100\n2,{height},1.0,100\n")
        blocks = tmp_path / "blocks.csv"
        blocks.write_text("height,tx_count,occupied_nodes,incentive,seal_time\n"
                          f"0,1,100,1.0,0\n{height},1,100,1.0,0\n")
        assert main(["vrp-check", "--blocks", str(blocks)]) == 3
        assert capsys.readouterr() == ("", f"data error: {assignments}: block {height} is not a "
                                           "height below the row count, 2\n")

    @pytest.mark.parametrize("content", [None, b"garbage\n", b"\xff\xfe\x00\x01garbage"])
    def test_missing_or_unreadable_blocks_file_is_data_error(
            self, run_dir, tmp_path, capsys, content):
        blocks = tmp_path / "blocks.csv"
        if content is not None:
            blocks.write_bytes(content)
        assert main(["vrp-check", "--blocks", str(blocks),
                     "--assignments", str(run_dir / "assignments.csv")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and str(blocks) in err
        assert err.count("\n") == 1


def test_main_entry_returns_help_without_command():
    assert main([]) == 2


class TestSpecExamples:
    def test_default_strategy_lands_within_historical_range(self, tmp_path):
        # Default strategy flags are the best published attribute set; on the
        # bundled synthetic generator the run must classify as "within".
        out = tmp_path / "run"
        proc = run_cli(["simulate", "--count", "30000", "--seed", "42", "--out", str(out)])
        assert proc.returncode == 0, proc.stderr
        assert "benchmark: within" in proc.stdout

    def test_proofsize_defaults_include_published_cell(self):
        proc = run_cli(["proofsize", "--mode", "smooth"])
        assert proc.returncode == 0
        assert "k=10" in proc.stdout and "106.31" in proc.stdout

    def test_proofsize_integration_numbers(self):
        proc = run_cli(["proofsize", "--scenarios", "540000", "--k", "1024",
                        "--mode", "smooth"])
        assert proc.returncode == 0
        assert "60.94" in proc.stdout
        assert "merkle 19 levels = 608 bytes" in proc.stdout

    def test_volatility_on_golden_fixture(self):
        golden = Path(__file__).parent / "data" / "golden_blocks_reference_seed42.csv"
        proc = run_cli(["volatility", "--in", str(golden)])
        assert proc.returncode == 0
        assert "volatility: 0.07730597612164632" in proc.stdout
        assert "benchmark: within" in proc.stdout


def test_vrp_check_target_incentive_report(tmp_path):
    out = tmp_path / "run"
    proc = run_cli(["simulate", "--count", "6000", "--seed", "2", "--out", str(out)])
    assert proc.returncode == 0, proc.stderr
    check = run_cli(["vrp-check", "--blocks", str(out / "blocks.csv"),
                     "--target-incentive", "50000"])
    assert check.returncode == 0, check.stderr
    assert "target incentive 50000.0" in check.stdout
    assert "mean |deviation|" in check.stdout


def test_irrational_mix_config_path(tmp_path):
    cfg = tmp_path / "cfg.ini"
    cfg.write_text("[irrational]\nrational_fraction = 0.7\n"
                   "overpaid_fraction = 0.15\nunderpaid_fraction = 0.15\n")
    out_mixed = tmp_path / "mixed"
    out_plain = tmp_path / "plain"
    for out, extra in ((out_mixed, ["--config", str(cfg)]), (out_plain, [])):
        proc = run_cli(["simulate", *extra, "--count", "6000", "--seed", "6",
                        "--out", str(out)])
        assert proc.returncode == 0, proc.stderr
    mixed = (out_mixed / "blocks.csv").read_bytes()
    plain = (out_plain / "blocks.csv").read_bytes()
    assert mixed != plain  # the perturbation must actually change the run


def test_irrational_keys_pin_the_config_to_mix_path(tmp_path):
    # Every [irrational] key off its default; the digests were recorded before
    # IrrationalMix took the config keys as its fields, and must not move.
    cfg = tmp_path / "cfg.ini"
    cfg.write_text("[irrational]\nrational_fraction = 0.6\noverpaid_fraction = 0.25\n"
                   "underpaid_fraction = 0.15\nover_multiplier_low = 2.0\n"
                   "over_multiplier_high = 4.0\nunder_multiplier_low = 0.2\n"
                   "under_multiplier_high = 0.5\n")
    out = tmp_path / "o"
    assert main(["simulate", "--config", str(cfg), "--count", "20000", "--seed", "3",
                 "--category", "3", "--a4", "1.5", "--a5", "20", "--out", str(out)]) == 0
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
               for name in ("blocks.csv", "assignments.csv", "summary.csv")}
    assert digests == {
        "blocks.csv": "abe76e37869b163422ff5c12684d69c79b508308adc76e5aa43928727d4c3f65",
        "assignments.csv": "787aed27d577e6187c267604c24401a6a5e24564a529e7efd499973ef47c6ca6",
        "summary.csv": "dfa3c7b96752fa6c264ddf45d1b2c5d9facd5607d86e0842485ae1032d5a8b53",
    }
