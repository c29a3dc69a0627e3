"""Every dtsim name the benchmark under perfbench/ uses must still exist, and
every keyword it passes to one must still be a parameter of it.

perfbench's own tests run in this suite too, but they do not drive every
call the runner makes, so a cut to the library's surface could still break
the benchmark silently. The files are read and parsed, never imported. A
keyword passed by `**` expansion counts when the expanded value is a name
bound to a dict literal, or an attribute whose name some call in the file
passes as a keyword with a dict literal (`**w.stream` takes the keys of every
`stream={...}`).

The names alone do not guard what the benchmark does with a run's result or a
search's, so one small run's assignment rows and one small search's result
are used here the way perfbench uses them.
"""

import ast
import importlib
import inspect
from itertools import groupby
from pathlib import Path

from dtsim.core import SimulationConfig, category, strategy_from_category
from dtsim.ingest import DatasetSpec, generate
from dtsim.optimize import OptimizerConfig, SearchSpace, evaluate, run_optimizer
from dtsim.simulator import run, write_assignments_csv

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _dtsim_uses(path):
    """What `path` takes from dtsim: (module, name) pairs, each name of a
    `from dtsim... import` and each attribute read off an imported dtsim
    module; and (module, name, keyword) triples, each keyword of a call to
    such a name, explicit or from a `**` expansion that resolves to dict
    literals."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    modules = {}  # local name -> dotted dtsim module
    names = {}  # local name -> (dotted dtsim module, name in it)
    uses = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "dtsim":
            for alias in node.names:
                uses.append((node.module, alias.name))
                if _is_module(f"{node.module}.{alias.name}"):
                    modules[alias.asname or alias.name] = f"{node.module}.{alias.name}"
                else:
                    names[alias.asname or alias.name] = (node.module, alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "dtsim":
                    local = alias.asname or alias.name.split(".")[0]
                    modules[local] = alias.name if alias.asname else "dtsim"
    bound = {}  # name -> keys of the dict literal assigned to it
    passed = {}  # keyword -> keys of the dict literals passed as it
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Dict):
            bound.update((t.id, _keys(node.value)) for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.Call):
            for kw in node.keywords:
                if kw.arg is not None and isinstance(kw.value, ast.Dict):
                    passed.setdefault(kw.arg, []).extend(_keys(kw.value))
    keywords = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            uses.append((modules[node.value.id], node.attr))
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id in names:
                callee = names[func.id]
            elif (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)
                    and func.value.id in modules):
                callee = (modules[func.value.id], func.attr)
            else:
                continue
            for kw in node.keywords:
                if kw.arg is not None:
                    keywords.append((*callee, kw.arg))
                elif isinstance(kw.value, ast.Name):
                    keywords.extend((*callee, key) for key in bound.get(kw.value.id, ()))
                elif isinstance(kw.value, ast.Attribute):
                    keywords.extend((*callee, key) for key in passed.get(kw.value.attr, ()))
    return uses, keywords


def _keys(node):
    """The string keys of the dict literal `node`."""
    return [k.value for k in node.keys if isinstance(k, ast.Constant) and isinstance(k.value, str)]


def _is_module(dotted):
    try:
        importlib.import_module(dotted)
    except ModuleNotFoundError:
        return False
    return True


def _benchmark_uses():
    return [(path.name, _dtsim_uses(path)) for path in sorted(PERFBENCH.glob("*.py"))]


def test_every_dtsim_name_the_benchmark_uses_resolves():
    uses = {(name, module, attr) for name, (found, _) in _benchmark_uses()
            for module, attr in found}
    # The walk must see the imports it guards, including attribute reads.
    assert ("harness.py", "dtsim.verkle", "build_tree") in uses
    assert ("run.py", "dtsim.optimize", "evaluate") in uses
    missing = sorted((f, m, n) for f, m, n in uses
                     if not hasattr(importlib.import_module(m), n) and not _is_module(f"{m}.{n}"))
    assert missing == []


def test_every_keyword_the_benchmark_passes_to_dtsim_is_a_parameter():
    calls = {(name, *call) for name, (_, keywords) in _benchmark_uses() for call in keywords}
    # The walk must see the keyword arguments it guards.
    assert ("run.py", "dtsim.core", "SimulationConfig", "rng_seed") in calls
    assert ("run.py", "dtsim.optimize", "OptimizerConfig", "n_eval") in calls
    assert ("run.py", "dtsim.simulator", "run", "build_trees") in calls
    # ... and those of `**REFERENCE_ATTRS`, `**w.small_fee` and `**w.stream`.
    assert {("run.py", "dtsim.core", "strategy_from_category", a)
            for a in ("a1", "a4", "a5", "a6", "a7", "a8")} <= calls
    assert ("run.py", "dtsim.ingest", "DatasetSpec", "drift_sigma") in calls
    unknown = []
    for f, module, name, keyword in sorted(calls):
        params = inspect.signature(getattr(importlib.import_module(module), name)).parameters
        if keyword not in params and not any(p.kind is p.VAR_KEYWORD for p in params.values()):
            unknown.append((f, module, name, keyword))
    assert unknown == []


def test_a_run_result_serves_the_benchmark_uses_of_its_assignments(tmp_path):
    strategy = strategy_from_category(2, a1=200, a6=110, a7=6.94, a8=1.0)
    result = run(generate(DatasetSpec(count=2_000, rng_seed=2024)), strategy, SimulationConfig())
    assert len(result.blocks) >= 3
    assignments = result.assignments
    # A sized view; test_perfbench.py sums over the rows, and harness.py
    # takes one group of rows per block.
    assert len(assignments) == result.included_count
    assert sum(nodes for *_, nodes in assignments) == sum(b.occupied_nodes for b in result.blocks)
    grouped = [(height, [tx_id for tx_id, *_ in rows])
               for height, rows in groupby(assignments, key=lambda row: row[1])]
    assert grouped == [(b.height, list(b.tx_ids)) for b in result.blocks]
    # run.py: the assignments CSV.
    path = tmp_path / "assignments.csv"
    assert write_assignments_csv(assignments, path) == result.included_count
    assert path.read_text().count("\n") == result.included_count + 1


def test_a_search_result_serves_the_benchmark_uses_of_it():
    # run.py sizes its search with max_gen next to n_eval.
    assert OptimizerConfig(n_pop=10, max_gen=10).budget == 100
    cat, cfg = category(1), SimulationConfig()
    stream = generate(DatasetSpec(count=2_000, rng_seed=2024))
    space = SearchSpace(category=cat)
    names = space.names
    config = OptimizerConfig(algorithm="ga", n_pop=4, max_gen=2, n_eval=8, rng_seed=2024)
    opt = run_optimizer("ga", space, lambda attrs: evaluate([attrs[n] for n in names], cat, stream, cfg),
                        config)
    # optimize_once and check_optimization: the trace and evaluation counts,
    # and the best candidate re-evaluated and rebuilt as a strategy.
    assert (len(opt.trace), opt.evaluations) == (2, 8)
    again = evaluate([opt.best_attrs[n] for n in names], cat, stream, cfg)
    assert again == opt.best_volatility == opt.trace[-1] < float("inf")
    assert strategy_from_category(cat, **opt.best_attrs).small_fee_count == opt.best_attrs["a5"]
