"""Every dtsim name the benchmark under perfbench/ uses must still exist, and
every keyword it passes to one must still be a parameter of it.

perfbench's own tests run in this suite too, but they do not drive every
call the runner makes, so a cut to the library's surface could still break
the benchmark silently. The files are read and parsed, never imported.
"""

import ast
import importlib
import inspect
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _dtsim_uses(path):
    """What `path` takes from dtsim: (module, name) pairs, each name of a
    `from dtsim... import` and each attribute read off an imported dtsim
    module; and (module, name, keyword) triples, each explicit keyword of a
    call to such a name."""
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
            keywords.extend((*callee, kw.arg) for kw in node.keywords if kw.arg is not None)
    return uses, keywords


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
    unknown = []
    for f, module, name, keyword in sorted(calls):
        params = inspect.signature(getattr(importlib.import_module(module), name)).parameters
        if keyword not in params and not any(p.kind is p.VAR_KEYWORD for p in params.values()):
            unknown.append((f, module, name, keyword))
    assert unknown == []
