"""Every dtsim name the benchmark under perfbench/ uses must still exist.

The benchmark is not part of this suite, so a cut to the library's surface
could break it silently. The files are read and parsed, never imported.
"""

import ast
import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _dtsim_uses(path):
    """(module, name) pairs `path` takes from dtsim: each name of a
    `from dtsim... import`, and each attribute read off an imported dtsim module."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    modules = {}  # local name -> dotted dtsim module
    uses = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "dtsim":
            for alias in node.names:
                uses.append((node.module, alias.name))
                if _is_module(f"{node.module}.{alias.name}"):
                    modules[alias.asname or alias.name] = f"{node.module}.{alias.name}"
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "dtsim":
                    local = alias.asname or alias.name.split(".")[0]
                    modules[local] = alias.name if alias.asname else "dtsim"
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            uses.append((modules[node.value.id], node.attr))
    return uses


def _is_module(dotted):
    try:
        importlib.import_module(dotted)
    except ModuleNotFoundError:
        return False
    return True


def test_every_dtsim_name_the_benchmark_uses_resolves():
    uses = {(path.name, module, name)
            for path in sorted(PERFBENCH.glob("*.py")) for module, name in _dtsim_uses(path)}
    # The walk must see the imports it guards, including attribute reads.
    assert ("harness.py", "dtsim.verkle", "build_tree") in uses
    assert ("run.py", "dtsim.optimize", "evaluate") in uses
    missing = sorted((f, m, n) for f, m, n in uses
                     if not hasattr(importlib.import_module(m), n) and not _is_module(f"{m}.{n}"))
    assert missing == []
