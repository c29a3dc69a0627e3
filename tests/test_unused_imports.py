"""Every name a `dtsim` module imports is used in that module, so an import
does not outlive the code that needed it. A re-export is marked
`# noqa: F401` on a line of its import statement."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "dtsim").glob("*.py"))


def unused_imports(source: str) -> list:
    """(line, name) of each name bound by an import of `source` that the module
    never reads, skipping `__future__` imports and statements marked `# noqa: F401`."""
    tree, lines = ast.parse(source), source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_the_check_finds_an_unused_import():
    source = ("from __future__ import annotations\nimport os\nimport sys\n"
              "from heapq import heapify, heappop\nfrom .core import Stream  # noqa: F401\n"
              "def f():\n    return sys.argv, heappop\n")
    assert unused_imports(source) == [(2, "os"), (4, "heapify")]


def test_the_package_imports_nothing():
    # Every name is imported from its defining module; the package binds only
    # `__version__`, so importing one module does not load the others.
    init = next(path for path in SOURCES if path.name == "__init__.py")
    tree = ast.parse(init.read_text())
    assert not [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert [t.id for node in tree.body if isinstance(node, ast.Assign)
            for t in node.targets] == ["__version__"]
