"""Every CSV input goes through `core.read_csv_columns`.

A second hand-written reader would map errors and count lines its own way,
so the package's sources are parsed and any other use of `csv.reader` or
`csv.DictReader` fails here.
"""

import ast
from pathlib import Path

import pytest

from dtsim.cli import main
from dtsim.core import DataError, SchemaError, read_csv_columns
from dtsim.ingest import SchemaError as IngestSchemaError

SRC = Path(__file__).resolve().parent.parent / "src" / "dtsim"


def _csv_reads(path):
    """(module, enclosing function, what) for each `csv.reader` or
    `csv.DictReader` read in `path`, and each import that could hide one."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if (isinstance(child, ast.Attribute) and isinstance(child.value, ast.Name)
                    and child.value.id == "csv" and child.attr in ("reader", "DictReader")):
                found.append((path.stem, function, child.attr))
            elif isinstance(child, ast.ImportFrom) and child.module == "csv":
                found.append((path.stem, function, "from csv import"))
            elif isinstance(child, ast.Import) and any(
                    a.name == "csv" and a.asname not in (None, "csv") for a in child.names):
                found.append((path.stem, function, "import csv as"))
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else None
            visit(child, inner or function)

    visit(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)), None)
    return found


def test_csv_is_read_only_in_read_csv_columns():
    found = [read for path in sorted(SRC.glob("*.py")) for read in _csv_reads(path)]
    assert found == [("core", "read_csv_columns", "reader")]


def test_columns_are_parsed_in_the_order_asked():
    path = SRC.parent.parent / "tests" / "data" / "golden_blocks_reference_seed42.csv"
    incentives, heights = read_csv_columns(path, {"incentive": float, "height": int})
    assert heights[:3] == [0, 1, 2]
    assert len(incentives) == len(heights) and all(isinstance(v, float) for v in incentives)


def test_header_is_stripped_blank_rows_skipped_and_absent_optional_filled(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text(" a , b \n1,x\n\n  ,  \n2,y\n")
    assert read_csv_columns(path, {"b": str.strip, "a": int, "c": len}, optional=("c",)) == [
        ["x", "y"], [1, 2], [0, 0]]


@pytest.mark.parametrize("content, message", [
    ("", "{path}: empty file"),
    ("a,b\n1,2\n", "{path}: missing columns ['c']; available: ['a', 'b']"),
    ("a,c\n1,2\n3\n", "{path}:3: malformed row: list index out of range"),
    ("a,c\n1,2\n\n3,z\n", "{path}:4: malformed row: invalid literal for int() with base 10: 'z'"),
    ('a,c\n1,2\n"' + "9" * 131073 + '",2\n',
     "{path}:3: malformed row: field larger than field limit (131072)"),
], ids=["empty", "missing", "short", "blank-then-bad", "huge-field"])
def test_errors_name_the_file_and_line(tmp_path, content, message):
    path = tmp_path / "t.csv"
    path.write_text(content)
    with pytest.raises(SchemaError) as excinfo:
        read_csv_columns(path, {"a": int, "c": int})
    assert str(excinfo.value) == message.format(path=path)


def test_unreadable_file_is_a_data_error(tmp_path):
    with pytest.raises(SchemaError, match="cannot read .*: No such file or directory"):
        read_csv_columns(tmp_path / "absent.csv", {"a": int})
    (tmp_path / "bytes.csv").write_bytes(b"a\n\xff\xfe\n")
    with pytest.raises(SchemaError, match="cannot read .*utf-8"):
        read_csv_columns(tmp_path / "bytes.csv", {"a": int})
    assert IngestSchemaError is SchemaError and issubclass(SchemaError, DataError)


@pytest.mark.parametrize("command, content", [
    (["simulate", "--dataset", "{path}", "--out", "{tmp}/o"],
     "id,amount,arrival_time_ms\n1,100.0,0\n\n2,x,5\n"),
    (["vrp-check", "--blocks", "{tmp}/blocks.csv", "--assignments", "{path}"],
     "tx_id,block,fee,nodes\n1,0,1.0,1\n\n2,x,1.0,1\n"),
])
def test_malformed_row_after_a_blank_line_reports_its_own_line(tmp_path, capsys, command, content):
    path = tmp_path / "input.csv"
    path.write_text(content)
    assert main([a.format(path=path, tmp=tmp_path) for a in command]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"data error: {path}:4: malformed row: ") and err.count("\n") == 1
