"""Every CSV input goes through `core.read_csv_columns`.

A second hand-written reader would map errors and count lines its own way,
so the package's sources are parsed and any other use of `csv.reader` or
`csv.DictReader`, or of numpy's text parsers, fails here. The reader's C
pass must return what its row loop returns, or decline.
"""

import ast
import codecs
import csv
import hashlib
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from dtsim import core
from dtsim.cli import main
from dtsim.core import DataError, SchemaError, optional_float, read_csv_columns
from dtsim.ingest import (DEFAULT_COMMISSION_RATIO, DatasetSpec, IrrationalMix, generate,
                          inject_irrational, load_csv, write_csv)

SRC = Path(__file__).resolve().parent.parent / "src" / "dtsim"
NUMPY_TEXT_PARSERS = ("loadtxt", "genfromtxt", "fromfile")


def _reads(path, read_at):
    """(module, enclosing function, what) for each node of `path` that
    `read_at` names, as `what`."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            what = read_at(child)
            if what:
                found.append((path.stem, function, what))
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else None
            visit(child, inner or function)

    visit(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)), None)
    return found


def _csv_read(node):
    """A `csv.reader` or `csv.DictReader` read, or an import that could hide one."""
    if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "csv" and node.attr in ("reader", "DictReader")):
        return node.attr
    if isinstance(node, ast.ImportFrom) and node.module == "csv":
        return "from csv import"
    if isinstance(node, ast.Import) and any(
            a.name == "csv" and a.asname not in (None, "csv") for a in node.names):
        return "import csv as"
    return None


def _numpy_text_parser(node):
    """A numpy text parser read as an attribute of anything, or imported by name."""
    if isinstance(node, ast.Attribute) and node.attr in NUMPY_TEXT_PARSERS:
        return node.attr
    if isinstance(node, ast.ImportFrom) and any(a.name in NUMPY_TEXT_PARSERS for a in node.names):
        return f"from {node.module} import"
    return None


def _csv_reads(path):
    """(module, enclosing function, what) for each `csv.reader` or
    `csv.DictReader` read in `path`, and each import that could hide one."""
    return _reads(path, _csv_read)


def test_csv_is_read_only_in_read_csv_columns():
    found = [read for path in sorted(SRC.glob("*.py")) for read in _csv_reads(path)]
    assert found == [("core", "read_csv_columns", "reader")]


def test_numpy_parses_text_only_in_the_readers_c_pass():
    found = [read for path in sorted(SRC.glob("*.py"))
             for read in _reads(path, _numpy_text_parser)]
    assert found == [("core", "_numeric_columns", "loadtxt")]


def test_columns_are_parsed_in_the_order_asked():
    path = SRC.parent.parent / "tests" / "data" / "golden_blocks_reference_seed42.csv"
    incentives, heights = read_csv_columns(path, {"incentive": float, "height": int})
    assert heights[:3].tolist() == [0, 1, 2]
    assert len(incentives) == len(heights) and incentives.dtype == np.float64


def test_header_is_stripped_blank_rows_skipped_and_absent_optional_filled(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text(" a , b \n1,x\n\n  ,  \n2,y\n")
    strips, ints, blanks = read_csv_columns(path, {"b": str.strip, "a": int, "c": optional_float})
    assert (strips.tolist(), ints.tolist()) == (["x", "y"], [1, 2])
    assert type(blanks) is np.ndarray and np.isnan(blanks).tolist() == [True, True]


@pytest.mark.parametrize("content, message", [
    ("", "{path}: empty file"),
    ("a,b\n1,2\n", "{path}: missing columns ['c']; available: ['a', 'b']"),
    ("a,c\n1,2\n3\n", "{path}:3: malformed row: column 'c': list index out of range"),
    ("a,c\n1,2\n\n3,z\n", "{path}:4: malformed row: column 'c': invalid literal for int() with base 10: 'z'"),
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
    assert issubclass(SchemaError, DataError)


# A repeated name leaves open which cell a writer meant, so a column that
# the caller asks for must be named once.
@pytest.mark.parametrize("header", ["id,amount,arrival_time_ms,fee,fee",
                                    "id, fee,amount,arrival_time_ms,fee "])
def test_a_repeated_asked_for_column_is_a_schema_error(tmp_path, header):
    path = tmp_path / "stream.csv"
    path.write_text(header + "\n1,100.0,0,0.5,0.7\n")
    with pytest.raises(SchemaError) as excinfo:
        load_csv(path)
    assert str(excinfo.value) == f"{path}: column 'fee' appears more than once in the header"


def test_a_repeated_column_no_caller_asks_for_is_allowed(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("a,x,b, x\n1,2,3,4\n5,6,7,8\n")
    assert [c.tolist() for c in read_csv_columns(path, {"a": int, "b": int})] == [[1, 5], [3, 7]]


def test_vrp_check_of_a_repeated_fee_column_is_a_data_error(tmp_path, capsys):
    assignments = tmp_path / "assignments.csv"
    assignments.write_text("tx_id,block,fee,nodes,fee\n1,0,1.0,1,9.0\n")
    (tmp_path / "blocks.csv").write_text("height,tx_count,occupied_nodes,incentive,seal_time\n"
                                         "0,1,1,1.0,0\n")
    assert main(["vrp-check", "--blocks", str(tmp_path / "blocks.csv")]) == 3
    assert capsys.readouterr().err == (
        f"data error: {assignments}: column 'fee' appears more than once in the header\n")


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


@pytest.mark.parametrize("command, name, content", [
    (["simulate", "--dataset", "{path}", "--out", "{tmp}/o"], "id",
     f"id,amount,arrival_time_ms\n1,100.0,0\n{2**63},100.0,5\n"),
    (["vrp-check", "--blocks", "{tmp}/blocks.csv", "--assignments", "{path}"], "tx_id",
     f"tx_id,block,fee,nodes\n{2**63},0,1.0,1\n"),
], ids=["simulate", "vrp-check"])
def test_an_int_past_64_bits_is_a_schema_error(tmp_path, capsys, command, name, content):
    path = tmp_path / "input.csv"
    path.write_text(content)
    assert main([a.format(path=path, tmp=tmp_path) for a in command]) == 3
    assert capsys.readouterr().err == f"data error: {path}: values of column {name!r} must fit in 64 bits\n"


# Spreadsheet and Windows editors begin a UTF-8 file with a byte-order mark.
# Every reader takes a marked file as its unmarked bytes, a stream through the
# C pass: the mark is no part of the first column's name.
def test_each_reader_takes_a_marked_file_as_its_unmarked_bytes(tmp_path, capsys, csv_reader_rows):
    source = tmp_path / "stream.csv"
    stream = generate(DatasetSpec(count=5000, rng_seed=3))
    write_csv(stream, source)
    plain, marked = tmp_path / "plain", tmp_path / "marked"
    assert main(["simulate", "--dataset", str(source), "--a1", "500", "--out", str(plain)]) == 0
    marked.mkdir()
    for path in (source, plain / "blocks.csv", plain / "assignments.csv"):
        (marked / path.name).write_bytes(codecs.BOM_UTF8 + path.read_bytes())
    del csv_reader_rows[:]
    loaded = load_csv(marked / "stream.csv")
    assert csv_reader_rows == [1]
    for column in ("ids", "arrivals", "amounts", "fees"):
        assert np.array_equal(getattr(loaded, column), getattr(stream, column))
    capsys.readouterr()
    printed = []
    for folder in (plain, marked):
        assert main(["volatility", "--in", str(folder / "blocks.csv")]) == 0
        assert main(["vrp-check", "--blocks", str(folder / "blocks.csv")]) == 0
        printed.append(capsys.readouterr())
    assert printed[0] == printed[1] and printed[0].err == ""
    again = tmp_path / "again"
    assert main(["simulate", "--dataset", str(marked / "stream.csv"), "--a1", "500",
                 "--out", str(again)]) == 0
    for name in ("blocks.csv", "assignments.csv"):
        assert (again / name).read_bytes() == (plain / name).read_bytes()


# Differential check of the C pass: files from a cell grammar, read with the
# pass and by the row loop alone, must give the same columns or the same
# SchemaError text.
HEADER = "a,b,c,d"
KINDS = [
    {"a": int, "b": float, "c": optional_float},
    {"c": optional_float, "a": int, "e": optional_float},
    {"d": int},
    {"b": float, "d": str.strip},
]
LINE_ENDS = st.sampled_from(["\n", "\r\n", "\r"])
NUMBERS = st.one_of(
    st.integers(-2**70, 2**70).map(str),
    st.floats().map(repr),
    st.sampled_from(["007", "+5", "-0", ".5", "5.", "1e3", "1E-400", "1e400", "inf", "-Infinity",
                     "nan", "NaN"]))
PADDING = st.sampled_from(["", " ", "\t", "\x0b", "\x0c", "\x1c", "\x1f", "\x85", "\xa0",
                           "\u2003", "\u3000"])
ODD_CELLS = st.one_of(
    st.sampled_from(["", " ", "x", "1_000", "1.5_0", "\u0661\u0662", "\uff11", "0x10", "1 2",
                     "#1", "1,5", "\x00", "\x001", "\xe9", "\ufeff1", "1e", "--1"]),
    NUMBERS.map(lambda cell: f'"{cell}"'),
    st.text(max_size=4).map(lambda text: f'"{text}"'),
    st.text(max_size=4))
CELLS = st.one_of(NUMBERS, st.tuples(PADDING, NUMBERS, PADDING).map("".join), ODD_CELLS)


@st.composite
def csv_files(draw):
    """CSV bytes under HEADER: clean numeric rows, or rows from the whole cell
    grammar of any length, with blank lines, any line ends and, at times, a
    byte that is not UTF-8."""
    end = draw(LINE_ENDS)
    clean = draw(st.booleans())
    cells = st.tuples(NUMBERS, NUMBERS, NUMBERS, NUMBERS).map(list) if clean else st.lists(
        CELLS, max_size=6)
    rows = draw(st.lists(st.one_of(cells.map(",".join), st.sampled_from(["", "  ", " , ,"])),
                         max_size=8))
    lines = [HEADER, *rows]
    text = "".join(line + (draw(LINE_ENDS) if not clean else end) for line in lines)
    content = text.encode("utf-8")
    if not clean and draw(st.integers(0, 9)) == 0:
        at = draw(st.integers(len(HEADER) + 1, len(content)))
        content = content[:at] + b"\xff" + content[at:]
    return content


def _outcome(path, case):
    """Each column's type, dtype and bytes, or the SchemaError text."""
    try:
        columns = read_csv_columns(path, KINDS[case])
    except SchemaError as exc:
        return f"SchemaError: {exc}"
    return [(type(c), c.dtype, c.tobytes()) for c in columns]


def test_the_c_pass_returns_what_the_row_loop_returns(tmp_path):
    path = tmp_path / "t.csv"
    taken = set()
    numeric_columns = core._numeric_columns

    def recorded(*args):
        columns = numeric_columns(*args)
        taken.add(columns is not None)
        return columns

    @settings(max_examples=400, deadline=None)
    @given(content=csv_files(), case=st.integers(0, len(KINDS) - 1))
    @example(content=f"{HEADER}\n1,{'1.' + '0' * csv.field_size_limit()},3,x\n".encode(), case=0)
    @example(content=f"{HEADER}\n1,2.5,3,4\n".encode(), case=0)
    @example(content=f"{HEADER}\n".encode(), case=0)
    @example(content=f'{HEADER}\n"1",2.5,3,x\n'.encode(), case=0)
    @example(content=f"{HEADER}\n1_000,2,3,x\n".encode(), case=0)
    @example(content=f"{HEADER}\n1,2,3,x\n   \n4,5,6,x\n".encode(), case=0)
    @example(content=f"{HEADER}\r1,2,3,x\r4,5,6,x\r".encode(), case=0)
    @example(content=f"{HEADER}\n\x1c1,2,3,x\n".encode(), case=0)
    @example(content=f'{HEADER}\n1,2,3,"x\n4,5,6,y"\n'.encode(), case=0)
    @example(content=f"{HEADER}\n1,2,3,x\x00\n".encode(), case=0)
    @example(content=f"{HEADER}\n1,2,,x\n4,5,6,x\n".encode(), case=1)
    @example(content=f"{HEADER}\n1,2,3,x\n".encode() + b"\xff\n", case=0)
    @example(content=codecs.BOM_UTF8 + f"{HEADER}\n1,2.5,3,4\n".encode(), case=0)
    def check(content, case):
        # A byte-order mark changes nothing: a file reads as its unmarked bytes.
        path.write_bytes(content.removeprefix(codecs.BOM_UTF8))
        with mock.patch.object(core, "_numeric_columns", lambda *args: None):
            unmarked = _outcome(path, case)
        path.write_bytes(content)
        with mock.patch.object(core, "_numeric_columns", lambda *args: None):
            expected = _outcome(path, case)
        assert expected == unmarked
        with mock.patch.object(core, "_numeric_columns", recorded), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert _outcome(path, case) == expected
        assert not caught

    check()
    assert taken == {True, False}


@pytest.fixture
def csv_reader_rows(monkeypatch):
    """The rows each `csv.reader` made while the test runs yields, one count per reader."""
    counts = []
    reader = csv.reader

    class Counting:
        def __init__(self, *args, **kwargs):
            self.rows = reader(*args, **kwargs)
            counts.append(0)

        def __iter__(self):
            return self

        def __next__(self):
            row = next(self.rows)
            counts[-1] += 1
            return row

        @property
        def line_num(self):
            return self.rows.line_num

    monkeypatch.setattr(csv, "reader", Counting)
    return counts


def test_each_kind_has_one_column_type_from_both_paths(tmp_path, csv_reader_rows):
    path = tmp_path / "t.csv"
    path.write_text("a,b,c,d\n1,2.5,3.5,7\n4,5.0,6,8\n")
    kinds = {"a": int, "b": float, "c": optional_float, "e": optional_float}
    c_pass = read_csv_columns(path, kinds)
    with mock.patch.object(core, "_numeric_columns", lambda *args: None):
        row_loop = read_csv_columns(path, kinds)
    assert csv_reader_rows == [1, 3]
    for columns in (c_pass, row_loop):
        assert [(type(c), c.dtype) for c in columns] == [
            (np.ndarray, np.int64), (np.ndarray, np.float64),
            (np.ndarray, np.float64), (np.ndarray, np.float64)]
        assert [np.isnan(c).tolist() for c in columns[2:]] == [[False, False], [True, True]]
    path.write_text("a,b,c,d\n1,2.5,,x\n")
    columns = read_csv_columns(path, {"a": int, "c": optional_float, "d": str.strip, "b": len})
    assert [type(c) for c in columns] == [np.ndarray] * 4
    assert [c.tolist() for c in columns[::2]] == [[1], ["x"]] and np.isnan(columns[1]).all()
    assert (columns[3].tolist(), columns[3].dtype) == ([3], np.dtype(int))


def test_a_written_stream_loads_through_the_c_pass(tmp_path, csv_reader_rows):
    stream = generate(DatasetSpec(count=5000, rng_seed=3))
    write_csv(stream, tmp_path / "s.csv")
    loaded = load_csv(tmp_path / "s.csv")
    assert csv_reader_rows == [1]
    for column in ("ids", "arrivals", "amounts", "fees"):
        assert np.array_equal(getattr(loaded, column), getattr(stream, column))


# sha256 of each loaded column's bytes at commission ratio 0.003, recorded
# while the reader returned lists: a file the C pass reads, the same file with
# blank fees mid-file and on the last row (the row loop), and no fee column.
LOADED_COLUMNS = {
    "ids": "55f385cf2332d9056aaed6f496e7bebd2df52c6a9547ce2144b309432d4b0290",
    "arrivals": "deefd7d9025adea4b2cd1c4035006197b66976a95a6c957d457d700db7331992",
    "amounts": "7a5217912d7771c53c806ab55afc8cefc1943d709aeb64cfb9cc537555d4c45e",
}
LOADED_FEES = {
    "c-pass": "9ddd559783c7de069740fcd472772b5041af71fb6aa251ccb03284f717eef84a",
    "blank-fees": "1f6c3a5b610400ae5aa32979fffa1b01a38098a140039f154808567c007964f3",
    "no-fee": "9e49913b4e8f681b93cc572dd37996b7c438df96156ec0ce866cb1e6a27cc694",
}


@pytest.mark.parametrize("case", LOADED_FEES)
def test_loaded_columns_are_pinned(tmp_path, case):
    path = tmp_path / "s.csv"
    stream = generate(DatasetSpec(count=2000, rng_seed=31))
    write_csv(inject_irrational(stream, IrrationalMix(0.8, 0.1, 0.1), seed=32), path)
    lines = path.read_text().splitlines()
    if case == "blank-fees":
        for at in (700, len(lines) - 1):
            lines[at] = lines[at].rsplit(",", 1)[0] + ","
    elif case == "no-fee":
        lines = [line.rsplit(",", 1)[0] for line in lines]
    path.write_text("\n".join(lines) + "\n")
    loaded = load_csv(path, commission_ratio=0.003)
    digests = {name: hashlib.sha256(getattr(loaded, name).tobytes()).hexdigest()
               for name in ("ids", "arrivals", "amounts", "fees")}
    assert digests == dict(LOADED_COLUMNS, fees=LOADED_FEES[case])


# NaN marks a blank fee cell, so a cell that reads as NaN is a malformed row.
@pytest.mark.parametrize("cell", ["nan", " NaN", "-nan"])
def test_a_nan_fee_cell_is_a_malformed_row_naming_its_line(tmp_path, cell):
    path = tmp_path / "s.csv"
    write_csv(generate(DatasetSpec(count=300, rng_seed=3)), path)
    lines = path.read_text().splitlines()
    lines[120] = lines[120].rsplit(",", 1)[0] + f",{cell}"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(SchemaError) as excinfo:
        load_csv(path)
    assert str(excinfo.value) == (
        f"{path}:121: malformed row: column 'fee': {cell.strip()!r} reads as NaN, "
        f"which marks a blank cell")


@pytest.mark.parametrize("blank", ["", " ", "\t "])
def test_a_blank_fee_is_left_to_the_row_loop_before_the_c_pass(tmp_path, monkeypatch, blank):
    stream = generate(DatasetSpec(count=300, rng_seed=3))
    path = tmp_path / "s.csv"
    write_csv(stream, path)
    passes = []
    loadtxt = np.loadtxt
    monkeypatch.setattr(np, "loadtxt", lambda *args, **kwargs: passes.append(1) or loadtxt(*args, **kwargs))
    load_csv(path)
    assert passes == [1]
    *rows, last = path.read_text().splitlines(keepends=True)
    path.write_text("".join(rows) + last.rsplit(",", 1)[0] + f",{blank}\n")
    loaded = load_csv(path)
    assert passes == [1]
    assert np.array_equal(loaded.fees[:-1], stream.fees[:-1])
    assert loaded.fees[-1] == stream.amounts[-1] * DEFAULT_COMMISSION_RATIO


@pytest.mark.parametrize("content, row_loop_only", [
    (b"a,b\n1,2\n\n3,4\n", False),
    (b",a,b\n1,2\n", False),
    (b"a,b,", False),
    (b"a,b\n1,,2\n", True),
    (b"a,b\r\n,1\r\n", True),
    (b"a,b\r1,\r", True),
    (b"a,b\n1,2,", True),
    (b"a,b\n1, 2\n", True),
    (b"a\n" + b"1" * (core._SCAN_BYTES - 2) + b",,1\n", True),
    # Past the header, the one rule: a byte of a row of numbers, or the row loop.
    (b"a,b\r\n-1.5e-3,+2E7\r\n", False),
    (b'"a",b\n1,2\n', False),
    (b'a,b\n"1",2\n', True),
    (b"a,b\n1,2\x00\n", True),
    (b"a,b\n\x1c1,2\n", True),
    (b"a,b\n1,\t2\n", True),
    (b"a,b\n1,inf\n", True),
    (b"a,b\n1,2\xc2\xa0\n", True),
    (b'"a\nb",c\n1,2\n', True),
])
def test_blank_field_scan(content, row_loop_only):
    assert core._row_loop_only(content) is row_loop_only


def test_a_blank_or_padded_int_cell_never_reaches_the_c_pass(tmp_path, monkeypatch):
    path = tmp_path / "t.csv"
    passes = []
    loadtxt = np.loadtxt
    monkeypatch.setattr(np, "loadtxt", lambda *args, **kwargs: passes.append(1) or loadtxt(*args, **kwargs))
    path.write_text("a,b\n1, 2\n")
    assert [c.tolist() for c in read_csv_columns(path, {"a": int, "b": int})] == [[1], [2]]
    path.write_text("a,b\n1,2\n3,\n")
    with pytest.raises(SchemaError, match=":3: malformed row: column 'b': invalid literal for int"):
        read_csv_columns(path, {"a": int, "b": int})
    assert passes == []


# Cells of the pass's own alphabet: whatever bytes reach `np.loadtxt`, in
# any order, read as the row loop reads them, or the pass declines.
NUMBER_TEXT = st.text(alphabet="0123456789+-.eE", min_size=1, max_size=6)


@settings(max_examples=200, deadline=None)
@given(rows=st.lists(st.lists(NUMBER_TEXT, min_size=4, max_size=4).map(",".join), max_size=6),
       case=st.integers(0, 2))
def test_the_c_pass_reads_number_bytes_as_the_row_loop(tmp_path_factory, rows, case):
    path = tmp_path_factory.mktemp("numbers") / "t.csv"
    path.write_text("".join(f"{line}\n" for line in [HEADER, *rows]))
    with mock.patch.object(core, "_numeric_columns", lambda *args: None):
        expected = _outcome(path, case)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert _outcome(path, case) == expected
    assert not caught


def test_vrp_check_reads_a_simulate_output_through_the_c_pass(tmp_path, capsys, csv_reader_rows):
    out = tmp_path / "run"
    assert main(["simulate", "--count", "3000", "--seed", "2", "--out", str(out)]) == 0
    csv_reader_rows.clear()
    assert main(["vrp-check", "--blocks", str(out / "blocks.csv")]) == 0
    assert "violations (0): none" in capsys.readouterr().out
    assert csv_reader_rows == [1, 1]
