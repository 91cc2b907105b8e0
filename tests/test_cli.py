import argparse
import csv
import json
import math
import os
import signal
import sys
import time
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from inertia import InvalidArgument, __version__, drift_profile, quadratic_isotropic
from inertia import cli, integrators, output, render
from inertia.cli import build_parser, main
from inertia.integrators import METHODS
from inertia.output import format_float, write_csv, write_csvs, write_json, write_manifest
from inertia.render import read_csv_columns, render_csv

from ensemble_arrays import (assert_no_child_process, no_file_to_spare, no_process_to_spare,
                             open_fds, spy_on_fork)


# --- float formatting and file round-trips -------------------------------------

@given(st.floats(allow_nan=False, allow_infinity=False))
def test_format_float_round_trips(x):
    assert float(format_float(x)) == x


def test_csv_round_trip_is_exact(tmp_path):
    path = tmp_path / "data.csv"
    cols = {
        "t": np.array([0.0, 0.1, 0.2]),
        "y": np.array([1.0, 1.0 / 3.0, -2.5e-17]),
    }
    write_csv(path, cols)
    back = read_csv_columns(str(path))
    assert list(back) == ["t", "y"]
    assert np.array_equal(back["t"], cols["t"])
    assert np.array_equal(back["y"], cols["y"])


def test_csv_uses_unix_line_endings(tmp_path):
    path = tmp_path / "data.csv"
    write_csv(path, {"a": np.array([1.0, 2.0])})
    raw = path.read_bytes()
    assert b"\r" not in raw
    assert raw == b"a\n1.0\n2.0\n"


AWKWARD = {
    "signed_zero": np.array([-0.0, 0.0, -0.0]),
    "tiny": np.array([5e-324, -5e-324, 2.2250738585072014e-308]),
    "thirds": np.array([1.0 / 3.0, -2.0 / 3.0, 0.1 + 0.2]),
    "large": np.array([1e16, 1e16 + 2.0, 1.7976931348623157e308]),
    "whole": np.array([3.0, -7.0, 1e15]),
    "ints": np.array([0, 1, -2]),
    "listed": [0.5, 2, -1e-300],
}


def test_csv_bytes_match_the_per_cell_formatter(tmp_path):
    """Row-wise writing must give the bytes of format_float applied cell by cell."""
    path = tmp_path / "awkward.csv"
    write_csv(path, AWKWARD)
    arrays = [np.asarray(col) for col in AWKWARD.values()]
    expected = ",".join(AWKWARD) + "\n" + "".join(
        ",".join(format_float(a[i]) for a in arrays) + "\n" for i in range(3))
    assert path.read_bytes() == expected.encode()


def awkward_table(reps: int) -> dict[str, np.ndarray]:
    """AWKWARD with every column tiled ``reps`` times: 3 * ``reps`` rows."""
    return {name: np.tile(np.asarray(col, dtype=float), reps) for name, col in AWKWARD.items()}


def expected_csv(columns) -> bytes:
    arrays = list(columns.values())
    return (",".join(columns) + "\n" + "".join(
        ",".join(format_float(a[i]) for a in arrays) + "\n"
        for i in range(len(arrays[0])))).encode()


# An odd row count above the cutoff, so the halves differ in length.
LARGE_REPS = output._FORK_NUMBERS // (3 * len(AWKWARD)) // 2 * 2 + 1


def test_a_large_csv_has_the_same_bytes_however_it_is_formatted(tmp_path, monkeypatch):
    """Formatted in two processes, or in one where os.fork is missing or one CPU
    is usable, a table above the cutoff gives format_float's bytes cell by cell."""
    columns = awkward_table(LARGE_REPS)
    rows = 3 * LARGE_REPS
    assert rows % 2 == 1 and rows * len(columns) >= output._FORK_NUMBERS
    expected = expected_csv(columns)
    pids = spy_on_fork(monkeypatch)
    write_csv(tmp_path / "forked.csv", columns)
    assert len(pids) == 1
    assert_no_child_process()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    write_csv(tmp_path / "one_cpu.csv", columns)
    monkeypatch.delattr(os, "fork")
    write_csv(tmp_path / "no_fork.csv", columns)
    assert len(pids) == 1
    for name in ("forked.csv", "one_cpu.csv", "no_fork.csv"):
        assert (tmp_path / name).read_bytes() == expected, name


def test_a_failing_formatter_child_leaves_the_bytes_as_they_were(tmp_path, monkeypatch):
    """A child that cannot format its half exits nonzero; this process formats it."""
    columns = awkward_table(LARGE_REPS)
    parent, floats = os.getpid(), output._floats

    def floats_in_the_parent_only(column):
        if os.getpid() != parent:
            raise RuntimeError("the child fails")
        return floats(column)
    monkeypatch.setattr(output, "_floats", floats_in_the_parent_only)
    pids = spy_on_fork(monkeypatch)
    write_csv(tmp_path / "data.csv", columns)
    assert len(pids) == 1
    assert_no_child_process()
    assert (tmp_path / "data.csv").read_bytes() == expected_csv(columns)


def test_a_failed_fork_formats_the_table_in_process(tmp_path, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(os, "fork", no_process_to_spare)
    columns = awkward_table(LARGE_REPS)
    fds = open_fds()
    write_csv(tmp_path / "data.csv", columns)
    assert (tmp_path / "data.csv").read_bytes() == expected_csv(columns)
    assert open_fds() == fds  # both pipe ends are closed


def test_a_failed_pipe_formats_the_text_in_process(tmp_path, monkeypatch):
    """A process out of file descriptors writes the same bytes, forking nothing."""
    pids = spy_on_fork(monkeypatch)
    monkeypatch.setattr(os, "pipe", no_file_to_spare)
    columns = awkward_table(LARGE_REPS)
    write_csv(tmp_path / "data.csv", columns)
    assert (tmp_path / "data.csv").read_bytes() == expected_csv(columns)
    t = np.linspace(0.0, 7.0, output._FORK_NUMBERS // 2 + 1)
    write_csv(tmp_path / "pts.csv", {"t": t, "a": np.sin(t)})
    render_csv(str(tmp_path / "pts.csv"), str(tmp_path / "no_pipe.svg"))
    monkeypatch.delattr(os, "fork")
    render_csv(str(tmp_path / "pts.csv"), str(tmp_path / "here.svg"))
    assert (tmp_path / "no_pipe.svg").read_bytes() == (tmp_path / "here.svg").read_bytes()
    assert pids == []


def shared_tables(rows: int, count: int) -> dict[str, dict]:
    """The first ``count`` of three tables laid out like conserve's, each of
    ``rows`` rows of AWKWARD values: two run tables that hold one ``t`` object,
    and a third of that ``t`` and each run table's last column object."""
    c = {name: np.resize(np.asarray(col, dtype=float), rows) for name, col in AWKWARD.items()}
    c["listed"] = c["listed"].tolist()  # a column that is not an array
    tables = {
        "conserve_g0.csv": {"t": c["thirds"], "w0": c["tiny"], "v0": c["signed_zero"],
                            "inertia": c["large"]},
        "conserve_g0.4.csv": {"t": c["thirds"], "w0": c["whole"], "v0": c["ints"],
                              "inertia": c["listed"]},
        "conserve.csv": {"t": c["thirds"], "inertia_g0": c["large"],
                         "inertia_g0.4": c["listed"]},
    }
    return dict(list(tables.items())[:count])


def rows_at_the_cutoff(count: int) -> int:
    """The fewest rows at which ``count`` shared tables hold _FORK_NUMBERS distinct numbers."""
    distinct = {1: 4, 2: 7, 3: 7}[count]  # t is shared, and the third table adds no column
    return -(-output._FORK_NUMBERS // distinct)


def formatted_here(monkeypatch) -> list[int]:
    """The length of each column ``_floats`` converts in this process from now on."""
    parent, floats, formatted = os.getpid(), output._floats, []

    def counted(column):
        if os.getpid() == parent:
            formatted.append(len(column))
        return floats(column)
    monkeypatch.setattr(output, "_floats", counted)
    return formatted


def write_shared(tmp_path, tables) -> list[str]:
    tmp_path.mkdir(exist_ok=True)
    write_csvs({str(tmp_path / name): columns for name, columns in tables.items()})
    return sorted(p.name for p in tmp_path.iterdir())


@pytest.mark.parametrize("count", [1, 2, 3])
@pytest.mark.parametrize("above", [False, True], ids=["below", "above"])
def test_tables_written_together_have_the_bytes_of_each_written_alone(tmp_path, monkeypatch,
                                                                      count, above):
    """Each distinct column is formatted once for all the tables, forked above the
    cutoff and in process where may_fork does not hold, to each table's own bytes.
    Forked, this process formats only its half of the rows."""
    rows = rows_at_the_cutoff(count) - (not above)
    tables = shared_tables(rows, count)
    distinct = len({id(column) for columns in tables.values() for column in columns.values()})
    formatted = formatted_here(monkeypatch)
    pids = spy_on_fork(monkeypatch)
    assert write_shared(tmp_path / "forked", tables) == sorted(tables)
    assert len(pids) == above
    assert sum(formatted) == distinct * (rows // 2 if above else rows)
    assert_no_child_process()
    monkeypatch.setattr(output, "may_fork", lambda: False)
    formatted.clear()
    assert write_shared(tmp_path / "here", tables) == sorted(tables)
    assert len(pids) == above
    assert sum(formatted) == distinct * rows
    for name, columns in tables.items():
        for side in ("forked", "here"):
            assert (tmp_path / side / name).read_bytes() == expected_csv(columns), (side, name)


def fails_in_a_later_chunk(monkeypatch, in_child_only=False):
    """``_floats`` raises OSError at its 20th call in a process, past the first
    chunk of rows, which takes one call per distinct column."""
    parent, floats, calls = os.getpid(), output._floats, []

    def floats_then_full(column):
        calls.append(os.getpid())
        if calls.count(os.getpid()) >= 20 and (os.getpid() != parent or not in_child_only):
            raise OSError("disk full")
        return floats(column)
    monkeypatch.setattr(output, "_floats", floats_then_full)


def killed_while_sending(monkeypatch):
    """The child sends part of its first table's text, then is killed."""
    parent, write = os.getpid(), os.write

    def write_a_part(fd, data):
        if os.getpid() == parent:
            return write(fd, data)
        write(fd, bytes(data[:100000]))
        os.kill(os.getpid(), signal.SIGKILL)
    monkeypatch.setattr(os, "write", write_a_part)


def exits_1_after_sending(monkeypatch):
    exit = os._exit
    monkeypatch.setattr(os, "_exit", lambda code: exit(1))


@pytest.mark.parametrize("helper_fails", [
    lambda monkeypatch: fails_in_a_later_chunk(monkeypatch, in_child_only=True),
    killed_while_sending, exits_1_after_sending,
], ids=["raises in a later chunk", "killed while sending", "exits 1 after sending"])
def test_a_failing_helper_leaves_the_bytes_of_one_process(tmp_path, monkeypatch, helper_fails):
    """Whatever of the child's text came before it failed is cut back, and this
    process formats the child's rows of every table itself."""
    tables = shared_tables(rows_at_the_cutoff(3) + 4000, 3)
    helper_fails(monkeypatch)
    pids = spy_on_fork(monkeypatch)
    assert write_shared(tmp_path, tables) == sorted(tables)
    assert len(pids) == 1
    assert_no_child_process()
    for name, columns in tables.items():
        assert (tmp_path / name).read_bytes() == expected_csv(columns), name


def test_a_helper_that_exits_late_is_not_taken_for_a_failed_one(tmp_path, monkeypatch):
    """The child has sent all its text but has not exited yet: this process reads
    the pipe to its end, which comes as the child exits 0, and formats no row again."""
    tables = shared_tables(rows_at_the_cutoff(3), 3)
    exit = os._exit

    def late_exit(code):
        time.sleep(0.2)
        exit(code)
    monkeypatch.setattr(os, "_exit", late_exit)
    formatted = formatted_here(monkeypatch)
    pids = spy_on_fork(monkeypatch)
    assert write_shared(tmp_path, tables) == sorted(tables)
    assert len(pids) == 1
    assert sum(formatted) == 7 * (rows_at_the_cutoff(3) // 2)
    assert_no_child_process()
    for name, columns in tables.items():
        assert (tmp_path / name).read_bytes() == expected_csv(columns), name


@pytest.mark.parametrize("above", [False, True], ids=["below", "above"])
@pytest.mark.parametrize("existed", [False, True])
def test_a_batch_that_fails_midway_leaves_no_table(tmp_path, monkeypatch, above, existed):
    """A chunk past the first fails in this process: no table, temp file or
    child is left, and a table that was there before is as it was."""
    tables = shared_tables(rows_at_the_cutoff(3) - (not above), 3)
    if existed:
        (tmp_path / "conserve.csv").write_text("old\n")
    fails_in_a_later_chunk(monkeypatch)
    pids = spy_on_fork(monkeypatch)
    with pytest.raises(OSError, match="disk full"):
        write_csvs({str(tmp_path / name): columns for name, columns in tables.items()})
    assert len(pids) == above
    assert_no_child_process()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["conserve.csv"] * existed
    if existed:
        assert (tmp_path / "conserve.csv").read_text() == "old\n"


def test_json_bytes_match_the_per_element_conversion(tmp_path):
    path = tmp_path / "awkward.json"
    write_json(path, AWKWARD)
    doc = {name: [float(x) for x in np.asarray(col)] for name, col in AWKWARD.items()}
    expected = json.dumps({"columns": doc}, indent=1) + "\n"
    assert path.read_bytes() == expected.encode()


def test_json_writes_non_finite_values_as_null(tmp_path):
    path = tmp_path / "gaps.json"
    write_json(path, {"x": np.array([1.0, np.nan, np.inf, -np.inf])})
    doc = json.loads(path.read_text(), parse_constant=pytest.fail)
    assert doc["columns"]["x"] == [1.0, None, None, None]


def test_csv_rejects_bad_columns(tmp_path):
    with pytest.raises(InvalidArgument):
        write_csv(tmp_path / "x.csv", {"a": np.array([1.0]), "b": np.array([1.0, 2.0])})
    with pytest.raises(InvalidArgument):
        write_csv(tmp_path / "x.csv", {})


def test_json_output_parses(tmp_path):
    path = tmp_path / "data.json"
    write_json(path, {"t": np.array([0.0, 0.5]), "y": np.array([1.0, 0.25])})
    doc = json.loads(path.read_text())
    assert doc["columns"]["y"] == [1.0, 0.25]


def test_reading_malformed_csv_fails(tmp_path):
    path = tmp_path / "bad.csv"
    for content in ["", "t,y\n", "t,y\n1,abc\n", "t,y\n1\n"]:
        path.write_text(content)
        with pytest.raises(InvalidArgument):
            read_csv_columns(str(path))


@pytest.mark.parametrize("content, message", [
    ("", "is empty"),
    ("t, \n1,2\n", "has a malformed header row"),
    ("t,y\n", "contains no data rows"),
    ("t,y\n1,2\n1,abc\n", "row 3: not a number: 'abc'"),
    ("t,y\n1,2\n1\n", "row 3: expected 2 fields, got 1"),
    ("t,a,a\n0,1,5\n1,2,6\n", "has a duplicate column name 'a'"),
    ("t,y\n1,2\n\n3,4\n", "row 3: expected 2 fields, got 0"),
])
def test_malformed_csv_names_the_fault(tmp_path, content, message):
    path = tmp_path / "bad.csv"
    path.write_text(content)
    with pytest.raises(InvalidArgument) as exc:
        read_csv_columns(str(path))
    assert str(exc.value) == f"{path} {message}"
    with pytest.raises(InvalidArgument, match="cannot read"):
        read_csv_columns(str(tmp_path / "missing.csv"))


def test_render_of_a_csv_that_is_not_utf8_exits_2(tmp_path, capsys):
    path = tmp_path / "latin.csv"
    path.write_bytes(b"t,y\n1,\xff\n")
    code = main(["render", "--input", str(path), "--out", str(tmp_path / "x.svg")])
    assert code == 2
    assert capsys.readouterr().err.startswith(f"error: cannot read {path}")
    assert not (tmp_path / "x.svg").exists()


def test_render_of_a_csv_with_a_field_over_the_csv_limit_exits_2(tmp_path, capsys):
    path = tmp_path / "long.csv"
    path.write_text("t,y\n0," + "1" * (csv.field_size_limit() + 10) + "\n")
    code = main(["render", "--input", str(path), "--out", str(tmp_path / "x.svg")])
    assert code == 2
    assert capsys.readouterr().err == (f"error: cannot read {path}: field larger than field "
                                       f"limit ({csv.field_size_limit()})\n")
    assert not (tmp_path / "x.svg").exists()


def test_render_of_a_csv_with_a_duplicate_column_exits_2(tmp_path, capsys):
    path = tmp_path / "twice.csv"
    path.write_text("t,a,a\n0,1,5\n1,2,6\n")
    code = main(["render", "--input", str(path), "--out", str(tmp_path / "x.svg")])
    assert code == 2
    assert capsys.readouterr().err == f"error: {path} has a duplicate column name 'a'\n"
    assert not (tmp_path / "x.svg").exists()


def walked_csv_columns(path: str) -> dict[str, np.ndarray]:
    """read_csv_columns as it was before np.loadtxt: every row walked by csv and float()."""
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise InvalidArgument(f"{path} is empty")
            if not header or any(not name.strip() for name in header):
                raise InvalidArgument(f"{path} has a malformed header row")
            for i, name in enumerate(header):
                if name in header[:i]:
                    raise InvalidArgument(f"{path} has a duplicate column name {name!r}")
            values = [[] for _ in header]
            for line, row in enumerate(reader, start=2):
                if len(row) != len(header):
                    raise InvalidArgument(
                        f"{path} row {line}: expected {len(header)} fields, got {len(row)}")
                for column, field in zip(values, row):
                    try:
                        column.append(float(field))
                    except ValueError:
                        raise InvalidArgument(f"{path} row {line}: not a number: {field!r}")
    except (OSError, UnicodeDecodeError) as exc:
        raise InvalidArgument(f"cannot read {path}: {exc}")
    if not values[0]:
        raise InvalidArgument(f"{path} contains no data rows")
    return {name: np.array(column, dtype=float) for name, column in zip(header, values)}


def read_outcome(read, path):
    """What ``read`` makes of ``path``: each column's name, dtype, shape and
    bytes, or the error it refuses the file with."""
    try:
        columns = read(path)
    except (InvalidArgument, csv.Error) as exc:  # csv.Error: escaped from the csv module
        return type(exc), str(exc)
    return "read", [(name, col.dtype.str, col.shape, col.tobytes()) for name, col in columns.items()]


def walked_outcome(path):
    """read_outcome of the row walk, where a csv module error that it let
    escape (a field over the limit; before Python 3.11 also a NUL) counts as
    the "cannot read" refusal that read_csv_columns now makes of it."""
    outcome = read_outcome(walked_csv_columns, path)
    if outcome[0] is csv.Error:
        return InvalidArgument, f"cannot read {path}: {outcome[1]}"
    return outcome


# Cells that both readers take, and cells that np.loadtxt and float() may read
# differently, or not at all.
NUMBERS = st.one_of(
    st.floats().map(repr),
    st.integers(-10**20, 10**20).map(str),
    st.sampled_from(["nan", "-inf", "+nan", "Infinity", "-0.0", "1e400", "5e-324", ".5", "5.",
                     " 1 ", "\t2", "1E-3"]),
)
ODD_CELLS = st.one_of(
    st.sampled_from(['"1"', '"1,2"', "1_0", "#", "#1", "1#2", "", " ", "abc", "1e", "0x10",
                     "\x1c1", "1\x1f", "\x0b1", "\xa01", "\u0661", "1\x00", "\x7f"]),
    st.text(st.sampled_from("0123456789.e-+ \t#_\"nainf\x1c\xa0\r\n,"), max_size=6),
)


@st.composite
def csv_texts(draw):
    """CSV files as bytes: a well formed table of numbers, then up to three
    faults (an odd cell, a blank line, a CR or CRLF ending, a short or long
    row, no final newline) and now and then a byte that is not UTF-8."""
    header = draw(st.sampled_from(["t", "t,y", "t,a,b", "t,a,a", "t, ", '"t",y']))
    width = header.count(",") + 1
    lines = draw(st.lists(st.lists(NUMBERS, min_size=width, max_size=width).map(",".join),
                          max_size=6))
    ends = ["\n"] * len(lines)
    for _ in range(draw(st.integers(0, 3)) if lines else 0):
        i = draw(st.integers(0, len(lines) - 1))
        fault = draw(st.sampled_from(["cell", "blank", "end", "row"]))
        if fault == "cell":
            cells = lines[i].split(",")
            cells[draw(st.integers(0, len(cells) - 1))] = draw(ODD_CELLS)
            lines[i] = ",".join(cells)
        elif fault == "blank":
            lines.insert(i, "")
            ends.insert(i, draw(st.sampled_from(["\n", "\r\n", "\r"])))
        elif fault == "end":
            ends[i] = draw(st.sampled_from(["\r\n", "\r", ""]))
        else:
            lines[i] = ",".join(draw(st.lists(st.one_of(NUMBERS, ODD_CELLS), max_size=width + 1)))
    text = header + "\n" + "".join(map(str.__add__, lines, ends))
    if draw(st.booleans()):
        text = text.rstrip("\r\n")
    data = text.encode()
    if draw(st.integers(0, 9)) == 0:
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from([b"\xff", b"\xe9", b"\xc3"])) + data[at:]
    return data


@settings(max_examples=300, deadline=None)
@given(csv_texts())
@example(b"t,y\n1,2\n\n3,4\n")  # a blank line: loadtxt would skip it
@example(b"t,y\n1,2\n3,4\n\n")
@example(b"t,y\n\n1,2\n")
@example(b"t,y\n1,2#\n3,4\n")  # a comment, to loadtxt's defaults
@example(b"t,y\n1,\x1c2\n")  # whitespace to loadtxt, not to float()
@example(b"t,y\r\n1,2\r\n\r\n3,4\r\n")
@example(b"t,y\n1,2\n3,4")
@example(b"t,y\n" + b"1,-0.0\nnan,-inf\n 3 ,\t4\n" * 3)
@example(b"t,y\n0,1\x00\n")  # a csv error before Python 3.11, a bad number after
def test_the_reader_accepts_and_refuses_what_the_row_walk_did(tmp_path_factory, data):
    """Bit for bit the same columns, or the same refusal, as walking every row."""
    path = str(tmp_path_factory.mktemp("reader") / "data.csv")
    with open(path, "wb") as fh:
        fh.write(data)
    assert read_outcome(read_csv_columns, path) == walked_outcome(path)


def test_a_large_table_is_read_to_the_bit_and_its_faults_named(tmp_path):
    """Above one decoding chunk, in both readers: values, a late blank line, a
    late bad byte and a field longer than the csv module allows."""
    t = np.linspace(0.0, 200.0, 20001)
    path = tmp_path / "big.csv"
    write_csv(path, {"t": t, "a": np.sin(t) * 1e-300, "b": np.exp(t)})
    text = path.read_bytes()
    cases = [text, text + b"\n", text[:-200] + b"\n" + text[-200:],
             text[:-200] + b"\xff" + text[-200:], text[:-5] + b"1" * (1 << 18) + b"\n"]
    for data in cases:
        path.write_bytes(data)
        assert read_outcome(read_csv_columns, str(path)) == walked_outcome(str(path))
    path.write_bytes(text)
    assert np.array_equal(read_csv_columns(str(path))["b"], np.exp(t))


def _fail_midway(column):
    values = np.asarray(column, dtype=float).tolist()
    yield from values[:2]
    raise OSError("disk full")


def _dump_half(doc, fh, **kwargs):
    fh.write('{"columns": {')
    raise OSError("disk full")


@pytest.mark.parametrize("writer, target, failing", [
    (write_csv, "inertia.output._floats", _fail_midway),
    (write_json, "json.dump", _dump_half),
])
@pytest.mark.parametrize("existed", [False, True])
def test_an_interrupted_write_leaves_no_partial_file(tmp_path, monkeypatch, writer, target,
                                                      failing, existed):
    """At 5 rows, and above the cutoff, where a CSV's child fails too and is reaped."""
    path = tmp_path / "data.out"
    if existed:
        path.write_text("old\n")
    monkeypatch.setattr(target, failing)
    pids = spy_on_fork(monkeypatch)
    for rows in (5, output._FORK_NUMBERS // 2 + 1):
        with pytest.raises(OSError, match="disk full"):
            writer(path, {"t": np.arange(float(rows)), "y": np.ones(rows)})
        assert_no_child_process()
        assert sorted(p.name for p in tmp_path.iterdir()) == (["data.out"] if existed else [])
        if existed:
            assert path.read_text() == "old\n"
    assert len(pids) == (writer is write_csv)


def test_manifest_contents(tmp_path):
    write_manifest(str(tmp_path), "demo", {"gamma": 0.4}, ["demo.csv"], 1.25,
                   seed=7, rng_algorithm="PCG64")
    doc = json.loads((tmp_path / "manifest.json").read_text())
    assert doc["experiment"] == "demo"
    assert doc["parameters"] == {"gamma": 0.4}
    assert doc["seed"] == 7
    assert doc["rng_algorithm"] == "PCG64"
    assert doc["version"] == __version__
    assert doc["outputs"] == ["demo.csv"]
    assert doc["duration_seconds"] == 1.25
    # no half-written temp files left behind
    assert sorted(p.name for p in tmp_path.iterdir()) == ["manifest.json"]


# --- rendering -------------------------------------------------------------------

def make_csv(tmp_path, name="curve.csv"):
    path = tmp_path / name
    t = np.linspace(0.0, 1.0, 30)
    write_csv(path, {"t": t, "a": np.cos(t), "b": np.sin(t)})
    return str(path)


def test_render_default_axes(tmp_path):
    src = make_csv(tmp_path)
    out = str(tmp_path / "curve.svg")
    render_csv(src, out)
    svg = open(out).read()
    assert svg.startswith("<svg")
    assert svg.count("<polyline") == 2  # one per non-x column
    assert ">a</text>" in svg and ">b</text>" in svg


def test_render_xy_selection(tmp_path):
    src = make_csv(tmp_path)
    out = str(tmp_path / "ab.svg")
    render_csv(src, out, xy="a:b")
    svg = open(out).read()
    assert svg.count("<polyline") == 1


def test_render_rejects_unknown_columns(tmp_path):
    src = make_csv(tmp_path)
    with pytest.raises(InvalidArgument):
        render_csv(src, str(tmp_path / "x.svg"), xy="a:nope")
    with pytest.raises(InvalidArgument):
        render_csv(src, str(tmp_path / "x.svg"), xy="garbage")


def test_render_is_deterministic(tmp_path):
    src = make_csv(tmp_path)
    out1, out2 = str(tmp_path / "r1.svg"), str(tmp_path / "r2.svg")
    render_csv(src, out1)
    render_csv(src, out2)
    assert open(out1, "rb").read() == open(out2, "rb").read()


def test_render_points_match_the_numpy_scalar_formatter(tmp_path):
    """Points formatted from Python floats must give the bytes of per-point numpy scalars."""
    rng = np.random.default_rng(3)
    t = np.linspace(0.0, 7.0, 500)
    cols = {"t": t, "a": 1e-3 * rng.standard_normal(500),
            "b": np.concatenate([[-0.0, 5e-324], np.cumsum(rng.standard_normal(498))])}
    src, out = str(tmp_path / "pts.csv"), str(tmp_path / "pts.svg")
    write_csv(src, cols)
    render_csv(src, out)
    svg = open(out).read()
    y_all = np.concatenate([cols["a"], cols["b"]])
    _, _, to_px = render._scale(float(t.min()), float(t.max()),
                                render._MARGIN_L, render._WIDTH - render._MARGIN_R)
    _, _, to_py = render._scale(float(y_all.min()), float(y_all.max()),
                                render._HEIGHT - render._MARGIN_B, render._MARGIN_T)
    assert svg.count("<polyline") == 2
    for name in ("a", "b"):
        points = " ".join(f"{to_px(xi):.2f},{to_py(yi):.2f}" for xi, yi in zip(t, cols[name]))
        assert f'<polyline points="{points}" ' in svg


def test_a_large_render_has_the_bytes_of_one_process(tmp_path, monkeypatch):
    """A figure above the cutoff formats all its polylines in two processes, with one
    fork; each polyline's halves are joined by one space."""
    n = output._FORK_NUMBERS // 2 + 1
    t = np.linspace(0.0, 7.0, n)
    src = str(tmp_path / "pts.csv")
    write_csv(src, {"t": t, "a": np.sin(t), "b": np.cumsum(np.cos(3.0 * t))})
    pids = spy_on_fork(monkeypatch)
    render_csv(src, str(tmp_path / "forked.svg"))
    assert len(pids) == 1  # one for both polylines
    assert_no_child_process()
    monkeypatch.delattr(os, "fork")
    render_csv(src, str(tmp_path / "here.svg"))
    forked = (tmp_path / "forked.svg").read_bytes()
    assert forked == (tmp_path / "here.svg").read_bytes()
    assert forked.count(b"<polyline") == 2
    assert all(line.count(b",") == n for line in forked.split(b"\n") if b"<polyline" in line)


@pytest.mark.parametrize("values", [
    [2.5, 2.5, 2.5],  # flat: widened by one on each side
    [0.0, 5e-324, 1e-323],  # a subnormal span
    [-0.0, 0.0, -0.0, 1.0],
    [1e300, -1e300, 3e299],
    [1.7e308, -1.7e308, 0.0],  # a span past the largest float: mapped by quarters
    [-1.79e308, 0.0, -1e308],  # a padded span past it
    [sys.float_info.max, -sys.float_info.max, 5e-324],
])
def test_the_numpy_pixel_mapping_has_the_bits_of_the_scalar_one(values):
    """Every pixel is finite and inside the plot, in the order of its value."""
    values = np.array(values)
    for pixel_lo, pixel_hi in ((render._MARGIN_L, render._WIDTH - render._MARGIN_R),
                               (render._HEIGHT - render._MARGIN_B, render._MARGIN_T)):
        lo, hi, to_pixel = render._scale(float(values.min()), float(values.max()), pixel_lo, pixel_hi)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mapped = render._pixels(to_pixel, values)
            ticks = [to_pixel(tick) for tick in render._ticks(lo, hi)]
        assert all(type(p) is float for p in mapped)
        scalar = [to_pixel(v) for v in values.tolist()]
        assert np.array(mapped).tobytes() == np.array(scalar).tobytes()
        for pixels in (mapped, ticks):
            assert all(min(pixel_lo, pixel_hi) <= p <= max(pixel_lo, pixel_hi) for p in pixels)
        order = np.argsort(values, kind="stable")
        assert np.all(np.diff(np.array(mapped)[order]) * (pixel_hi - pixel_lo) >= 0)
        assert np.all(np.diff(ticks) * (pixel_hi - pixel_lo) >= 0)


@pytest.mark.parametrize("level", [2.5, -7.0, 0.0, 5e-324, 2.0**52 + 1, 2.0**53, -2.0**53,
                                   1e16, -1e300, 1.7e308, sys.float_info.max,
                                   -sys.float_info.max])
def test_a_flat_range_is_widened_by_one_or_else_by_one_float(level):
    """Where one unit each side widens a flat range, it is widened so, as it
    always was; beyond, where a unit rounds away, by one float each side, or
    by two floats inward at the largest float, so that nothing overflows."""
    lo, hi, to_pixel = render._scale(level, level, 0.0, 100.0)
    if level - 1.0 != level + 1.0:
        span = (level + 1.0) - (level - 1.0)
        assert (lo, hi) == ((level - 1.0) - 0.05 * span, (level + 1.0) + 0.05 * span)
    elif abs(level) < sys.float_info.max:
        assert math.nextafter(level, -math.inf) >= lo and hi >= math.nextafter(level, math.inf)
    else:
        assert lo <= level <= hi and 0.0 < hi - lo <= 3 * math.ulp(level)
    assert lo < hi and math.isfinite(hi - lo) and 0.0 <= to_pixel(level) <= 100.0


@pytest.mark.parametrize("level", ["1e16", "-1e300"])
def test_render_of_a_flat_series_beyond_a_unit_draws_it_mid_height(tmp_path, level):
    path = tmp_path / "flat.csv"
    path.write_text(f"t,y\n0,{level}\n1,{level}\n")
    assert main(["render", "--input", str(path), "--out", str(tmp_path / "flat.svg")]) == 0
    svg = (tmp_path / "flat.svg").read_text()
    middle = (render._HEIGHT - render._MARGIN_B + render._MARGIN_T) / 2
    assert f'points="{render._MARGIN_L + 0.05 / 1.1 * 640:.2f},{middle:.2f} ' in svg
    assert "nan" not in svg and "inf" not in svg


@pytest.mark.parametrize("level", ["1.7976931348623157e308", "-1.7976931348623157e308"])
def test_render_of_a_flat_series_at_the_largest_float_draws_no_nan(tmp_path, level):
    path = tmp_path / "flat.csv"
    path.write_text(f"t,y\n0,{level}\n1,{level}\n")
    assert main(["render", "--input", str(path), "--out", str(tmp_path / "flat.svg")]) == 0
    svg = (tmp_path / "flat.svg").read_text()
    assert "points=" in svg and "nan" not in svg and "inf" not in svg


@pytest.mark.parametrize("text", ["t,y\n0,-1.7e308\n1,1.7e308\n",
                                  "x,y\n1,0\n1e308,1\n-1e308,2\n"])
def test_render_of_a_span_past_the_largest_float_draws_no_nan(tmp_path, text):
    path = tmp_path / "wide.csv"
    path.write_text(text)
    assert main(["render", "--input", str(path), "--out", str(tmp_path / "wide.svg")]) == 0
    svg = (tmp_path / "wide.svg").read_text()
    assert "points=" in svg and "nan" not in svg and "inf" not in svg


# --- command-line interface --------------------------------------------------------

def run_cli(tmp_path, *argv):
    out_dir = str(tmp_path / "out")
    return main(list(argv) + ["--out-dir", out_dir]), out_dir


def test_conserve_writes_both_cases(tmp_path, capsys):
    code, out = run_cli(tmp_path, "conserve", "--T", "2")
    assert code == 0
    names = sorted(os.listdir(out))
    assert names == ["conserve.csv", "conserve_g0.4.csv", "conserve_g0.csv", "manifest.json"]
    combined = read_csv_columns(os.path.join(out, "conserve.csv"))
    assert list(combined) == ["t", "inertia_g0", "inertia_g0.4"]
    stdout = capsys.readouterr().out
    assert "max relative inertia drift" in stdout
    assert "I(T)/I(0)" in stdout


def test_conserve_from_rest_at_the_minimum_prints_the_final_energy(tmp_path, capsys):
    """I(0) = 0 has no decay ratio; the line shows I(T) itself, with no warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, _ = run_cli(tmp_path, "conserve", "--T", "20", "--gamma", "0.4",
                          "--w0=-0.0", "--v0=-0.0")
    assert code == 0
    stdout = capsys.readouterr().out
    assert "gamma=0.4: I(T) = 0.000000 (I(0) = 0), exp(-gamma*T) = 0.000335\n" in stdout
    assert "nan" not in stdout


def test_conserve_gamma0_only(tmp_path):
    code, out = run_cli(tmp_path, "conserve", "--T", "2", "--gamma", "0")
    assert code == 0
    assert sorted(os.listdir(out)) == ["conserve_g0.csv", "manifest.json"]


def test_conserve_euler_warning(tmp_path, capsys):
    code, _ = run_cli(tmp_path, "conserve", "--T", "2", "--gamma", "0",
                      "--method", "explicit_euler")
    assert code == 0
    assert "negative control" in capsys.readouterr().out


def test_conserve_trajectory_schema(tmp_path):
    code, out = run_cli(tmp_path, "conserve", "--T", "1", "--gamma", "0")
    assert code == 0
    cols = read_csv_columns(os.path.join(out, "conserve_g0.csv"))
    assert list(cols) == ["t", "w0", "v0", "inertia"]
    assert len(cols["t"]) == 101


def capture_runs(monkeypatch) -> list:
    """The trajectories the CLI integrates from now on, in order."""
    runs, integrate = [], cli.integrate

    def recording(*args):
        runs.append(integrate(*args))
        return runs[-1]
    monkeypatch.setattr(cli, "integrate", recording)
    return runs


def combined_columns(runs, gamma: str) -> dict[str, np.ndarray]:
    """conserve.csv's columns as cmd_conserve computes them."""
    g0, damped = runs
    return {"t": g0.times, "inertia_g0": g0.inertia, f"inertia_g{gamma}": damped.inertia}


@pytest.mark.parametrize("argv", [
    ["--T", "2", "--gamma", "0.4"],
    ["--T", "110", "--gamma", "0.4"],  # 11001 rows: every table is above the cutoff
    ["--landscape", "iso2d", "--w0", "1,0.5", "--v0", "0,-0.3", "--T", "5", "--gamma", "0.4"],
    ["--landscape", "diag:1,4", "--w0", "1,0.5", "--v0", "0,-0.3", "--T", "5", "--gamma", "0.7"],
])
def test_conserve_csv_has_the_bytes_of_its_columns_formatted_anew(tmp_path, monkeypatch, argv):
    """conserve.csv, written in one pass with the runs' tables from the cells they
    share, has write_csv's bytes of the same values."""
    runs = capture_runs(monkeypatch)
    code, out = run_cli(tmp_path, "conserve", *argv)
    assert code == 0
    columns = combined_columns(runs, argv[-1])
    if argv[1] == "110":
        assert 3 * len(columns["t"]) >= output._FORK_NUMBERS
    write_csv(tmp_path / "expected.csv", columns)
    written = (tmp_path / "out" / "conserve.csv").read_bytes()
    assert written == (tmp_path / "expected.csv").read_bytes()
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["outputs"] == ["conserve_g0.csv", f"conserve_g{argv[-1]}.csv", "conserve.csv"]


def test_conserve_json_writes_its_combined_table_as_before(tmp_path, monkeypatch):
    runs = capture_runs(monkeypatch)
    code, out = run_cli(tmp_path, "conserve", "--T", "3", "--gamma", "0.4", "--format", "json")
    assert code == 0
    write_json(tmp_path / "expected.json", combined_columns(runs, "0.4"))
    written = (tmp_path / "out" / "conserve.json").read_bytes()
    assert written == (tmp_path / "expected.json").read_bytes()
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["outputs"] == ["conserve_g0.json", "conserve_g0.4.json", "conserve.json"]


def test_a_horizon_conserve_forks_one_formatting_helper(tmp_path, monkeypatch):
    """Its three 20001-row tables are split between the run and one child, which
    is reaped before the run returns."""
    pids = spy_on_fork(monkeypatch)
    code, out = run_cli(tmp_path, "conserve", "--T", "200", "--gamma", "0.4")
    assert code == 0
    assert len(pids) == 1
    assert_no_child_process()
    assert sorted(os.listdir(out)) == ["conserve.csv", "conserve_g0.4.csv", "conserve_g0.csv",
                                       "manifest.json"]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_a_conserve_whose_second_run_fails_writes_the_first(tmp_path, monkeypatch, capsys, fmt):
    """The damped run overflows: the frictionless run's table is written, its lines
    printed and the failed manifest lists it, as when each run was written as it ended."""
    runs = capture_runs(monkeypatch)
    spy_on_fork(monkeypatch)
    code, out = run_cli(tmp_path, "conserve", "--method", "explicit_euler", "--gamma", "1e5",
                        "--T", "200", "--format", fmt)
    assert code == 3
    assert len(runs) == 1
    assert_no_child_process()
    captured = capsys.readouterr()
    assert captured.out == (
        f"wrote {out}/conserve_g0.{fmt}\n"
        "gamma=0 (explicit_euler): max relative inertia drift = 6.388e+00\n"
        "warning: explicit_euler grows the energy monotonically; "
        "it is the negative control, not a production integrator\n")
    assert captured.err == "numerical failure: non-finite state at step 104\n"
    assert sorted(os.listdir(out)) == [f"conserve_g0.{fmt}", "manifest.json"]
    g0 = runs[0]
    columns = {"t": g0.times, "w0": g0.ws[:, 0], "v0": g0.vs[:, 0], "inertia": g0.inertia}
    (write_csv if fmt == "csv" else write_json)(tmp_path / "expected", columns)
    assert (tmp_path / "out" / f"conserve_g0.{fmt}").read_bytes() == \
        (tmp_path / "expected").read_bytes()
    manifest = _manifest(out)
    assert manifest["outputs"] == [f"conserve_g0.{fmt}"]
    assert manifest["status"] == {"state": "failed", "exit_code": 3,
                                  "error": "non-finite state at step 104", "step_index": 104,
                                  "member": None}


def test_phase_runs_and_reports_closure(tmp_path, capsys):
    code, out = run_cli(tmp_path, "phase", "--gammas", "0,0.4")
    assert code == 0
    assert "orbit closure distance" in capsys.readouterr().out
    assert "phase_g0.csv" in os.listdir(out)
    assert "phase_g0.4.csv" in os.listdir(out)


def test_sweep_outputs_and_slope(tmp_path, capsys):
    code, out = run_cli(tmp_path, "sweep", "--gammas", "0.2,0.4")
    assert code == 0
    cols = read_csv_columns(os.path.join(out, "sweep.csv"))
    assert list(cols) == ["gamma", "gamma_hat", "r_squared"]
    assert "regression slope" in capsys.readouterr().out


def test_traj2d_default_inits(tmp_path, capsys):
    code, out = run_cli(tmp_path, "traj2d", "--gamma", "0", "--T", "2")
    assert code == 0
    names = sorted(os.listdir(out))
    assert names == ["manifest.json", "traj2d_init0.csv", "traj2d_init1.csv", "traj2d_init2.csv"]
    cols = read_csv_columns(os.path.join(out, "traj2d_init0.csv"))
    assert list(cols) == ["t", "w0", "w1", "v0", "v1", "inertia"]


@pytest.mark.parametrize("argv", [["--gamma", "1e-3"], ["--gamma", "1e-6"],
                                  ["--gamma", "1e-3", "--landscape", "diag:1,4"]])
def test_a_lightly_damped_traj2d_run_passes(tmp_path, argv):
    """Under light damping the splitting lets I rise by about 1e-9 between
    steps; the modified energy it decreases at every step is what is judged."""
    code, out = run_cli(tmp_path, "traj2d", *argv)
    assert code == 0
    energy = read_csv_columns(os.path.join(out, "traj2d_init0.csv"))["inertia"]
    assert np.diff(energy).max() > 1e-12  # what the verdict used to refuse


def test_a_damped_traj2d_run_of_a_method_that_gains_energy_fails(tmp_path, capsys):
    code, _ = run_cli(tmp_path, "traj2d", "--gamma", "1e-3", "--method", "explicit_euler")
    assert code == 3
    assert "damped trajectory 0 has an energy increase of" in capsys.readouterr().err


def test_traj2d_single_init_at_minimum(tmp_path):
    # the degenerate orbit: zero energy throughout, still fine
    code, out = run_cli(tmp_path, "traj2d", "--gamma", "0", "--T", "1", "--inits", "0,0")
    assert code == 0
    cols = read_csv_columns(os.path.join(out, "traj2d_init0.csv"))
    assert np.all(cols["inertia"] == 0.0)


def test_discrete_with_halving(tmp_path, capsys):
    code, out = run_cli(tmp_path, "discrete", "--eta", "0.1", "--steps", "100", "--eta-halving")
    assert code == 0
    assert sorted(os.listdir(out)) == ["discrete.csv", "discrete_halving.csv", "manifest.json"]
    cols = read_csv_columns(os.path.join(out, "discrete.csv"))
    assert list(cols) == ["step", "w0", "v0", "inertia"]
    assert "drift ratio" in capsys.readouterr().out


def test_discrete_halving_reuses_the_run_at_eta(tmp_path):
    code, out = run_cli(tmp_path, "discrete", "--eta", "0.1", "--steps", "100", "--eta-halving",
                        "--w0", "0.3", "--v0", "-0.7")
    assert code == 0
    table = read_csv_columns(os.path.join(out, "discrete_halving.csv"))
    iso1 = quadratic_isotropic(1)
    _, full = drift_profile([0.3], [-0.7], 0.1, 100, iso1)
    _, half = drift_profile([0.3], [-0.7], 0.05, 200, iso1)
    assert table["max_drift"].tolist() == [full, half]


def test_discrete_halving_refuses_its_second_run_before_the_first(tmp_path, monkeypatch,
                                                                  capsys):
    """With the step limit at 1000, 600 steps at eta are allowed but 1200 at eta/2
    are not: exit 2 before either run, and no output directory."""
    def at_most_1000(n_steps):
        if not n_steps <= 1000:
            raise InvalidArgument(f"refusing a run of {n_steps:.3g} steps (limit 1e3)")
    monkeypatch.setattr(integrators, "check_step_count", at_most_1000)
    monkeypatch.setattr(cli, "check_step_count", at_most_1000)
    runs = []
    monkeypatch.setattr(cli, "discrete_trajectory", lambda *args: runs.append(args))
    code, out = run_cli(tmp_path, "discrete", "--steps", "600", "--eta-halving")
    assert code == 2
    assert capsys.readouterr() == ("", "error: refusing a run of 1.2e+03 steps (limit 1e3)\n")
    assert runs == []
    assert not os.path.exists(out)
    monkeypatch.undo()
    # an eta whose half rounds to zero has no second run either
    code, out = run_cli(tmp_path, "discrete", "--eta", "5e-324", "--steps", "1", "--eta-halving")
    assert code == 2
    assert capsys.readouterr().err.startswith("error: --eta 4.94066e-324 ")
    assert not os.path.exists(out)


def test_failed_sweep_fit_is_null_in_json(tmp_path, capsys):
    code, out = run_cli(tmp_path, "sweep", "--gammas", "0.1,2.5", "--format", "json")
    assert code == 3  # one fit failed
    doc = json.loads(open(os.path.join(out, "sweep.json")).read(), parse_constant=pytest.fail)
    assert doc["columns"]["gamma"] == [0.1, 2.5]
    assert doc["columns"]["gamma_hat"][1] is None
    assert doc["columns"]["r_squared"][1] is None
    assert isinstance(doc["columns"]["gamma_hat"][0], float)


def test_render_refuses_non_finite_values(tmp_path, capsys):
    code, out = run_cli(tmp_path, "sweep", "--gammas", "0.1,2.5")
    assert code == 3
    svg = tmp_path / "sweep.svg"
    code = main(["render", "--input", os.path.join(out, "sweep.csv"), "--out", str(svg),
                 "--xy", "gamma:gamma_hat"])
    assert code == 2
    assert "non-finite" in capsys.readouterr().err
    assert not svg.exists()


def test_stochastic_reports_balance(tmp_path, capsys):
    code, out = run_cli(tmp_path, "stochastic", "--T", "2", "--members", "100")
    assert code == 0
    assert "balance residual" in capsys.readouterr().out
    cols = read_csv_columns(os.path.join(out, "stochastic.csv"))
    assert list(cols) == ["t", "mean_I", "stderr_I", "mean_speed_sq", "mean_dIdt"]
    doc = json.loads(open(os.path.join(out, "manifest.json")).read())
    assert doc["rng_algorithm"] == "PCG64"
    assert doc["seed"] == 0


def test_a_stochastic_run_too_short_for_its_balance_exits_2(tmp_path, capsys):
    """5 steps leave 4 interior samples: the refusal says what the balance
    needs, what the run leaves and what to change, before any output."""
    code, out = run_cli(tmp_path, "stochastic", "--members", "100", "--T", "0.05")
    assert code == 2
    assert capsys.readouterr() == ("", "error: too few samples for the balance average: it "
                                   "needs 10 interior samples, this run leaves 4; lengthen "
                                   "t_end or shorten h\n")
    assert not os.path.exists(out)


def test_stochastic_correlated_adds_work_column(tmp_path):
    code, out = run_cli(tmp_path, "stochastic", "--T", "2", "--members", "100",
                        "--noise", "ou:0.5")
    assert code == 0
    cols = read_csv_columns(os.path.join(out, "stochastic.csv"))
    assert "mean_noise_dot_v" in cols


@pytest.mark.parametrize("noise", ["white", "ou:0.5"])
def test_desk_scale_ensembles_draw_their_noise_in_process(tmp_path, monkeypatch, noise):
    """reproduce_all.py's 200-member runs take one noise refill, so they never fork."""
    def no_fork():
        raise AssertionError("a desk-scale ensemble forked a partner")
    monkeypatch.setattr(os, "fork", no_fork)
    code, _ = run_cli(tmp_path, "stochastic", "--members", "200", "--noise", noise)
    assert code == 0


def test_a_stochastic_run_whose_fork_fails_writes_the_forked_bytes(tmp_path, monkeypatch):
    """Refills of 3 steps: the first run steps half of its members in a forked
    partner; the second, refused a process, steps them all in process."""
    monkeypatch.setattr(integrators, "_NOISE_FLOATS", 2 * 3 * 2 * 100)
    pids = spy_on_fork(monkeypatch)
    argv = ["stochastic", "--T", "1", "--members", "100"]
    assert run_cli(tmp_path / "forked", *argv)[0] == 0
    assert len(pids) == 1
    monkeypatch.setattr(os, "fork", no_process_to_spare)
    assert run_cli(tmp_path / "in_place", *argv)[0] == 0
    assert_no_child_process()
    csv_bytes = [(tmp_path / side / "out" / "stochastic.csv").read_bytes()
                 for side in ("forked", "in_place")]
    assert csv_bytes[0] == csv_bytes[1]


def test_render_adds_to_the_experiment_manifest(tmp_path):
    code, out = run_cli(tmp_path, "conserve", "--T", "1")
    assert code == 0
    manifest = os.path.join(out, "manifest.json")
    before = json.loads(open(manifest).read())
    argv = ["render", "--input", os.path.join(out, "conserve.csv"),
            "--out", os.path.join(out, "conserve.svg")]
    assert main(argv) == 0
    assert main(argv) == 0  # a second render of the same figure is recorded once
    after = json.loads(open(manifest).read())
    assert after["experiment"] == "conserve"
    for key in ("parameters", "seed", "version", "duration_seconds"):
        assert after[key] == before[key]
    assert after["outputs"] == before["outputs"] + ["conserve.svg"]
    assert after["renders"]["conserve.svg"]["parameters"] == {
        "input": argv[2], "out": argv[4], "xy": None}
    assert sorted(os.listdir(out)) == sorted(before["outputs"] + ["conserve.svg", "manifest.json"])


def test_render_into_a_fresh_directory_writes_a_render_manifest(tmp_path):
    code, out = run_cli(tmp_path, "conserve", "--T", "1")
    assert code == 0
    svg = str(tmp_path / "figures" / "conserve.svg")
    assert main(["render", "--input", os.path.join(out, "conserve.csv"), "--out", svg]) == 0
    doc = json.loads(open(tmp_path / "figures" / "manifest.json").read())
    assert doc["experiment"] == "render"
    assert doc["outputs"] == ["conserve.svg"]


@pytest.mark.parametrize("body", ["[]", '{"experiment": "x"}', '{"outputs": [], "renders": []}',
                                  "{not json"])
def test_render_refuses_a_manifest_it_cannot_record_in(tmp_path, capsys, body):
    """A ``manifest.json`` that is not a run manifest exits 2 naming it, and is
    left as it was; the figure itself is written."""
    code, out = run_cli(tmp_path, "conserve", "--T", "1")
    assert code == 0
    manifest = tmp_path / "figures" / "manifest.json"
    manifest.parent.mkdir()
    manifest.write_text(body)
    capsys.readouterr()
    svg = str(manifest.parent / "conserve.svg")
    assert main(["render", "--input", os.path.join(out, "conserve.csv"), "--out", svg]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot record the render in {manifest}: ")
    assert manifest.read_text() == body
    assert os.path.exists(svg)


def test_render_subcommand(tmp_path):
    code, out = run_cli(tmp_path, "conserve", "--T", "1", "--gamma", "0")
    assert code == 0
    svg = str(tmp_path / "plot.svg")
    assert main(["render", "--input", os.path.join(out, "conserve_g0.csv"),
                 "--out", svg]) == 0
    assert open(svg).read().count("<polyline") == 3  # w0, v0, inertia vs t


def test_json_format_flag(tmp_path):
    code, out = run_cli(tmp_path, "conserve", "--T", "1", "--gamma", "0",
                        "--format", "json")
    assert code == 0
    doc = json.loads(open(os.path.join(out, "conserve_g0.json")).read())
    assert doc["columns"]["t"][0] == 0.0


def test_reruns_are_byte_identical(tmp_path):
    _, out1 = run_cli(tmp_path / "a", "stochastic", "--T", "1", "--members", "100", "--seed", "5")
    _, out2 = run_cli(tmp_path / "b", "stochastic", "--T", "1", "--members", "100", "--seed", "5")
    b1 = open(os.path.join(out1, "stochastic.csv"), "rb").read()
    b2 = open(os.path.join(out2, "stochastic.csv"), "rb").read()
    assert b1 == b2


def test_different_seed_changes_output(tmp_path):
    _, out1 = run_cli(tmp_path / "a", "stochastic", "--T", "1", "--members", "100", "--seed", "5")
    _, out2 = run_cli(tmp_path / "b", "stochastic", "--T", "1", "--members", "100", "--seed", "6")
    b1 = open(os.path.join(out1, "stochastic.csv"), "rb").read()
    b2 = open(os.path.join(out2, "stochastic.csv"), "rb").read()
    assert b1 != b2


# --- exit codes ----------------------------------------------------------------------

def test_bad_arguments_exit_2(tmp_path, capsys):
    cases = [
        ["conserve", "--landscape", "banana"],
        # an identity numpy refuses to build, refused before anything is allocated
        ["conserve", "--landscape", "iso10000000000d"],
        ["conserve", "--w0", "1,2"],              # dimension mismatch on iso1d
        ["phase", "--gammas", ","],
        ["stochastic", "--noise", "purple"],
        ["stochastic", "--members", "10"],
        ["sweep", "--w0", "1,2"],
        ["conserve", "--method", "verlet", "--gamma", "0.4"],
        # a later gamma is refused before the first gamma writes its file
        ["phase", "--method", "verlet", "--gammas", "0,0.4"],
        ["phase", "--gammas", "0,nan"],
        # non-finite numbers
        ["conserve", "--h", "inf"],
        ["discrete", "--eta", "nan"],
        ["conserve", "--gamma", "nan"],
        ["stochastic", "--sigma", "nan"],
        ["stochastic", "--noise", "ou:nan"],
        ["conserve", "--landscape", "diag:inf"],
        ["conserve", "--landscape", "diag:nan"],
        # non-finite start points
        ["conserve", "--w0", "inf"],
        ["stochastic", "--v0", "nan"],
        # the sweep's own arguments, refused before its first run
        ["sweep", "--h", "0"],
        ["sweep", "--h", "nan"],
        ["sweep", "--periods", "0"],
        ["sweep", "--gammas", "-0.1"],
        ["sweep", "--gammas", "nan"],
        # 1e301 steps: over the 1e8 limit, refused before anything is allocated
        ["discrete", "--eta", "1e-300"],
        ["discrete", "--steps", "0"],
        # gammas whose runs would share a label (and phase a file), refused before any run
        ["phase", "--gammas", "0.1,0.1000001", "--T", "2"],
        ["sweep", "--gammas", "0.2,0.2"],
        # unparsable values
        ["phase", "--gammas", "0.1,x"],
        ["stochastic", "--noise", "ou:x"],
        ["traj2d", "--inits", ";"],
        ["conserve", "--landscape", "diag:1,x"],
    ]
    for argv in cases:
        code = main(argv + ["--out-dir", str(tmp_path / "out")])
        assert code == 2, argv
        assert capsys.readouterr().err.startswith("error:")
        assert not (tmp_path / "out").exists(), argv  # no manifest, no data file
    # --steps derived from 10 / eta = 0.4 rounds to none: the refusal names --eta, which was given
    assert main(["discrete", "--eta", "25", "--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --eta 25 ") and "round(10 / eta) = 0" in err
    assert not (tmp_path / "out").exists()
    # render takes no --out-dir; exercised on its own
    code = main(["render", "--input", str(tmp_path / "missing.csv"),
                 "--out", str(tmp_path / "x.svg")])
    assert code == 2
    assert capsys.readouterr().err.startswith("error:")
    (tmp_path / "one.csv").write_text("t\n0\n1\n")
    code = main(["render", "--input", str(tmp_path / "one.csv"), "--out", str(tmp_path / "x.svg")])
    assert code == 2
    assert capsys.readouterr().err == "error: need at least two columns to plot\n"
    assert not (tmp_path / "x.svg").exists()


def test_a_bad_later_start_is_refused_before_the_first_run(tmp_path, capsys):
    """Every --inits point is checked before any start runs: exit 2, no output directory."""
    code = main(["traj2d", "--inits", "1,0;inf,0", "--out-dir", str(tmp_path / "out")])
    assert code == 2
    assert capsys.readouterr().err == "error: --inits point 'inf,0' is not finite\n"
    assert not (tmp_path / "out").exists()  # traj2d_init0.csv was not written first


OVERFLOWING_ENSEMBLE = ["stochastic", "--h", "2.5", "--gamma", "0"]


@pytest.mark.parametrize("argv, error, step_index", [
    pytest.param(["conserve", "--w0", "1e200"], "energy not finite at step 0", 0, id="conserve"),
    pytest.param(["discrete", "--w0", "1e200"], "energy not finite at step 0", 0, id="discrete"),
    pytest.param([*OVERFLOWING_ENSEMBLE, "--members", "100", "--T", "500"],
                 "ensemble statistics not finite at step 128", 128, id="ensemble-statistics"),
    pytest.param([*OVERFLOWING_ENSEMBLE, "--members", "100", "--T", "2000"],
                 "non-finite state in member 19 at step 512", 512, id="ensemble-member"),
    pytest.param([*OVERFLOWING_ENSEMBLE, "--members", "10000", "--T", "2000"],
                 "non-finite state in member 19 at step 512", 512, id="ensemble-member-forked"),
    pytest.param(["conserve", "--landscape", "iso2d", "--w0", "1,0", "--v0", "0,0",
                  "--method", "explicit_euler", "--h", "3", "--T", "6000"],
                 "non-finite state at step 617", 617, id="conserve-2d"),
])
def test_an_overflowing_energy_fails_without_numpy_warnings(tmp_path, capsys, argv, error,
                                                            step_index):
    """integrate, its replay, discrete_trajectory and the ensemble report the overflow alone.

    At 10^4 members the ensemble steps half of its members in a forked partner, which
    the failure must not leave behind.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out = run_cli(tmp_path, *argv)
    assert code == 3
    assert capsys.readouterr().err == f"numerical failure: {error}\n"
    assert _manifest(out)["status"]["step_index"] == step_index
    assert_no_child_process()


IGNORED_FLAGS = {
    "conserve": ["--sigma=0.1", "--noise=white", "--gamma0-only"],
    "phase": ["--gamma=0.1", "--sigma=0.1", "--noise=white"],
    "sweep": ["--gamma=0.1", "--sigma=0.1", "--noise=white", "--method=rk4", "--T=3",
              "--landscape=iso1d"],
    "traj2d": ["--sigma=0.1", "--noise=white", "--w0=1,0"],
    "discrete": ["--gamma=0.1", "--sigma=0.1", "--noise=white", "--method=rk4", "--h=0.1",
                 "--T=3"],
    "stochastic": ["--method=stochastic_splitting"],
}


@pytest.mark.parametrize("command,flag", [
    (command, flag) for command, flags in IGNORED_FLAGS.items() for flag in flags
])
def test_subcommands_refuse_flags_they_do_not_read(tmp_path, capsys, command, flag):
    with pytest.raises(SystemExit) as exc:
        main([command, flag, "--out-dir", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["conserve", "phase", "traj2d"])
def test_method_takes_only_the_noise_free_methods(tmp_path, capsys, command):
    """These subcommands build noise-free systems, which stochastic_splitting cannot run."""
    with pytest.raises(SystemExit) as exc:
        main([command, "--method=stochastic_splitting", "--out-dir", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert "argument --method: invalid choice: 'stochastic_splitting'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_numerical_failure_exits_3(tmp_path, capsys):
    with np.errstate(over="ignore", invalid="ignore"):
        code, _ = run_cli(tmp_path, "discrete", "--eta", "2.1", "--steps", "2000")
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure:")
    assert "at step " in err


@pytest.mark.parametrize("command", ["conserve", "phase", "sweep", "traj2d", "discrete"])
def test_deterministic_subcommands_refuse_a_seed(tmp_path, capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--seed", "1", "--out-dir", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# --- manifests -----------------------------------------------------------------------

def _manifest(out_dir):
    return json.loads(open(os.path.join(out_dir, "manifest.json")).read())


def _declared_flags(command):
    """The dests a subcommand's parser declares, less the ones that only place output."""
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    dests = {action.dest for action in sub.choices[command]._actions}
    return dests - {"help", "out_dir", "format", "seed"}


@pytest.mark.parametrize("argv, derived", [
    (["conserve", "--T", "1"], {"T": 1.0, "landscape": "iso1d"}),
    (["phase"], {"T": 20.0, "landscape": "iso1d"}),
    (["sweep", "--gammas", "0.4,0.8"], {"gammas": "0.4,0.8"}),
    (["traj2d", "--T", "1"],
     {"landscape": "iso2d", "v0": "0,0", "method": "damped_splitting"}),
    (["discrete", "--eta", "0.1"], {"steps": 100, "landscape": "iso1d"}),
    (["stochastic", "--T", "1", "--members", "100"], {"sigma": 0.3, "noise": "white"}),
])
def test_manifest_parameters_are_the_declared_flags(tmp_path, argv, derived):
    code, out = run_cli(tmp_path, *argv)
    assert code == 0
    doc = _manifest(out)
    assert doc["status"] == {"state": "ok"}
    parameters = doc["parameters"]
    assert set(parameters) == _declared_flags(argv[0])
    # conserve and phase pick the integrator per gamma when --method is omitted
    per_gamma = {"method"} if argv[0] in ("conserve", "phase") else set()
    assert [k for k, v in parameters.items() if v is None and k not in per_gamma] == []
    assert {k: parameters[k] for k in derived} == derived
    if "method" in parameters and parameters["method"] is not None:
        assert parameters["method"] in METHODS


def test_the_parser_built_once_gives_each_call_fresh_values(tmp_path, monkeypatch):
    """main reuses one parser per process, yet no call's values reach a later call:
    traj2d resolves --v0 and --method and discrete resolves --steps into its args."""
    sequence = [["conserve", "--T", "1"], ["traj2d", "--T", "1"], ["discrete", "--eta", "0.1"],
                ["stochastic", "--T", "1", "--members", "100"], ["traj2d", "--T", "1"],
                ["conserve", "--T", "1"]]
    with monkeypatch.context() as fresh:
        fresh.setattr(cli, "_parser", build_parser)
        expected = [_manifest(run_cli(tmp_path / f"fresh{i}", *argv)[1])["parameters"]
                    for i, argv in enumerate(sequence)]
    cli._parser.cache_clear()
    for i, argv in enumerate(sequence):
        code, out = run_cli(tmp_path / f"cached{i}", *argv)
        assert code == 0
        assert _manifest(out)["parameters"] == expected[i], argv
    assert cli._parser() is cli._parser()
    assert build_parser() is not build_parser()


def test_phase_manifest_records_the_method(tmp_path):
    _, plain = run_cli(tmp_path / "a", "phase")
    _, rk4 = run_cli(tmp_path / "b", "phase", "--method", "rk4")
    assert _manifest(plain)["parameters"]["method"] is None
    assert _manifest(rk4)["parameters"]["method"] == "rk4"


@pytest.mark.parametrize("argv, outputs, error, step_index, member", [
    (["traj2d", "--gamma", "0", "--method", "rk4", "--T", "200", "--h", "0.5"],
     ["traj2d_init0.csv"], "frictionless trajectory 0 drifted", None, None),
    (["phase", "--method", "rk4", "--T", "200", "--h", "0.5"],
     ["phase_g0.csv"], "frictionless orbit failed to close", None, None),
    (["sweep", "--gammas", "0.1,2.5"], ["sweep.csv"], "1 of 2 fits failed", None, None),
    (["discrete", "--eta", "2.1", "--steps", "2000"], [], "energy not finite at step 563",
     563, None),
    (["stochastic", "--h", "2.5", "--gamma", "0", "--T", "2000", "--members", "100"], [],
     "non-finite state in member 19 at step 512", 512, 19),
    # finite members whose spread overflows the variance: inf in stderr_I from step 128
    (["stochastic", "--h", "2.5", "--gamma", "0", "--T", "500", "--members", "100"], [],
     "ensemble statistics not finite at step 128", 128, None),
    # finite states whose energy overflows from the start
    (["conserve", "--w0", "1e200"], [], "energy not finite at step 0", 0, None),
    (["traj2d", "--gamma", "0", "--inits", "1e200,0"], [], "energy not finite at step 0", 0,
     None),
])
def test_a_failed_run_writes_its_manifest(tmp_path, capsys, argv, outputs, error, step_index,
                                          member):
    with np.errstate(over="ignore", invalid="ignore"):
        code, out = run_cli(tmp_path, *argv)
    assert code == 3
    assert f"numerical failure: {error}" in capsys.readouterr().err
    doc = _manifest(out)
    assert doc["outputs"] == outputs
    assert sorted(os.listdir(out)) == sorted(outputs + ["manifest.json"])
    assert doc["status"]["state"] == "failed"
    assert doc["status"]["exit_code"] == 3
    assert doc["status"]["error"].startswith(error)
    assert (doc["status"]["step_index"], doc["status"]["member"]) == (step_index, member)
