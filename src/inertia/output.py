"""Data and manifest writers.

All numeric output uses Python's round-trip ``repr`` formatting, so parsing
a written file recovers the exact doubles that were computed and re-running
with the same parameters reproduces files byte for byte. Every file is
written atomically (temp file + rename), so an interrupted write leaves no
partial file under the real name; manifests follow the data files they
describe.

Tables written together (``write_csvs``) share their column objects: each
is formatted once, and its text serves every table that holds it. A large
text, CSV tables of at least _FORK_NUMBERS distinct numbers or an SVG
polyline of at least half as many points (two numbers each), is formatted
in two processes where ``forking.may_fork`` holds (``_halves``), to the
bytes of one process.
"""

from __future__ import annotations

import contextlib
import json
import math
import os

import numpy as np

from . import __version__
from .errors import InvalidArgument
from .forking import beside, may_fork

__all__ = ["format_float", "write_csv", "write_csvs", "write_json", "write_manifest",
           "record_render"]


def format_float(x: float) -> str:
    return repr(float(x))


def _validate_columns(columns: dict) -> int:
    if not columns:
        raise InvalidArgument("no columns to write")
    lengths = {len(v) for v in columns.values()}
    if len(lengths) != 1:
        raise InvalidArgument(f"columns have unequal lengths: {sorted(lengths)}")
    return lengths.pop()


def _floats(column) -> list[float]:
    """A column as Python floats, whose repr is ``format_float`` of each value."""
    return np.asarray(column, dtype=float).tolist()


@contextlib.contextmanager
def _replacing(path):
    """A text handle on a temp file that replaces ``path`` once fully written."""
    tmp = f"{path}.tmp"
    fh = open(tmp, "w", newline="")
    try:
        with fh:
            yield fh
    except BaseException:
        os.remove(tmp)
        raise
    os.replace(tmp, path)


# Numbers a text formats before half of it goes to a forked process. A fork,
# 100 kB sent back and the reap take 4-8 ms on a 2-core machine, and a number
# takes about 1.2 us to format, so below about 10^4 numbers a fork saves nothing.
_FORK_NUMBERS = 1 << 15


def _halves(texts, n: int, numbers: int, sinks) -> None:
    """Write the texts of items [0, n) to ``sinks``, about 256 items at a time.

    ``texts(start, stop)`` gives one str per sink: that sink's text of items
    [start, stop). Below _FORK_NUMBERS formatted ``numbers``, or where
    ``may_fork`` does not hold, this process formats every item. Otherwise a
    child (``forking.beside``) formats items [n // 2, n) while this process
    writes items [0, n // 2); then each sink's text of the child's items
    comes over the pipe, one sink after another, and is appended in blocks
    as it comes, so no sink's text is held whole. Where it does not all
    come, each sink is cut back to where the child's text began and this
    process formats those items. A sink is a text handle that can ``tell``,
    ``seek`` and ``truncate``: a file or an ``io.StringIO``.
    """
    def blocks(start, stop):
        for first in range(start, stop, 256):
            yield texts(first, min(first + 256, stop))

    def write(start, stop):
        for pieces in blocks(start, stop):
            for sink, piece in zip(sinks, pieces):
                sink.write(piece)

    if numbers < _FORK_NUMBERS or not may_fork():
        write(0, n)
        return
    mid = n // 2

    def there():
        # each sink's text, led by its length in bytes
        sent = ["".join(pieces).encode() for pieces in zip(*blocks(mid, n))]
        return b"".join(len(text).to_bytes(8, "little") + text for text in sent)

    def here():
        write(0, mid)
        return [sink.tell() for sink in sinks]

    def take(pipe) -> bool:
        for sink in sinks:
            size = int.from_bytes(pipe.read(8), "little")
            while size > 0:
                block = pipe.read(min(size, 1 << 16))  # a Linux pipe's capacity
                if not block:
                    return False
                sink.write(block.decode())  # ASCII, so a block may end anywhere
                size -= len(block)
        return not pipe.read()  # the end, which comes as the child exits: its own status

    marks, took = beside(there, here, take)
    if not took:
        for sink, mark in zip(sinks, marks):
            sink.seek(mark)
            sink.truncate()
        write(mid, n)


def write_csv(path, columns: dict[str, np.ndarray]) -> None:
    """Write named columns as CSV with a header row and LF line endings."""
    write_csvs({path: columns})


def write_csvs(tables: dict) -> None:
    """Write each ``path: columns`` item of ``tables`` as ``write_csv`` does, in one pass.

    A column object that several tables hold is formatted once, and the
    rows of all the tables are split once between this process and a
    forked child (``_halves``). Every file replaces its path, in order,
    only once all of them are written; a failure leaves none of their temp
    files.
    """
    rows = [_validate_columns(columns) for columns in tables.values()]
    arrays = {}  # id of a column object -> its values
    for columns in tables.values():
        for column in columns.values():
            if id(column) not in arrays:
                arrays[id(column)] = np.asarray(column, dtype=float)
    layouts = [[id(column) for column in columns.values()] for columns in tables.values()]

    def texts(start, stop):
        # repr each distinct column once, then join each table's rows from those cells
        cells = {key: list(map(repr, _floats(values[start:stop])))
                 for key, values in arrays.items()}
        return ["".join(",".join(row) + "\n" for row in zip(*(cells[key] for key in keys)))
                for keys in layouts]

    with contextlib.ExitStack() as stack:
        # entered last to first, so that the files replace their paths first to last
        handles = [stack.enter_context(_replacing(path)) for path in reversed(tables)][::-1]
        for handle, columns in zip(handles, tables.values()):
            handle.write(",".join(columns) + "\n")
        _halves(texts, max(rows, default=0), sum(map(len, arrays.values())), handles)


def _json_column(column) -> list[float | None]:
    # Strict JSON has no NaN or Infinity; a missing value is null.
    return [x if math.isfinite(x) else None for x in _floats(column)]


def write_json(path, columns: dict[str, np.ndarray]) -> None:
    """Columnar JSON mirror of the CSV schema; non-finite values become null."""
    _validate_columns(columns)
    doc = {name: _json_column(col) for name, col in columns.items()}
    _write_json_atomically(path, {"columns": doc})


def _write_json_atomically(path, doc: dict) -> None:
    with _replacing(path) as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def write_manifest(
    out_dir: str,
    experiment: str,
    parameters: dict,
    outputs: list[str],
    duration_seconds: float,
    seed: int | None = None,
    rng_algorithm: str | None = None,
    status: dict | None = None,
) -> str:
    """Atomically write ``manifest.json`` describing a run; ``status`` defaults to ok."""
    manifest = {
        "experiment": experiment,
        "parameters": parameters,
        "seed": seed,
        "rng_algorithm": rng_algorithm,
        "version": __version__,
        "outputs": outputs,
        "status": status or {"state": "ok"},
        "duration_seconds": duration_seconds,
    }
    path = os.path.join(out_dir, "manifest.json")
    _write_json_atomically(path, manifest)
    return path


def record_render(out_dir: str, output: str, parameters: dict, duration_seconds: float) -> str:
    """Record a rendered figure in the ``manifest.json`` of ``out_dir``.

    A run directory keeps its own manifest: the figure joins its
    ``outputs`` and the render is described under ``renders``, keyed by
    the figure's file name. A directory without a manifest gets a render
    manifest. Either way the manifest is replaced atomically. A manifest
    that is not JSON, or not an object with an ``outputs`` list (and a
    ``renders`` object, if any), is refused with InvalidArgument and left
    as it was.
    """
    path = os.path.join(out_dir, "manifest.json")
    try:
        with open(path) as fh:
            manifest = json.load(fh)
        if not (isinstance(manifest, dict) and isinstance(manifest.get("outputs"), list)
                and isinstance(manifest.get("renders", {}), dict)):
            raise ValueError("not a run manifest")
    except FileNotFoundError:
        return write_manifest(out_dir, "render", parameters, [output], duration_seconds)
    except ValueError as exc:
        raise InvalidArgument(f"cannot record the render in {path}: {exc}")
    if output not in manifest["outputs"]:
        manifest["outputs"].append(output)
    manifest.setdefault("renders", {})[output] = {
        "parameters": parameters,
        "version": __version__,
        "duration_seconds": duration_seconds,
    }
    _write_json_atomically(path, manifest)
    return path
