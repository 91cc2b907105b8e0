"""Data and manifest writers.

All numeric output uses Python's round-trip ``repr`` formatting, so parsing
a written file recovers the exact doubles that were computed and re-running
with the same parameters reproduces files byte for byte. Every file is
written atomically (temp file + rename), so an interrupted write leaves no
partial file under the real name; manifests follow the data files they
describe.

A large text, a CSV table of at least _FORK_NUMBERS cells or an SVG
polyline of at least half as many points (two numbers each), is formatted
in two processes where ``forking.may_fork`` holds (``_format_halves``),
to the bytes of one process.
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

__all__ = ["format_float", "write_csv", "project_csv", "write_json", "write_manifest",
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


def _format_halves(chunks, n: int, numbers: int):
    """The text of items [0, n), as strings to be written one after another.

    ``chunks(start, stop)`` yields the text of items [start, stop) in
    pieces. Below _FORK_NUMBERS formatted ``numbers``, or where ``may_fork``
    does not hold, this is ``chunks(0, n)`` itself, so the text is never held
    whole. Otherwise a child formats items [n // 2, n) (``forking.beside``).
    """
    if numbers < _FORK_NUMBERS or not may_fork():
        return chunks(0, n)
    mid = n // 2
    head, tail = beside(lambda: "".join(chunks(mid, n)).encode(),
                        lambda: "".join(chunks(0, mid)))
    return [head, "".join(chunks(mid, n)) if tail is None else tail.decode()]


def write_csv(path, columns: dict[str, np.ndarray]) -> None:
    """Write named columns as CSV with a header row and LF line endings."""
    n = _validate_columns(columns)
    arrays = [np.asarray(col, dtype=float) for col in columns.values()]

    def rows(start, stop):
        # repr whole columns, then join rows: cheaper than a map and join per row
        cells = zip(*(map(repr, _floats(a[start:stop])) for a in arrays))
        return (",".join(row) + "\n" for row in cells)

    text = _format_halves(rows, n, n * len(arrays))
    with _replacing(path) as fh:
        fh.write(",".join(columns) + "\n")
        fh.writelines(text)


def project_csv(path, header: list[str], first: str, second: str) -> None:
    """Write a CSV whose rows copy, as text, the first and last fields of a row
    of the CSV ``first`` and the last field of that row of the CSV ``second``.

    Both are tables that write_csv wrote, with as many rows as each other, so
    each cell has the bytes of the one it copies and no number is formatted
    again. A source that runs out first raises ValueError, leaving no file.
    """
    with open(first, newline="") as a, open(second, newline="") as b, _replacing(path) as fh:
        next(a)  # the headers
        next(b)
        fh.write(",".join(header) + "\n")
        fh.writelines(f"{x[:x.index(',')]}{x[x.rindex(','):-1]}{y[y.rindex(','):]}"
                      for x, y in zip(a, b, strict=True))


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
