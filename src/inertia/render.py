"""Static SVG line plots for CSV files produced by the experiment runner.

Hand-rolled on purpose: the output is a plain standalone SVG with axes,
tick labels, and one polyline per series, and identical inputs produce
identical bytes (no timestamps, no library version strings).
"""

from __future__ import annotations

import csv
import io
import math
import re

import numpy as np

from .errors import InvalidArgument
from .output import _halves, _replacing

__all__ = ["read_csv_columns", "render_csv"]

_WIDTH, _HEIGHT = 720, 480
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 64, 16, 20, 44
_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b", "#17becf")


# np.loadtxt cuts printable ASCII, tabs and newlines into fields as the row
# walk does, at commas and newlines, and parses a field as float() does, less
# underscores. But it skips blank lines, strips the control characters
# \x1c-\x1f that float() keeps and has no limit on a field. So a body goes to
# loadtxt only if it holds no other control character (\r included) and no
# field as long as the csv module's limit, and its rows must number its lines.
_CONTROLS = [chr(c) for c in (*range(9), *range(11, 32), 127)]
_SEPARATOR = re.compile("[,\n]")


def read_csv_columns(path: str) -> dict[str, np.ndarray]:
    """Parse a header-row CSV of floats; malformed content raises InvalidArgument.

    A body of plain text (see _CONTROLS) is parsed by np.loadtxt. Any other
    body, and one that loadtxt refuses, is walked row by row, which gives the
    same floats or names the fault; so both accept the same files, to the bit.
    """
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
            table = _plain_table(fh, reader, len(header))
            columns = _walk_rows(path, reader, len(header)) if table is None else table.T
    # csv.Error: a field over the csv module's limit, or before Python 3.11 a NUL
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise InvalidArgument(f"cannot read {path}: {exc}")
    return dict(zip(header, columns))


def _plain_table(fh, reader, width: int) -> np.ndarray | None:
    """The rows after the header as a (rows, ``width``) array where np.loadtxt
    parses them as the row walk would, else None; either way ``reader`` is
    then at the first row."""
    def rewind():
        fh.seek(0)
        next(reader)

    try:
        body = fh.read()
    except UnicodeDecodeError:  # the row walk reports it where it meets it
        body = ""
    # Where each block of half the csv module's field limit holds a separator,
    # no field reaches the limit.
    half = csv.field_size_limit() // 2
    plain = (body.strip("\n") != "" and body.isascii() and not any(c in body for c in _CONTROLS)
             and all(_SEPARATOR.search(body, i, i + half) for i in range(0, len(body), half)))
    lines = body.count("\n") + (not body.endswith("\n"))
    del body  # loadtxt reads the file again, so the text need not stay
    rewind()
    if plain:
        try:
            table = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2)
        except ValueError:
            table = None
        if table is not None and table.shape == (lines, width):  # and no blank line skipped
            return table
        rewind()
    return None


def _walk_rows(path: str, reader, width: int) -> list[np.ndarray]:
    """The columns of the rows ``reader`` yields, parsed as they are read."""
    values = [[] for _ in range(width)]
    for line, row in enumerate(reader, start=2):
        if len(row) != width:
            raise InvalidArgument(f"{path} row {line}: expected {width} fields, got {len(row)}")
        for column, field in zip(values, row):
            try:
                column.append(float(field))
            except ValueError:
                raise InvalidArgument(f"{path} row {line}: not a number: {field!r}")
    if not values[0]:
        raise InvalidArgument(f"{path} contains no data rows")
    return [np.array(column, dtype=float) for column in values]


def _scale(lo: float, hi: float, pixel_lo: float, pixel_hi: float):
    if hi == lo:  # flat series: give it some room
        lo, hi = lo - 1.0, hi + 1.0
        if hi == lo:  # from about 1e16 on a unit rounds away: widen by one float
            lo, hi = math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)
            if math.isinf(hi):  # past the largest float: move both one float down
                lo, hi = math.nextafter(lo, -math.inf), math.nextafter(hi, -math.inf)
            elif math.isinf(lo):
                lo, hi = math.nextafter(lo, math.inf), math.nextafter(hi, math.inf)
    span = hi - lo
    padded_lo, padded_hi = lo - 0.05 * span, hi + 0.05 * span
    if math.isinf(padded_hi - padded_lo):  # past the largest float: map quarters, tick the data
        # a quarter of the span, padded by a tenth, stays below the largest float
        to_quarter = _scale(0.25 * lo, 0.25 * hi, pixel_lo, pixel_hi)[2]
        return lo, hi, lambda x: to_quarter(0.25 * x)
    lo, hi = padded_lo, padded_hi

    def to_pixel(x):
        return pixel_lo + (x - lo) / (hi - lo) * (pixel_hi - pixel_lo)

    return lo, hi, to_pixel


def _pixels(to_pixel, values: np.ndarray) -> list[float]:
    """``to_pixel`` of each value, as Python floats (they format faster than
    numpy scalars, to the same text). numpy does the arithmetic of the scalar
    ``to_pixel`` in the same order, so each pixel has the same bits."""
    return to_pixel(values).tolist()


def _ticks(lo: float, hi: float, count: int = 5) -> list[float]:
    if math.isinf((hi - lo) * (count - 1)):  # past the largest float: step by halves
        step = (0.5 * hi - 0.5 * lo) / (count - 1)
        return [min(lo + step * i + step * i, hi) for i in range(count)]
    return [lo + (hi - lo) * i / (count - 1) for i in range(count)]


def render_csv(input_path: str, out_path: str, xy: str | None = None) -> None:
    """Plot a CSV as polylines.

    Default: the first column is the x axis and every other column is a
    series. ``xy="colx:coly"`` instead plots a single coly-vs-colx curve
    (e.g. a velocity-vs-position orbit). A plotted column with a NaN or
    infinite value raises InvalidArgument.
    """
    columns = read_csv_columns(input_path)
    names = list(columns)
    if xy is not None:
        parts = xy.split(":")
        if len(parts) != 2 or not all(p in columns for p in parts):
            raise InvalidArgument(
                f"--xy must be '<xcol>:<ycol>' with columns from {names}, got {xy!r}"
            )
        x_name, series_names = parts[0], [parts[1]]
    else:
        if len(names) < 2:
            raise InvalidArgument("need at least two columns to plot")
        x_name, series_names = names[0], names[1:]

    for name in (x_name, *series_names):
        if not np.all(np.isfinite(columns[name])):
            raise InvalidArgument(
                f"{input_path}: column {name!r} has non-finite values, which cannot be plotted"
            )
    x = columns[x_name]
    n = len(x)
    series = [(name, columns[name]) for name in series_names]
    x_lo, x_hi, to_px = _scale(float(x.min()), float(x.max()), _MARGIN_L, _WIDTH - _MARGIN_R)
    y_all = np.concatenate([s for _, s in series])
    y_lo, y_hi, to_py = _scale(float(y_all.min()), float(y_all.max()), _HEIGHT - _MARGIN_B, _MARGIN_T)
    x_pixels = _pixels(to_px, x)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
    ]
    axis_y = _HEIGHT - _MARGIN_B
    parts.append(
        f'<line x1="{_MARGIN_L}" y1="{axis_y}" x2="{_WIDTH - _MARGIN_R}" y2="{axis_y}" '
        f'stroke="black" stroke-width="1"/>'
    )
    parts.append(
        f'<line x1="{_MARGIN_L}" y1="{_MARGIN_T}" x2="{_MARGIN_L}" y2="{axis_y}" '
        f'stroke="black" stroke-width="1"/>'
    )
    for tick in _ticks(x_lo, x_hi):
        px = to_px(tick)
        parts.append(f'<line x1="{px:.2f}" y1="{axis_y}" x2="{px:.2f}" y2="{axis_y + 5}" stroke="black"/>')
        parts.append(
            f'<text x="{px:.2f}" y="{axis_y + 18}" font-size="11" text-anchor="middle">{tick:.4g}</text>'
        )
    for tick in _ticks(y_lo, y_hi):
        py = to_py(tick)
        parts.append(f'<line x1="{_MARGIN_L - 5}" y1="{py:.2f}" x2="{_MARGIN_L}" y2="{py:.2f}" stroke="black"/>')
        parts.append(
            f'<text x="{_MARGIN_L - 8}" y="{py + 4:.2f}" font-size="11" text-anchor="end">{tick:.4g}</text>'
        )
    parts.append(
        f'<text x="{(_MARGIN_L + _WIDTH - _MARGIN_R) / 2:.2f}" y="{_HEIGHT - 8}" '
        f'font-size="12" text-anchor="middle">{x_name}</text>'
    )

    y_pixels = [_pixels(to_py, y) for _, y in series]

    def format_points(start, stop):
        # one text per polyline; a later block leads with the space that joins it to the one before
        lead, xs = " " * (start > 0), x_pixels[start:stop]
        return [lead + " ".join(map("{:.2f},{:.2f}".format, xs, ys[start:stop])) for ys in y_pixels]

    polylines = [io.StringIO() for _ in series]
    _halves(format_points, n, 2 * n * len(series), polylines)
    for idx, ((name, _), points) in enumerate(zip(series, polylines)):
        color = _PALETTE[idx % len(_PALETTE)]
        parts.append(f'<polyline points="{points.getvalue()}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        parts.append(
            f'<text x="{_WIDTH - _MARGIN_R - 6}" y="{_MARGIN_T + 14 + 16 * idx}" font-size="12" '
            f'text-anchor="end" fill="{color}">{name}</text>'
        )

    parts.append("</svg>")
    with _replacing(out_path) as fh:
        fh.writelines(part + "\n" for part in parts)
