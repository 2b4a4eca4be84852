"""CSV serialization of grid functions, bands, datasets and bootstrap draws.

All formats are plain CSV with a mandatory header row:

    grid function   x1,...,xd,value      one row per grid node
    band            x1,...,xd,lower,upper
    dataset         x,y                  one row per observation
    draws           draw,x1,...,xd,value bootstrap draws, draw = 0..B-1

Grid rows may arrive in any order but must cover the full cartesian product
of the coordinate values exactly once.  Floats are written with repr, so a
write/read round trip reproduces every value bit for bit.  Writers emit grid
nodes in C order, axis 1 varying slowest.  Bootstrap draws are one grid
function with the draw index as axis 1, and a draws file is its grid file,
that axis written as the integer column draw.  Both directions work on whole
columns; a reader walks the rows one by one only to name the line of a
malformed one.

Data rows are parsed by numpy's C reader (np.loadtxt) where it reads the
text exactly as csv.reader and float would; every other file, and every
file it refuses, goes through csv.reader and float, which decide what is
valid and word the error.  Band and Dataset are imported where they are
built, so reading a grid function loads neither bands nor estimators.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
from itertools import chain, product

import numpy as np

from .errors import CsvFormatError, GridMismatchError, ShapeMismatchError
from .grid import Axis, GriddedFunction, _distinct

#: A file holding any of these stays on the csv path: quotes and CR change
#: where csv splits fields and records, csv before Python 3.11 refuses NUL,
#: and np.loadtxt, unlike float, strips \x1c-\x1f around a number.
_CSV_ONLY = '"\r\0\x1c\x1d\x1e\x1f'


def _not_utf8(path, exc: UnicodeDecodeError) -> str:
    return f"{path}: not UTF-8 text ({exc.reason}: byte 0x{exc.object[exc.start]:02x})"


def _read_rows(path, what: str) -> tuple:
    """The stripped header fields and a rows x fields array of the data rows."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise CsvFormatError(_not_utf8(path, exc)) from None
    # with none of _CSV_ONLY, csv splits at "," and "\n" alone, as loadtxt does;
    # no field is longer than its line; loadtxt warns on a body of blank lines
    lines = text.split("\n")
    header = lines[0].split(",")
    plain = not any(map(text.__contains__, _CSV_ONLY))
    if plain and max(map(len, lines)) <= csv.field_size_limit() and lines[0] and any(lines[1:]):
        with contextlib.suppress(ValueError):
            values = np.loadtxt(lines[1:], delimiter=",", comments=None, ndmin=2, dtype=float)
            if values.shape[1] == len(header):
                return [h.strip() for h in header], values
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        header = next(reader, None)
        records = list(reader)
    except csv.Error as exc:  # such as a field beyond csv.field_size_limit()
        raise CsvFormatError(f"{path}:{reader.line_num}: {exc}") from None
    if header is None:
        raise CsvFormatError(f"{path}: empty file, expected a {what} header")
    rows = list(filter(None, records))  # a blank line reads as an empty record
    if set(map(len, rows)) <= {len(header)}:
        with contextlib.suppress(ValueError):
            flat = np.fromiter(map(float, chain.from_iterable(rows)), dtype=float)
            values = flat.reshape(len(rows), len(header)) if rows else flat
            return [h.strip() for h in header], values
    raise _bad_record(path, len(header), records)


def _bad_record(path, width: int, records) -> CsvFormatError:
    """The error for the first record that is not width numbers."""
    for lineno, row in enumerate(records, start=2):
        if row and len(row) != width:
            return CsvFormatError(
                f"{path}:{lineno}: expected {width} fields, got {len(row)}"
            )
        try:
            list(map(float, row))
        except ValueError:
            return CsvFormatError(f"{path}:{lineno}: non-numeric field in {row!r}")


def _coord_header(d: int) -> list:
    return [f"x{i}" for i in range(1, d + 1)]


def _check_header(header, value_cols, path) -> int:
    """Validate 'x1..xd,<value_cols>' and return d."""
    d = len(header) - len(value_cols)
    if d < 1 or header != _coord_header(d) + list(value_cols):
        expect = ",".join(_coord_header(max(d, 1)) + list(value_cols))
        raise CsvFormatError(
            f"{path}: bad header {','.join(header)!r}, expected {expect!r}"
        )
    return d


def _node_index(coords: np.ndarray) -> tuple:
    """The axes that per-row coordinates span, and each row's C-order node."""
    axes = [Axis(_distinct(col)) for col in coords.T]
    shape = tuple(len(a) for a in axes)
    idx = np.zeros(coords.shape[0], dtype=np.intp)
    for j, axis in enumerate(axes):
        idx = idx * shape[j] + np.searchsorted(axis.coords, coords[:, j])
    return axes, shape, idx


def _grid_from_columns(coords: np.ndarray, values: np.ndarray, path) -> GriddedFunction:
    """Assemble a grid function from per-row coordinates and values."""
    axes, shape, idx = _node_index(coords)
    expected = math.prod(shape)
    if coords.shape[0] != expected:
        raise CsvFormatError(
            f"{path}: {coords.shape[0]} rows do not tile the "
            f"{'x'.join(str(s) for s in shape)} grid of their coordinates"
        )
    # row count matches the grid size, so any duplicate leaves a hole
    if not np.all(np.bincount(idx, minlength=expected)):
        raise CsvFormatError(f"{path}: duplicate grid nodes")
    flat = np.zeros(expected, dtype=float)
    flat[idx] = values
    return GriddedFunction(axes, flat.reshape(shape))


def _lines(columns) -> str:
    """One line per row of equally long string columns, each ending in \\n."""
    return "\n".join(map(",".join, zip(*columns))) + "\n"


def _write_grid_rows(path, header: list, axes, arrays, lead=()) -> None:
    """Write the header line, then one line per grid node.

    A node's line holds its coordinates and then its entry of every array;
    lead holds the text of any axes that come before axes.  Nodes follow C
    order, axis 1 varying slowest, as in itertools.product.
    """
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        coords = [*lead, *(list(map(repr, a.coords.tolist())) for a in axes)]
        columns = [map(",".join, product(*coords))]
        columns += [map(repr, a.reshape(-1).tolist()) for a in arrays]
        fh.write(_lines(columns))


def write_grid_function(f: GriddedFunction, path) -> None:
    header = _coord_header(f.ndim) + ["value"]
    _write_grid_rows(path, header, f.axes, [f.values])


def read_grid_function(path) -> GriddedFunction:
    header, rows = _read_rows(path, "grid function")
    d = _check_header(header, ["value"], path)
    if rows.size == 0:
        raise CsvFormatError(f"{path}: no data rows")
    return _grid_from_columns(rows[:, :d], rows[:, d], path)


def write_band(band, path) -> None:
    header = _coord_header(band.lower.ndim) + ["lower", "upper"]
    arrays = [band.lower.values, band.upper.values]
    _write_grid_rows(path, header, band.axes, arrays)


def read_band(path):
    from .bands import Band
    header, rows = _read_rows(path, "band")
    d = _check_header(header, ["lower", "upper"], path)
    if rows.size == 0:
        raise CsvFormatError(f"{path}: no data rows")
    lower = _grid_from_columns(rows[:, :d], rows[:, d], path)
    upper = _grid_from_columns(rows[:, :d], rows[:, d + 1], path)
    return Band(lower, upper)


def write_dataset(data, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("x,y\n")
        fh.write(_lines([map(repr, data.x.tolist()), map(repr, data.y.tolist())]))


def read_dataset(path):
    from .estimators import Dataset
    header, rows = _read_rows(path, "dataset")
    if header != ["x", "y"]:
        raise CsvFormatError(f"{path}: bad header {','.join(header)!r}, expected 'x,y'")
    if rows.size == 0:
        raise CsvFormatError(f"{path}: no data rows")
    return Dataset(rows[:, 0], rows[:, 1])


def write_draws(draws: GriddedFunction, path) -> None:
    """Write bootstrap draws: the grid file of draws, axis 1 as integer indices."""
    if draws.ndim < 2:
        raise ShapeMismatchError("draws need a grid axis after the draw axis")
    header = ["draw"] + _coord_header(draws.ndim - 1) + ["value"]
    index = list(map(str, range(draws.shape[0])))
    _write_grid_rows(path, header, draws.axes[1:], [draws.values], [index])


def read_draws(path) -> GriddedFunction:
    """Read a draws file into one function whose axis 1 is the draw index."""
    header, rows = _read_rows(path, "draws")
    if len(header) < 3 or header[0] != "draw":
        raise CsvFormatError(
            f"{path}: bad header {','.join(header)!r}, expected 'draw,x1,...,value'"
        )
    d = _check_header(header[1:], ["value"], path)
    if rows.size == 0:
        raise CsvFormatError(f"{path}: no data rows")
    ids = rows[:, 0]
    if np.any(ids != np.floor(ids)) or np.any(ids < 0):
        raise CsvFormatError(f"{path}: draw indices must be non-negative integers")
    gaps = CsvFormatError(f"{path}: draw indices must run 0..B-1 without gaps")
    # B draws take at least B rows, so an index at or past the row count
    # (inf included) leaves a gap; rejecting it first keeps it out of the cast
    if np.any(ids >= ids.size):
        raise gaps
    ids = ids.astype(np.intp)
    counts = np.bincount(ids)
    if not counts.all():
        raise gaps
    coords, values = rows[:, 1 : 1 + d], rows[:, 1 + d]
    if np.all(np.isfinite(coords)):
        # one index pass: if the rows hold every node of the grid they span
        # once per draw, that grid is each draw's own
        axes, shape, idx = _node_index(coords)
        size = math.prod(shape)
        key = ids * size + idx
        if ids.size == counts.size * size and np.all(np.bincount(key, minlength=ids.size)):
            flat = np.zeros(ids.size, dtype=float)
            flat[key] = values
            return GriddedFunction([Axis(range(counts.size)), *axes], flat.reshape(-1, *shape))
    # otherwise the file is refused: assembling draw by draw names the first
    # broken draw, and if every draw holds a grid of its own, they disagree
    for b in range(counts.size):
        block = rows[ids == b]
        _grid_from_columns(block[:, 1 : 1 + d], block[:, 1 + d], path)
    raise GridMismatchError(f"{path}: draws disagree on their grid")
