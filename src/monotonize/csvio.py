"""CSV serialization of grid functions, bands, datasets and bootstrap draws.

All formats are plain CSV with a mandatory header row:

    grid function   x1,...,xd,value      one row per grid node
    band            x1,...,xd,lower,upper
    dataset         x,y                  one row per observation
    draws           draw,x1,...,xd,value bootstrap draws, draw = 0..B-1

Grid rows may arrive in any order but must cover the full cartesian product
of the coordinate values exactly once.  Floats are written with repr, so a
write/read round trip reproduces every value bit for bit.
"""

from __future__ import annotations

import csv

import numpy as np

from .bands import Band
from .errors import CsvFormatError, GridMismatchError
from .estimators import Dataset
from .grid import Axis, GriddedFunction


def _fmt(v: float) -> str:
    return repr(float(v))


def _read_rows(path, what: str) -> tuple:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise CsvFormatError(f"{path}: empty file, expected a {what} header") from None
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise CsvFormatError(
                    f"{path}:{lineno}: expected {len(header)} fields, got {len(row)}"
                )
            try:
                rows.append([float(c) for c in row])
            except ValueError:
                raise CsvFormatError(
                    f"{path}:{lineno}: non-numeric field in {row!r}"
                ) from None
    return [h.strip() for h in header], np.asarray(rows, dtype=float)


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


def _grid_from_columns(coords: np.ndarray, values: np.ndarray, path) -> GriddedFunction:
    """Assemble a grid function from per-row coordinates and values."""
    d = coords.shape[1]
    axes = [Axis(np.unique(coords[:, j])) for j in range(d)]
    shape = tuple(len(a) for a in axes)
    expected = int(np.prod(shape))
    if coords.shape[0] != expected:
        raise CsvFormatError(
            f"{path}: {coords.shape[0]} rows do not tile the "
            f"{'x'.join(str(s) for s in shape)} grid of their coordinates"
        )
    flat = np.zeros(shape, dtype=float).reshape(-1)
    idx = np.zeros(coords.shape[0], dtype=np.intp)
    for j, axis in enumerate(axes):
        pos = np.searchsorted(axis.coords, coords[:, j])
        idx = idx * shape[j] + pos
    # row count matches the grid size, so any duplicate leaves a hole
    if np.unique(idx).size != expected:
        raise CsvFormatError(f"{path}: duplicate grid nodes")
    flat[idx] = values
    return GriddedFunction(axes, flat.reshape(shape))


def _write_grid_rows(path, header: list, blocks) -> None:
    """Write the header line, then one line per grid node of each block.

    A block is (lead, axes, value arrays): each of its lines holds the text
    lead, the node's coordinates and then the node's entry of every array.
    """
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for lead, axes, arrays in blocks:
            mesh = np.meshgrid(*(a.coords for a in axes), indexing="ij")
            flat = [m.reshape(-1) for m in mesh] + [a.reshape(-1) for a in arrays]
            for row in zip(*flat):
                fh.write(lead + ",".join(_fmt(v) for v in row) + "\n")


def write_grid_function(f: GriddedFunction, path) -> None:
    header = _coord_header(f.ndim) + ["value"]
    _write_grid_rows(path, header, [("", f.axes, [f.values])])


def read_grid_function(path) -> GriddedFunction:
    header, rows = _read_rows(path, "grid function")
    d = _check_header(header, ["value"], path)
    if rows.size == 0:
        raise CsvFormatError(f"{path}: no data rows")
    return _grid_from_columns(rows[:, :d], rows[:, d], path)


def write_band(band: Band, path) -> None:
    header = _coord_header(band.lower.ndim) + ["lower", "upper"]
    arrays = [band.lower.values, band.upper.values]
    _write_grid_rows(path, header, [("", band.axes, arrays)])


def read_band(path) -> Band:
    header, rows = _read_rows(path, "band")
    d = _check_header(header, ["lower", "upper"], path)
    if rows.size == 0:
        raise CsvFormatError(f"{path}: no data rows")
    lower = _grid_from_columns(rows[:, :d], rows[:, d], path)
    upper = _grid_from_columns(rows[:, :d], rows[:, d + 1], path)
    return Band(lower, upper)


def write_dataset(data: Dataset, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("x,y\n")
        for xv, yv in zip(data.x, data.y):
            fh.write(f"{_fmt(xv)},{_fmt(yv)}\n")


def read_dataset(path) -> Dataset:
    header, rows = _read_rows(path, "dataset")
    if header != ["x", "y"]:
        raise CsvFormatError(f"{path}: bad header {','.join(header)!r}, expected 'x,y'")
    if rows.size == 0:
        raise CsvFormatError(f"{path}: no data rows")
    return Dataset(rows[:, 0], rows[:, 1])


def write_draws(draws, path) -> None:
    """Write a sequence of same-grid functions, one block per draw index."""
    draws = list(draws)
    if not draws:
        raise CsvFormatError("no draws to write")
    header = ["draw"] + _coord_header(draws[0].ndim) + ["value"]
    blocks = ((f"{b},", f.axes, [f.values]) for b, f in enumerate(draws))
    _write_grid_rows(path, header, blocks)


def read_draws(path) -> list:
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
    ids = ids.astype(int)
    uniq = np.unique(ids)
    if not np.array_equal(uniq, np.arange(uniq.size)):
        raise CsvFormatError(f"{path}: draw indices must run 0..B-1 without gaps")
    out = []
    for b in uniq:
        block = rows[ids == b]
        out.append(_grid_from_columns(block[:, 1 : 1 + d], block[:, 1 + d], path))
    first = out[0]
    for f in out[1:]:
        if not first.same_grid(f):
            raise GridMismatchError(f"{path}: draws disagree on their grid")
    return out
