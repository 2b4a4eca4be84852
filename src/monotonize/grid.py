"""Rectangular grids, gridded functions and weighted L^p functionals.

A function is stored as a dense value array over the cartesian product of its
axes, C order, axis 1 varying slowest.  Each node owns a cell of the domain
and L^p norms integrate against the normalized cell measure, so every grid
carries total measure one regardless of the interval it spans.

On an equidistant axis every node owns the same measure.  That choice is what
makes sorting node values identical to the measure-theoretic monotone
rearrangement and keeps the error-reduction guarantees of the monotonization
operators exact rather than approximate; the rearrangement module refuses
non-equidistant axes for the same reason.  Non-equidistant axes are still
valid for storage and for L^p computations and use the piecewise-constant
cell rule: interior nodes own the cell between the midpoints of their
neighbouring gaps, boundary nodes own the remaining half-cells.

The module also holds the rules for numbers from outside (_integer, _real,
_reals, _levels) and sample_quantile, which the other modules share.
"""

from __future__ import annotations

import contextlib
import math
from functools import reduce
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    EmptyInputError,
    GridMismatchError,
    NonFiniteValueError,
    NonIncreasingAxisError,
    OutOfRangeError,
    ShapeMismatchError,
)

#: The package-wide comparison tolerance.  Comparisons of function values are
#: made at absolute tolerance VALUE_RTOL times the diameter of the value
#: range involved (with a floor of VALUE_RTOL itself for degenerate ranges).
VALUE_RTOL = 1e-12

#: Two successive gaps count as equal when they differ by at most this
#: relative amount; an axis is equidistant when all its gaps are equal.
EQUIDISTANT_RTOL = 1e-9

#: L^p index for the supremum norm.
INF = math.inf


def value_tol(*arrays: np.ndarray) -> float:
    """Absolute comparison tolerance for values drawn from ``arrays``."""
    return float(_row_tols(*(np.asarray(a)[None] for a in arrays))[0])


def _row_tols(*arrays: np.ndarray) -> np.ndarray:
    """value_tol of each row, the index along the leading axis, of arrays
    that share that axis or have length 1 there."""
    lo = reduce(np.minimum, [a.reshape(len(a), -1).min(axis=1) for a in arrays])
    hi = reduce(np.maximum, [a.reshape(len(a), -1).max(axis=1) for a in arrays])
    # halving before subtracting keeps the diameter finite near the float
    # limit; scaling by powers of two is exact, so below that range this is
    # VALUE_RTOL * max(1, hi - lo) bit for bit
    return 2.0 * VALUE_RTOL * np.maximum(0.5, 0.5 * hi - 0.5 * lo)


class Axis:
    """Strictly increasing coordinates along one grid dimension."""

    __slots__ = ("coords", "_equidistant")

    def __init__(self, coords: Iterable[float]):
        c = np.array(coords, dtype=float)
        if c.ndim != 1 or c.size < 1:
            raise NonIncreasingAxisError(
                "axis coordinates must form a non-empty 1-d sequence"
            )
        if not np.all(np.isfinite(c)):
            raise NonFiniteValueError("axis coordinates must be finite")
        if not np.all(c[1:] > c[:-1]):
            raise NonIncreasingAxisError(
                "axis coordinates must be strictly increasing"
            )
        c.setflags(write=False)
        self.coords = c
        gaps = np.diff(_scaled(c))
        self._equidistant = bool(
            gaps.size == 0
            or np.all(np.abs(gaps - gaps.mean()) <= EQUIDISTANT_RTOL * gaps.mean())
        )

    @property
    def equidistant(self) -> bool:
        return self._equidistant

    def __len__(self) -> int:
        return self.coords.size

    def __eq__(self, other) -> bool:
        return isinstance(other, Axis) and np.array_equal(self.coords, other.coords)

    def __repr__(self) -> str:
        return f"Axis({self.coords.tolist()!r})"

    def node_weights(self) -> np.ndarray:
        """Normalized cell measure owned by each node; sums to one."""
        n = len(self)
        if self._equidistant:
            return np.full(n, 1.0 / n)
        c = _scaled(self.coords)
        w = np.empty(n)
        w[0] = (c[1] - c[0]) / 2.0
        w[-1] = (c[-1] - c[-2]) / 2.0
        w[1:-1] = (c[2:] - c[:-2]) / 2.0
        return w / (c[-1] - c[0])


class GriddedFunction:
    """A scalar function sampled on a rectangular grid.

    values[i1, ..., id] is the value at (axes[0].coords[i1], ...); the array
    is copied on construction and frozen, so instances can be shared across
    threads.
    """

    __slots__ = ("axes", "values")

    def __init__(self, axes: Sequence, values):
        ax = tuple(a if isinstance(a, Axis) else Axis(a) for a in axes)
        if not ax:
            raise ShapeMismatchError("a gridded function needs at least one axis")
        v = np.array(values, dtype=float)
        shape = tuple(len(a) for a in ax)
        if v.shape != shape:
            raise ShapeMismatchError(
                f"values shape {v.shape} does not match the grid shape {shape}"
            )
        if not np.all(np.isfinite(v)):
            raise NonFiniteValueError("function values must be finite")
        v.setflags(write=False)
        self.axes = ax
        self.values = v

    @property
    def ndim(self) -> int:
        return len(self.axes)

    @property
    def shape(self) -> tuple:
        return self.values.shape

    def with_values(self, values) -> "GriddedFunction":
        """A new function on the same grid with different values."""
        return GriddedFunction(self.axes, values)

    def same_grid(self, other: "GriddedFunction") -> bool:
        return self.axes == other.axes

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GriddedFunction)
            and self.same_grid(other)
            and np.array_equal(self.values, other.values)
        )

    def __repr__(self) -> str:
        return f"GriddedFunction(shape={self.shape})"


def make_grid_function(axes: Sequence, values) -> GriddedFunction:
    """Validating constructor; ``axes`` may be Axis objects or raw coords."""
    return GriddedFunction(axes, values)


def check_same_grid(f: GriddedFunction, g: GriddedFunction) -> None:
    if not f.same_grid(g):
        raise GridMismatchError("functions do not live on the same grid")


def _distinct(a: np.ndarray) -> np.ndarray:
    """np.unique of a float array, bit for bit, without its import of numpy.ma."""
    s = np.sort(a)
    keep = np.ones(s.size, dtype=bool)
    keep[1:] = (s[1:] != s[:-1]) & ~np.isnan(s[:-1])  # NaNs sort last, one for all
    return s[keep]


def _headroom(top, total: float):
    """Exponent s that keeps sums of values up to top, with weights adding up
    to total, finite after scaling by 2^-s; one exponent per entry of an
    array top.

    s is 0 below about 2^1000, and np.ldexp scaling is exact, so no bit
    changes at normal magnitudes.
    """
    return np.maximum(0, np.frexp(top)[1] + math.frexp(total)[1] - 1023)


def _scaled(coords: np.ndarray) -> np.ndarray:
    """Increasing coordinates scaled by 2^-s so that every gap and the span
    stay finite; s is 0 below about 2^1021, so no bit changes there."""
    shift = _headroom(max(-coords[0], coords[-1]), 2.0)
    return np.ldexp(coords, -shift) if shift else coords


def check_p(p: float) -> float:
    """Validate an L^p index: a real >= 1, or INF."""
    p = _real("p", p)
    if math.isnan(p) or p < 1.0:
        raise OutOfRangeError(f"p must be >= 1 or inf, got {p!r}")
    return p


def lp_distance(f: GriddedFunction, g: GriddedFunction, p: float) -> float:
    """Weighted L^p distance between two functions on a shared grid.

    Finite p integrates |f-g|^p against the product cell measure and takes
    the p-th root; p = INF is the maximum over grid nodes.
    """
    check_same_grid(f, g)
    return float(_lp_rows(f.values[None], g.values[None], f.axes, check_p(p))[0])


def _lp_rows(a: np.ndarray, b: np.ndarray, axes, p: float) -> np.ndarray:
    """lp_distance between the rows of a and b, their indices along a leading
    axis (b may have length 1 there); each row gets the bits of one call."""
    rows = len(a)
    b = np.broadcast_to(b, a.shape)
    # near the float limit, a row is scaled by 2^-shift before subtracting
    # and |a-b| by 2^-power before its p-th power; both exponents are 0 unless
    # a difference or a power would overflow, and |a-b| is divided by its
    # largest entry only where that entry's p-th power would underflow, so no
    # bit changes while that power is a normal float
    with np.errstate(over="ignore"):
        diff = np.abs(a - b)
    cell = (rows,) + (1,) * (diff.ndim - 1)
    top = diff.reshape(rows, -1).max(axis=1)
    shift = np.zeros(rows, dtype=int)
    over = top == math.inf
    if np.any(over):
        bound = np.maximum(np.abs(a[over]), np.abs(b[over]))
        shift[over] = _headroom(bound.reshape(len(bound), -1).max(axis=1), 2.0)
        s = -shift[over].reshape((-1,) + cell[1:])
        diff[over] = np.abs(np.ldexp(a[over], s) - np.ldexp(b[over], s))
        top[over] = diff[over].reshape(len(s), -1).max(axis=1)
    if math.isinf(p):
        return np.array([_unscale(t, e) for t, e in zip(top.tolist(), shift.tolist())])
    exp = np.frexp(top)[1]
    power = np.maximum(0, exp - math.floor(1023.0 / p))
    # the largest term |a-b|^p would fall below the normal range: divide every
    # difference by the largest, which makes that term exactly 1
    tiny = (top > 0.0) & ((exp - power - 1) * p < -1022)
    unit = np.where(tiny, top, 1.0)
    power[tiny] = 0
    diff[tiny] /= top[tiny].reshape((-1,) + cell[1:])
    acc = np.ldexp(diff, -power.reshape(cell)) ** p
    weights = [ax.node_weights().reshape(1, -1) for ax in axes]
    out = []
    for row, u, e in zip(acc, unit.tolist(), (shift + power).tolist()):
        for w in weights:
            # contract the leading axis against its node weights: the dot that
            # np.tensordot(w, row, axes=(0, 0)) makes, without its overhead
            row = np.dot(w, row.reshape(w.size, -1)).reshape(row.shape[1:])
        out.append(_unscale(float(row) ** (1.0 / p) * u, e))
    return np.array(out)


def _unscale(x: float, exponent: int) -> float:
    """x * 2^exponent, and inf for a result beyond the float range."""
    try:
        return math.ldexp(x, exponent)
    except OverflowError:
        return math.inf


def lp_length(band, p: float) -> float:
    """L^p length of a band: the L^p distance between its end-points."""
    return lp_distance(band.lower, band.upper, p)


def is_monotone(f: GriddedFunction, tol: float | None = None) -> bool:
    """True when the values are weakly increasing along every axis."""
    if tol is None:
        tol = value_tol(f.values)
    # a step past the float maximum rounds to +-inf, which decides as the
    # exact step would
    with np.errstate(over="ignore"):
        return not any(np.any(np.diff(f.values, axis=a) < -tol) for a in range(f.ndim))


# --- number rules and order statistics -------------------------------------


def _is_number(value) -> bool:
    """A number from outside is a Python or numpy int or float, never a bool."""
    kinds = (int, float, np.integer, np.floating)
    return isinstance(value, kinds) and not isinstance(value, bool)


def _integer(name: str, value, least: int) -> int:
    """value as an int of at least least; an integral float such as 3.0 counts."""
    if _is_number(value) and value >= least:
        if isinstance(value, (int, np.integer)) or value.is_integer():
            return int(value)
    raise OutOfRangeError(f"{name} must be an integer >= {least}, got {value!r}")


def _real(name: str, value) -> float:
    """value as a float; infinities pass, the caller bounds them."""
    if _is_number(value):
        with contextlib.suppress(OverflowError):
            return float(value)
    raise OutOfRangeError(f"{name} must be a number, got {value!r}")


def _reals(name: str, value) -> np.ndarray:
    """value as a non-empty 1-d float array."""
    try:
        out = np.array(value, dtype=float)
    except (TypeError, ValueError, OverflowError):
        out = None
    if out is None or out.ndim != 1 or not all(map(_is_number, value)):
        raise OutOfRangeError(f"{name} must be a list of numbers, got {value!r}")
    if not out.size:
        raise OutOfRangeError(f"{name} must be a non-empty list of numbers, got {value!r}")
    return out


def _levels(name: str, value) -> np.ndarray:
    """A net of quantile levels: non-empty, strictly increasing, inside (0, 1)."""
    if isinstance(value, (list, tuple, np.ndarray)) and not len(value):
        raise EmptyInputError(f"{name} must not be empty")
    taus = _reals(name, value)
    if np.any(np.diff(taus) <= 0.0):
        raise NonIncreasingAxisError(f"{name} must be strictly increasing")
    # stated positively, so that a NaN level fails it
    if not (np.all(taus > 0.0) and np.all(taus < 1.0)):
        raise OutOfRangeError(f"every level of {name} must lie in (0, 1)")
    return taus


def _order_index(tau, m):
    """The 0-based index of the ceil(tau * m)-th of m sorted values; the
    slack keeps the ceiling exact when tau * m lands a hair above an integer."""
    return np.minimum(np.maximum(np.ceil(tau * m - 1e-9), 1), m).astype(np.intp) - 1


def sample_quantile(values: np.ndarray, tau: float) -> float:
    """Exact tau-th sample quantile: the ceil(tau * m)-th order statistic.

    Always a minimizer of the check loss; when the minimizers form an
    interval this is its lower end-point among the data values.
    """
    k = _order_index(tau, values.size)
    return float(np.partition(values, k)[k])
