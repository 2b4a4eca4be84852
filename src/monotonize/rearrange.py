"""Monotone rearrangement of gridded functions, and the axis-by-axis engine.

The increasing rearrangement of a function sampled on an equal-measure grid
is obtained by sorting its values: the sorted sequence is the quantile
function of the value distribution, read at the grid's own probability
levels.

One engine builds both multivariate repairs, this module's rearrangement
and the isotonic module's isotonization, from a 1-d row operator (sorting or
pava): _axis_pass applies it to every fiber along one axis, _compose along
the axes of an ordering pi = (pi_1, ..., pi_d), innermost axis pi_d first,
and _average averages the pi-operators over a set of orderings.  Averaging
restores the symmetry one ordering lacks and never does worse than the mean
of its members.  Sums that could overflow near the float limit are taken
after an exact power-of-two scaling (grid._headroom).

Axis numbering follows the wire format: axes are named 1..d with axis 1
varying slowest, matching the x1,...,xd columns of the CSV formats.
"""

from __future__ import annotations

from itertools import permutations
from typing import Sequence

import numpy as np

from .errors import (
    AxisOutOfRangeError,
    EmptyInputError,
    EmptyOrderingSetError,
    InfeasibleConstraintError,
    InvalidOrderingError,
    NonEquidistantAxisError,
    NonFiniteValueError,
    OutOfRangeError,
)
from .grid import GriddedFunction, _headroom, check_p

#: Largest dimension for which the default ordering set (all d! orderings)
#: is generated implicitly; beyond it the caller must pass orderings.
MAX_IMPLICIT_ORDERING_DIM = 3


def rearrange_1d(values, direction: str = "increasing") -> np.ndarray:
    """Sort a value sequence into its monotone rearrangement."""
    v = np.asarray(values, dtype=float)
    if v.ndim != 1 or v.size == 0:
        raise EmptyInputError("rearrange_1d needs a non-empty 1-d sequence")
    if not np.all(np.isfinite(v)):
        raise NonFiniteValueError("values must be finite")
    out = np.sort(v, kind="stable")
    if direction == "decreasing":
        out = out[::-1].copy()
    elif direction != "increasing":
        raise OutOfRangeError(f"direction must be increasing or decreasing, got {direction!r}")
    return out


def validate_ordering(pi: Sequence[int], ndim: int) -> tuple:
    """Check that pi is a permutation of 1..ndim and return it as a tuple."""
    perm = tuple(int(j) for j in pi)
    for j in perm:
        if not 1 <= j <= ndim:
            raise AxisOutOfRangeError(f"axis {j} is not one of 1..{ndim}")
    if sorted(perm) != list(range(1, ndim + 1)):
        raise InvalidOrderingError(
            f"{perm!r} is not a permutation of axes 1..{ndim}"
        )
    return perm


def all_orderings(ndim: int) -> tuple:
    """All ndim! axis orderings, in lexicographic order."""
    return tuple(permutations(range(1, ndim + 1)))


def _resolve(ndim: int, orderings) -> tuple:
    """Normalize an ordering-set argument for a function of ndim axes: None
    means every ordering, generated implicitly only for d <= 3 to keep the
    cost explicit; a set must be non-empty and free of duplicates."""
    if orderings is None:
        if ndim > MAX_IMPLICIT_ORDERING_DIM:
            raise EmptyOrderingSetError(
                f"for d={ndim} > {MAX_IMPLICIT_ORDERING_DIM} an explicit "
                "ordering set is required"
            )
        return all_orderings(ndim)
    out = tuple(validate_ordering(pi, ndim) for pi in orderings)
    if not out:
        raise EmptyOrderingSetError("the ordering set must not be empty")
    if len(set(out)) != len(out):
        raise InvalidOrderingError("the ordering set contains duplicates")
    return out


def _axis_pass(f: GriddedFunction, axis: int, rows) -> GriddedFunction:
    """Apply a row operator to every 1-d fiber of f along one axis.

    rows maps a 2-d array of fibers, one per row, to one of the same shape.
    The axis (numbered from 1) must be equidistant, so every node of a fiber
    carries the same measure, as in the L^p functionals.
    """
    axis = int(axis)
    if not 1 <= axis <= f.ndim:
        raise AxisOutOfRangeError(f"axis {axis} is not one of 1..{f.ndim}")
    if not f.axes[axis - 1].equidistant:
        raise NonEquidistantAxisError(
            f"axis {axis} is not equidistant; its nodes would carry unequal measure"
        )
    # swapaxes, unlike moveaxis, is a C-level view, which matters on small grids
    swapped = f.values.swapaxes(axis - 1, -1)
    out = rows(np.ascontiguousarray(swapped).reshape(-1, swapped.shape[-1]))
    return f.with_values(out.reshape(swapped.shape).swapaxes(-1, axis - 1))


def _compose(f: GriddedFunction, pi: Sequence[int], axis_op, lead: int = 0) -> GriddedFunction:
    """Apply axis_op along the ordering pi: axis pi_d first, ending with pi_1.

    The first lead axes of f, such as a replication axis, are left alone:
    pi orders the axes after them, numbered from 1.
    """
    out = f
    for j in reversed(validate_ordering(pi, f.ndim - lead)):
        out = axis_op(out, lead + j)
    return out


def _average(f: GriddedFunction, orderings, axis_op, lead: int = 0) -> GriddedFunction:
    """Average of the pi-compositions of axis_op over an ordering set, summed
    in set order; the first lead axes of f are left alone, as in _compose,
    and each index along them is scaled as one call on its function would."""
    pis = _resolve(f.ndim - lead, orderings)
    top = np.abs(f.values).max(axis=tuple(range(lead, f.ndim)), keepdims=True)
    shift = _headroom(top, len(pis))
    acc = np.zeros_like(f.values)
    for pi in pis:
        acc = acc + np.ldexp(_compose(f, pi, axis_op, lead).values, -shift)
    return f.with_values(np.ldexp(acc / len(pis), shift))


def rearrange_axis(f: GriddedFunction, axis: int) -> GriddedFunction:
    """Rearrange every 1-d fiber of f along one axis (numbered from 1)."""
    return _axis_pass(f, axis, lambda rows: np.sort(rows, axis=-1, kind="stable"))


def rearrange_pi(f: GriddedFunction, pi: Sequence[int]) -> GriddedFunction:
    """Rearrangement along the ordering pi = (pi_1, ..., pi_d), axis pi_d first."""
    return _compose(f, pi, rearrange_axis)


def rearrange_average(f: GriddedFunction, orderings=None) -> GriddedFunction:
    """Average of the pi-rearrangements over an ordering set.

    With orderings=None all d! orderings are used (d <= 3).  The average is
    monotone in every axis and its error never exceeds the mean error of the
    individual rearrangements.
    """
    return _average(f, orderings, rearrange_axis)


def eta_p(k_interval, epsilon: float, p: float, resolution: int = 21) -> float:
    """Smallest sorting gain over a lattice of strictly violating pairs.

    Minimizes |v - t'|^p + |v' - t|^p - |v - t|^p - |v' - t'|^p over lattice
    points of k_interval^4 subject to v' >= v + epsilon and t' >= t + epsilon.
    The minimum lower-bounds the L^p^p improvement that each unit of measure
    of an epsilon-separated violation must yield: it is positive for p > 1,
    the paper's strict-improvement case, and 0 at p = 1.

    k_interval is the value interval K, typically taken to be the observed
    [min, max] of the functions involved.  resolution is the number of
    lattice points per side; the exact infimum is approached from above as
    the lattice refines, and is hit exactly whenever epsilon is a multiple of
    the lattice step.
    """
    lo, hi = (float(k_interval[0]), float(k_interval[1]))
    if not (hi > lo):
        raise OutOfRangeError("the interval K must have positive length")
    epsilon = float(epsilon)
    if not epsilon > 0.0:
        raise OutOfRangeError("epsilon must be positive")
    p = check_p(p)
    if np.isinf(p):
        raise OutOfRangeError("eta_p needs a finite p")
    resolution = int(resolution)
    if resolution < 2:
        raise OutOfRangeError("resolution must be at least 2")
    if hi - lo < epsilon:
        raise InfeasibleConstraintError(
            f"no pair in [{lo}, {hi}] is separated by {epsilon}"
        )
    g = np.linspace(lo, hi, resolution)
    a, b = np.meshgrid(g, g, indexing="ij")
    feas = (b - a) >= epsilon * (1.0 - 1e-12)
    v, vp = a[feas], b[feas]  # value pairs with v' >= v + epsilon
    t, tp = v, vp  # the same lattice serves both coordinates
    gain = (
        np.abs(v[:, None] - tp[None, :]) ** p
        + np.abs(vp[:, None] - t[None, :]) ** p
        - np.abs(v[:, None] - t[None, :]) ** p
        - np.abs(vp[:, None] - tp[None, :]) ** p
    )
    return float(gain.min())
