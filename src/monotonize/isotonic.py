"""Weighted isotonic regression and convex blends with rearrangement.

pava computes the weighted least-squares projection of a sequence onto the
cone of weakly increasing sequences by pooling adjacent violators.  The
projection flattens decreasing stretches into weighted block means; it is the
identity on weakly increasing input because only strict decreases trigger
pooling.

The multivariate isotonization runs pava as the row operator of the
axis-by-axis engine in the rearrange module: along one axis, along the axes
of an ordering, and averaged over a set of orderings.  One _pava_rows call
repairs every fiber of an axis pass, and pava is its one-row case.
monotonize is the one entry point to rearrangement, isotonization and their
blend.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import (
    EmptyInputError,
    LambdaOutOfRangeError,
    NonFiniteValueError,
    NonPositiveWeightError,
    OutOfRangeError,
    ShapeMismatchError,
)
from .grid import GriddedFunction, _headroom, _real, check_same_grid
from .rearrange import _average, _axis_pass, _compose, rearrange_average


def _check_seq(values, weights):
    v = np.asarray(values, dtype=float)
    if v.ndim != 1 or v.size == 0:
        raise EmptyInputError("a non-empty 1-d sequence is required")
    if not np.all(np.isfinite(v)):
        raise NonFiniteValueError("values must be finite")
    if weights is None:
        w = np.ones(v.size)
    else:
        w = np.asarray(weights, dtype=float)
        if w.shape != v.shape:
            raise ShapeMismatchError("weights must match the values in shape")
        if not np.all(np.isfinite(w)):
            raise NonFiniteValueError("weights must be finite")
        if not np.all(w > 0.0):
            raise NonPositiveWeightError("weights must be strictly positive")
    return v, w


def pava(values, weights=None) -> np.ndarray:
    """Weighted L2 projection onto weakly increasing sequences.

    Stack-based pool-adjacent-violators, linear time.  Pooling replaces a
    decreasing neighbour pair of blocks by their weighted mean and repeats
    until the block means are weakly increasing, which preserves the total
    weighted mean of the input.
    """
    v, w = _check_seq(values, weights)
    return _pava_rows(v[None, :], None if weights is None else w)[0]


def _pava_rows(v: np.ndarray, w=None) -> np.ndarray:
    """pava on every row of a 2-d array, with weights w shared by all rows.

    w = None means unit weights.  Each row gets the bits that a pava call on
    it alone gives.
    """
    if not np.all(np.isfinite(v)):
        raise NonFiniteValueError("values must be finite")
    n = v.shape[-1]
    if w is None:
        wl, wtotal = [1.0] * n, float(n)
    else:
        # pooled sums reach max|v| * sum(w): scale both by exact powers of
        # two (no change at normal magnitudes) and scale the block means back
        w = np.ldexp(w, -_headroom(float(w.max()), n))
        wl, wtotal = w.tolist(), float(w.sum())
    shift = None
    if _headroom(float(np.abs(v).max()), wtotal):
        # some row needs scaling: each row gets its own exponent
        shift = _headroom(np.abs(v).max(axis=1), wtotal)[:, None]
        v = np.ldexp(v, -shift)
    # pava is the identity on a weakly increasing row: only the others pool
    work = np.any(v[:, 1:] < v[:, :-1], axis=1)
    # the stacks hold Python floats: the same double arithmetic as numpy
    # scalars, without their per-element boxing
    means, counts = [], []
    for row in v[work].tolist():
        mean, wsum, count = [], [], []
        for x, wx in zip(row, wl):
            c = 1
            while mean and mean[-1] > x:
                m, wm = mean.pop(), wsum.pop()
                total = wm + wx
                x = (m * wm + x * wx) / total
                wx = total
                c += count.pop()
            mean.append(x)
            wsum.append(wx)
            count.append(c)
        means += mean
        counts += count
    out = v.copy()
    out[work] = np.repeat(means, counts).reshape(-1, n)
    return out if shift is None else np.ldexp(out, shift)


def isotonize_axis(f: GriddedFunction, axis: int) -> GriddedFunction:
    """Apply pava to every 1-d fiber of f along one axis (numbered from 1)."""
    return _axis_pass(f, axis, _pava_rows)


def isotonize_pi(f: GriddedFunction, pi: Sequence[int]) -> GriddedFunction:
    """Sequential isotonization along the ordering pi, axis pi_d first."""
    return _compose(f, pi, isotonize_axis)


def isotonize_average(f: GriddedFunction, orderings=None) -> GriddedFunction:
    """Average of the pi-isotonizations over an ordering set."""
    return _average(f, orderings, isotonize_axis)


def blend(a: GriddedFunction, b: GriddedFunction, lam: float) -> GriddedFunction:
    """Convex combination lam * a + (1 - lam) * b on a shared grid."""
    check_same_grid(a, b)
    lam = _real("lambda", lam)
    if not 0.0 <= lam <= 1.0:
        raise LambdaOutOfRangeError(f"lambda must lie in [0, 1], got {lam!r}")
    return a.with_values(lam * a.values + (1.0 - lam) * b.values)


def monotonize(
    f: GriddedFunction,
    method: str = "rearrange",
    orderings=None,
    lam: float = 0.5,
) -> GriddedFunction:
    """One entry point for the three monotonization operators.

    method is one of "rearrange", "isotonize" or "blend"; blend mixes the
    averaged rearrangement (weight lam) with the averaged isotonization, and
    at lam = 1 or 0 computes only the one it keeps.
    """
    if method == "blend" and _real("lambda", lam) in (0.0, 1.0):
        method = "rearrange" if lam == 1.0 else "isotonize"
    if method == "rearrange":
        return rearrange_average(f, orderings)
    if method == "isotonize":
        return isotonize_average(f, orderings)
    if method == "blend":
        return blend(rearrange_average(f, orderings), isotonize_average(f, orderings), lam)
    raise OutOfRangeError(f"method must be rearrange, isotonize or blend, got {method!r}")
