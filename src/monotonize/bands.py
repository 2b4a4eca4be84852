"""Simultaneous confidence bands and their monotonization.

A band is a pair of end-point functions on a shared grid with lower <= upper.
Bands of the symmetric max-t type are assembled as center +/- critical *
stderr, with the critical value taken as a conservative empirical quantile of
the bootstrap max-t statistics.

Monotonizing a band applies the same operator independently to both
end-points.  Because the operators preserve pointwise order, any function
the original band covers is still covered after monotonization (after the
function itself is monotonized, which changes nothing when it is already
monotone); because they reduce L^p distances between pairs, the band can only
get shorter in every L^p length.
"""

from __future__ import annotations

import warnings

import numpy as np

from .errors import (
    AllNodesDegenerateError,
    CrossingBandError,
    GridMismatchError,
    NegativeStderrError,
    OutOfRangeError,
    TooFewDrawsError,
)
from .grid import GriddedFunction, _real, _row_tols, check_same_grid, sample_quantile
from .isotonic import monotonize

#: Nodes whose standard error falls at or below this threshold are excluded
#: from max-t statistics (and reported), since dividing by them is unstable.
DEGENERATE_STDERR = 1e-12


class Band:
    """A pair of end-point functions with lower <= upper pointwise."""

    __slots__ = ("lower", "upper")

    def __init__(self, lower: GriddedFunction, upper: GriddedFunction):
        check_same_grid(lower, upper)
        if _crossing(lower.values[None], upper.values[None])[0]:
            raise CrossingBandError("lower end-point exceeds upper end-point")
        self.lower = lower
        self.upper = upper

    @property
    def axes(self):
        return self.lower.axes

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Band)
            and self.lower == other.lower
            and self.upper == other.upper
        )

    def __repr__(self) -> str:
        return f"Band(shape={self.lower.shape})"


def assemble_band(center: GriddedFunction, stderr: GriddedFunction, critical: float) -> Band:
    """The two-sided band center +/- critical * stderr."""
    check_same_grid(center, stderr)
    if np.any(stderr.values < 0.0):
        raise NegativeStderrError("standard errors must be non-negative")
    if not float(critical) >= 0.0:
        raise OutOfRangeError("the critical value must be non-negative")
    # an end-point past the float maximum rounds to +-inf, which Band refuses
    with np.errstate(over="ignore"):
        offset = float(critical) * stderr.values
        lower, upper = center.values - offset, center.values + offset
    return Band(center.with_values(lower), center.with_values(upper))


def order_statistic_quantile(values, alpha: float) -> float:
    """Conservative empirical upper quantile of a sample.

    The sample_quantile at level 1 - alpha: the k-th smallest entry with
    k = ceil((1 - alpha) * B), the fixed rule used for every critical value
    in the package.  alpha = 0 gives the sample maximum.
    """
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise TooFewDrawsError("no values to take a quantile of")
    alpha = _real("alpha", alpha)
    if not 0.0 <= alpha < 1.0:
        raise OutOfRangeError(f"alpha must lie in [0, 1), got {alpha!r}")
    return sample_quantile(arr, 1.0 - alpha)


def max_t(center: GriddedFunction, f: GriddedFunction, stderr: GriddedFunction):
    """max |f - center| / stderr over the nodes whose stderr is not degenerate,
    one per draw if f leads with a draw axis, as bootstrap's draws do."""
    check_same_grid(center, stderr)
    if f.axes[int(f.ndim > center.ndim) :] != center.axes:
        raise GridMismatchError("functions do not live on the same grid")
    valid = stderr.values > DEGENERATE_STDERR
    if not np.any(valid):
        raise AllNodesDegenerateError(
            "every node has a near-zero standard error; no max-t statistic exists"
        )
    dev = np.abs(f.values[..., valid] - center.values[valid]) / stderr.values[valid]
    return dev.max(axis=-1)


def critical_value_max_t(
    center: GriddedFunction,
    draws: GriddedFunction,
    stderr: GriddedFunction,
    alpha: float,
) -> float:
    """Conservative empirical (1 - alpha) quantile of max_t over bootstrap's draws.

    A warning reports the nodes that max_t leaves out for a near-zero stderr.
    """
    stats = np.atleast_1d(max_t(center, draws, stderr))
    if stats.size < 2:
        raise TooFewDrawsError(f"need at least 2 draws, got {stats.size}")
    n_bad = int(np.count_nonzero(stderr.values <= DEGENERATE_STDERR))
    if n_bad:
        warnings.warn(
            f"{n_bad} of {stderr.values.size} nodes have near-zero stderr and are "
            "excluded from the max-t statistic",
            RuntimeWarning,
            stacklevel=2,
        )
    return order_statistic_quantile(stats, alpha)


def monotonize_band(
    band: Band,
    method: str = "rearrange",
    orderings=None,
    lam: float = 0.5,
) -> Band:
    """Monotonize both end-points of a band with the same operator."""
    return Band(
        monotonize(band.lower, method, orderings, lam),
        monotonize(band.upper, method, orderings, lam),
    )


def covers(band: Band, f: GriddedFunction) -> bool:
    """True when f lies inside the band at every node (tolerance-padded)."""
    check_same_grid(band.lower, f)
    return bool(_covered(band.lower.values[None], band.upper.values[None], f.values[None])[0])


def _crossing(lower: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """Per row, the index along a leading axis: does the band cross, as
    Band decides it?"""
    tol = _row_tols(lower, upper).reshape((-1,) + (1,) * (lower.ndim - 1))
    # an end-point plus tol may pass the float maximum; the inf it rounds
    # to then decides as the exact sum would
    with np.errstate(over="ignore"):
        return np.any((lower > upper + tol).reshape(len(lower), -1), axis=1)


def _covered(lower: np.ndarray, upper: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Per row, as in _crossing: does the band cover f, as covers decides it?
    f may have length 1 along the leading axis."""
    tol = _row_tols(lower, upper, f).reshape((-1,) + (1,) * (lower.ndim - 1))
    # an overflow past the float maximum decides as in _crossing
    with np.errstate(over="ignore"):
        inside = (lower - tol <= f) & (f <= upper + tol)
    return np.all(inside.reshape(len(lower), -1), axis=1)
