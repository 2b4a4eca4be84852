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
from typing import Sequence

import numpy as np

from .errors import (
    AllNodesDegenerateError,
    CrossingBandError,
    NegativeStderrError,
    OutOfRangeError,
    TooFewDrawsError,
)
from .estimators import _real, sample_quantile
from .grid import GriddedFunction, check_same_grid, value_tol
from .isotonic import monotonize

#: Nodes whose standard error falls at or below this threshold are excluded
#: from max-t statistics (and reported), since dividing by them is unstable.
DEGENERATE_STDERR = 1e-12


class Band:
    """A pair of end-point functions with lower <= upper pointwise."""

    __slots__ = ("lower", "upper")

    def __init__(self, lower: GriddedFunction, upper: GriddedFunction):
        check_same_grid(lower, upper)
        tol = value_tol(lower.values, upper.values)
        # an end-point plus tol may pass the float maximum; the inf it rounds
        # to then decides as the exact sum would
        with np.errstate(over="ignore"):
            crossing = np.any(lower.values > upper.values + tol)
        if crossing:
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
    offset = float(critical) * stderr.values
    return Band(
        center.with_values(center.values - offset),
        center.with_values(center.values + offset),
    )


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


def max_t(center: GriddedFunction, f: GriddedFunction, stderr: GriddedFunction) -> float:
    """max |f - center| / stderr over the nodes whose stderr is not degenerate."""
    check_same_grid(center, stderr)
    check_same_grid(center, f)
    valid = stderr.values > DEGENERATE_STDERR
    if not np.any(valid):
        raise AllNodesDegenerateError(
            "every node has a near-zero standard error; no max-t statistic exists"
        )
    return float(
        np.max(np.abs(f.values[valid] - center.values[valid]) / stderr.values[valid])
    )


def critical_value_max_t(
    center: GriddedFunction,
    bootstrap_centers: Sequence[GriddedFunction],
    stderr: GriddedFunction,
    alpha: float,
) -> float:
    """Conservative empirical (1 - alpha) quantile of max_t over the draws.

    A warning reports the nodes that max_t leaves out for a near-zero stderr.
    """
    draws = list(bootstrap_centers)
    if len(draws) < 2:
        raise TooFewDrawsError(f"need at least 2 draws, got {len(draws)}")
    stats = [max_t(center, d, stderr) for d in draws]
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
    tol = value_tol(band.lower.values, band.upper.values, f.values)
    # an overflow past the float maximum decides as in Band.__init__
    with np.errstate(over="ignore"):
        return bool(
            np.all(band.lower.values - tol <= f.values)
            and np.all(f.values <= band.upper.values + tol)
        )
