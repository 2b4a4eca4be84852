"""Slow, literal oracles for the 1-d repairs.

Each evaluates a textbook characterization of the repaired value at one
position and shares no arithmetic with the fast path it checks:
rearrange_quantile_oracle the quantile-function definition of the increasing
rearrangement (sorting), isotonic_maxmin_oracle the max-min formula of the
isotonic projection (pava).
"""

import numpy as np

from monotonize.errors import EmptyInputError, IndexOutOfRangeError, OutOfRangeError
from monotonize.isotonic import _check_seq


def rearrange_quantile_oracle(values, x: float) -> float:
    """Evaluate the rearrangement at x in (0, 1] straight from its definition.

    Returns the smallest value y such that the fraction of entries <= y is at
    least x.  Slow by construction; the sorting path must agree with this at
    every grid level x = (i+1)/n.
    """
    v = np.asarray(values, dtype=float)
    if v.ndim != 1 or v.size == 0:
        raise EmptyInputError("the oracle needs a non-empty 1-d sequence")
    if not (0.0 < x <= 1.0):
        raise OutOfRangeError(f"x must lie in (0, 1], got {x!r}")
    n = v.size
    for y in np.unique(v):  # unique() returns candidate levels sorted
        if np.count_nonzero(v <= y) / n >= x:
            return float(y)
    return float(v.max())  # unreachable: the largest level always qualifies


def isotonic_maxmin_oracle(values, index: int, weights=None) -> float:
    """Max-min characterization of the isotonic projection at one position.

    Returns max over j <= index of the min over k >= index of the weighted
    mean of values[j..k] (0-based, inclusive), in O(n^2).
    """
    v, w = _check_seq(values, weights)
    n = v.size
    index = int(index)
    if not 0 <= index < n:
        raise IndexOutOfRangeError(f"index {index} outside 0..{n - 1}")
    best = -np.inf
    for j in range(index + 1):
        num = float(np.dot(v[j : index + 1], w[j : index + 1]))
        den = float(np.sum(w[j : index + 1]))
        worst = num / den
        for k in range(index + 1, n):
            num += v[k] * w[k]
            den += w[k]
            worst = min(worst, num / den)
        best = max(best, worst)
    return best
