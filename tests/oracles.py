"""Slow, literal oracles for the 1-d repairs, and row-by-row references.

Each oracle evaluates a textbook characterization of the repaired value at
one position and shares no arithmetic with the fast path it checks:
rearrange_quantile_oracle the quantile-function definition of the increasing
rearrangement (sorting), isotonic_maxmin_oracle the max-min formula of the
isotonic projection (pava).

The references are one-row-at-a-time forms of package code that works on
whole arrays: pava_reference repairs one fiber per call,
read_rows_reference and write_rows_reference parse and format one CSV line
at a time, and read_draws_reference assembles one draw at a time.  The
batched code must match them bit for bit and byte for byte.
window_mean_reference is the unweighted kernel and local-linear mean fit,
kernel_quantile_process_reference takes one sample_quantile per level and
window, and bootstrap_oracle refits every draw on its resampled rows, one
draw at a time; the weighted, blocked bootstrap must match it to rounding.
"""

import csv
import warnings

import numpy as np

from monotonize.csvio import _check_header, _grid_from_columns, _read_rows
from monotonize.errors import (
    CsvFormatError,
    EmptyInputError,
    GridMismatchError,
    IndexOutOfRangeError,
    NumericalError,
    OutOfRangeError,
    TooFewDrawsError,
    TooManyFailedDrawsError,
    ValidationError,
)
from monotonize.estimators import Dataset, EstimatorSpec, _integer, fit, sample_quantile
from monotonize.grid import GriddedFunction
from monotonize.grid import _headroom
from monotonize.isotonic import _check_seq
from monotonize.rearrange import _average, _axis_pass, _compose


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


def pava_reference(values, weights=None) -> np.ndarray:
    """pava on one sequence, pushing each value before pooling it."""
    v, w = _check_seq(values, weights)
    w = np.ldexp(w, -_headroom(float(w.max()), w.size))
    shift = _headroom(float(np.abs(v).max()), float(w.sum()))
    mean, wsum, count = [], [], []
    for x, wx in zip(np.ldexp(v, -shift).tolist(), w.tolist()):
        mean.append(x)
        wsum.append(wx)
        count.append(1)
        while len(mean) > 1 and mean[-2] > mean[-1]:
            m, wm, c = mean.pop(), wsum.pop(), count.pop()
            total = wsum[-1] + wm
            mean[-1] = (mean[-1] * wsum[-1] + m * wm) / total
            wsum[-1] = total
            count[-1] += c
    return np.ldexp(np.repeat(mean, count), shift)


def isotonize_axis_reference(f, axis):
    """isotonize_axis with one pava_reference call per fiber."""
    return _axis_pass(f, axis, lambda rows: np.array([pava_reference(r) for r in rows]))


def isotonize_average_reference(f, orderings=None):
    """isotonize_average built on isotonize_axis_reference."""
    return _average(f, orderings, lambda g, pi: _compose(g, pi, isotonize_axis_reference))


def read_rows_reference(path, what: str) -> tuple:
    """Header fields and a rows x fields array, one line parsed at a time."""
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


def write_rows_reference(path, header: list, blocks) -> None:
    """The header line, then one formatted line per grid node of each block.

    A block is (lead, axes, value arrays), lead the text that starts each of
    its lines; nodes run in meshgrid "ij" order.
    """
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for lead, axes, arrays in blocks:
            mesh = np.meshgrid(*(a.coords for a in axes), indexing="ij")
            flat = [m.reshape(-1) for m in mesh] + [a.reshape(-1) for a in arrays]
            for row in zip(*flat):
                fh.write(lead + ",".join(repr(float(v)) for v in row) + "\n")


def read_draws_reference(path) -> list:
    """read_draws assembling and checking one draw at a time, in index order."""
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


def window_mean_reference(data: Dataset, spec: EstimatorSpec) -> np.ndarray:
    """Kernel or local-linear mean fit from unweighted window sums."""
    order = np.argsort(data.x, kind="stable")
    xs, ys = data.x[order], data.y[order]
    nodes = spec.eval_axis.coords
    lo = np.searchsorted(xs, nodes - spec.bandwidth, side="left")
    hi = np.searchsorted(xs, nodes + spec.bandwidth, side="right")
    if spec.method == "kernel":
        cy = np.concatenate([[0.0], np.cumsum(ys)])
        return (cy[hi] - cy[lo]) / (hi - lo)
    zeros = np.zeros(1)
    c0 = np.concatenate([zeros, np.cumsum(np.ones_like(xs))])
    c1 = np.concatenate([zeros, np.cumsum(xs)])
    c2 = np.concatenate([zeros, np.cumsum(xs * xs)])
    d0 = np.concatenate([zeros, np.cumsum(ys)])
    d1 = np.concatenate([zeros, np.cumsum(xs * ys)])
    s0, s1, s2 = c0[hi] - c0[lo], c1[hi] - c1[lo], c2[hi] - c2[lo]
    t0, t1 = d0[hi] - d0[lo], d1[hi] - d1[lo]
    sx = s1 - nodes * s0
    sxx = s2 - 2.0 * nodes * s1 + nodes * nodes * s0
    sxy = t1 - nodes * t0
    det = s0 * sxx - sx * sx
    return (sxx * t0 - sx * sxy) / det


def kernel_quantile_process_reference(data: Dataset, spec: EstimatorSpec, taus) -> np.ndarray:
    """Box-kernel check-loss fits, levels x nodes: one sample_quantile per cell."""
    h = spec.bandwidth
    windows = [data.y[(data.x >= c - h) & (data.x <= c + h)] for c in spec.eval_axis.coords]
    return np.array([[sample_quantile(w, t) for w in windows] for t in taus])


def bootstrap_oracle(data: Dataset, spec: EstimatorSpec, b_draws: int, seed: int):
    """bootstrap refitting each draw on its resampled rows, draw by draw.

    Draw b, attempt retry, resamples with the stream (seed, b, retry); a
    failed fit is redrawn at once, and more than 10% failures abort.
    """
    b_draws = _integer("b_draws", b_draws, 0)
    if b_draws < 2:
        raise TooFewDrawsError(f"need at least 2 bootstrap draws, got {b_draws}")
    seed = _integer("seed", seed, 0)
    n = data.n
    failures = 0
    estimates = []
    for bidx in range(b_draws):
        for retry in range(1000):
            rng = np.random.default_rng(
                np.random.SeedSequence(entropy=seed, spawn_key=(bidx, retry))
            )
            idx = rng.integers(0, n, size=n)
            try:
                estimates.append(fit(Dataset(data.x[idx], data.y[idx]), spec).estimate)
                break
            except (ValidationError, NumericalError):
                failures += 1
                if failures > 0.1 * b_draws:
                    raise TooManyFailedDrawsError(
                        f"{failures} failed draws exceed 10% of {b_draws}"
                    ) from None
    if failures:
        warnings.warn(f"bootstrap redrew {failures} failed draws", RuntimeWarning)
    stacked = np.stack([e.values for e in estimates])
    stderr = GriddedFunction(estimates[0].axes, stacked.std(axis=0, ddof=1))
    return stderr, estimates
