"""Inputs, CSV files and output checks of the benchmark, independent of monotonize.

Nothing here imports the package under test.  The CSV writer and reader are
the benchmark's own; the checks recompute each result with numpy and scipy
or test a property the method guarantees.  A failed check raises CheckError.
"""

from __future__ import annotations

import math
from itertools import permutations
from statistics import NormalDist

import numpy as np

# the growth-chart design: height on age, slope changes at ages 5, 10 and 15
BETA = (71.25, 8.13, -2.72, 1.78, -6.43)
SIGMA = 4.0
AGES = (2.0, 20.0)
RATIO_SLACK = 1e-10


class CheckError(AssertionError):
    pass


def require(ok, message: str) -> None:
    if not ok:
        raise CheckError(message)


def true_mean(x):
    x = np.asarray(x, dtype=float)
    hinge = lambda k: np.where(x > k, x - k, 0.0)
    b = BETA
    return b[0] + b[1] * x + b[2] * hinge(5.0) + b[3] * hinge(10.0) + b[4] * hinge(15.0)


def true_quantile(u, x):
    z = np.array([NormalDist().inv_cdf(float(t)) for t in np.ravel(u)])
    return true_mean(x)[None, :] + SIGMA * z[:, None]


# --- CSV ---------------------------------------------------------------------


def write_grid(path, axes, values) -> None:
    """Grid-function CSV: x1..xd,value, one row per node, %.17g round-trips."""
    mesh = np.meshgrid(*axes, indexing="ij")
    cols = np.column_stack([m.reshape(-1) for m in mesh] + [np.ravel(values)])
    header = ",".join([f"x{i}" for i in range(1, len(axes) + 1)] + ["value"])
    np.savetxt(path, cols, fmt="%.17g", delimiter=",", header=header, comments="")


def write_dataset(path, x, y) -> None:
    np.savetxt(path, np.column_stack([x, y]), fmt="%.17g", delimiter=",",
               header="x,y", comments="")


def read_table(path) -> tuple:
    """Header names and a float matrix, one row per data line."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        body = [line.split(",") for line in fh.read().splitlines() if line]
    require(body, f"{path}: no data rows")
    require(all(len(r) == len(header) for r in body), f"{path}: ragged rows")
    return header, np.array(body, dtype=float)


def grid_from_rows(coords: np.ndarray, values: np.ndarray, path) -> tuple:
    """Axes and value array from rows in any order; every node exactly once."""
    axes = [np.unique(coords[:, j]) for j in range(coords.shape[1])]
    shape = tuple(a.size for a in axes)
    require(coords.shape[0] == math.prod(shape), f"{path}: rows do not tile the grid")
    flat = np.ravel_multi_index(
        tuple(np.searchsorted(a, coords[:, j]) for j, a in enumerate(axes)), shape
    )
    require(np.unique(flat).size == flat.size, f"{path}: duplicate nodes")
    out = np.empty(flat.size)
    out[flat] = values
    return axes, out.reshape(shape)


def read_grid(path, columns=("value",)) -> tuple:
    """Axes and one array per value column of a grid-function or band CSV."""
    header, rows = read_table(path)
    d = len(header) - len(columns)
    require(header == [f"x{i}" for i in range(1, d + 1)] + list(columns),
            f"{path}: unexpected header {header}")
    out = [grid_from_rows(rows[:, :d], rows[:, d + k], path) for k in range(len(columns))]
    return out[0][0], [v for _, v in out]


def read_draws(path) -> np.ndarray:
    """Draws CSV as a (B, *grid) array."""
    header, rows = read_table(path)
    require(header[0] == "draw" and header[-1] == "value", f"{path}: bad header")
    ids = rows[:, 0].astype(int)
    b = ids.max() + 1
    require(np.array_equal(np.unique(ids), np.arange(b)), f"{path}: draw ids have gaps")
    return np.stack([grid_from_rows(rows[ids == i, 1:-1], rows[ids == i, -1], path)[1]
                     for i in range(b)])


# --- oracles -----------------------------------------------------------------


def orderings(ndim: int) -> list:
    return list(permutations(range(1, ndim + 1)))


def sequential(values, order, op_1d) -> np.ndarray:
    """Apply a 1-d operator to every fibre, innermost axis of the ordering first."""
    out = np.array(values, dtype=float)
    for axis in reversed(order):
        out = np.apply_along_axis(op_1d, axis - 1, out)
    return out


def averaged(values, op_1d) -> np.ndarray:
    pis = orderings(np.ndim(values))
    acc = np.zeros(np.shape(values))
    for pi in pis:
        acc = acc + sequential(values, pi, op_1d)
    return acc / len(pis)


def rearrange_oracle(values) -> np.ndarray:
    return averaged(values, np.sort)


def isotonize_oracle(values) -> np.ndarray:
    from scipy.optimize import isotonic_regression

    return averaged(values, lambda v: isotonic_regression(v).x)


def violating_share(values) -> float:
    """Share of adjacent pairs, along every axis, that decrease."""
    bad = total = 0
    for axis in range(np.ndim(values)):
        d = np.diff(values, axis=axis)
        bad += int(np.count_nonzero(d < 0.0))
        total += d.size
    return bad / total


def lp_errors(values, truth) -> list:
    """L^1, L^2, L^inf distances on an equal-weight grid."""
    d = np.abs(np.asarray(values) - truth)
    return [float(d.mean()), float(np.sqrt((d**2).mean())), float(d.max())]


def check_repair(path, inp, truth, expected, what: str) -> None:
    """Output equals its oracle, is monotone, and is no farther from the truth."""
    _, (out,) = read_grid(path)
    require(out.shape == inp.shape, f"{what}: shape {out.shape} != {inp.shape}")
    scale = max(1.0, float(np.abs(expected).max()))
    err = float(np.abs(out - expected).max())
    require(err <= 1e-9 * scale, f"{what}: differs from its oracle by {err!r}")
    tol = 1e-12 * scale
    for axis in range(out.ndim):
        require(np.all(np.diff(out, axis=axis) >= -tol), f"{what}: decreasing along axis {axis + 1}")
    for p, after, before in zip(("1", "2", "inf"), lp_errors(out, truth), lp_errors(inp, truth)):
        require(after <= before * (1 + RATIO_SLACK) + 1e-14,
                f"{what}: L^{p} error grew from {before!r} to {after!r}")


def critical_value(center, stderr, draws, alpha) -> float:
    """The ceil((1 - alpha) B)-th order statistic of max |draw - center| / stderr."""
    valid = stderr > 1e-12
    stats = np.sort(np.max(np.abs(draws[:, valid] - center[valid]) / stderr[valid], axis=1))
    k = min(max(math.ceil((1.0 - alpha) * stats.size - 1e-9), 1), stats.size)
    return float(stats[k - 1])


def check_band(lower, upper, out_lower, out_upper, increasing: list) -> None:
    """Order kept, coverage of increasing functions kept, never longer."""
    scale = max(1.0, float(np.abs(upper).max()), float(np.abs(lower).max()))
    tol = 1e-12 * scale
    require(np.all(out_lower <= out_upper + tol), "band: lower exceeds upper")
    for g in increasing:
        if np.all(lower - tol <= g) and np.all(g <= upper + tol):
            require(np.all(out_lower - tol <= g) and np.all(g <= out_upper + tol),
                    "band: lost coverage of an increasing function")
    for p, after, before in zip(("1", "2", "inf"), lp_errors(out_lower, out_upper),
                                lp_errors(lower, upper)):
        require(after <= before * (1 + RATIO_SLACK) + 1e-14,
                f"band: L^{p} length grew from {before!r} to {after!r}")


def read_report(path) -> list:
    """A simulate report as a list of {column: text} rows."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:] if line]


def check_report(path, table: int, alpha: float) -> None:
    """4 methods x p in {1, 2, inf}; ratios <= 1; coverage properties of table 3."""
    rows = read_report(path)
    keys = sorted((r["method"], r["p"]) for r in rows)
    expect = sorted((m, p) for m in ("kernel", "loclinear", "bspline", "fourier")
                    for p in ("1", "2", "inf"))
    require(keys == expect, f"table {table}: rows {keys}")
    for r in rows:
        where = f"table {table} {r['method']} p={r['p']}"
        for col, text in r.items():
            if col.startswith(("ratio_", "length_ratio_")):
                require(float(text) <= 1.0 + RATIO_SLACK, f"{where}: {col} = {text}")
        if table in (1, 2):
            e = float(r["error_original"])
            require(math.isfinite(e) and e > 0.0, f"{where}: error_original = {e!r}")
        else:
            orig = float(r["coverage_original"])
            require(orig >= 1.0 - alpha, f"{where}: coverage_original {orig} < {1 - alpha}")
            for col, text in r.items():
                if col.startswith("coverage_"):
                    require(float(text) >= orig, f"{where}: {col} = {text} < {orig}")
