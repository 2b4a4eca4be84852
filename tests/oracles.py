"""Slow, literal oracles for the 1-d repairs, and row-by-row references.

Each oracle evaluates a textbook characterization of the repaired value at
one position and shares no arithmetic with the fast path it checks:
rearrange_quantile_oracle the quantile-function definition of the increasing
rearrangement (sorting), isotonic_maxmin_oracle the max-min formula of the
isotonic projection (pava).

The references are one-row-at-a-time forms of package code that works on
whole arrays: pava_reference repairs one fiber per call,
read_rows_reference and write_rows_reference parse and format one CSV line
at a time, and read_draws_reference assembles one draw at a time and
stacks the draws at the end.  The batched code must match them bit for bit
and byte for byte.  read_rows_reference is csv.reader and float alone, so
csvio._read_rows, which hands what it can to numpy's C reader, must also
raise its errors word for word.
window_mean_reference is the unweighted kernel and local-linear mean fit,
kernel_quantile_process_reference takes one sample_quantile per level and
window, and bootstrap_oracle refits every draw on its resampled rows, one
draw at a time, and stacks the draws at the end; the weighted, blocked
bootstrap must match it to rounding.  montecarlo_reference computes the
simulation tables one replication at a time from the public operators; the
blocked harness must match it bit for bit.
"""

import csv
import warnings
from dataclasses import replace

import numpy as np

from monotonize.bands import Band, assemble_band, covers, max_t, order_statistic_quantile
from monotonize.csvio import _check_header, _grid_from_columns, _read_rows
from monotonize.errors import (
    CsvFormatError,
    EmptyInputError,
    GridMismatchError,
    ImprovementViolationError,
    IndexOutOfRangeError,
    NumericalError,
    OutOfRangeError,
    TooFewDrawsError,
    TooManyFailedDrawsError,
    ValidationError,
)
from monotonize.estimators import (
    MEAN_LOSS,
    Dataset,
    EstimatorSpec,
    bootstrap,
    fit,
    fit_quantile_process,
)
from monotonize.grid import Axis, GriddedFunction, _integer, lp_distance, lp_length
from monotonize.grid import _headroom, sample_quantile
from monotonize.isotonic import _check_seq, blend, isotonize_average
from monotonize.montecarlo import (
    IMPROVE_ATOL,
    IMPROVE_RTOL,
    REPORT_PS,
    _bootstrap_seed,
    _format_p,
    _variant_labels,
    simulate_rep,
    true_cef,
    true_cqf,
)
from monotonize.rearrange import _average, _axis_pass, rearrange_average, rearrange_pi


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
    return _average(f, orderings, isotonize_axis_reference)


def read_rows_reference(path, what: str) -> tuple:
    """Header fields and a rows x fields array by csv.reader and float, one
    line parsed at a time, with the errors and their wording of csvio."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            records = list(reader)
    except UnicodeDecodeError as exc:
        byte = exc.object[exc.start]
        raise CsvFormatError(f"{path}: not UTF-8 text ({exc.reason}: byte 0x{byte:02x})") from None
    except csv.Error as exc:
        raise CsvFormatError(f"{path}:{reader.line_num}: {exc}") from None
    if not records:
        raise CsvFormatError(f"{path}: empty file, expected a {what} header")
    header, rows = records[0], []
    for lineno, row in enumerate(records[1:], start=2):
        if not row:
            continue
        if len(row) != len(header):
            raise CsvFormatError(
                f"{path}:{lineno}: expected {len(header)} fields, got {len(row)}"
            )
        try:
            rows.append([float(c) for c in row])
        except ValueError:
            raise CsvFormatError(f"{path}:{lineno}: non-numeric field in {row!r}") from None
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


def read_draws_reference(path) -> GriddedFunction:
    """read_draws assembling and checking one draw at a time, in index order,
    then stacking the draws along a leading draw axis."""
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
    stacked = np.stack([f.values for f in out])
    return GriddedFunction([Axis(np.arange(len(out))), *first.axes], stacked)


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
    return stderr, GriddedFunction([Axis(np.arange(b_draws)), *estimates[0].axes], stacked)


def montecarlo_reference(cfg, table: int) -> dict:
    """run_experiment's per_rep arrays, one replication, estimator, variant
    and p at a time from the public operators and functionals, with the
    harness's checks in the same order and with the same messages."""
    labels = _variant_labels(cfg.lambda_grid)

    def variants(f, orderings):
        rearranged = rearrange_average(f, orderings)
        isotonized = isotonize_average(f, orderings)
        return [rearranged, isotonized] + [
            blend(rearranged, isotonized, lam) for lam in cfg.lambda_grid
        ]

    def require_no_worse(mono, orig, what, r):
        if mono > orig * (1.0 + IMPROVE_RTOL) + IMPROVE_ATOL:
            raise ImprovementViolationError(
                f"replication {r}: {what} came out {float(mono)!r} > original {float(orig)!r}"
            )

    def measure(out, funcs, functional, what, r):
        for vi, g in enumerate(funcs):
            for pi, p in enumerate(REPORT_PS):
                out[vi, pi] = functional(g, p)
                if vi:
                    label = what.format(label=labels[vi - 1], p=_format_p(p))
                    require_no_worse(out[vi, pi], out[0, pi], label, r)

    if table == 2:
        specs, orderings = list(cfg.estimators), ((1, 2), (2, 1))
        truths = [
            GriddedFunction([Axis(cfg.taus), s.eval_axis], true_cqf(
                cfg.taus[:, None], s.eval_axis.coords[None, :], cfg.beta, cfg.sigma))
            for s in specs
        ]
    else:
        specs = [replace(s, loss=MEAN_LOSS) for s in cfg.estimators]
        truths = [GriddedFunction([s.eval_axis], true_cef(s.eval_axis.coords, cfg.beta))
                  for s in specs]
        orderings = ((1,),)
    shape = (cfg.reps, len(specs), 1 + len(labels))
    if table in (1, 2):
        errors = np.empty(shape + (len(REPORT_PS),))
        for r in range(cfg.reps):
            data = simulate_rep(cfg, r)
            for ei, (spec, truth) in enumerate(zip(specs, truths)):
                if table == 1:
                    fhat = fit(data, spec).estimate
                else:
                    fhat = fit_quantile_process(data, spec, cfg.taus)
                distance = lambda g, p: lp_distance(g, truth, p)
                funcs = [fhat] + variants(fhat, orderings)
                measure(errors[r, ei], funcs, distance, spec.method + " {label} L^{p} error", r)
                if table == 2:
                    for pi, p in enumerate(REPORT_PS):
                        members = [distance(rearrange_pi(fhat, o), p) for o in orderings]
                        what = (f"{spec.method} averaged rearrangement vs mean of "
                                f"single-ordering L^{_format_p(p)} errors")
                        require_no_worse(errors[r, ei, 1, pi], float(np.mean(members)), what, r)
        return {"errors": errors}

    fits = []
    for r in range(cfg.reps):
        data = simulate_rep(cfg, r)
        fits.append([(fit(data, spec).estimate,
                      bootstrap(data, spec, cfg.bootstrap_B, _bootstrap_seed(cfg, r, ei))[0])
                     for ei, spec in enumerate(specs)])
    coverage = np.empty(shape, dtype=bool)
    lengths = np.empty(shape + (len(REPORT_PS),))
    for ei, (spec, truth) in enumerate(zip(specs, truths)):
        critical = order_statistic_quantile(
            [max_t(truth, *fits[r][ei]) for r in range(cfg.reps)], cfg.alpha)
        for r in range(cfg.reps):
            band = assemble_band(*fits[r][ei], critical)
            ends = zip(variants(band.lower, orderings), variants(band.upper, orderings))
            vbands = [Band(lower, upper) for lower, upper in ends]
            for vi, vband in enumerate([band] + vbands):
                coverage[r, ei, vi] = covers(vband, truth)
                if coverage[r, ei, 0] and not coverage[r, ei, vi]:
                    raise ImprovementViolationError(
                        f"replication {r}: {spec.method} {labels[vi - 1]} band lost "
                        "coverage the original band had"
                    )
            what = spec.method + " {label} band L^{p} length"
            measure(lengths[r, ei], [band] + vbands, lp_length, what, r)
    return {"coverage": coverage, "lengths": lengths}
