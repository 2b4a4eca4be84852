"""Nonparametric curve estimators with mean and quantile losses.

Four methods on a shared interface: box-kernel local constant, local linear,
cubic B-spline series and trigonometric (Fourier) series, each fit under
either squared-error loss or the check loss of quantile regression, and each
evaluated on an explicit grid so the result plugs straight into the
rearrangement and isotonization operators.

Every quantile fit minimizes the check loss exactly (see _quantile_fits):
the box kernel by order statistics of its windows, and local linear and the
series methods by one descent over the vertices of the check loss
(_descent), all quantile levels, and all local-linear windows, at once.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    EmptyInputError,
    EmptyWindowError,
    NonFiniteValueError,
    NonIncreasingAxisError,
    OutOfDomainError,
    OutOfRangeError,
    RankDeficientDesignError,
    ShapeMismatchError,
    TooFewDrawsError,
    TooManyFailedDrawsError,
    ValidationError,
    NumericalError,
)
from .grid import Axis, GriddedFunction, _integer, _levels, _order_index, _real, _reals

METHODS = ("kernel", "loclinear", "bspline", "fourier")

#: The work arrays of one block of bootstrap draws hold about this many numbers.
BLOCK_ELEMENTS = 1 << 16
#: A series draw whose Gram matrix has an eigenvalue ratio (smallest over
#: largest) at or below this is refit by least squares on its rows.
GRAM_EIG_RATIO = 1e-6


@dataclass(frozen=True)
class Dataset:
    """Paired observations (x_i, y_i)."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        x = np.atleast_1d(np.array(self.x, dtype=float))
        y = np.atleast_1d(np.array(self.y, dtype=float))
        if x.ndim != 1 or y.ndim != 1:
            raise ShapeMismatchError("x and y must be 1-d")
        if x.size != y.size:
            raise ShapeMismatchError(
                f"x and y lengths differ: {x.size} vs {y.size}"
            )
        if x.size == 0:
            raise EmptyInputError("a dataset needs at least one observation")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            raise NonFiniteValueError("observations must be finite")
        x.setflags(write=False)
        y.setflags(write=False)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    @property
    def n(self) -> int:
        return self.x.size


@dataclass(frozen=True)
class Loss:
    """Fitting loss: plain mean ("mean") or check loss at level tau."""

    kind: str
    tau: float | None = None

    def __post_init__(self):
        if self.kind not in ("mean", "quantile"):
            raise OutOfRangeError(f"loss kind must be mean or quantile, got {self.kind!r}")
        if self.kind == "quantile":
            if self.tau is None:
                raise OutOfRangeError("a quantile loss needs tau")
            if not 0.0 < _real("tau", self.tau) < 1.0:
                raise OutOfRangeError(f"tau must lie in (0, 1), got {self.tau!r}")
        elif self.tau is not None:
            raise OutOfRangeError("a mean loss takes no tau")


MEAN_LOSS = Loss("mean")


@dataclass(frozen=True)
class EstimatorSpec:
    """Method, loss, evaluation grid and method-specific settings.

    bandwidth (kernel, loclinear) is in the units of the x axis.  knots
    (bspline) are the interior knots, strictly increasing and strictly inside
    the evaluation range; the boundary knots are added four-fold at the range
    ends.  n_terms (fourier) counts sine/cosine pairs on x mapped affinely to
    [0, 1]; fourier_linear adds a linear carrier term alongside the intercept
    so the basis can track an aperiodic trend, and can be switched off to get
    the purely periodic basis.
    """

    method: str
    loss: Loss
    eval_axis: Axis
    bandwidth: float | None = None
    knots: tuple | None = None
    n_terms: int | None = None
    fourier_linear: bool = True

    def __post_init__(self):
        if self.method not in METHODS:
            raise OutOfRangeError(
                f"method must be one of {METHODS}, got {self.method!r}"
            )
        if not isinstance(self.loss, Loss):
            raise OutOfRangeError("loss must be a Loss instance")
        if not isinstance(self.eval_axis, Axis):
            object.__setattr__(self, "eval_axis", Axis(self.eval_axis))
        if self.method in ("kernel", "loclinear"):
            if self.bandwidth is None or not _real("bandwidth", self.bandwidth) > 0.0:
                raise OutOfRangeError(
                    f"{self.method} needs a positive bandwidth, got {self.bandwidth!r}"
                )
        if self.method == "bspline":
            nested = np.array(() if self.knots is None else self.knots, dtype=object)
            if nested.ndim > 1 or not nested.size:
                raise OutOfRangeError("bspline needs a list of interior knots")
            knots = tuple(_reals("knots", self.knots).tolist())
            # the conditions are stated positively, so that a NaN knot fails them
            if not all(a < b for a, b in zip(knots, knots[1:])):
                raise NonIncreasingAxisError("knots must be strictly increasing")
            lo, hi = self.eval_axis.coords[0], self.eval_axis.coords[-1]
            if not (lo < knots[0] and knots[-1] < hi):
                raise OutOfDomainError(
                    "interior knots must lie strictly inside the evaluation range"
                )
            object.__setattr__(self, "knots", knots)
        if self.method == "fourier":
            object.__setattr__(self, "n_terms", _integer("n_terms", self.n_terms, 1))
        if not isinstance(self.fourier_linear, (bool, np.bool_)):
            raise OutOfRangeError(
                f"fourier_linear must be true or false, got {self.fourier_linear!r}"
            )


@dataclass(frozen=True)
class FitResult:
    """Point estimate on the evaluation grid, plus series coefficients.

    Near the float limit a coefficient past the float range reads +-inf,
    even where the estimate at the nodes is finite.
    """

    estimate: GriddedFunction
    coefficients: np.ndarray | None = None


# --- shared helpers ---------------------------------------------------------


def span_axis(x, nodes: int) -> Axis:
    """nodes equidistant evaluation points from min(x) to max(x)."""
    nodes = _integer("grid", nodes, 2)
    lo, hi = float(np.min(x)), float(np.max(x))
    if not hi > lo:
        raise OutOfRangeError(
            f"an evaluation grid needs at least two distinct x values; every x is {lo!r}"
        )
    return Axis(np.linspace(lo, hi, nodes))


def _thin_windows(spec: EstimatorSpec, xs, lo, hi, w=None) -> np.ndarray:
    """Rows x nodes: the windows too thin to fit under each row of weights.

    w is rows x n in the order of the sorted xs, None for one row of ones.
    Counting only the points of positive weight, a kernel window needs one
    point, a local-linear window two distinct x.
    """
    # a window starts and ends at the start of a run of tied x, or at the end
    starts = np.flatnonzero(np.concatenate(([True], xs[1:] != xs[:-1])))
    first, stop = np.searchsorted(starts, lo), np.searchsorted(starts, hi)
    if w is None:
        runs = (stop - first)[None]
    else:
        held = np.zeros((w.shape[0], starts.size + 1), dtype=np.int64)
        np.cumsum(np.add.reduceat(w, starts, axis=1) > 0.0, axis=1, out=held[:, 1:])
        runs = held[:, stop] - held[:, first]
    return runs < (1 if spec.method == "kernel" else 2)


def _windows(x: np.ndarray, spec: EstimatorSpec, checked: bool = True) -> tuple:
    """The sort order of x, sorted x and each node's window [lo, hi) of the x
    within bandwidth of it; checked refuses a window too thin to fit."""
    order = np.argsort(x, kind="stable")
    xs = x[order]
    nodes, h = spec.eval_axis.coords, float(spec.bandwidth)
    lo = np.searchsorted(xs, nodes - h, side="left")
    hi = np.searchsorted(xs, nodes + h, side="right")
    if checked and np.any(thin := _thin_windows(spec, xs, lo, hi)[0]):
        what = "no data" if spec.method == "kernel" else "fewer than 2 distinct x"
        node = float(nodes[int(np.argmax(thin))])
        raise EmptyWindowError(f"{what} within bandwidth {h} of node {node}")
    return order, xs, lo, hi


def _window_means(spec: EstimatorSpec, xs, ys, lo, hi, w) -> np.ndarray:
    """Kernel or local-linear mean fits at the nodes, one per row of ys or w.

    ys and w are n or rows x n, in the order of the sorted xs.  Each window sum
    of a weighted moment is a difference of two prefix sums.  Under unit
    weights every product below is exact, so ones give the unweighted fit
    bit for bit.
    """

    def window_sums(v):
        prefix = np.zeros(v.shape[:-1] + (v.shape[-1] + 1,))
        np.cumsum(v, axis=-1, out=prefix[..., 1:])
        return prefix[..., hi] - prefix[..., lo]

    s0, t0 = window_sums(w), window_sums(w * ys)
    if spec.method == "kernel":
        return t0 / s0
    wx = w * xs
    s1, s2, t1 = window_sums(wx), window_sums(wx * xs), window_sums(wx * ys)
    # center the design at each node: regress y on (1, x - node)
    nodes = spec.eval_axis.coords
    sx = s1 - nodes * s0
    sxx = s2 - 2.0 * nodes * s1 + nodes * nodes * s0
    sxy = t1 - nodes * t0
    det = s0 * sxx - sx * sx
    return (sxx * t0 - sx * sxy) / det


# --- basis construction -----------------------------------------------------


def _bspline_design(x: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Cubic B-spline design rows at x in [t[3], t[-4]] on the knots t.

    The Cox-de Boor triangle (de Boor 1978), run for all points at once with
    the operations of scipy's BSpline.design_matrix, so the bits agree with
    it.  Point i lies in the knot interval ell_i, closed on the right at the
    end, and only the four columns ell_i - 3 .. ell_i of its row are non-zero.
    """
    ell = 3 + np.searchsorted(t[4:-4], x, side="right")
    knots = t[ell + np.arange(-2, 4)[:, None]]  # rows t[ell - 2] .. t[ell + 3]
    h = np.ones((1, x.size))
    for j in range(1, 4):
        xb, xa = knots[3 : 3 + j], knots[3 - j : 3]
        gap = xb - xa
        # each weight is 0 where its two knots coincide
        w = h / np.where(gap > 0.0, gap, np.inf)
        h = np.zeros((j + 1, x.size))
        h[:j] = w * (xb - x)
        h[1:] += w * (x - xa)
    out = np.zeros((x.size, t.size - 4))
    out.ravel()[np.arange(x.size) * (t.size - 4) + ell - 3 + np.arange(4)[:, None]] = h
    return out


def _basis_matrix(spec: EstimatorSpec, x: np.ndarray) -> np.ndarray:
    """Design rows of the series basis at the points x."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    lo = float(spec.eval_axis.coords[0])
    hi = float(spec.eval_axis.coords[-1])
    span = hi - lo
    slack = 1e-9 * max(span, 1.0)
    if np.any(x < lo - slack) or np.any(x > hi + slack):
        raise OutOfDomainError(
            f"evaluation points outside the basis domain [{lo}, {hi}]"
        )
    xc = np.clip(x, lo, hi)
    if spec.method == "bspline":
        t = np.concatenate([np.full(4, lo), np.asarray(spec.knots), np.full(4, hi)])
        return _bspline_design(xc, t)
    if spec.method == "fourier":
        xs = (xc - lo) / span
        cols = [np.ones_like(xs)]
        if spec.fourier_linear:
            cols.append(xs)
        for k in range(1, spec.n_terms + 1):
            cols.append(np.sin(2.0 * np.pi * k * xs))
        for k in range(1, spec.n_terms + 1):
            cols.append(np.cos(2.0 * np.pi * k * xs))
        return np.column_stack(cols)
    raise OutOfRangeError(f"{spec.method} is not a series method")


def basis_eval(spec: EstimatorSpec, x: float) -> np.ndarray:
    """The series basis vector at a single point."""
    return _basis_matrix(spec, np.array([float(x)]))[0]


# --- series -----------------------------------------------------------------


def _series_lstsq(design: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Least-squares coefficients; a design whose smallest singular value is
    at most 1e-6 of its largest is refused."""
    coef, _, _, sv = np.linalg.lstsq(design, y, rcond=None)
    k = design.shape[1]
    if sv.size < k or not sv[-1] > 1e-6 * sv[0]:
        raise RankDeficientDesignError(
            f"series design of {k} columns is singular to 1e-6 of its largest singular value"
        )
    return coef


def _series_quantiles(design: np.ndarray, y: np.ndarray, taus) -> np.ndarray:
    """Exact check-loss coefficients on design at every level of taus, levels
    x k: one _descent per level from the least-squares start, on one design
    that every level shares as a view."""
    (n, k), m = design.shape, taus.size
    start = _start_bases(design[None], (y - design @ _series_lstsq(design, y))[None])
    inside = np.broadcast_to(True, (m, n))
    h = _descent(np.broadcast_to(design, (m, n, k)), np.broadcast_to(y, (m, n)), inside,
                 taus, np.tile(start, (m, 1)))
    return np.linalg.solve(design[h], y[h][:, :, None])[:, :, 0]


# --- check-loss descent -------------------------------------------------------


def _start_bases(D: np.ndarray, R: np.ndarray) -> np.ndarray:
    """Per problem (D: problems x rows x k), the k rows of least |R| whose rows
    of D are independent, by greedy Gram-Schmidt in that order: a row joins
    when more than 1e-6 of its norm lies outside the rows taken, and the row
    taken is orthogonalized a second time.  Zero rows never join."""
    m, n, k = D.shape
    order = np.argsort(np.abs(R), axis=1, kind="stable")
    rows, index = np.arange(m), np.arange(n)
    cand = np.take_along_axis(D, order[:, :, None], axis=1)
    scale = 1e-6 * np.linalg.norm(cand, axis=2)
    q, basis, after = np.zeros((m, 0, k)), np.empty((m, k), dtype=np.intp), np.zeros((m, 1))
    for j in range(k):
        v = cand - cand @ q.transpose(0, 2, 1) @ q
        v -= v @ q.transpose(0, 2, 1) @ q
        norm = np.linalg.norm(v, axis=2)
        ok = (norm > scale) & (index >= after)
        if not np.all(np.any(ok, axis=1)):
            raise RankDeficientDesignError(f"design has no {k} well-separated rows")
        first = np.argmax(ok, axis=1)
        q = np.concatenate([q, (v[rows, first] / norm[rows, first, None])[:, None]], axis=1)
        basis[:, j], after = order[rows, first], first[:, None] + 1
    return basis


def _pivot_cap(n: int, k: int) -> int:
    """Pivots allowed to one descent over n rows and k coefficients."""
    return n * k


def _descent(D: np.ndarray, y: np.ndarray, inside: np.ndarray, taus, start) -> np.ndarray:
    """The optimal bases of check-loss problems, problems x k, sorted.

    Problem p fits y[p] on the rows of D[p] (problems x rows x k) that
    inside[p] marks, at level taus[p], from the k rows start[p].  A descent
    over vertices (Barrodale & Roberts 1974; Koenker & d'Orey 1987), every
    problem in lockstep.  A vertex is a basis h of k rows fit with zero
    residual; every other row sits on the side of its residual's sign, a zero
    residual keeping its side.  With psi = tau on the upper side and tau - 1
    on the lower, xi = X_h^-T sum psi_i x_i, and the vertex is optimal when
    [(1 - tau) - xi, tau + xi] >= 0 within rounding (n eps |X_h^-T| sum |x_i|).
    Otherwise h_j leaves along the most negative entry, direction d = +-X_h^-1
    e_j.  Along d a row whose residual r_i - t x_i'd changes side at t_i >= 0
    adds |x_i'd| to the slope (|x_i'd| <= 1e-10 max|x| max|d| is parallel).
    In order of (t_i, row), rows pass until the slope turns non-negative, and
    the row where it turns enters; that order and the kept sides keep
    degenerate vertices from cycling.  X_h^-1 follows by rank-one updates.
    A row outside a problem has psi = 0 and t = inf, and counts in neither n
    nor the sums and maxima over x.  Every operation works problem by
    problem, so each gets the bits of a call with that problem alone.  A D
    that every problem shares (a stride-0 view) is never copied.
    """
    m, n, k = D.shape
    rows, index = np.arange(m), np.arange(n)
    # problems that share D share inside too, and their sums are taken once
    lead = slice(0, 1) if D.strides[0] == 0 else slice(None)
    mag = np.where(inside[lead, :, None], np.abs(D[lead]), 0.0)
    size, top = np.broadcast_to(mag.sum(axis=1), (m, k)), np.broadcast_to(mag.max(axis=(1, 2)), m)
    slack = -np.count_nonzero(inside, axis=1) * np.finfo(float).eps
    basis = D[rows[:, None], start]
    inv = np.linalg.inv(basis)
    r = y - (D @ np.linalg.solve(basis, y[rows[:, None], start][:, :, None]))[:, :, 0]
    side = np.where(r >= 0.0, 1.0, -1.0)
    out = np.empty((m, k), dtype=np.intp)
    act, h = rows, start.copy()
    for _ in range(_pivot_cap(n, k)):
        tau, rows = taus[act, None], np.arange(act.size)
        r[rows[:, None], h] = 0.0
        psi = np.where(inside, (tau - 0.5) + 0.5 * side, 0.0)
        psi[rows[:, None], h] = 0.0
        xi = (psi[:, None, :] @ D @ inv)[:, 0]
        entries = np.hstack([(1.0 - tau) - xi, tau + xi])
        neg = entries < slack[:, None] * np.tile((size[:, None, :] @ np.abs(inv))[:, 0], 2)
        go = np.any(neg, axis=1)
        if not np.all(go):
            out[act[~go]] = h[~go]
            D = D[: np.count_nonzero(go)] if D.strides[0] == 0 else D[go]
            act, h, inv, r, side, inside, size, top, slack, entries, neg = (
                v[go] for v in (act, h, inv, r, side, inside, size, top, slack, entries, neg)
            )
            if not act.size:
                break
            rows = np.arange(act.size)
        c = np.argmin(np.where(neg, entries, np.inf), axis=1)
        j = c % k
        col = inv[rows, :, j]
        d = np.where(c < k, 1.0, -1.0)[:, None] * col
        a = (D @ d[:, :, None])[:, :, 0]
        # sa > 0 where a residual moves toward its other side; r rounded across
        # its side crosses at t = 0, and a row that does not cross has weight 0
        sa, thr = side * a, 1e-10 * top[:, None] * np.abs(d).max(axis=1, keepdims=True)
        sa[rows[:, None], h] = 0.0
        cross = (sa > thr) & inside
        t = np.where(inside, np.maximum(side * r, 0.0) / np.maximum(sa, thr), np.inf)
        w = sa * cross
        order = np.argsort(t, axis=1) + (n * rows)[:, None]
        cum = np.cumsum(np.take(w, order), axis=1)
        target = np.minimum(-entries[rows, c], cum[:, -1])
        if not np.all(target > 0.0):
            raise NumericalError("a check-loss descent direction crosses no row")
        step = np.take(t, order[rows, np.count_nonzero(cum < target[:, None], axis=1)])
        tied, passed = cross & (t == step[:, None]), cross & (t < step[:, None])
        enter = np.argmax(tied, axis=1)
        many = np.flatnonzero(np.count_nonzero(tied, axis=1) > 1)
        if many.size:
            # rows tied at the step pass in row order until the slope turns
            sums = np.sum(w[many] * passed[many], axis=1)[:, None] - target[many, None]
            reach = tied[many] & (sums + np.cumsum(w[many] * tied[many], axis=1) >= 0.0)
            last = n - 1 - np.argmax(tied[many, ::-1], axis=1)
            enter[many] = np.where(np.any(reach, axis=1), np.argmax(reach, axis=1), last)
            passed[many] |= tied[many] & (index < enter[many, None])
        np.negative(side, out=side, where=passed)
        side[rows, h[rows, j]] = np.where(c < k, -1.0, 1.0)
        r -= step[:, None] * a
        r[tied] = 0.0
        h[rows, j] = enter
        row = (D[rows, enter][:, None, :] @ inv)[:, 0]
        row[rows, j] -= 1.0
        inv -= (col / (row[rows, j] + 1.0)[:, None])[:, :, None] * row[:, None, :]
    else:
        cap = _pivot_cap(n, k)
        raise NumericalError(f"check-loss descent: {act.size} levels unsolved after {cap} pivots")
    return np.sort(out, axis=1)


# --- quantile fits ----------------------------------------------------------


def _window_rows(n: int, lo, hi, width: int) -> tuple:
    """Each window [lo, hi) of the sorted data as a row of indices padded to
    width, and the mask of the row's in-window entries."""
    offsets = np.arange(width)
    return np.minimum(lo[:, None] + offsets, n - 1), offsets < (hi - lo)[:, None]


def _loclinear_quantiles(xs, ys, lo, hi, nodes, taus) -> tuple:
    """Exact local-linear check-loss fits: (intercepts, slopes), levels x nodes.

    Each (level, node) is a _descent on the node's window, with rows (1, u),
    u = 2^-e (x - x_first) measured from the window's first x and scaled
    exactly so that max u lies in [1/2, 1).  Every level of a window starts
    from the rows of least |least-squares residual|.  Windows are gathered,
    and problems run, in chunks of BLOCK_ELEMENTS / 4 numbers per work array.
    The line through the final basis is solved in node coordinates
    (1, 2^-e (x - node)), scaled as u is, so that its slope stays finite
    where a slope in x would not.
    """
    width = int(np.max(hi - lo))
    chunk = max(1, BLOCK_ELEMENTS // (4 * width))
    e, h = np.empty(nodes.size, dtype=int), np.empty((taus.size, nodes.size, 2), dtype=np.intp)
    for j in np.split(np.arange(nodes.size), range(chunk, nodes.size, chunk)):
        idx, inwin = _window_rows(xs.size, lo[j], hi[j], width)
        dx = np.where(inwin, xs[idx] - xs[lo[j], None], 0.0)
        e[j] = np.frexp(dx.max(axis=1))[1]
        u = np.ldexp(dx, -e[j, None])
        D, y = np.stack([1.0 * inwin, u], axis=2), np.where(inwin, ys[idx], 0.0)
        count = (hi - lo)[j, None]
        uc = np.where(inwin, u - u.sum(axis=1, keepdims=True) / count, 0.0)
        yc = y - y.sum(axis=1, keepdims=True) / count
        b = np.sum(uc * yc, axis=1, keepdims=True) / np.sum(uc * uc, axis=1, keepdims=True)
        start = _start_bases(D, np.where(inwin, yc - b * uc, np.inf))
        level, win = np.divmod(np.arange(taus.size * j.size), j.size)
        for part in np.split(np.arange(level.size), range(chunk, level.size, chunk)):
            w = win[part]
            h[level[part], j[w]] = _descent(D[w], y[w], inwin[w], taus[level[part]], start[w])
    h += lo[:, None]
    line = np.stack([np.ones(h.shape), np.ldexp(xs[h] - nodes[:, None], -e[:, None])], axis=3)
    coef = np.linalg.solve(line, ys[h][..., None])[..., 0]
    with np.errstate(over="ignore"):
        return coef[..., 0], np.ldexp(coef[..., 1], -e)


def _y_exponent(x: np.ndarray, top, spec: EstimatorSpec):
    """Exponent s, 0 at ordinary magnitudes, such that a fit on x of 2^-s y
    with max|y| = top stays finite; one exponent per entry of an array top.

    A fit adds up at most n terms of y times a moment of x of order at most
    2, and the local-linear mean fit multiplies two such sums: 8 n^2 X^2
    max|y| bounds them all, with X the largest of 1, |x| and |node|.
    """
    nodes = spec.eval_axis.coords
    big = max(1.0, float(np.abs(x).max()), -nodes[0], nodes[-1])
    shift = np.frexp(top)[1] + 2 * (math.frexp(x.size)[1] + math.frexp(big)[1]) + 3 - 1023
    return np.maximum(0, shift)


def _scaled_back(est, coef, shift) -> tuple:
    """A fit of 2^-s y scaled back by 2^s; past the float range a value is +-inf."""
    with np.errstate(over="ignore"):
        return np.ldexp(est, shift), None if coef is None else np.ldexp(coef, shift)


def _mean_fits(x: np.ndarray, Y: np.ndarray, spec: EstimatorSpec) -> tuple:
    """Mean fits of the rows of Y on the shared x, rows x nodes, and their
    series coefficients, rows x k (None for a window method).  A row is fit
    to 2^-s y, s from _y_exponent of that row alone, and scaled back by 2^s.
    x is sorted and windowed, or the bases built, once; each row gets the
    bits of a call with that row alone."""
    shift = _y_exponent(x, np.abs(Y).max(axis=1), spec)[:, None]
    Y = np.ldexp(Y, -shift)
    if spec.method in ("kernel", "loclinear"):
        order, xs, lo, hi = _windows(x, spec)
        est = _window_means(spec, xs, Y[:, order], lo, hi, np.ones(x.size))
        return _scaled_back(est, None, shift)
    design, grid = _basis_matrix(spec, x), _basis_matrix(spec, spec.eval_axis.coords)
    coef = np.array([_series_lstsq(design, y) for y in Y])
    # a matrix-vector product per row, since a matrix product rounds differently
    return _scaled_back(np.array([grid @ c for c in coef]), coef, shift)


def _quantile_fits(data: Dataset, spec: EstimatorSpec, taus) -> tuple:
    """The check-loss fits of y at every level of taus, levels x nodes, and
    their series coefficients, levels x k (None for a window method).

    Every fit runs on 2^-s y with s from _y_exponent and is scaled back by
    2^s; both scalings are exact.  The box kernel sorts each window once and
    indexes every level's order statistic; local linear runs
    _loclinear_quantiles and a series method _series_quantiles.  All are
    exact, and row j equals the fit at taus[j] alone bit for bit.
    """
    top = np.abs(data.y).max()
    shift = _y_exponent(data.x, top, spec)
    if spec.method != "kernel":
        # the descent divides residuals by steps down to 1e-10 of their scale:
        # max|y| within 2^895 leaves it 2^128 of headroom
        shift = max(shift, math.frexp(top)[1] - 895)
    if shift:
        y = np.ldexp(data.y, -shift)
        return _scaled_back(*_quantile_fits(Dataset(data.x, y), spec, taus), shift)
    if spec.method in ("kernel", "loclinear"):
        order, xs, lo, hi = _windows(data.x, spec)
        ys = data.y[order]
    if spec.method == "kernel":
        # one sort per window (padding last), then each level's order statistic
        idx, inwin = _window_rows(xs.size, lo, hi, int(np.max(hi - lo)))
        win = np.sort(np.where(inwin, ys[idx], np.inf), axis=1)
        return win[np.arange(lo.size), _order_index(taus[:, None], hi - lo)], None
    if spec.method == "loclinear":
        return _loclinear_quantiles(xs, ys, lo, hi, spec.eval_axis.coords, taus)[0], None
    design, grid = _basis_matrix(spec, data.x), _basis_matrix(spec, spec.eval_axis.coords)
    coef = _series_quantiles(design, data.y, taus)
    # a matrix-vector product per row, since a matrix product rounds differently
    return np.array([grid @ c for c in coef]), coef


# --- public entry points ----------------------------------------------------


def fit(data: Dataset, spec: EstimatorSpec) -> FitResult:
    """Fit one estimator and evaluate it on the spec's grid."""
    if spec.loss.kind == "mean":
        est, coef = _mean_fits(data.x, data.y[None], spec)
    else:
        est, coef = _quantile_fits(data, spec, np.array([float(spec.loss.tau)]))
    return FitResult(GriddedFunction([spec.eval_axis], est[0]), None if coef is None else coef[0])


def fit_quantile_process(data: Dataset, spec: EstimatorSpec, taus) -> GriddedFunction:
    """Stack per-tau quantile fits into a 2-d function (axis 1: tau, axis 2: x).

    The spec's own loss is ignored.  Row j is fit() at level taus[j] bit for
    bit.
    """
    taus = _levels("taus", taus)
    est, _ = _quantile_fits(data, spec, taus)
    return GriddedFunction([Axis(taus), spec.eval_axis], est)


def _resample(seed: int, draw: int, retry: int, n: int) -> np.ndarray:
    """The row indices of a draw's attempt, from the stream (seed, draw, retry)."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(draw, retry)))
    return rng.integers(0, n, size=n)


def _counts(idx: np.ndarray, n: int) -> np.ndarray:
    """draws x n: how often each draw (a row of idx) holds each of the n rows."""
    offsets = n * np.arange(idx.shape[0])[:, None]
    return np.bincount((idx + offsets).ravel(), minlength=idx.size).reshape(idx.shape) * 1.0


def _width(spec: EstimatorSpec) -> int:
    """Work arrays per data row of a block of mean fits: 5 moments, or k terms."""
    if spec.method == "bspline":
        return len(spec.knots) + 4
    return 1 + int(spec.fourier_linear) + 2 * spec.n_terms if spec.method == "fourier" else 5


def _draw_fitter(data: Dataset, spec: EstimatorSpec) -> tuple:
    """(fit_draws, k): fit_draws(idx) fits a block of draws, one per row of idx.

    It returns (draws x nodes estimates, failed draws).  Under mean loss a
    draw is its count vector over the fixed data, fit to 2^-s y as fit does:
    the window methods weight the prefix sums of one sort, and a series
    method forms each draw's normal equations from one design.  A series
    draw that is not clearly well conditioned, and every check-loss draw, is
    refit on its resampled rows as fit does it.  k (see _width) sizes the
    blocks.
    """
    n, nodes = data.n, spec.eval_axis.coords.size

    def per_draw(idx, rows=None):
        """Refit the draws in rows (every row of idx by default) as fit does."""
        est, failed = np.zeros((idx.shape[0], nodes)), np.zeros(idx.shape[0], dtype=bool)
        for i in range(idx.shape[0]) if rows is None else rows:
            try:
                est[i] = fit(Dataset(data.x[idx[i]], data.y[idx[i]]), spec).estimate.values
            except (ValidationError, NumericalError):
                failed[i] = True
        return est, failed

    if spec.loss.kind == "quantile":
        return per_draw, 1
    shift = _y_exponent(data.x, np.abs(data.y).max(), spec)
    y = np.ldexp(data.y, -shift)
    if spec.method in ("kernel", "loclinear"):
        order, xs, lo, hi = _windows(data.x, spec, checked=False)
        ys = y[order]
        rank = np.empty(n, dtype=np.intp)
        rank[order] = np.arange(n)

        def window_draws(idx):
            w = _counts(rank[idx], n)
            with np.errstate(divide="ignore", invalid="ignore"):
                est = _scaled_back(_window_means(spec, xs, ys, lo, hi, w), None, shift)[0]
            return est, np.any(_thin_windows(spec, xs, lo, hi, w), axis=1)

        return window_draws, _width(spec)
    try:
        design = _basis_matrix(spec, data.x)
    except OutOfDomainError:
        # a draw that leaves out the points outside the domain can still fit
        return per_draw, 1
    grid = _basis_matrix(spec, spec.eval_axis.coords)

    def series_draws(idx):
        weighted = design.T * _counts(idx, n)[:, None, :]  # X'C, draws x k x n
        gram, rhs = weighted @ design, weighted @ y
        eig = np.linalg.eigvalsh(gram)
        sure = eig[:, 0] > GRAM_EIG_RATIO * eig[:, -1]
        est, failed = per_draw(idx, np.flatnonzero(~sure))
        # only the sure draws: one singular system makes a batched solve raise
        coef = np.linalg.solve(gram[sure], rhs[sure][:, :, None])[:, :, 0]
        est[sure] = _scaled_back(coef @ grid.T, None, shift)[0]
        return est, failed

    return series_draws, _width(spec)


def bootstrap(data: Dataset, spec: EstimatorSpec, b_draws: int, seed: int):
    """Pairs bootstrap of a fit: (stderr function, draws function).

    Draw b resamples n rows with replacement using an RNG stream derived from
    (seed, b), so results do not depend on evaluation order.  The draw is
    the count vector of its rows over the fixed data, and the draws are
    fitted in blocks of such vectors (see _draw_fitter), sized so that a
    block's work arrays hold about BLOCK_ELEMENTS numbers.  A draw whose fit
    fails is redrawn from the stream (seed, b, retry + 1) and counted; the
    failed draws of a pass are redrawn in draw order, and more than 10%
    failures abort.  The draws are one function, axis 1 the draw index 0..B-1
    and axis 2 the fit's grid; stderr is their per-node standard deviation.
    """
    b_draws = _integer("b_draws", b_draws, 0)
    if b_draws < 2:
        raise TooFewDrawsError(f"need at least 2 bootstrap draws, got {b_draws}")
    seed = _integer("seed", seed, 0)
    n = data.n
    fit_draws, k = _draw_fitter(data, spec)
    block = max(1, BLOCK_ELEMENTS // (n * k))
    values = np.empty((b_draws, spec.eval_axis.coords.size))
    failures = 0
    pending = [(b, 0) for b in range(b_draws)]
    while pending:
        redraw = []
        for first in range(0, len(pending), block):
            attempts = pending[first : first + block]
            idx = np.empty((len(attempts), n), dtype=np.int64)
            for row, (b, retry) in zip(idx, attempts):
                row[:] = _resample(seed, b, retry, n)
            est, failed = fit_draws(idx)
            # fit refuses a non-finite estimate
            failed |= ~np.all(np.isfinite(est), axis=1)
            for (b, retry), row, bad in zip(attempts, est, failed):
                if bad:
                    redraw.append((b, retry + 1))
                else:
                    values[b] = row
            failures += int(np.count_nonzero(failed))
            if failures > 0.1 * b_draws:
                raise TooManyFailedDrawsError(
                    f"{failures} failed draws exceed 10% of {b_draws}"
                )
        pending = redraw
    if failures:
        warnings.warn(
            f"bootstrap redrew {failures} failed draws",
            RuntimeWarning,
            stacklevel=2,
        )
    draws = GriddedFunction([Axis(range(b_draws)), spec.eval_axis], values)
    # the squared deviations of 2^-s values stay finite; s is 0 below about 2^500
    s = max(0, math.frexp(np.abs(values).max())[1] + (math.frexp(b_draws)[1] - 1020) // 2)
    stderr = np.ldexp(np.ldexp(values, -s).std(axis=0, ddof=1), s)
    return GriddedFunction([spec.eval_axis], stderr), draws
