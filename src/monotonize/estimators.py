"""Nonparametric curve estimators with mean and quantile losses.

Four methods on a shared interface: box-kernel local constant, local linear,
cubic B-spline series and trigonometric (Fourier) series, each fit under
either squared-error loss or the check loss of quantile regression, and each
evaluated on an explicit grid so the result plugs straight into the
rearrangement and isotonization operators.

Every fit runs through one core, _fits, on rows of y that share x, and so
does every bootstrap draw, as a row of counts: a count-weighted squared or
check loss (rho_tau is positively homogeneous) is the loss of the resample.
Every quantile fit minimizes the check loss exactly: the box kernel by order
statistics of its windows, and local linear and the series methods by one
descent over the vertices of the check loss (_descent), all rows, levels
and local-linear windows at once.
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
    NumericalError,
)
from .grid import Axis, GriddedFunction, _integer, _levels, _order_index, _real, _reals

METHODS = ("kernel", "loclinear", "bspline", "fourier")

#: The work arrays of one part of a batch of fits hold about this many numbers.
BLOCK_ELEMENTS = 1 << 16
#: A count-weighted series mean fit whose Gram matrix has an eigenvalue ratio
#: (smallest over largest) at or below this is fit by least squares instead.
GRAM_EIG_RATIO = 1e-6
#: What a problem of a fit can fail on, by code (0: nothing); see _failure.
THIN, OUTSIDE, RANK, START, CROSS, CAP = range(1, 7)


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
    # where max - min overflows, halving the ends and doubling the nodes is exact
    scale = 2.0 if hi - lo == math.inf else 1.0
    return Axis(scale * np.linspace(lo / scale, hi / scale, nodes))


def _parts(total: int, size: int, block: int) -> list:
    """range(total) in consecutive ranges of max(1, block // size) items, so
    that a part of items of size numbers each holds about block numbers."""
    step = max(1, block // size)
    return [range(i, min(i + step, total)) for i in range(0, total, step)]


def _thin_windows(spec: EstimatorSpec, xs, lo, hi, w) -> np.ndarray:
    """Rows x nodes: the windows too thin to fit under each row of the weights
    w (rows x n, ordered as xs).  Of the points of positive weight, a kernel
    window needs one, a local-linear window two distinct x."""
    # a window starts and ends at the start of a run of tied x, or at the end
    starts = np.flatnonzero(np.concatenate(([True], xs[1:] != xs[:-1])))
    first, stop = np.searchsorted(starts, lo), np.searchsorted(starts, hi)
    held = np.zeros((w.shape[0], starts.size + 1), dtype=np.int64)
    runs = w if starts.size == xs.size else np.add.reduceat(w, starts, axis=1)
    np.cumsum(runs > 0.0, axis=1, out=held[:, 1:])
    return held[:, stop] - held[:, first] < (1 if spec.method == "kernel" else 2)


def _order(x: np.ndarray):
    """The stable sort order of x, a slice (which gathers nothing) where x is sorted."""
    return slice(None) if np.all(x[1:] >= x[:-1]) else np.argsort(x, kind="stable")


def _windows(xs: np.ndarray, spec: EstimatorSpec) -> tuple:
    """Each node's window [lo, hi) of the sorted xs within bandwidth of it."""
    nodes, h = spec.eval_axis.coords, float(spec.bandwidth)
    with np.errstate(over="ignore"):
        # a bound past the float range is -+inf, which decides as the exact bound
        lo = np.searchsorted(xs, nodes - h, side="left")
        hi = np.searchsorted(xs, nodes + h, side="right")
    return lo, hi


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
    # x and the nodes scaled by 2^-e keep the moments finite; a power of two
    # leaves the fit's bits alone unless it makes an x subnormal
    nodes = spec.eval_axis.coords
    e = max(0, math.frexp(max(np.abs(xs).max(), -nodes[0], nodes[-1]))[1] - 256)
    xs, nodes = np.ldexp(xs, -e), np.ldexp(nodes, -e)
    wx = w * xs
    s1, s2, t1 = window_sums(wx), window_sums(wx * xs), window_sums(wx * ys)
    # center the design at each node: regress y on (1, x - node)
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
    """Design rows of the series basis at the points x, with NaN in the row of
    a point outside the domain, and with x, the ends and the knots scaled
    exactly by 2^-g into 2^1022 so that no difference of them overflows (g is
    0 at ordinary magnitudes)."""
    first, last = spec.eval_axis.coords[[0, -1]].tolist()
    g = max(0, math.frexp(max(-first, last))[1] - 1022)
    lo, hi = math.ldexp(first, -g), math.ldexp(last, -g)
    x = np.ldexp(np.atleast_1d(np.asarray(x, dtype=float)), -g)
    span = hi - lo
    slack = 1e-9 * max(span, 1.0)
    xc = np.where((x < lo - slack) | (x > hi + slack), np.nan, np.clip(x, lo, hi))
    if spec.method == "bspline":
        t = np.concatenate([np.full(4, lo), np.ldexp(spec.knots, -g), np.full(4, hi)])
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
    row = _basis_matrix(spec, np.array([_real("x", x)]))[0]
    if np.any(np.isnan(row)):
        raise _failure(None, spec, np.array([OUTSIDE]))
    return row


# --- series -----------------------------------------------------------------


def _series_means(design: np.ndarray, Y: np.ndarray, W) -> np.ndarray:
    """Least-squares coefficients of the rows of Y, rows x k: under counts W
    (rows x n) a row whose Gram matrix X'WX is clearly conditioned
    (GRAM_EIG_RATIO) solves its normal equations; every other row, and every
    row when W is None, is the lstsq fit of its rows scaled by sqrt(W), and
    NaN if their smallest singular value is at most 1e-6 of the largest."""
    rows, k = Y.shape[0], design.shape[1]
    coef, sure = np.empty((rows, k)), np.zeros(rows, dtype=bool)
    if W is not None:
        weighted = design.T * W[:, None, :]  # X'W, rows x k x n
        gram, rhs = weighted @ design, (weighted @ Y[:, :, None])[:, :, 0]
        eig = np.linalg.eigvalsh(gram)
        sure = eig[:, 0] > GRAM_EIG_RATIO * eig[:, -1]
        # only the sure rows: one singular system makes a batched solve raise
        coef[sure] = np.linalg.solve(gram[sure], rhs[sure][:, :, None])[:, :, 0]
    for i in np.flatnonzero(~sure):
        root = np.ones(1) if W is None else np.sqrt(W[i])
        coef[i], _, _, sv = np.linalg.lstsq(root[:, None] * design, root * Y[i], rcond=None)
        if sv.size < k or not sv[-1] > 1e-6 * sv[0]:
            coef[i] = np.nan
    return coef


def _series_quantiles(design: np.ndarray, Y: np.ndarray, W, taus) -> tuple:
    """Exact check-loss coefficients of the rows of Y at every level of taus,
    rows x levels x k, NaN where a problem fails, and the failure code of
    each problem, rows x levels (0: solved).

    One _descent per (row, level) on the rows of design and Y[i] scaled by
    the counts W[i] (None: unit weights; weight 0 is outside the problem),
    each from its _start_bases on the row's least-squares residuals.  A
    weighted design that every problem shares is one view.  The final basis
    is solved on the unweighted rows in their order, which is that of x in
    a fit, so that a fit does not depend on the order of its data.
    """
    rows, (n, k), m = Y.shape[0], design.shape, taus.size
    coef = _series_means(design, Y, W)
    w = np.ones((1, n)) if W is None else W
    wd = w[:, :, None] * design
    R = np.where(w > 0.0, Y - (design @ np.nan_to_num(coef)[:, :, None])[:, :, 0], np.inf)
    start = _start_bases(np.broadcast_to(wd, (rows, n, k)), R, w, taus)
    start[np.isnan(coef[:, 0])] = -RANK
    share = lambda a: np.broadcast_to(a[:, None], (rows, m) + a.shape[1:]).reshape(-1, *a.shape[1:])
    h = _descent(share(wd), share(w * Y), share(w > 0.0), np.tile(taus, rows), start.reshape(-1, k))
    ok = h[:, 0] >= 0
    y = Y[np.repeat(np.arange(rows), m)[ok][:, None], h[ok]]
    out = np.full((rows * m, k), np.nan)
    out[ok] = np.linalg.solve(design[h[ok]], y[:, :, None])[:, :, 0]
    return out.reshape(rows, m, k), np.maximum(0, -h[:, 0]).reshape(rows, m)


# --- check-loss descent -------------------------------------------------------


def _start_bases(D: np.ndarray, R: np.ndarray, w=None, taus=(0.5,)) -> np.ndarray:
    """Per group g (D: groups x rows x k, R: groups x rows, +inf outside)
    and level tau, the k rows of least |R - q| with independent rows of D,
    groups x levels x k; q is the ceil(tau sum w)-th order statistic of R[g]
    counted by w (None: ones).  Greedy Gram-Schmidt in the order of
    (|R - q|, R, row): a row joins when more than 1e-6 of its norm lies
    outside the rows taken, and is orthogonalized twice; zero rows never
    join.  It runs on the 4k + 1 rows around q in one sort of R[g], twice as
    many again where those nearer q than any row left out are too few, and
    never returns to a row it skipped: the basis is that of all rows.  A
    problem without k such rows reads -START."""
    g, n, k = D.shape
    order = np.argsort(R, axis=1, kind="stable")
    # sorted R between two +inf, which stand for the rows past either end
    sr = np.pad(np.take_along_axis(R, order, axis=1), ((0, 0), (1, 1)), constant_values=np.inf)
    counts = np.broadcast_to(np.isfinite(R) if w is None else w, R.shape)
    held = np.cumsum(np.take_along_axis(counts, order, axis=1), axis=1)
    # q's place: the first count past q's 0-based rank
    rank = _order_index(np.asarray(taus, dtype=float), held[:, -1:])
    at = np.count_nonzero(held[:, None, :] <= rank[..., None], axis=2)
    grp, at = np.arange(at.size) // at.shape[1], at.ravel()
    basis, todo, reach = np.empty((at.size, k), dtype=np.intp), np.arange(at.size), 2 * k
    while todo.size:
        pos = np.clip(at[todo, None] + np.arange(-reach, reach + 3), 0, n + 1)
        near = np.abs(sr[grp[todo, None], pos] - sr[grp[todo], at[todo] + 1, None])
        # a candidate counts only if it lies nearer q than every row left out
        by = np.argsort(near[:, 1:-1], axis=1, kind="stable")
        valid = np.take_along_axis(near[:, 1:-1], by, 1) < np.minimum(near[:, :1], near[:, -1:])
        idx = order[grp[todo, None], np.take_along_axis(np.clip(pos[:, 1:-1] - 1, 0, n - 1), by, 1)]
        cand, p = D[grp[todo, None], idx], np.arange(todo.size)
        scale, after = 1e-6 * np.linalg.norm(cand, axis=2), np.zeros((todo.size, 1))
        q, short = np.zeros((todo.size, 0, k)), np.zeros(todo.size, dtype=bool)
        for j in range(k):
            v = cand - cand @ q.transpose(0, 2, 1) @ q
            v -= v @ q.transpose(0, 2, 1) @ q
            norm = np.linalg.norm(v, axis=2)
            ok = (norm > scale) & (np.arange(idx.shape[1]) >= after) & valid
            none, first = ~np.any(ok, axis=1), np.argmax(ok, axis=1)
            # a problem short of rows takes a zero direction until it widens
            u = v[p, first] / np.where(none, np.inf, norm[p, first])[:, None]
            q, short = np.concatenate([q, u[:, None]], axis=1), short | none
            basis[todo, j], after = idx[p, first], first[:, None] + 1
        lost = short & (near[:, 0] == np.inf) & (near[:, -1] == np.inf)
        basis[todo[lost]] = -START
        todo, reach = todo[short & ~lost], 2 * reach
    return basis.reshape(g, -1, k)


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
    degenerate vertices from cycling.  X_h^-1 follows by rank-one updates
    and r by steps, and both drift from an ill-conditioned basis, so a vertex
    retires only once it passes on X_h^-1 and r computed afresh from its
    basis, in a batch of the vertices that passed in one round; one that
    fails descends on, and one whose fresh check loss is not below its last
    retires as it is (fresh sides of zero residuals can fail an optimal
    vertex).  A problem fails, and its basis reads -code, at n k pivots of
    its own (CAP) or where its direction crosses no row (CROSS); one whose
    start reads -code is not run.  A row outside has psi = 0 and t = inf,
    and counts in neither n nor the sums and maxima over x.  Every operation
    works problem by problem, so each gets the bits of a call with that
    problem alone.  A D that every problem shares (a stride-0 view) is never
    copied.
    """
    m, n, k = D.shape
    index, cap, pivots = np.arange(n), _pivot_cap(n, k), np.zeros(m, dtype=int)
    # problems that share D share inside too, and their sums are taken once
    lead = slice(0, 1) if D.strides[0] == 0 else slice(None)
    mag = np.where(inside[lead, :, None], np.abs(D[lead]), 0.0)
    size, top = np.broadcast_to(mag.sum(axis=1), (m, k)), np.broadcast_to(mag.max(axis=(1, 2)), m)
    slack = -np.count_nonzero(inside, axis=1) * np.finfo(float).eps
    # a view that every problem shares is cut and joined, never gathered
    cut = lambda vs, keep: [v[: keep.sum()] if v.strides[0] == 0 else v[keep] for v in vs]
    join = lambda parts: (np.concatenate(parts) if parts[0].strides[0] else np.broadcast_to(
        parts[0][:1], (sum(map(len, parts)),) + parts[0].shape[1:]))
    out, loss = start.copy(), np.full(m, np.inf)
    data = cut([np.arange(m), D, y, inside, size, top, slack], start[:, 0] >= 0)
    while data:
        # a round: X_h^-1 and r afresh from the bases in out
        act, D, y, inside, size, top, slack = data
        rows, h, fresh, stale, data = np.arange(act.size), out[act], True, [], None
        inv = np.linalg.inv(D[rows[:, None], h])
        r = y - (D @ (inv @ y[rows[:, None], h][:, :, None]))[:, :, 0]
        side = np.where(r >= 0.0, 1.0, -1.0)
        now = np.sum(r * (taus[act, None] - (r < 0.0)), axis=1)  # r is 0 outside
        stuck, loss[act] = now >= loss[act], now
        while act.size:
            tau, rows = taus[act, None], np.arange(act.size)
            r[rows[:, None], h] = 0.0
            psi = np.where(inside, (tau - 0.5) + 0.5 * side, 0.0)
            psi[rows[:, None], h] = 0.0
            xi = (psi[:, None, :] @ D @ inv)[:, 0]
            del psi  # before the step's work arrays of the same size
            entries = np.hstack([(1.0 - tau) - xi, tau + xi])
            neg = entries < slack[:, None] * np.tile((size[:, None, :] @ np.abs(inv))[:, 0], 2)
            go = np.any(neg, axis=1) & ~(fresh & stuck)
            # a problem fails at the cap, or after a direction that crossed no row
            out[act[go & (pivots[act] >= cap)]] = -CAP
            ok = out[act, 0] >= 0
            done, go = ~go & ok, go & ok
            if not np.all(go):
                out[act[done]] = h[done]
                stale += [] if fresh else [cut((act, D, y, inside, size, top, slack), done)]
                act, D, y, inside, size, top, slack, h, inv, r, side, entries, neg, stuck = cut(
                    (act, D, y, inside, size, top, slack, h, inv, r, side, entries, neg, stuck), go)
                if not act.size:
                    break
                rows = np.arange(act.size)
            fresh, pivots[act] = False, pivots[act] + 1
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
            # a direction that crosses no row fails its problem, which stays put
            lost = ~(target > 0.0)
            out[act[lost]], cross[lost] = -CROSS, False
            step = np.take(t, order[rows, np.count_nonzero(cum < target[:, None], axis=1)])
            step[lost] = 0.0
            tied, passed = cross & (t == step[:, None]), cross & (t < step[:, None])
            enter = np.where(lost, h[rows, j], np.argmax(tied, axis=1))
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
        data = stale and [join(parts) for parts in zip(*stale)]
    return np.sort(out, axis=1)


# --- quantile fits ----------------------------------------------------------


def _window_rows(n: int, lo, hi, width: int) -> tuple:
    """Each window [lo, hi) of the sorted data as a row of indices padded to
    width, and the mask of the row's in-window entries."""
    offsets = np.arange(width)
    return np.minimum(lo[:, None] + offsets, n - 1), offsets < (hi - lo)[:, None]


def _loclinear_quantiles(xs, Y, W, lo, hi, nodes, taus) -> tuple:
    """Exact local-linear check-loss fits of the rows of Y under the count
    weights W (both rows x n, ordered as the sorted xs): (intercepts,
    slopes, failure codes), rows x levels x nodes, NaN where a problem
    fails (code 0: solved).

    Each (row, level, node) is a _descent on the node's window, with rows
    w (1, u) and outcomes w y (weight 0 is outside the problem), where
    u = 2^-e (x - x_first) is scaled exactly so that max u lies in [1/2, 1),
    from its _start_bases on the window's weighted least-squares residuals.
    The problems run window-major, (row, node, level), in parts of
    BLOCK_ELEMENTS / 4 numbers per work array, each part gathering only its
    own windows.  The line through the final basis is solved on the
    unweighted rows in node coordinates (1, 2^-e (x - node)), so that its
    slope stays finite where a slope in x would not.  x and the nodes are
    first scaled exactly by 2^-g into 2^1022, so that no difference of them
    overflows (g is 0 at ordinary magnitudes).
    """
    g = max(0, math.frexp(max(np.abs(xs).max(), -nodes[0], nodes[-1]))[1] - 1022)
    xs, nodes = np.ldexp(xs, -g), np.ldexp(nodes, -g)
    rows, width, m = Y.shape[0], int(np.max(hi - lo)), taus.size
    e = np.frexp(xs[hi - 1] - xs[lo])[1]
    h = np.empty((rows * nodes.size * m, 2), dtype=np.intp)
    for part in _parts(h.shape[0], 4 * width, BLOCK_ELEMENTS):
        win, at = np.divmod(np.arange(part.start, part.stop), m)
        r, j = np.divmod(np.arange(win[0], win[-1] + 1), nodes.size)
        idx, inwin = _window_rows(xs.size, lo[j], hi[j], width)
        w = np.where(inwin, W[r[:, None], idx], 0.0)
        u = np.where(inwin, np.ldexp(xs[idx] - xs[lo[j], None], -e[j, None]), 0.0)
        y = np.where(inwin, Y[r[:, None], idx], 0.0)
        D, wy, inside = w[:, :, None] * np.stack([np.ones(u.shape), u], axis=2), w * y, w > 0.0
        count = w.sum(axis=1, keepdims=True)
        uc = np.where(inwin, u - (w * u).sum(axis=1, keepdims=True) / count, 0.0)
        yc = y - wy.sum(axis=1, keepdims=True) / count
        b = np.sum(w * uc * yc, axis=1, keepdims=True) / np.sum(w * uc * uc, axis=1, keepdims=True)
        v = win - win[0]
        start = _start_bases(D, np.where(inside, yc - b * uc, np.inf), w, taus)[v, at]
        h[part.start : part.stop] = _descent(D[v], wy[v], inside[v], taus[at], start)
    h = h.reshape(rows, nodes.size, m, 2).transpose(0, 2, 1, 3)
    ok = h[..., 0] >= 0
    r, _, j = np.nonzero(ok)
    at = h[ok] + lo[j, None]
    line = np.stack([np.ones(at.shape), np.ldexp(xs[at] - nodes[j, None], -e[j, None])], axis=-1)
    coef = np.full(ok.shape + (2,), np.nan)
    coef[ok] = np.linalg.solve(line, Y[r[:, None], at][..., None])[..., 0]
    with np.errstate(over="ignore"):
        return coef[..., 0], np.ldexp(coef[..., 1], -(e + g)), np.maximum(0, -h[..., 0])


def _y_exponent(x: np.ndarray, top, spec: EstimatorSpec):
    """Exponent s, 0 at ordinary magnitudes, such that a fit on x of 2^-s y
    with max|y| = top stays finite; one exponent per entry of an array top.

    A fit adds up at most n terms of y times a moment of x of order at most
    2, and the local-linear mean fit multiplies two such sums: 8 n^2 X^2
    max|y| bounds them all, with X the largest of 1, |x| and |node|, and
    below 2^256, to which _window_means scales x down.
    """
    nodes = spec.eval_axis.coords
    big = math.frexp(max(1.0, float(np.abs(x).max()), -nodes[0], nodes[-1]))[1]
    shift = np.frexp(top)[1] + 2 * (math.frexp(x.size)[1] + min(big, 256)) + 3 - 1023
    return np.maximum(0, shift)


def _kernel_quantiles(Y, W, lo, hi, taus) -> np.ndarray:
    """Box-kernel check-loss fits of the rows of Y (one, or as many as W)
    under the counts W, ordered as sorted x: rows of W x levels x nodes.
    Each window of a row of Y is sorted once, padding last, and each level's
    order statistic counted by the rows of W that go with it; windows are
    gathered, and counted, BLOCK_ELEMENTS at a time."""
    width = int(np.max(hi - lo))
    out = np.empty((W.shape[0], taus.size, lo.size))
    for part in _parts(Y.shape[0] * lo.size, width, BLOCK_ELEMENTS):
        r, j = np.divmod(part, lo.size)
        idx, inwin = _window_rows(Y.shape[1], lo[j], hi[j], width)
        win = np.where(inwin, Y[r[:, None], idx], np.inf)
        order = np.argsort(win, axis=1)
        win, idx, inwin = (np.take_along_axis(a, order, axis=1) for a in (win, idx, inwin))
        # each row of Y goes with its row of W; one row of Y with every row
        counted = [r[None]] if Y.shape[0] > 1 else [
            np.asarray(p)[:, None] for p in _parts(W.shape[0], r.size * width, BLOCK_ELEMENTS)]
        for rw in counted:
            count = np.cumsum(np.where(inwin, W[rw[:, :, None], idx], 0.0), axis=2)
            # the k-th value is the first whose count exceeds k
            rank = _order_index(taus, count[:, :, -1:])
            at = np.count_nonzero(count[:, :, None, :] <= rank[..., None], axis=3)
            out[rw, :, j] = np.take_along_axis(np.broadcast_to(win, count.shape), at, axis=2)
    return out


def _width(spec: EstimatorSpec) -> int:
    """Work arrays per point of a row and level of fits: 5 moments, k terms."""
    if spec.method == "bspline":
        return len(spec.knots) + 4
    return 1 + int(spec.fourier_linear) + 2 * spec.n_terms if spec.method == "fourier" else 5


def _fits(x: np.ndarray, Y: np.ndarray, spec: EstimatorSpec, taus=None, W=None) -> tuple:
    """Fits of the rows of Y on the shared x, and their series coefficients
    (None for a window method): rows x nodes and rows x k under mean loss
    (taus None), rows x levels x nodes and rows x levels x k under the check
    loss at each level of taus; the spec's own loss is ignored.

    W holds rows of count weights, broadcast against the rows of Y (None:
    unit weights); a row of counts fits the resample it counts.  Rows are
    fit in parts whose work arrays hold about BLOCK_ELEMENTS numbers (see
    _width), each to 2^-s y, s from _y_exponent of the row, and scaled back
    by 2^s, both exactly.  Only the solver depends on the loss.  Each row
    and level gets the bits of a call with it alone, and a call raises the
    error of its lowest row that cannot be fit, as a call with it alone does.
    """
    est, coef, status = _fitter(x, spec, taus)(Y, W)
    failed = np.flatnonzero(np.any(status, axis=(1, 2)))
    if failed.size:
        raise _failure(x, spec, status[failed[0]])
    return est, coef


def _failure(x, spec: EstimatorSpec, status: np.ndarray) -> Exception:
    """The error of a row of fits on x whose problems (levels x nodes) fail
    with the codes in status: that of its least code."""
    code = status[status > 0].min()
    k = 2 if spec.method == "loclinear" else _width(spec)
    if code == THIN:
        what = "no data" if spec.method == "kernel" else "fewer than 2 distinct x"
        node = float(spec.eval_axis.coords[np.argmax(status[0] == THIN)])
        return EmptyWindowError(f"{what} within bandwidth {float(spec.bandwidth)} of node {node}")
    if code == CAP:
        # a local-linear descent runs on the windows, padded to the widest
        lo, hi = _windows(np.sort(x), spec) if spec.method == "loclinear" else (0, x.size)
        capped, cap = np.count_nonzero(status == CAP), _pivot_cap(int(np.max(hi - lo)), k)
        return NumericalError(f"check-loss descent: {capped} levels unsolved after {cap} pivots")
    ends = spec.eval_axis.coords[[0, -1]].tolist()
    return {
        OUTSIDE: OutOfDomainError(f"evaluation points outside the basis domain {ends}"),
        RANK: RankDeficientDesignError(
            f"series design of {k} columns is singular to 1e-6 of its largest singular value"),
        START: RankDeficientDesignError(f"design has no {k} well-separated rows"),
        CROSS: NumericalError("a check-loss descent direction crosses no row"),
    }[code]


def _fitter(x: np.ndarray, spec: EstimatorSpec, taus=None):
    """(Y, W=None) -> the fits of _fits(x, Y, spec, taus, W) and the failure
    code of each problem, rows x levels (1 under mean loss) x nodes.  x is
    sorted once (_order), and windowed or its bases built once, on sorted x;
    each call gathers Y and W into that order once, so that a fit does not
    depend on the order of data rows with distinct x.  A failed problem
    reads NaN; a row that fails on its data (THIN, OUTSIDE) goes to no
    solver, and the solvers return the codes of the rest."""
    order, nodes, window = _order(x), spec.eval_axis.coords, spec.method in ("kernel", "loclinear")
    xs, n, levels = x[order], x.size, 1 if taus is None else taus.size
    size = _width(spec) * levels * n
    if window:
        lo, hi = _windows(xs, spec)
    else:
        grid, design = _basis_matrix(spec, nodes), _basis_matrix(spec, xs)
        outside = np.any(np.isnan(design), axis=1)
        design[outside] = 0.0

    def fit_rows(Y, W=None):
        held = np.ones((1, n)) if W is None else W[:, order]
        status = np.zeros((max(Y.shape[0], held.shape[0]), levels, nodes.size), dtype=int)
        if window:
            status[:, 0] = THIN * _thin_windows(spec, xs, lo, hi, held)
        else:
            status[:, 0, 0] = OUTSIDE * np.any(held[:, outside] > 0.0, axis=1)
        # the other rows go to the solver
        fit = np.flatnonzero(~np.any(status, axis=(1, 2)))
        Y, W = Y[:, order], None if W is None else held
        Y, W = (a if a is None or a.shape[0] == 1 else a[fit] for a in (Y, W))
        est = np.full(status.shape, np.nan)
        coef = None if window else np.full(status.shape[:2] + grid.shape[1:], np.nan)
        exponents = _y_exponent(xs, np.abs(Y).max(axis=1), spec)
        for part in _parts(fit.size, size, BLOCK_ELEMENTS):
            # y keeps one row where Y has one
            cut = slice(part.start, part.stop)
            y, shift = (Y[cut], exponents[cut]) if Y.shape[0] > 1 else (Y, exponents)
            w = np.ones((1, n)) if W is None else W[cut] if W.shape[0] > 1 else W
            if taus is not None and spec.method != "kernel":
                # the descent divides residuals by steps down to 1e-10 of their
                # scale: max|w y| within 2^895 leaves it 2^128 of headroom
                top = np.abs(w * np.ldexp(y, -shift[:, None])).max(axis=1)
                shift = shift + np.maximum(0, np.frexp(top)[1] - 895)
            y = np.ldexp(y, -shift[:, None])
            rows, shift, c = fit[cut], shift[:, None, None], None
            if window:
                if taus is None:
                    fits = _window_means(spec, xs, y, lo, hi, w)[:, None]
                elif spec.method == "kernel":
                    fits = _kernel_quantiles(y, np.broadcast_to(w, (len(part), n)), lo, hi, taus)
                else:
                    y, w = np.broadcast_arrays(y, w)
                    fits, _, status[rows] = _loclinear_quantiles(xs, y, w, lo, hi, nodes, taus)
            else:
                y = np.broadcast_to(y, (len(part), n))
                w = None if W is None else np.broadcast_to(w, y.shape)
                if taus is None:
                    c = _series_means(design, y, w)[:, None]
                    status[rows, 0, 0] = RANK * np.isnan(c[:, 0, 0])
                else:
                    c, status[rows, :, 0] = _series_quantiles(design, y, w, taus)
                # a matrix-vector product per fit, since a matrix product rounds differently
                fits = (grid @ c[..., None])[..., 0]
            with np.errstate(over="ignore"):
                # scaled back by 2^s; past the float range a value is +-inf
                est[rows] = np.ldexp(fits, shift)
                if c is not None:
                    coef[rows] = np.ldexp(c, shift)
        if taus is None:
            return est[:, 0], None if coef is None else coef[:, 0], status
        return est, coef, status

    return fit_rows


# --- public entry points ----------------------------------------------------


def fit(data: Dataset, spec: EstimatorSpec) -> FitResult:
    """Fit one estimator and evaluate it on the spec's grid."""
    taus = None if spec.loss.kind == "mean" else np.array([float(spec.loss.tau)])
    # one row, at one level under check loss
    est, coef = _fits(data.x, data.y[None], spec, taus)
    return FitResult(GriddedFunction([spec.eval_axis], est.ravel()),
                     None if coef is None else coef.ravel())


def fit_quantile_process(data: Dataset, spec: EstimatorSpec, taus) -> GriddedFunction:
    """Stack per-tau quantile fits into a 2-d function (axis 1: tau, axis 2: x).

    The spec's own loss is ignored.  Row j is fit() at level taus[j] bit for
    bit.
    """
    taus = _levels("taus", taus)
    est, _ = _fits(data.x, data.y[None], spec, taus)
    return GriddedFunction([Axis(taus), spec.eval_axis], est[0])


def _resample(seed: int, draw: int, retry: int, n: int) -> np.ndarray:
    """The row indices of a draw's attempt, from the stream (seed, draw, retry)."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(draw, retry)))
    return rng.integers(0, n, size=n)


def bootstrap(data: Dataset, spec: EstimatorSpec, b_draws: int, seed: int):
    """Pairs bootstrap of a fit: (stderr function, draws function).

    Draw b resamples n rows with replacement using an RNG stream derived from
    (seed, b), so results do not depend on evaluation order.  The draw is
    its count vector over the data sorted once by x (_order), a row of count
    weights of one _fitter of the sorted data, which fits the resample under
    either loss; a pass fits its draws in parts of about BLOCK_ELEMENTS
    counts, one _fitter call each, and gathers only the counts.  A draw
    whose fit is not finite, as every failed problem's is, is redrawn from
    the stream (seed, b, retry + 1) and counted, in draw order; more than
    10% failures abort.  The draws are one function, axis 1 the draw index
    0..B-1 and axis 2 the fit's grid; stderr is their per-node standard
    deviation.
    """
    b_draws = _integer("b_draws", b_draws, 0)
    if b_draws < 2:
        raise TooFewDrawsError(f"need at least 2 bootstrap draws, got {b_draws}")
    seed = _integer("seed", seed, 0)
    n, nodes, order = data.n, spec.eval_axis.coords.size, _order(data.x)
    taus = None if spec.loss.kind == "mean" else np.array([float(spec.loss.tau)])
    fit_rows, y = _fitter(data.x[order], spec, taus), data.y[order][None]
    values, failures, pending = np.empty((b_draws, nodes)), 0, [(b, 0) for b in range(b_draws)]
    while pending:
        passing, pending = pending, []
        for part in _parts(len(passing), n, BLOCK_ELEMENTS):
            attempts = passing[part.start : part.stop]
            # row i counts how often attempt i holds each of the n sorted rows
            W = np.array([np.bincount(_resample(seed, *a, n), minlength=n) for a in attempts])
            est = fit_rows(y, W[:, order] * 1.0)[0].reshape(-1, nodes)
            # a failed problem reads NaN, and fit refuses a non-finite estimate
            failed = ~np.all(np.isfinite(est), axis=1)
            failures += int(np.count_nonzero(failed))
            if failures > 0.1 * b_draws:
                raise TooManyFailedDrawsError(f"{failures} failed draws exceed 10% of {b_draws}")
            values[[b for (b, _), bad in zip(attempts, failed) if not bad]] = est[~failed]
            pending += [(b, retry + 1) for (b, retry), bad in zip(attempts, failed) if bad]
    if failures:
        warnings.warn(f"bootstrap redrew {failures} failed draws", RuntimeWarning, stacklevel=2)
    draws = GriddedFunction([Axis(range(b_draws)), spec.eval_axis], values)
    # the squared deviations of 2^-s values stay finite; s is 0 below about 2^500
    s = max(0, math.frexp(np.abs(values).max())[1] + (math.frexp(b_draws)[1] - 1020) // 2)
    stderr = np.ldexp(np.ldexp(values, -s).std(axis=0, ddof=1), s)
    return GriddedFunction([spec.eval_axis], stderr), draws
