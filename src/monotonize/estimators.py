"""Nonparametric curve estimators with mean and quantile losses.

Four methods on a shared interface: box-kernel local constant, local linear,
cubic B-spline series and trigonometric (Fourier) series, each fit under
either squared-error loss or the check loss of quantile regression, and each
evaluated on an explicit grid so the result plugs straight into the
rearrangement and isotonization operators.

Box-kernel and local-linear quantile fits minimize the check loss exactly
(see _quantile_fits); the series methods minimize a smoothed check loss

    rho_{tau,kappa}(u) = tau * u + kappa * log(1 + exp(-u / kappa)),

with kappa = 1e-3 times the interquartile range of y, by a damped IRLS core
that runs one fit per quantile level at once, all sharing one basis matrix.
Each iteration solves the weighted least-squares majorizer of every fit's
objective and halves a fit's step until its objective does not increase, so
each objective is non-increasing across iterations by construction.  A fit
leaves the batch at coefficient change 1e-8 (relative), with a cap of 200
iterations.
"""

from __future__ import annotations

import contextlib
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    EmptyInputError,
    EmptyWindowError,
    IrlsNoConvergenceError,
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
from .grid import Axis, GriddedFunction, _distinct, _integer, _levels, _order_index, _real, _reals

METHODS = ("kernel", "loclinear", "bspline", "fourier")

IRLS_TOL = 1e-8
IRLS_MAX_ITER = 200
IRLS_KAPPA_SCALE = 1e-3

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


def _irls_kappa(y: np.ndarray) -> float:
    iqr = float(np.percentile(y, 75.0) - np.percentile(y, 25.0))
    if iqr > 0.0:
        return IRLS_KAPPA_SCALE * iqr
    return 1e-9 * max(1.0, float(np.max(np.abs(y))))


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


# --- IRLS for the smoothed check loss ---------------------------------------


def _check_objective(u: np.ndarray, tau: float, kappa: float) -> np.ndarray:
    # tau*u + kappa*log(1+exp(-u/kappa)) written overflow-safe via
    # (tau - 1/2)*u + kappa*log(2*cosh(u/(2*kappa)))
    a = np.abs(u) / (2.0 * kappa)
    return (tau - 0.5) * u + kappa * (a + np.log1p(np.exp(-2.0 * a)))


def _irls_weights(absu: np.ndarray, kappa: float) -> tuple:
    """Per-residual weights (curvature, majorizer) of the smoothed check.

    The curvature sech^2(u/(2k))/(4k) gives Newton-quality steps near the
    optimum; the quadratic-majorizer weight tanh(u/(2k))/(4u) (limit 1/(8k)
    at zero) keeps the system positive definite when every residual dwarfs
    the smoothing scale.  The solvers mix them with an adaptive damping
    factor on the majorizer term.
    """
    t = absu / (2.0 * kappa)
    e = np.exp(-2.0 * t)
    curvature = e / (kappa * (1.0 + e) ** 2)
    majorizer = np.where(
        absu > 1e-6 * kappa,
        np.tanh(t) / np.maximum(4.0 * absu, 1e-300),
        1.0 / (8.0 * kappa),
    )
    return curvature, majorizer


#: Warm-start continuation: pre-solve with inflated smoothing so the final
#: pass starts inside the quadratic basin of the target objective.
IRLS_STAGES = ((100.0, 1e-4, 60), (10.0, 1e-6, 60))


def _rows(arr: np.ndarray, idx: np.ndarray) -> np.ndarray:
    # idx is sorted and unique, so at full size it selects every row; a
    # leading axis of length 1 is shared by every fit of the batch
    return arr if arr.shape[0] in (1, idx.size) else arr[idx]


def _solve(system: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Batched solve; a singular system gives its fit a NaN step to reject."""
    try:
        return np.linalg.solve(system, rhs[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:
        step = np.full_like(rhs, np.nan)
        for i in range(rhs.shape[0]):
            with contextlib.suppress(np.linalg.LinAlgError):
                step[i] = np.linalg.solve(system[i], rhs[i])
        return step


def _irls_stage(design, y, tau, kappa, coef, tol, max_iter):
    """One damped IRLS pass over P independent fits; updates coef in place.

    design is P x n x k, y is P x n, tau holds one level per fit and coef is
    P x k; a leading axis of length 1 in design or y is shared by all fits.
    Each fit keeps its own damping factor nu, halves its own step until its
    objective does not increase, and drops out of the work set once its
    coefficient change reaches tol.  Returns (done, last delta, objectives:
    iterations+1 x P).
    """

    def objective(idx, c):
        u = _rows(y, idx) - (_rows(design, idx) @ c[:, :, None])[:, :, 0]
        return np.sum(_check_objective(u, tau[idx, None], kappa), axis=1)

    p = coef.shape[0]
    obj = objective(np.arange(p), coef)
    trace = [obj.copy()]
    done = np.zeros(p, dtype=bool)
    last_delta = np.full(p, np.inf)
    nu = np.ones(p)
    for _ in range(max_iter):
        act = np.flatnonzero(~done)
        x = _rows(design, act)
        c, obja, nua = coef[act], obj[act], nu[act]
        u = _rows(y, act) - (x @ c[:, :, None])[:, :, 0]
        curvature, majorizer = _irls_weights(np.abs(u), kappa)
        w = curvature + nua[:, None] * majorizer
        rp = (tau[act, None] - 0.5) + 0.5 * np.tanh(u / (2.0 * kappa))
        xt = np.swapaxes(x, 1, 2)
        cn = c + _solve(xt @ (w[:, :, None] * x), (xt @ rp[:, :, None])[:, :, 0])
        objn = objective(act, cn)
        slack = 1e-12 * np.maximum(1.0, np.abs(obja))
        # nan-safe comparisons: a non-finite candidate counts as a bad step
        damped = ~(objn <= obja + slack)
        for _ in range(30):
            bad = np.flatnonzero(~(objn <= obja + slack))
            if bad.size == 0:
                break
            cn[bad] = 0.5 * (cn[bad] + c[bad])
            objn[bad] = objective(act[bad], cn[bad])
        rejected = ~(objn <= obja + slack)
        cn[rejected] = c[rejected]
        objn[rejected] = obja[rejected]
        delta = np.where(rejected, np.inf, np.max(np.abs(cn - c), axis=1))
        coef[act], obj[act], last_delta[act] = cn, objn, delta
        nu[act] = np.where(
            damped | rejected,
            np.minimum(1.0, np.maximum(nua, 1e-8) * 4.0),
            np.maximum(0.25 * nua, 1e-14),
        )
        done[act] = delta <= tol * np.maximum(1.0, np.max(np.abs(cn), axis=1))
        trace.append(obj.copy())
        if np.all(done):
            break
    return done, last_delta, np.stack(trace)


def _irls(design, y, tau, kappa, coef0) -> tuple:
    """Annealed damped IRLS for a batch of fits (shapes as in _irls_stage).

    Runs IRLS_STAGES, then the final pass at kappa; returns (coef,
    final-pass objectives) or raises IrlsNoConvergenceError.
    """
    coef = np.array(coef0, dtype=float)
    for mult, tol, cap in IRLS_STAGES:
        _irls_stage(design, y, tau, kappa * mult, coef, tol, cap)
    done, delta, trace = _irls_stage(design, y, tau, kappa, coef, IRLS_TOL, IRLS_MAX_ITER)
    if not np.all(done):
        u = y - (design @ coef[:, :, None])[:, :, 0]
        rp = (tau[:, None] - 0.5) + 0.5 * np.tanh(u / (2.0 * kappa))
        grad = np.linalg.norm((np.swapaxes(design, 1, 2) @ rp[:, :, None])[:, :, 0], axis=1)
        # the objective is convex, so a fit whose last step was accepted and
        # whose gradient vanishes has stalled at its optimum
        settled = np.isfinite(delta) & (grad <= IRLS_TOL * y.shape[1])
        stuck = ~done & ~settled
        if np.any(stuck):
            raise IrlsNoConvergenceError(
                f"IRLS left {int(np.count_nonzero(stuck))} fits unconverged after "
                f"{IRLS_MAX_ITER} iterations; max coefficient change "
                f"{float(delta[stuck].max()):.3e}, gradient norm "
                f"{float(grad[stuck].max()):.3e}"
            )
    return coef, trace


# --- series -----------------------------------------------------------------


def _series_lstsq(design: np.ndarray, y: np.ndarray) -> np.ndarray:
    coef, _, rank, _ = np.linalg.lstsq(design, y, rcond=None)
    if rank < design.shape[1]:
        raise RankDeficientDesignError(
            f"series design has rank {rank} < {design.shape[1]} columns"
        )
    return coef


# --- quantile fits ----------------------------------------------------------


def _window_rows(n: int, lo, hi, width: int) -> tuple:
    """Each window [lo, hi) of the sorted data as a row of indices padded to
    width, and the mask of the row's in-window entries."""
    offsets = np.arange(width)
    return np.minimum(lo[:, None] + offsets, n - 1), offsets < (hi - lo)[:, None]


def _loclinear_quantiles(xs, ys, lo, hi, nodes, taus) -> tuple:
    """Exact local-linear check-loss fits: (intercepts, slopes), levels x nodes.

    With the slope b fixed, the best intercept is sample_quantile's order
    statistic of the residuals y - b z (z = x - node), so the window's loss
    g(b) is convex and piecewise linear.  Just right of a test slope t one
    point p sorts at that order, and g is linear until another point crosses
    p; one sort of the residuals gives the sign of g' there.  A fit brackets
    the leftmost slope whose right-hand segment has g' >= 0 and moves one end
    past t to the end of t's segment.  It tests the least-squares slope, then
    the best slope of a line through p (a weighted quantile of p's slopes).
    All fits run at once, in chunks of BLOCK_ELEMENTS / 4 numbers per array.
    """
    width = int(np.max(hi - lo))
    level, node = np.divmod(np.arange(taus.size * nodes.size), nodes.size)
    chunk = max(1, BLOCK_ELEMENTS // (4 * width))
    (est, slope), top = np.empty((2, level.size)), 2.0 * np.max(np.abs(ys))
    for part in np.split(np.arange(level.size), range(chunk, level.size, chunk)):
        j = node[part]
        idx, inwin = _window_rows(xs.size, lo[j], hi[j], width)
        z0, y0 = np.where(inwin, xs[idx] - nodes[j, None], 0.0), np.where(inwin, ys[idx], np.inf)
        tau0, k0 = taus[level[part], None], _order_index(taus[level[part]], hi[j] - lo[j])
        # every slope lies within +-(2 max|y| over the least gap of z)
        gap = np.diff(z0, axis=1)
        high = top / np.min(gap, axis=1, where=inwin[:, 1:] & (gap > 0.0), initial=np.inf)
        slope[part], act = high, np.flatnonzero(high > 0.0)
        zc = np.where(inwin, z0 - np.mean(z0, axis=1, where=inwin, keepdims=True), 0.0)[act]
        with np.errstate(all="ignore"):
            t = np.einsum("ij,ij->i", zc, np.where(inwin, y0, 0.0)[act]) / np.sum(zc * zc, axis=1)
        low, high = -high[act], high[act]
        t = np.where(t < high, np.fmax(t, low), low)
        while act.size:
            z, y, w, k, tau = z0[act], y0[act], inwin[act], k0[act], tau0[act, 0]
            rows, tt = np.arange(act.size), t[:, None]
            r = y - tt * z
            v = np.take_along_axis(np.sort(r, axis=1), k[:, None], axis=1)
            below, at, ties = r < v, r == v, np.count_nonzero(r <= v, axis=1) - k
            # p sorts k-th just right of t, where residuals tied at t order by falling z
            p = np.argmax(np.cumsum(at, axis=1, dtype=np.int32) >= ties[:, None], axis=1)
            dz, dr = z - z[rows, p, None], r - r[rows, p, None]
            below |= at & (dz > 0.0)
            spread = np.einsum("ij,ij->i", dz, w)
            rising = np.einsum("ij,ij->i", dz, below) >= tau * spread
            ok = w & (dz != 0.0)
            s = np.divide(y - y[rows, p, None], dz, out=np.full(dz.shape, np.inf), where=ok)
            order = np.argsort(s, axis=1)
            ss = np.take_along_axis(s, order, axis=1)
            # t's segment ends at p's last crossing up to t and its first after;
            # where a slope rounds across t, the residuals tell its side
            crossed = ok & (((dz > 0.0) != (dr > 0.0)) | (dr == 0.0))
            n_le, n_lt = np.count_nonzero(ss <= tt, axis=1), np.count_nonzero(ss < tt, axis=1)
            left = np.where(np.any(crossed & (s > tt), axis=1), t, ss[rows, n_le - 1])
            right = np.where(np.any(~crossed & (s < tt), axis=1), t, ss[rows, n_lt % width])
            high = np.where(rising, np.fmin(np.fmax(left, low), t), high)
            low = np.where(rising, low, np.fmin(np.fmax(right, np.nextafter(t, np.inf)), high))
            # next test: the best slope through p, else p's last slope inside, else the middle
            cum = np.cumsum(np.take_along_axis(np.abs(dz) * w, order, axis=1), axis=1)
            best = np.count_nonzero(cum < (0.5 * cum[:, -1] + (tau - 0.5) * spread)[:, None], 1)
            c = ss[rows, np.minimum(best, np.count_nonzero(ok, axis=1) - 1)]
            prev = ss[rows, np.count_nonzero(ss < high[:, None], axis=1) - 1]
            mid = np.fmin(0.5 * low + 0.5 * high, np.nextafter(high, -np.inf))
            t = np.where((low < prev) & (prev < high), prev, mid)
            t = np.where((low <= c) & (c < high), c, t)
            slope[part[act]], keep = high, low < high
            act, low, high, t = act[keep], low[keep], high[keep], t[keep]
        r = y0 - slope[part, None] * z0
        est[part] = np.take_along_axis(np.sort(r, axis=1), k0[:, None], axis=1)[:, 0]
    return est.reshape(taus.size, nodes.size), slope.reshape(taus.size, nodes.size)


def _y_exponent(x: np.ndarray, top, spec: EstimatorSpec, slopes: bool):
    """Exponent s, 0 at ordinary magnitudes, such that a fit on x of 2^-s y
    with max|y| = top stays finite; one exponent per entry of an array top.

    A fit adds up at most n terms of y times a moment of x of order at most
    2, and the local-linear mean fit multiplies two such sums: 8 n^2 X^2
    max|y| bounds them all, with X the largest of 1, |x| and |node|.  With
    slopes, the local-linear quantile search divides differences of y by
    gaps of x, and z may round a gap to half; max|y| reach / gap within
    2^1016 keeps those slopes and their residuals finite.
    """
    nodes = spec.eval_axis.coords
    big = max(1.0, float(np.abs(x).max()), -nodes[0], nodes[-1])
    e = np.frexp(top)[1]
    shift = e + 2 * (math.frexp(x.size)[1] + math.frexp(big)[1]) + 3 - 1023
    if slopes:
        xs = _distinct(x)
        # with one distinct x there is no slope: the fit refuses the windows
        if xs.size > 1:
            reach = max(1.0, max(xs[-1], nodes[-1]) - min(xs[0], nodes[0]))
            er, eg = np.frexp([reach, np.min(np.diff(xs))])[1]
            shift = np.maximum(shift, e + er - eg - 1016)
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
    shift = _y_exponent(x, np.abs(Y).max(axis=1), spec, False)[:, None]
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
    _loclinear_quantiles.  Both are exact, and row j equals the fit at
    taus[j] alone bit for bit.  A series method runs one IRLS batch over the
    levels from the mean-loss start.
    """
    shift = _y_exponent(data.x, np.abs(data.y).max(), spec, spec.method == "loclinear")
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
    start = np.tile(_series_lstsq(design, data.y), (taus.size, 1))
    coef, _ = _irls(design[None], data.y[None], taus, _irls_kappa(data.y), start)
    return coef @ grid.T, coef


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

    The spec's own loss is ignored.  Row j is fit() at level taus[j]: for
    kernel and local linear bit for bit, for a series method up to the
    rounding of the batched IRLS.
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
    shift = _y_exponent(data.x, np.abs(data.y).max(), spec, False)
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
