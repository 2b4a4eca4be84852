"""Nonparametric curve estimators with mean and quantile losses.

Four methods on a shared interface: box-kernel local constant, local linear,
cubic B-spline series and trigonometric (Fourier) series, each fit under
either squared-error loss or the check loss of quantile regression, and each
evaluated on an explicit grid so the result plugs straight into the
rearrangement and isotonization operators.

Quantile fits other than the box-kernel one minimize a smoothed check loss

    rho_{tau,kappa}(u) = tau * u + kappa * log(1 + exp(-u / kappa)),

with kappa = 1e-3 times the interquartile range of y, by one damped IRLS core
that runs a batch of independent fits at once: each fit has its own design
rows, responses, in-fit mask and level tau.  Local linear batches its eval
nodes (each a 2-column design on the node's window); a series method batches
its quantile levels, all sharing one basis matrix.  Each iteration solves the
weighted least-squares majorizer of every fit's objective and halves a fit's
step until its objective does not increase, so each objective is
non-increasing across iterations by construction.  A fit leaves the batch at
coefficient change 1e-8 (relative), with a cap of 200 iterations.  The
box-kernel quantile fit needs no iteration: with indicator weights the check
loss is minimized exactly by an order statistic of the in-window responses.
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
from .grid import Axis, GriddedFunction

METHODS = ("kernel", "loclinear", "bspline", "fourier")

IRLS_TOL = 1e-8
IRLS_MAX_ITER = 200
IRLS_KAPPA_SCALE = 1e-3


def _integer(name: str, value) -> int:
    try:
        return int(value)
    except (TypeError, ValueError, OverflowError):
        raise OutOfRangeError(f"{name} must be an integer, got {value!r}") from None


def _real(name: str, value) -> float:
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError):
        raise OutOfRangeError(f"{name} must be a number, got {value!r}") from None


def _reals(name: str, value) -> np.ndarray:
    try:
        out = np.array(value, dtype=float)
        if out.ndim:
            return out
    except (TypeError, ValueError, OverflowError):
        pass
    raise OutOfRangeError(f"{name} must be a list of numbers, got {value!r}")


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
            if not 0.0 < float(self.tau) < 1.0:
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
            knots = _reals("knots", () if self.knots is None else self.knots)
            if knots.ndim != 1 or not knots.size:
                raise OutOfRangeError("bspline needs a list of interior knots")
            knots = tuple(knots.tolist())
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
            if self.n_terms is None or _integer("n_terms", self.n_terms) < 1:
                raise OutOfRangeError(
                    f"fourier needs n_terms >= 1, got {self.n_terms!r}"
                )
            object.__setattr__(self, "n_terms", int(self.n_terms))
        if not isinstance(self.fourier_linear, (bool, np.bool_)):
            raise OutOfRangeError(
                f"fourier_linear must be true or false, got {self.fourier_linear!r}"
            )


@dataclass(frozen=True)
class FitResult:
    """Point estimate on the evaluation grid, plus series coefficients."""

    estimate: GriddedFunction
    coefficients: np.ndarray | None = None


# --- shared helpers ---------------------------------------------------------


def sample_quantile(values: np.ndarray, tau: float) -> float:
    """Exact tau-th sample quantile: the ceil(tau * m)-th order statistic.

    Always a minimizer of the check loss; when the minimizers form an
    interval this is its lower end-point among the data values.  The small
    slack keeps the ceiling exact when tau * m lands a hair above an integer.
    """
    m = values.size
    k = math.ceil(tau * m - 1e-9)
    k = min(max(k, 1), m)
    return float(np.partition(values, k - 1)[k - 1])


def _irls_kappa(y: np.ndarray) -> float:
    iqr = float(np.percentile(y, 75.0) - np.percentile(y, 25.0))
    if iqr > 0.0:
        return IRLS_KAPPA_SCALE * iqr
    return 1e-9 * max(1.0, float(np.max(np.abs(y))))


def span_axis(x, nodes: int) -> Axis:
    """nodes equidistant evaluation points from min(x) to max(x)."""
    lo, hi = float(np.min(x)), float(np.max(x))
    if not hi > lo:
        raise OutOfRangeError(
            f"an evaluation grid needs at least two distinct x values; every x is {lo!r}"
        )
    return Axis(np.linspace(lo, hi, nodes))


def _windows(data: Dataset, spec: EstimatorSpec) -> tuple:
    """Sorted (x, y) and each eval node's window [lo, hi) in them.

    The window of a node holds the x with |x - node| <= bandwidth; a kernel
    window needs one point, a local-linear window two distinct x.
    """
    order = np.argsort(data.x, kind="stable")
    xs, ys = data.x[order], data.y[order]
    nodes = spec.eval_axis.coords
    h = float(spec.bandwidth)
    lo = np.searchsorted(xs, nodes - h, side="left")
    hi = np.searchsorted(xs, nodes + h, side="right")
    if spec.method == "kernel":
        thin, what = hi - lo < 1, "no data"
    else:
        last, first = xs[np.minimum(hi - 1, xs.size - 1)], xs[np.minimum(lo, xs.size - 1)]
        thin, what = (hi - lo < 2) | (last <= first), "fewer than 2 distinct x"
    if np.any(thin):
        node = float(nodes[int(np.argmax(thin))])
        raise EmptyWindowError(f"{what} within bandwidth {h} of node {node}")
    return xs, ys, lo, hi


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


def _irls_stage(design, y, inwin, tau, kappa, coef, tol, max_iter):
    """One damped IRLS pass over P independent fits; updates coef in place.

    design is P x W x k, y and inwin (the in-fit mask) are P x W, tau holds
    one level per fit and coef is P x k; a leading axis of length 1 in
    design, y or inwin is shared by all fits.  Each fit keeps its own
    damping factor nu, halves its own step until its objective does not
    increase, and drops out of the work set once its coefficient change
    reaches tol.  Returns (done, last delta, objectives: iterations+1 x P).
    """

    def objective(idx, c):
        u = _rows(y, idx) - (_rows(design, idx) @ c[:, :, None])[:, :, 0]
        rho = _check_objective(u, tau[idx, None], kappa)
        return np.sum(np.where(_rows(inwin, idx), rho, 0.0), axis=1)

    p = coef.shape[0]
    obj = objective(np.arange(p), coef)
    trace = [obj.copy()]
    done = np.zeros(p, dtype=bool)
    last_delta = np.full(p, np.inf)
    nu = np.ones(p)
    for _ in range(max_iter):
        act = np.flatnonzero(~done)
        x, mask = _rows(design, act), _rows(inwin, act)
        c, obja, nua = coef[act], obj[act], nu[act]
        u = _rows(y, act) - (x @ c[:, :, None])[:, :, 0]
        curvature, majorizer = _irls_weights(np.abs(u), kappa)
        w = np.where(mask, curvature + nua[:, None] * majorizer, 0.0)
        rp = np.where(mask, (tau[act, None] - 0.5) + 0.5 * np.tanh(u / (2.0 * kappa)), 0.0)
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


def _irls(design, y, inwin, tau, kappa, coef0) -> tuple:
    """Annealed damped IRLS for a batch of fits (shapes as in _irls_stage).

    Runs the IRLS_STAGES warm starts, then the final pass at kappa; returns
    (coef, objectives of the final pass) or raises IrlsNoConvergenceError.
    """
    coef = np.array(coef0, dtype=float)
    for mult, tol, cap in IRLS_STAGES:
        _irls_stage(design, y, inwin, tau, kappa * mult, coef, tol, cap)
    done, delta, trace = _irls_stage(
        design, y, inwin, tau, kappa, coef, IRLS_TOL, IRLS_MAX_ITER
    )
    if not np.all(done):
        u = y - (design @ coef[:, :, None])[:, :, 0]
        rp = np.where(inwin, (tau[:, None] - 0.5) + 0.5 * np.tanh(u / (2.0 * kappa)), 0.0)
        grad = np.linalg.norm((np.swapaxes(design, 1, 2) @ rp[:, :, None])[:, :, 0], axis=1)
        # the objective is convex, so a fit whose last step was accepted and
        # whose gradient vanishes has stalled at its optimum
        settled = np.isfinite(delta) & (grad <= IRLS_TOL * np.count_nonzero(inwin, axis=1))
        stuck = ~done & ~settled
        if np.any(stuck):
            raise IrlsNoConvergenceError(
                f"IRLS left {int(np.count_nonzero(stuck))} fits unconverged after "
                f"{IRLS_MAX_ITER} iterations; max coefficient change "
                f"{float(delta[stuck].max()):.3e}, gradient norm "
                f"{float(grad[stuck].max()):.3e}"
            )
    return coef, trace


# --- local linear -----------------------------------------------------------


def _loclinear_mean(xs, ys, lo, hi, nodes) -> np.ndarray:
    zeros = np.zeros(1)
    c0 = np.concatenate([zeros, np.cumsum(np.ones_like(xs))])
    c1 = np.concatenate([zeros, np.cumsum(xs)])
    c2 = np.concatenate([zeros, np.cumsum(xs * xs)])
    d0 = np.concatenate([zeros, np.cumsum(ys)])
    d1 = np.concatenate([zeros, np.cumsum(xs * ys)])
    s0 = c0[hi] - c0[lo]
    s1 = c1[hi] - c1[lo]
    s2 = c2[hi] - c2[lo]
    t0 = d0[hi] - d0[lo]
    t1 = d1[hi] - d1[lo]
    # center the design at each node: regress y on (1, x - node)
    sx = s1 - nodes * s0
    sxx = s2 - 2.0 * nodes * s1 + nodes * nodes * s0
    sxy = t1 - nodes * t0
    det = s0 * sxx - sx * sx
    return (sxx * t0 - sx * sxy) / det


# --- series -----------------------------------------------------------------


def _series_lstsq(design: np.ndarray, y: np.ndarray) -> np.ndarray:
    coef, _, rank, _ = np.linalg.lstsq(design, y, rcond=None)
    if rank < design.shape[1]:
        raise RankDeficientDesignError(
            f"series design has rank {rank} < {design.shape[1]} columns"
        )
    return coef


# --- quantile fits ----------------------------------------------------------


def _fit_quantiles(data: Dataset, spec: EstimatorSpec, taus: np.ndarray) -> tuple:
    """Check-loss fits at every level of taus: (taus x nodes, coefficients).

    The box kernel takes window order statistics.  Local linear runs one IRLS
    batch over the nodes per level; a batch over levels x nodes would hold
    levels times the work arrays.  A series method runs one batch over the
    levels, sharing the design and the mean-loss start.  Coefficients
    (levels x k) are returned for the series methods only.
    """
    if spec.method == "kernel":
        _, ys, lo, hi = _windows(data, spec)
        est = [[sample_quantile(ys[a:b], t) for a, b in zip(lo, hi)] for t in taus]
        return np.array(est), None
    kappa = _irls_kappa(data.y)
    if spec.method == "loclinear":
        xs, ys, lo, hi = _windows(data, spec)
        nodes = spec.eval_axis.coords
        # each window is a contiguous slice of the sorted data: gather the
        # slices into rows as wide as the widest window and mask the padding
        offsets = np.arange(int(np.max(hi - lo)))
        idx = np.minimum(lo[:, None] + offsets, xs.size - 1)
        xi = xs[idx] - nodes[:, None]
        design = np.stack([np.ones_like(xi), xi], axis=-1)
        inwin = offsets < (hi - lo)[:, None]
        start = np.column_stack([_loclinear_mean(xs, ys, lo, hi, nodes), np.zeros(nodes.size)])
        est = [
            _irls(design, ys[idx], inwin, np.full(nodes.size, t), kappa, start)[0][:, 0]
            for t in taus
        ]
        return np.array(est), None
    design = _basis_matrix(spec, data.x)
    start = np.tile(_series_lstsq(design, data.y), (taus.size, 1))
    inwin = np.ones((1, data.n), dtype=bool)
    coef, _ = _irls(design[None], data.y[None], inwin, taus, kappa, start)
    return coef @ _basis_matrix(spec, spec.eval_axis.coords).T, coef


# --- public entry points ----------------------------------------------------


def fit(data: Dataset, spec: EstimatorSpec) -> FitResult:
    """Fit one estimator and evaluate it on the spec's grid."""
    if spec.loss.kind == "quantile":
        est, coef = _fit_quantiles(data, spec, np.array([float(spec.loss.tau)]))
        return FitResult(
            GriddedFunction([spec.eval_axis], est[0]), None if coef is None else coef[0]
        )
    coef = None
    if spec.method == "kernel":
        _, ys, lo, hi = _windows(data, spec)
        cy = np.concatenate([[0.0], np.cumsum(ys)])
        est = (cy[hi] - cy[lo]) / (hi - lo)
    elif spec.method == "loclinear":
        est = _loclinear_mean(*_windows(data, spec), spec.eval_axis.coords)
    else:
        coef = _series_lstsq(_basis_matrix(spec, data.x), data.y)
        est = _basis_matrix(spec, spec.eval_axis.coords) @ coef
    return FitResult(GriddedFunction([spec.eval_axis], est), coef)


def fit_quantile_process(data: Dataset, spec: EstimatorSpec, taus) -> GriddedFunction:
    """Stack per-tau quantile fits into a 2-d function (axis 1: tau, axis 2: x).

    The spec's own loss is ignored; row j matches fit() at level taus[j].
    """
    taus = np.atleast_1d(np.asarray(taus, dtype=float))
    if taus.size == 0:
        raise EmptyInputError("taus must not be empty")
    if np.any(np.diff(taus) <= 0.0):
        raise NonIncreasingAxisError("taus must be strictly increasing")
    if not (np.all(taus > 0.0) and np.all(taus < 1.0)):
        raise OutOfRangeError("every tau must lie in (0, 1)")
    est, _ = _fit_quantiles(data, spec, taus)
    return GriddedFunction([Axis(taus), spec.eval_axis], est)


def bootstrap(data: Dataset, spec: EstimatorSpec, b_draws: int, seed: int):
    """Pairs bootstrap of a fit: (stderr function, list of draw estimates).

    Draw b resamples n rows with replacement using an RNG stream derived from
    (seed, b), so results do not depend on evaluation order.  A draw whose fit
    fails is redrawn with a derived sub-seed and counted; more than 10%
    failures aborts.  stderr is the per-node standard deviation across draws.
    """
    b_draws = int(b_draws)
    if b_draws < 2:
        raise TooFewDrawsError(f"need at least 2 bootstrap draws, got {b_draws}")
    n = data.n
    failures = 0
    estimates = []
    for bidx in range(b_draws):
        for retry in range(1000):
            rng = np.random.default_rng(
                np.random.SeedSequence(entropy=int(seed), spawn_key=(bidx, retry))
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
        warnings.warn(
            f"bootstrap redrew {failures} failed draws",
            RuntimeWarning,
            stacklevel=2,
        )
    stacked = np.stack([e.values for e in estimates])
    stderr = GriddedFunction(estimates[0].axes, stacked.std(axis=0, ddof=1))
    return stderr, estimates
