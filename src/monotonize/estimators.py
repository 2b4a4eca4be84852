"""Nonparametric curve estimators with mean and quantile losses.

Four methods on a shared interface: box-kernel local constant, local linear,
cubic B-spline series and trigonometric (Fourier) series, each fit under
either squared-error loss or the check loss of quantile regression, and each
evaluated on an explicit grid so the result plugs straight into the
rearrangement and isotonization operators.

Quantile fits other than the box-kernel one minimize a smoothed check loss

    rho_{tau,kappa}(u) = tau * u + kappa * log(1 + exp(-u / kappa)),

with kappa = 1e-3 times the interquartile range of y, by a damped IRLS loop:
each iteration solves the weighted least-squares majorizer of the objective
and halves the step until the objective does not increase, so the objective
is non-increasing across iterations by construction.  Convergence is declared
at coefficient change 1e-8 (relative), with a cap of 200 iterations.  The
box-kernel quantile fit needs no iteration: with indicator weights the check
loss is minimized exactly by an order statistic of the in-window responses.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np
from scipy.interpolate import BSpline

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
            if self.bandwidth is None or not float(self.bandwidth) > 0.0:
                raise OutOfRangeError(
                    f"{self.method} needs a positive bandwidth, got {self.bandwidth!r}"
                )
        if self.method == "bspline":
            if not self.knots:
                raise OutOfRangeError("bspline needs interior knots")
            knots = tuple(float(k) for k in self.knots)
            if any(b <= a for a, b in zip(knots, knots[1:])):
                raise NonIncreasingAxisError("knots must be strictly increasing")
            lo, hi = self.eval_axis.coords[0], self.eval_axis.coords[-1]
            if knots[0] <= lo or knots[-1] >= hi:
                raise OutOfDomainError(
                    "interior knots must lie strictly inside the evaluation range"
                )
            object.__setattr__(self, "knots", knots)
        if self.method == "fourier":
            if self.n_terms is None or int(self.n_terms) < 1:
                raise OutOfRangeError(
                    f"fourier needs n_terms >= 1, got {self.n_terms!r}"
                )
            object.__setattr__(self, "n_terms", int(self.n_terms))


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


def _window_bounds(xs: np.ndarray, nodes: np.ndarray, h: float):
    lo = np.searchsorted(xs, nodes - h, side="left")
    hi = np.searchsorted(xs, nodes + h, side="right")
    return lo, hi


def _sorted_data(data: Dataset):
    order = np.argsort(data.x, kind="stable")
    return data.x[order], data.y[order]


# --- basis construction -----------------------------------------------------


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
        return BSpline.design_matrix(xc, t, 3).toarray()
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


def _series_irls_stage(design, y, tau, kappa, coef0, tol, max_iter):
    """One damped IRLS pass; returns (coef, iterations, objectives, delta)."""
    q = tau - 0.5
    b = np.asarray(coef0, dtype=float)
    obj = float(np.sum(_check_objective(y - design @ b, tau, kappa)))
    trace = [obj]
    delta = np.inf
    nu = 1.0
    for _ in range(max_iter):
        u = y - design @ b
        curvature, majorizer = _irls_weights(np.abs(u), kappa)
        w = curvature + nu * majorizer
        rp = q + 0.5 * np.tanh(u / (2.0 * kappa))
        system = design.T @ (w[:, None] * design)
        try:
            bn = b + np.linalg.solve(system, design.T @ rp)
        except np.linalg.LinAlgError:
            nu = min(1.0, max(nu, 1e-8) * 4.0)
            trace.append(obj)
            continue
        objn = float(np.sum(_check_objective(y - design @ bn, tau, kappa)))
        slack = 1e-12 * max(1.0, abs(obj))
        # nan-safe comparisons: a non-finite candidate counts as a bad step
        damped = not objn <= obj + slack
        halvings = 0
        while not objn <= obj + slack and halvings < 30:
            bn = 0.5 * (bn + b)
            objn = float(np.sum(_check_objective(y - design @ bn, tau, kappa)))
            halvings += 1
        if not objn <= obj + slack:
            nu = min(1.0, max(nu, 1e-8) * 4.0)
            trace.append(obj)
            delta = np.inf
            continue
        delta = float(np.max(np.abs(bn - b)))
        b, obj = bn, objn
        trace.append(obj)
        nu = min(1.0, nu * 4.0) if damped else max(0.25 * nu, 1e-14)
        if delta <= tol * max(1.0, float(np.max(np.abs(b)))):
            break
    return b, len(trace) - 1, np.asarray(trace), delta


def _series_irls(
    design: np.ndarray,
    y: np.ndarray,
    tau: float,
    kappa: float,
    coef0: np.ndarray,
) -> tuple:
    """Damped IRLS on a fixed design; returns (coef, iterations, objectives)."""
    b = np.asarray(coef0, dtype=float)
    for mult, tol, cap in IRLS_STAGES:
        b, _, _, _ = _series_irls_stage(design, y, tau, kappa * mult, b, tol, cap)
    b, it, trace, delta = _series_irls_stage(
        design, y, tau, kappa, b, IRLS_TOL, IRLS_MAX_ITER
    )
    if delta > IRLS_TOL * max(1.0, float(np.max(np.abs(b)))):
        u = y - design @ b
        grad = -design.T @ ((tau - 0.5) + 0.5 * np.tanh(u / (2.0 * kappa)))
        raise IrlsNoConvergenceError(
            f"IRLS stopped after {it} iterations without converging; "
            f"last coefficient change {delta:.3e}, "
            f"gradient norm {float(np.linalg.norm(grad)):.3e}"
        )
    return b, it, trace


# --- kernel -----------------------------------------------------------------


def _fit_kernel(data: Dataset, spec: EstimatorSpec) -> FitResult:
    xs, ys = _sorted_data(data)
    nodes = spec.eval_axis.coords
    h = float(spec.bandwidth)
    lo, hi = _window_bounds(xs, nodes, h)
    m = hi - lo
    if np.any(m < 1):
        node = float(nodes[int(np.argmax(m < 1))])
        raise EmptyWindowError(f"no data within bandwidth {h} of node {node}")
    if spec.loss.kind == "mean":
        cy = np.concatenate([[0.0], np.cumsum(ys)])
        est = (cy[hi] - cy[lo]) / m
    else:
        tau = float(spec.loss.tau)
        est = np.empty(nodes.size)
        for i in range(nodes.size):
            est[i] = sample_quantile(ys[lo[i] : hi[i]], tau)
    return FitResult(GriddedFunction([spec.eval_axis], est))


# --- local linear -----------------------------------------------------------


def _loclinear_windows(xs, nodes, h):
    lo, hi = _window_bounds(xs, nodes, h)
    m = hi - lo
    thin = (m < 2) | (xs[np.minimum(hi - 1, xs.size - 1)] <= xs[np.minimum(lo, xs.size - 1)])
    if np.any(thin):
        node = float(nodes[int(np.argmax(thin))])
        raise EmptyWindowError(
            f"fewer than 2 distinct x within bandwidth {h} of node {node}"
        )
    return lo, hi


def _fit_loclinear_mean(data: Dataset, spec: EstimatorSpec) -> FitResult:
    xs, ys = _sorted_data(data)
    nodes = spec.eval_axis.coords
    h = float(spec.bandwidth)
    lo, hi = _loclinear_windows(xs, nodes, h)
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
    est = (sxx * t0 - sx * sxy) / det
    return FitResult(GriddedFunction([spec.eval_axis], est))


def _loclinear_irls_stage(xi, inwin, yw, tau, kappa, a, b, tol, max_iter):
    """One damped IRLS pass over all nodes at once; updates a, b in place.

    xi, inwin and yw are nodes x W window arrays (offset x - node, in-window
    mask, response).  Nodes iterate independently, so rows that reach tol
    drop out of the work set.  Returns (all_done, last_delta_per_node).
    """
    q = tau - 0.5

    def objective(xi_r, inwin_r, yw_r, av, bv):
        u = yw_r - (av[:, None] + bv[:, None] * xi_r)
        return np.sum(np.where(inwin_r, _check_objective(u, tau, kappa), 0.0), axis=1)

    obj = objective(xi, inwin, yw, a, b)
    done = np.zeros(a.shape, dtype=bool)
    last_delta = np.full(a.shape, np.inf)
    nu = np.ones(a.shape)
    for _ in range(max_iter):
        act = np.flatnonzero(~done)
        xi_a, inwin_a, yw_a = xi[act], inwin[act], yw[act]
        aa, ba, obja, nua = a[act], b[act], obj[act], nu[act]
        u = yw_a - (aa[:, None] + ba[:, None] * xi_a)
        curvature, majorizer = _irls_weights(np.abs(u), kappa)
        w = np.where(inwin_a, curvature + nua[:, None] * majorizer, 0.0)
        rp = np.where(inwin_a, q + 0.5 * np.tanh(u / (2.0 * kappa)), 0.0)
        m00 = w.sum(axis=1)
        m01 = (w * xi_a).sum(axis=1)
        m11 = (w * xi_a * xi_a).sum(axis=1)
        g0 = rp.sum(axis=1)
        g1 = (rp * xi_a).sum(axis=1)
        det = m00 * m11 - m01 * m01
        with np.errstate(divide="ignore", invalid="ignore"):
            an = aa + (m11 * g0 - m01 * g1) / det
            bn = ba + (m00 * g1 - m01 * g0) / det
        objn = objective(xi_a, inwin_a, yw_a, an, bn)
        slack = 1e-12 * np.maximum(1.0, np.abs(obja))
        # nan-safe comparisons: a non-finite candidate counts as a bad step
        damped = ~(objn <= obja + slack)
        for _ in range(30):
            bad = ~(objn <= obja + slack)
            if not np.any(bad):
                break
            an = np.where(bad, 0.5 * (an + aa), an)
            bn = np.where(bad, 0.5 * (bn + ba), bn)
            objn = objective(xi_a, inwin_a, yw_a, an, bn)
        rejected = ~(objn <= obja + slack)
        an = np.where(rejected, aa, an)
        bn = np.where(rejected, ba, bn)
        objn = np.where(rejected, obja, objn)
        delta = np.where(
            rejected, np.inf, np.maximum(np.abs(an - aa), np.abs(bn - ba))
        )
        scale = np.maximum(1.0, np.maximum(np.abs(an), np.abs(bn)))
        a[act], b[act], obj[act] = an, bn, objn
        last_delta[act] = delta
        nu[act] = np.where(
            damped | rejected,
            np.minimum(1.0, np.maximum(nua, 1e-8) * 4.0),
            np.maximum(0.25 * nua, 1e-14),
        )
        done[act] = delta <= tol * scale
        if np.all(done):
            return True, last_delta
    return False, last_delta


def _fit_loclinear_quantile(data: Dataset, spec: EstimatorSpec) -> FitResult:
    """All eval nodes iterate together: vectorized IRLS on (nodes x W) arrays.

    x is sorted, so each node's window is a contiguous slice of the data; the
    slices are gathered into rows of width W, the widest window, and the
    padding past each window's end is masked out.  kappa comes from all of y.
    """
    xs, ys = _sorted_data(data)
    nodes = spec.eval_axis.coords
    h = float(spec.bandwidth)
    lo, hi = _loclinear_windows(xs, nodes, h)
    tau = float(spec.loss.tau)
    kappa = _irls_kappa(ys)
    offsets = np.arange(int(np.max(hi - lo)))
    idx = np.minimum(lo[:, None] + offsets, xs.size - 1)
    inwin = offsets < (hi - lo)[:, None]
    xi = xs[idx] - nodes[:, None]
    yw = ys[idx]

    # start from the mean-loss local line and anneal the smoothing scale
    a = _fit_loclinear_mean(data, spec).estimate.values.copy()
    b = np.zeros_like(a)
    for mult, tol, cap in IRLS_STAGES:
        _loclinear_irls_stage(xi, inwin, yw, tau, kappa * mult, a, b, tol, cap)
    converged, last_delta = _loclinear_irls_stage(
        xi, inwin, yw, tau, kappa, a, b, IRLS_TOL, IRLS_MAX_ITER
    )
    if not converged:
        stale = last_delta > IRLS_TOL * np.maximum(
            1.0, np.maximum(np.abs(a), np.abs(b))
        )
        u = yw - (a[:, None] + b[:, None] * xi)
        rp = np.where(inwin, (tau - 0.5) + 0.5 * np.tanh(u / (2.0 * kappa)), 0.0)
        gnorm = float(np.max(np.hypot(rp.sum(axis=1), (rp * xi).sum(axis=1))))
        raise IrlsNoConvergenceError(
            f"IRLS left {int(np.count_nonzero(stale))} nodes unconverged after "
            f"{IRLS_MAX_ITER} iterations; max coefficient change "
            f"{float(last_delta[stale].max()):.3e}, gradient norm {gnorm:.3e}"
        )
    return FitResult(GriddedFunction([spec.eval_axis], a))


# --- series -----------------------------------------------------------------


def _series_coefficients(design: np.ndarray, y: np.ndarray, loss: Loss) -> np.ndarray:
    coef, _, rank, _ = np.linalg.lstsq(design, y, rcond=None)
    if rank < design.shape[1]:
        raise RankDeficientDesignError(
            f"series design has rank {rank} < {design.shape[1]} columns"
        )
    if loss.kind == "mean":
        return coef
    kappa = _irls_kappa(y)
    coef, _, _ = _series_irls(design, y, float(loss.tau), kappa, coef)
    return coef


def _fit_series(data: Dataset, spec: EstimatorSpec) -> FitResult:
    design = _basis_matrix(spec, data.x)
    coef = _series_coefficients(design, data.y, spec.loss)
    est = _basis_matrix(spec, spec.eval_axis.coords) @ coef
    return FitResult(GriddedFunction([spec.eval_axis], est), coef)


# --- public entry points ----------------------------------------------------


def fit(data: Dataset, spec: EstimatorSpec) -> FitResult:
    """Fit one estimator and evaluate it on the spec's grid."""
    if spec.method == "kernel":
        return _fit_kernel(data, spec)
    if spec.method == "loclinear":
        if spec.loss.kind == "mean":
            return _fit_loclinear_mean(data, spec)
        return _fit_loclinear_quantile(data, spec)
    return _fit_series(data, spec)


def fit_quantile_process(data: Dataset, spec: EstimatorSpec, taus) -> GriddedFunction:
    """Stack per-tau quantile fits into a 2-d function (axis 1: tau, axis 2: x)."""
    taus = np.atleast_1d(np.asarray(taus, dtype=float))
    if taus.size == 0:
        raise EmptyInputError("taus must not be empty")
    if np.any(np.diff(taus) <= 0.0):
        raise NonIncreasingAxisError("taus must be strictly increasing")
    if not (np.all(taus > 0.0) and np.all(taus < 1.0)):
        raise OutOfRangeError("every tau must lie in (0, 1)")
    rows = [
        fit(data, replace(spec, loss=Loss("quantile", float(t)))).estimate.values
        for t in taus
    ]
    return GriddedFunction([Axis(taus), spec.eval_axis], np.stack(rows))


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
