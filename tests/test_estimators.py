import math
import signal
import warnings
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from scipy.interpolate import BSpline
from scipy.optimize import linprog

from monotonize import estimators
from monotonize.errors import (
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
)
from monotonize.estimators import (
    MEAN_LOSS,
    Dataset,
    EstimatorSpec,
    Loss,
    _basis_matrix,
    _bspline_design,
    basis_eval,
    bootstrap,
    fit,
    fit_quantile_process,
    span_axis,
)
from monotonize.grid import Axis, GriddedFunction, sample_quantile
from monotonize.montecarlo import (
    AGE_RANGE,
    DEFAULT_KNOTS,
    McConfig,
    _bootstrap_seed,
    default_estimators,
    desk_tau_net,
    simulate_rep,
)
from oracles import (
    bootstrap_oracle,
    kernel_quantile_process_reference,
    start_bases_reference,
    window_mean_reference,
)


def _axis(n=11, lo=0.0, hi=1.0):
    return Axis(np.linspace(lo, hi, n))


def test_dataset_validation():
    with pytest.raises(ShapeMismatchError):
        Dataset([1.0, 2.0], [1.0])
    with pytest.raises(EmptyInputError):
        Dataset([], [])
    with pytest.raises(NonFiniteValueError):
        Dataset([1.0, np.nan], [1.0, 2.0])
    with pytest.raises(ShapeMismatchError):
        Dataset(np.zeros((2, 2)), np.zeros(4))
    d = Dataset([1.0, 2.0], [3.0, 4.0])
    assert d.n == 2
    with pytest.raises(ValueError):
        d.x[0] = 9.0


def test_loss_validation():
    Loss("mean")
    Loss("quantile", 0.5)
    with pytest.raises(OutOfRangeError):
        Loss("median")
    with pytest.raises(OutOfRangeError):
        Loss("quantile")
    for tau in (0.0, 1.0, -0.5, "abc", "0.5", True):
        with pytest.raises(OutOfRangeError):
            Loss("quantile", tau)
    with pytest.raises(OutOfRangeError):
        Loss("mean", 0.5)


def test_spec_validation():
    ax = _axis()
    with pytest.raises(OutOfRangeError):
        EstimatorSpec("spline", MEAN_LOSS, ax)
    with pytest.raises(OutOfRangeError):
        EstimatorSpec("kernel", MEAN_LOSS, ax)
    with pytest.raises(OutOfRangeError):
        EstimatorSpec("loclinear", MEAN_LOSS, ax, bandwidth=-1.0)
    with pytest.raises(OutOfRangeError):
        EstimatorSpec("bspline", MEAN_LOSS, ax)
    with pytest.raises(NonIncreasingAxisError):
        EstimatorSpec("bspline", MEAN_LOSS, ax, knots=(0.5, 0.5))
    with pytest.raises(OutOfDomainError):
        EstimatorSpec("bspline", MEAN_LOSS, ax, knots=(0.5, 1.5))
    # a NaN knot used to pass both checks and fail later inside lstsq
    with pytest.raises(NonIncreasingAxisError):
        EstimatorSpec("bspline", MEAN_LOSS, ax, knots=(0.25, math.nan, 0.75))
    with pytest.raises(OutOfDomainError):
        EstimatorSpec("bspline", MEAN_LOSS, ax, knots=(math.nan,))
    with pytest.raises(OutOfRangeError):
        EstimatorSpec("fourier", MEAN_LOSS, ax, n_terms=0)
    # raw coordinate lists are promoted to an Axis
    spec = EstimatorSpec("kernel", MEAN_LOSS, [0.0, 0.5, 1.0], bandwidth=1.0)
    assert isinstance(spec.eval_axis, Axis)
    assert EstimatorSpec("fourier", MEAN_LOSS, ax, n_terms=2).fourier_linear
    # values the spec cannot convert are one OutOfRangeError, not a TypeError
    for method, settings, message in (
        ("kernel", {"bandwidth": "x"}, "bandwidth must be a number"),
        ("loclinear", {"bandwidth": [1.0]}, "bandwidth must be a number"),
        ("bspline", {"knots": ["a"]}, "knots must be a list of numbers"),
        ("bspline", {"knots": 0.5}, "knots must be a list of numbers"),
        ("bspline", {"knots": [[0.25, 0.5]]}, "bspline needs a list of interior knots"),
        ("fourier", {"n_terms": "x"}, "n_terms must be an integer"),
        ("fourier", {"n_terms": 2.7}, "n_terms must be an integer"),
        ("fourier", {"n_terms": True}, "n_terms must be an integer"),
        ("kernel", {"bandwidth": True}, "bandwidth must be a number"),
        ("bspline", {"knots": ["0.5"]}, "knots must be a list of numbers"),
        ("fourier", {"n_terms": 2, "fourier_linear": "no"}, "fourier_linear must be"),
        ("kernel", {"bandwidth": 1.0, "fourier_linear": 1}, "fourier_linear must be"),
    ):
        with pytest.raises(OutOfRangeError, match=message):
            EstimatorSpec(method, MEAN_LOSS, ax, **settings)


def test_sample_quantile_matches_exact_order_statistic():
    rng = np.random.default_rng(3)
    for _ in range(300):
        m = int(rng.integers(1, 60))
        v = rng.normal(size=m)
        num = int(rng.integers(1, 20))
        den = int(rng.integers(num + 1, 22))
        tau = Fraction(num, den)
        k = math.ceil(tau * m)
        expect = float(np.sort(v)[k - 1])
        assert sample_quantile(v, num / den) == expect


def test_sample_quantile_minimizes_check_loss():
    rng = np.random.default_rng(5)
    for _ in range(100):
        v = rng.normal(size=int(rng.integers(1, 40)))
        tau = float(rng.uniform(0.05, 0.95))
        q = sample_quantile(v, tau)
        u = v - q
        loss_q = float(np.sum(u * (tau - (u < 0))))
        for c in v:
            u = v - c
            assert loss_q <= float(np.sum(u * (tau - (u < 0)))) + 1e-12


def test_kernel_mean_hand_values():
    data = Dataset([0.0, 1.0, 2.0, 3.0], [1.0, 3.0, 5.0, 7.0])
    spec = EstimatorSpec("kernel", MEAN_LOSS, Axis([0.5, 2.5]), bandwidth=0.75)
    np.testing.assert_allclose(fit(data, spec).estimate.values, [2.0, 6.0])
    # window edges are inclusive on both sides
    spec = EstimatorSpec("kernel", MEAN_LOSS, Axis([1.0]), bandwidth=1.0)
    np.testing.assert_allclose(fit(data, spec).estimate.values, [3.0])


def test_kernel_mean_full_window_is_sample_mean():
    rng = np.random.default_rng(7)
    data = Dataset(rng.uniform(0, 1, 40), rng.normal(size=40))
    spec = EstimatorSpec("kernel", MEAN_LOSS, _axis(9), bandwidth=5.0)
    np.testing.assert_allclose(
        fit(data, spec).estimate.values, np.full(9, data.y.mean()), rtol=1e-12
    )


def test_kernel_empty_window():
    data = Dataset([0.0, 1.0], [1.0, 2.0])
    spec = EstimatorSpec("kernel", MEAN_LOSS, Axis([0.5]), bandwidth=0.2)
    with pytest.raises(EmptyWindowError):
        fit(data, spec)


def test_kernel_quantile_equals_window_order_statistics():
    rng = np.random.default_rng(11)
    for _ in range(50):
        n = int(rng.integers(10, 80))
        x = rng.uniform(0, 1, n)
        y = rng.normal(size=n)
        nodes = np.sort(rng.uniform(0.2, 0.8, 4))
        if np.any(np.diff(nodes) <= 0):
            continue
        h = 0.4
        tau = float(rng.uniform(0.1, 0.9))
        spec = EstimatorSpec("kernel", Loss("quantile", tau), Axis(nodes), bandwidth=h)
        est = fit(Dataset(x, y), spec).estimate.values
        for i, node in enumerate(nodes):
            win = y[np.abs(x - node) <= h]
            assert est[i] == sample_quantile(win, tau)


def test_kernel_quantile_process_is_the_per_level_reference():
    rng = np.random.default_rng(29)
    taus = np.linspace(0.05, 0.95, 19)
    for _ in range(20):
        n = int(rng.integers(10, 120))
        # rounded x and y: ties at window edges and among the order statistics
        x = np.round(rng.uniform(0, 1, n), 2)
        y = np.round(rng.normal(size=n), 1)
        spec = EstimatorSpec("kernel", MEAN_LOSS, _axis(11, 0.2, 0.8), bandwidth=0.2)
        est = fit_quantile_process(Dataset(x, y), spec, taus).values
        assert np.array_equal(est, kernel_quantile_process_reference(Dataset(x, y), spec, taus))


def test_loclinear_mean_recovers_exact_line():
    rng = np.random.default_rng(13)
    x = rng.uniform(0, 1, 60)
    data = Dataset(x, 2.0 + 3.0 * x)
    spec = EstimatorSpec("loclinear", MEAN_LOSS, _axis(7, 0.1, 0.9), bandwidth=0.3)
    nodes = spec.eval_axis.coords
    np.testing.assert_allclose(
        fit(data, spec).estimate.values, 2.0 + 3.0 * nodes, rtol=1e-10
    )


def test_loclinear_mean_matches_polyfit_per_window():
    rng = np.random.default_rng(17)
    for _ in range(20):
        n = int(rng.integers(20, 60))
        x = rng.uniform(0, 1, n)
        y = rng.normal(size=n)
        h = 0.35
        spec = EstimatorSpec("loclinear", MEAN_LOSS, _axis(5, 0.2, 0.8), bandwidth=h)
        est = fit(Dataset(x, y), spec).estimate.values
        for i, node in enumerate(spec.eval_axis.coords):
            mask = np.abs(x - node) <= h
            coef = np.polyfit(x[mask] - node, y[mask], 1)
            assert est[i] == pytest.approx(coef[1], rel=1e-8, abs=1e-8)


def test_loclinear_needs_two_distinct_points():
    data = Dataset([0.5, 0.5, 0.5], [1.0, 2.0, 3.0])
    spec = EstimatorSpec("loclinear", MEAN_LOSS, Axis([0.5]), bandwidth=0.2)
    with pytest.raises(EmptyWindowError):
        fit(data, spec)


def test_loclinear_quantile_half_on_line_data():
    # with tau = 0.5 and data exactly on a line the exact fit is the line
    rng = np.random.default_rng(19)
    x = rng.uniform(0, 1, 50)
    data = Dataset(x, 1.0 + 2.0 * x)
    spec = EstimatorSpec(
        "loclinear", Loss("quantile", 0.5), _axis(6, 0.15, 0.85), bandwidth=0.3
    )
    nodes = spec.eval_axis.coords
    np.testing.assert_allclose(
        fit(data, spec).estimate.values, 1.0 + 2.0 * nodes, atol=1e-12
    )


def _loclinear_quantile_designs():
    """Small random designs: uniform, and one whose window widths vary 3x."""
    rng = np.random.default_rng(23)
    x_uniform = np.sort(rng.uniform(0.0, 1.0, 70))
    # x = u^2 piles points up near 0, so windows there hold several times more
    x_skewed = np.linspace(0.0, 1.0, 90) ** 2 + rng.uniform(0.0, 1e-3, 90)
    for x in (x_uniform, x_skewed):
        yield Dataset(x, np.sin(3.0 * x) + rng.normal(0.0, 0.3, x.size))


def _window(x, node, h):
    # the estimator's window rule: node - h <= x <= node + h
    return (x >= node - h) & (x <= node + h)


def _check_loss(u, tau):
    return float(np.sum(u * (tau - (u < 0.0))))


def _lp_optimum(design, y, tau, coef=False):
    """Exact min over coef of sum rho_tau(y - design @ coef), as an LP; with
    coef, also HiGHS's coefficients."""
    m, k = design.shape
    eye = np.eye(m)
    a_eq = np.hstack([design, eye, -eye])
    cost = np.concatenate([np.zeros(k), np.full(m, tau), np.full(m, 1.0 - tau)])
    bounds = [(None, None)] * k + [(0.0, None)] * (2 * m)
    res = linprog(cost, A_eq=a_eq, b_eq=y, bounds=bounds, method="highs")
    assert res.status == 0
    return (res.fun, res.x[:k]) if coef else res.fun


def _spy_on_chunk_rows(monkeypatch):
    """Record the shape of every batch of problems the local-linear fits hand
    to the descent: one row per (level, node) fit, one column per point of
    the widest window.  Every work array of a batch has at most that shape,
    times the two columns of the design."""
    real = estimators._descent
    shapes = []

    def spy(D, y, inside, taus, start):
        shapes.append(y.shape)
        return real(D, y, inside, taus, start)

    monkeypatch.setattr(estimators, "_descent", spy)
    return shapes


def _exact_fits(data, spec, taus):
    """(intercepts, slopes) of the local-linear fits, levels x nodes."""
    order, xs, lo, hi = estimators._windows(data.x, spec)
    a, b = estimators._loclinear_quantiles(
        xs, data.y[order][None], np.ones((1, data.n)), lo, hi, spec.eval_axis.coords,
        np.asarray(taus, dtype=float),
    )
    return a[0], b[0]


def _assert_attains_lp(design, y, tau, coef):
    """The check loss of coef is the LP optimum of (design, y) at tau.

    HiGHS's value may lie about 1e-11 off the check loss its own coefficients
    attain, either way, so the loss is held within 1e-12 of the latter and
    above the former within HiGHS's tolerance."""
    lp, best = _lp_optimum(design, y, tau, coef=True)
    got = _check_loss(y - design @ coef, tau)
    attained = _check_loss(y - design @ best, tau)
    assert lp * (1.0 - 1e-9) <= got <= attained * (1.0 + 1e-12), tau


def _assert_exact_lp(data, nodes, h, tau, a, b):
    # every window's check loss equals the LP optimum up to rounding
    for j, node in enumerate(nodes):
        win = _window(data.x, node, h)
        xi, y = data.x[win] - node, data.y[win]
        _assert_attains_lp(np.column_stack([np.ones_like(xi), xi]), y, tau, np.array([a[j], b[j]]))


def test_loclinear_quantile_attains_the_exact_lp_optimum(monkeypatch):
    shapes = _spy_on_chunk_rows(monkeypatch)
    h = 0.15
    ax = _axis(9, 0.1, 0.9)
    widths = []
    for data in _loclinear_quantile_designs():
        counts = [int(np.count_nonzero(_window(data.x, c, h))) for c in ax.coords]
        widths.append(max(counts) / min(counts))
        for tau in (0.1, 0.5, 0.9):
            spec = EstimatorSpec("loclinear", Loss("quantile", tau), ax, bandwidth=h)
            shapes.clear()
            a = fit(data, spec).estimate.values
            # the work arrays are fits x widest window, never x n
            assert shapes == [(ax.coords.size, max(counts))]
            est, b = _exact_fits(data, spec, [tau])
            assert np.array_equal(est[0], a)
            _assert_exact_lp(data, ax.coords, h, tau, a, b[0])
    assert max(widths) >= 3.0


def test_loclinear_quantile_process_rows_are_exact_fits(monkeypatch):
    # row j is the fit at taus[j] alone, bit for bit, however the nodes are
    # chunked, and every row attains the LP optimum
    h, taus = 0.15, (0.1, 0.25, 0.5, 0.75, 0.9)
    ax = _axis(9, 0.1, 0.9)
    for data in _loclinear_quantile_designs():
        spec = EstimatorSpec("loclinear", MEAN_LOSS, ax, bandwidth=h)
        est = fit_quantile_process(data, spec, taus).values
        for j, tau in enumerate(taus):
            row = fit(data, replace(spec, loss=Loss("quantile", tau))).estimate.values
            assert np.array_equal(est[j], row)
        a, b = _exact_fits(data, spec, taus)
        assert np.array_equal(a, est)
        for j, tau in enumerate(taus):
            _assert_exact_lp(data, ax.coords, h, tau, a[j], b[j])
        # one fit per chunk
        with monkeypatch.context() as patch:
            patch.setattr(estimators, "BLOCK_ELEMENTS", 1)
            shapes = _spy_on_chunk_rows(patch)
            assert np.array_equal(fit_quantile_process(data, spec, taus).values, est)
            assert len(shapes) == len(taus) * ax.coords.size
            assert {s[0] for s in shapes} == {1}


def test_loclinear_quantile_chunks_keep_work_arrays_within_the_block(monkeypatch):
    # windows of about 300 points: with BLOCK_ELEMENTS = 4000 a batch holds
    # three fits, so no work array exceeds 1000 rows of the design, and the
    # fits are the bits of the one-batch descent and attain the LP optimum
    rng = np.random.default_rng(53)
    x = np.sort(rng.uniform(0.0, 1.0, 400))
    data = Dataset(x, np.sin(3.0 * x) + rng.normal(0.0, 0.3, 400))
    h, taus, ax = 0.4, (0.2, 0.5, 0.8), _axis(5, 0.1, 0.9)
    spec = EstimatorSpec("loclinear", MEAN_LOSS, ax, bandwidth=h)
    est = fit_quantile_process(data, spec, taus).values
    with monkeypatch.context() as patch:
        patch.setattr(estimators, "BLOCK_ELEMENTS", 4000)
        shapes = _spy_on_chunk_rows(patch)
        assert np.array_equal(fit_quantile_process(data, spec, taus).values, est)
    width = shapes[0][1]
    assert width > 250 and {rows for rows, _ in shapes} == {3}
    assert all(rows * width <= 1000 for rows, _ in shapes)
    assert sum(rows for rows, _ in shapes) == len(taus) * ax.coords.size
    a, b = _exact_fits(data, spec, taus)
    for j, tau in enumerate(taus):
        _assert_exact_lp(data, ax.coords, h, tau, a[j], b[j])


def test_kernel_quantile_chunks_keep_the_gather_within_the_block(monkeypatch):
    # windows of about 300 points, three rows of y and five nodes: with room
    # for four windows per gather, _fits solves one row at a time, each in
    # gathers of four windows and one, no gather exceeds BLOCK_ELEMENTS
    # numbers, and the fits are the bits of the one-gather fits and the
    # reference's order statistics
    rng = np.random.default_rng(61)
    x = rng.uniform(0.0, 1.0, 400)
    Y = np.sin(3.0 * x) + rng.normal(0.0, 0.3, (3, 400))
    taus = np.array([0.2, 0.5, 0.8])
    spec = EstimatorSpec("kernel", MEAN_LOSS, _axis(5, 0.1, 0.9), bandwidth=0.4)
    est, _ = estimators._fits(x, Y, spec, taus)
    _, _, lo, hi = estimators._windows(x, spec)
    width = int(np.max(hi - lo))
    real, shapes = estimators._window_rows, []

    def spy(n, lo, hi, width):
        shapes.append((lo.size, width))
        return real(n, lo, hi, width)

    with monkeypatch.context() as patch:
        patch.setattr(estimators, "_window_rows", spy)
        patch.setattr(estimators, "BLOCK_ELEMENTS", 4 * width)
        assert np.array_equal(estimators._fits(x, Y, spec, taus)[0], est)
    assert width > 250 and shapes == [(4, width), (1, width)] * 3
    for i, y in enumerate(Y):
        want = kernel_quantile_process_reference(Dataset(x, y), spec, taus)
        assert np.array_equal(est[i], want), i


def test_loclinear_quantile_fits_across_a_subnormal_gap_of_x():
    # x = 0 and 5e-324 lie a subnormal apart, so slopes of y over that gap
    # overflow unless the fit scales y; each intercept must still be optimal:
    # with it fixed, the best slope attains the LP optimum of the window
    rng = np.random.default_rng(59)
    x = np.concatenate([[0.0, 5e-324], np.linspace(0.05, 1.0, 30)])
    data = Dataset(x, x + rng.normal(0.0, 0.3, x.size))
    h, ax = 0.6, _axis(3, 0.0, 1.0)
    for tau in (0.25, 0.5):
        spec = EstimatorSpec("loclinear", Loss("quantile", tau), ax, bandwidth=h)
        est = fit(data, spec).estimate.values
        assert np.all(np.isfinite(est))
        for j, node in enumerate(ax.coords):
            win = _window(data.x, node, h)
            z, y = data.x[win] - node, data.y[win]
            lp = _lp_optimum(np.column_stack([np.ones_like(z), z]), y, tau)
            got = _lp_optimum(z[:, None], y - est[j], tau)
            assert got <= lp * (1.0 + 1e-12) + 1e-12
    # the one line through two points 5e-324 apart has a slope past the float
    # range, yet the value 2024 at the node 1e-320 away
    spec = EstimatorSpec("loclinear", Loss("quantile", 0.5), Axis([0.0, 1e-320]), bandwidth=1e-300)
    assert fit(Dataset([0.0, 5e-324], [0.0, 1.0]), spec).estimate.values.tolist() == [0.0, 2024.0]


def test_loclinear_quantile_exact_on_ties_and_collinear_points():
    # x on a coarse lattice and integer y on integer-slope lines: many tied
    # x, duplicate points and collinear triples, so the pairwise slopes
    # repeat, many windows have a flat optimum, and the slope of a point pair
    # can round to the other side of a test slope than its residuals put it
    rng = np.random.default_rng(37)
    h = 0.25
    ax = _axis(7, 0.1, 0.9)
    taus = (0.1, 0.25, 0.5, 0.8)
    for n in (40, 73) + tuple(range(20, 52, 4)):
        k = rng.integers(0, 13, n)
        y = 2.0 * k + rng.integers(-1, 2, n) * (rng.uniform(size=n) < 0.6)
        data = Dataset(k / 12.0, y)
        spec = EstimatorSpec("loclinear", MEAN_LOSS, ax, bandwidth=h)
        est = fit_quantile_process(data, spec, taus).values
        a, b = _exact_fits(data, spec, taus)
        assert np.array_equal(a, est)
        for j, tau in enumerate(taus):
            row = fit(data, replace(spec, loss=Loss("quantile", tau))).estimate.values
            assert np.array_equal(est[j], row)
            _assert_exact_lp(data, ax.coords, h, tau, a[j], b[j])


def test_loclinear_quantile_search_ends_on_nearly_tied_x():
    # twelve x within 1e-9 of 0.5 and a node at 0: the cluster's slopes are
    # near 1e10, and rounding noise orders the residuals of a pair near one
    # of them; the descent must still end on an optimal line.  In the last
    # case each window holds the cluster alone, whose rows (1, x - node) are
    # parallel to 1e-9: the fit needs rows centred on the window and scaled
    # to it, and the intercepts lie near -+4.7e7 at the outer nodes
    def stop(signum, frame):
        raise TimeoutError("the local-linear fit did not end")

    cases = [(seed, _axis(5), 0.6, (0.1, 0.3, 0.5, 0.7, 0.9)) for seed in range(4)]
    cases.append((0, Axis([0.3, 0.5, 0.7]), 0.25, (0.3,)))
    previous = signal.signal(signal.SIGALRM, stop)
    signal.alarm(30)
    try:
        for seed, ax, h, taus in cases:
            rng = np.random.default_rng(seed)
            x = np.concatenate([0.5 + rng.uniform(0.0, 1e-9, 12), [0.0, 1.0]])
            data = Dataset(x, rng.normal(size=x.size))
            spec = EstimatorSpec("loclinear", MEAN_LOSS, ax, bandwidth=h)
            a, b = _exact_fits(data, spec, taus)
            assert np.array_equal(fit_quantile_process(data, spec, taus).values, a)
            for j, tau in enumerate(taus):
                for i, node in enumerate(spec.eval_axis.coords):
                    win = _window(x, node, h)
                    z, y = x[win] - node, data.y[win]
                    # the optimum is a line through two points of the window
                    best = min(
                        _check_loss(y - y[p] - (y[q] - y[p]) / (z[q] - z[p]) * (z - z[p]), tau)
                        for p, q in zip(*np.nonzero(z[:, None] < z))
                    )
                    assert _check_loss(y - a[j, i] - b[j, i] * z, tau) <= best + 1e-4
        np.testing.assert_allclose(a[0], [-4.71942592e7, -0.73616741, 4.71942578e7], rtol=1e-6)
        z = x[_window(x, 0.3, h)] - 0.3
        with pytest.raises(RankDeficientDesignError, match="no 2 well-separated rows"):
            estimators._start_bases(np.stack([np.ones_like(z), z], axis=1)[None], z[None])
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_loclinear_quantile_ignores_data_outside_the_window():
    # reversing y among the points outside node j's window keeps the multiset
    # of y fixed while changing everything node j must not see
    rng = np.random.default_rng(29)
    x = np.sort(rng.uniform(0.0, 1.0, 120))
    data = Dataset(x, 3.0 * x + rng.normal(0.0, 0.3, 120))
    h = 0.1
    spec = EstimatorSpec("loclinear", Loss("quantile", 0.3), _axis(9, 0.1, 0.9), bandwidth=h)
    base = fit(data, spec).estimate.values
    for j in (2, 4, 6):
        out = np.flatnonzero(~_window(x, spec.eval_axis.coords[j], h))
        y = data.y.copy()
        y[out] = y[out[::-1]]
        moved = fit(Dataset(x, y), spec).estimate.values
        assert moved[j] == base[j]
        assert np.max(np.abs(np.delete(moved - base, j))) > 0.1


def test_loclinear_quantile_scales_exactly_near_the_float_limit():
    # x gaps near 1e-11 make the pairwise slopes of y ~ 1e301 overflow unless
    # the fit scales y first; a power-of-two scaling of y scales the fit
    # exactly, so the huge fit is the ordinary one times 2^1000 bit for bit
    rng = np.random.default_rng(41)
    x = 1.0 + np.sort(rng.uniform(0.0, 5e-8, 50))
    y = rng.uniform(-1.0, 1.0, 50)
    spec = EstimatorSpec(
        "loclinear", Loss("quantile", 0.3), Axis(np.linspace(x[0], x[-1], 5)), bandwidth=2e-8
    )
    small = fit(Dataset(x, y), spec).estimate.values
    huge = fit(Dataset(x, np.ldexp(y, 1000)), spec).estimate.values
    assert np.array_equal(huge, np.ldexp(small, 1000))


def test_span_axis_across_the_float_range():
    # max - min overflows: the ends are halved and the nodes doubled, exactly
    ax = span_axis([-1e308, 1e308, 0.0], 5)
    assert ax.coords.tolist() == [-1e308, -5e307, 0.0, 5e307, 1e308]
    assert span_axis([-1.7976931348623157e308, 1.7976931348623157e308], 2).coords.tolist() == [
        -1.7976931348623157e308, 1.7976931348623157e308]
    # in range the nodes are linspace's, bit for bit
    assert np.array_equal(span_axis([0.1, 7.3, 2.0], 9).coords, np.linspace(0.1, 7.3, 9))


@pytest.mark.parametrize("loss", [MEAN_LOSS, Loss("quantile", 0.5)], ids=["mean", "quantile"])
@pytest.mark.parametrize("method", ["kernel", "loclinear"])
def test_window_fits_on_x_across_the_float_range(method, loss):
    # the window bounds node -+ h overflow and the local-linear x-moments
    # would; with warnings as errors an overflow fails here.  Each window
    # holds two points, so local linear passes through both
    x, y = np.array([-1e308, 1e308, 0.0]), np.array([1.0, 2.0, 3.0])
    spec = EstimatorSpec(method, loss, span_axis(x, 2), bandwidth=1.7e308)
    est = fit(Dataset(x, y), spec).estimate.values
    want = [2.0, 2.5] if (method, loss) == ("kernel", MEAN_LOSS) else [1.0, 2.0]
    np.testing.assert_allclose(est, want, rtol=1e-15)
    # the fit on x scaled by a power of two into range is the same, bit for bit
    small = EstimatorSpec(method, loss, Axis(np.ldexp(spec.eval_axis.coords, -768)),
                          bandwidth=np.ldexp(1.7e308, -768))
    assert np.array_equal(fit(Dataset(np.ldexp(x, -768), y), small).estimate.values, est)


@pytest.mark.parametrize("loss", [MEAN_LOSS, Loss("quantile", 0.5)], ids=["mean", "quantile"])
@pytest.mark.parametrize(
    "method, settings, want",
    [
        ("fourier", {"n_terms": 1}, None),
        ("bspline", {"knots": (0.0,)}, RankDeficientDesignError),
        ("loclinear", {"bandwidth": 1.7e308}, None),
    ],
)
def test_series_and_loclinear_fits_on_x_across_the_float_range(method, settings, want, loss):
    # max - min of x, the knot gaps and the local-linear x - x_first overflow
    # unless the fit scales x; with warnings as errors an overflow fails
    # here.  A fit ends in its estimate, the bits of the fit on x scaled into
    # range by a power of two, or in the documented error
    x, y = np.array([-1e308, 1e308, 0.0, 5e307]), np.array([1.0, 2.0, 3.0, 4.0])
    spec = EstimatorSpec(method, loss, span_axis(x, 3), **settings)
    if want is not None:
        with pytest.raises(want):
            fit(Dataset(x, y), spec)
        return
    est = fit(Dataset(x, y), spec).estimate.values
    assert np.all(np.isfinite(est))
    scaled = {k: np.ldexp(v, -768) for k, v in settings.items() if k == "bandwidth"}
    small = replace(spec, eval_axis=Axis(np.ldexp(spec.eval_axis.coords, -768)), **scaled)
    assert np.array_equal(fit(Dataset(np.ldexp(x, -768), y), small).estimate.values, est)


@pytest.mark.parametrize("loss", [MEAN_LOSS, Loss("quantile", 0.3)], ids=["mean", "quantile"])
@pytest.mark.parametrize(
    "method, settings",
    [
        ("kernel", {"bandwidth": 0.3}),
        ("loclinear", {"bandwidth": 0.3}),
        ("bspline", {"knots": (0.3, 0.6)}),
        ("fourier", {"n_terms": 2}),
    ],
)
def test_fits_scale_y_exactly_near_the_float_limit(method, settings, loss):
    # y up to 1.7e308 overflows the window sums and the series descent unless
    # the fit scales y first; with warnings as errors an overflow fails here
    rng = np.random.default_rng(43)
    x = np.concatenate([[0.0, 1.0], rng.uniform(0.0, 1.0, 48)])
    y = 1.7e308 * rng.uniform(-1.0, 1.0, 50)
    spec = EstimatorSpec(method, loss, _axis(10), **settings)
    data = Dataset(x, y)
    s = estimators._y_exponent(x, np.abs(y).max(), spec)
    assert s > 0
    est = fit(data, spec).estimate.values
    small = Dataset(x, np.ldexp(y, -s))
    assert estimators._y_exponent(x, np.abs(small.y).max(), spec) == 0
    assert np.array_equal(est, np.ldexp(fit(small, spec).estimate.values, s))


_MEAN_SPECS = [
    ("kernel", {"bandwidth": 0.3}),
    ("loclinear", {"bandwidth": 0.3}),
    ("bspline", {"knots": (0.3, 0.6)}),
    ("fourier", {"n_terms": 2}),
]


# ids: a mean-loss case as plain parametrize names it, a check-loss case with -quantile
_FITS_CASES = [
    pytest.param(method, settings, taus, id=f"{method}-settings{i}{label}")
    for taus, label in ((None, ""), ((0.1, 0.5, 0.9), "-quantile"))
    for i, (method, settings) in enumerate(_MEAN_SPECS)
]


@pytest.mark.parametrize("method, settings, taus", _FITS_CASES)
def test_mean_fits_rows_are_fit_bit_for_bit(method, settings, taus):
    # rows near the subnormal range and near the float limit, 2^1000 apart and
    # more, and a zero row: each row is the fit, under check loss also the
    # fit_quantile_process, of that row alone
    rng = np.random.default_rng(47)
    x = np.concatenate([[0.0, 1.0], rng.uniform(0.0, 1.0, 58)])
    base = x * x + rng.normal(0.0, 0.2, (4, 60))
    rows = np.vstack([np.ldexp(base[0], -1000), base[1], np.ldexp(base[2], 1000),
                      1.7e308 * rng.uniform(-1.0, 1.0, 60), np.zeros(60), base[3]])
    spec = EstimatorSpec(method, MEAN_LOSS, _axis(10), **settings)
    levels = None if taus is None else np.array(taus)
    est, coef = estimators._fits(x, rows, spec, levels)
    assert (coef is None) == (method in ("kernel", "loclinear"))
    losses = [MEAN_LOSS] if taus is None else [Loss("quantile", tau) for tau in taus]
    for i, y in enumerate(rows):
        data = Dataset(x, y)
        assert np.array_equal(est[i], estimators._fits(x, rows[i : i + 1], spec, levels)[0][0]), i
        if taus is not None and np.all(np.isfinite(est[i])):
            assert np.array_equal(est[i], fit_quantile_process(data, spec, taus).values), i
        for j, loss in enumerate(losses):
            at = (i,) if taus is None else (i, j)
            if not np.all(np.isfinite(est[at])):
                # a series quantile fit through points near the float limit
                # can pass it between them, and fit refuses that estimate
                assert method in ("bspline", "fourier") and taus is not None
                with pytest.raises(NonFiniteValueError):
                    fit(data, replace(spec, loss=loss))
                continue
            one = fit(data, replace(spec, loss=loss))
            assert np.array_equal(est[at], one.estimate.values), at
            if coef is not None:
                assert np.array_equal(coef[at], one.coefficients), at


# ids: a mean-loss case as plain parametrize names it, a check-loss case with -quantile
_BOOTSTRAP_LIMIT_CASES = [
    pytest.param(method, settings, loss, id=f"{method}-settings{i}{label}")
    for loss, label in ((MEAN_LOSS, ""), (Loss("quantile", 0.3), "-quantile"))
    for i, (method, settings) in enumerate(_MEAN_SPECS)
]


@pytest.mark.parametrize("method, settings, loss", _BOOTSTRAP_LIMIT_CASES)
def test_bootstrap_scales_y_exactly_near_the_float_limit(method, settings, loss):
    # the window sums, the normal equations and the descent of the draws
    # overflow unless the draws scale y first (under check loss, the counts
    # times y too); with warnings as errors an overflow fails here
    rng = np.random.default_rng(53)
    x = np.concatenate([[0.0, 1.0], rng.uniform(0.0, 1.0, 48)])
    y = 1.7e308 * rng.uniform(-0.5, 0.5, 50)
    spec = EstimatorSpec(method, loss, _axis(10), **settings)
    s = estimators._y_exponent(x, np.abs(y).max(), spec)
    assert s > 0
    stderr, draws = bootstrap(Dataset(x, y), spec, 20, 3)
    small_stderr, small_draws = bootstrap(Dataset(x, np.ldexp(y, -s)), spec, 20, 3)
    assert np.array_equal(draws.values, np.ldexp(small_draws.values, s))
    assert np.array_equal(stderr.values, np.ldexp(small_stderr.values, s))


def test_bspline_basis_partition_of_unity():
    spec = EstimatorSpec("bspline", MEAN_LOSS, _axis(), knots=(0.3, 0.6))
    rng = np.random.default_rng(23)
    for x in rng.uniform(0, 1, 50):
        v = basis_eval(spec, float(x))
        assert v.sum() == pytest.approx(1.0, abs=1e-12)
        assert v.size == 4 + 2


@pytest.mark.parametrize(
    "lo, hi, knots",
    [(*AGE_RANGE, DEFAULT_KNOTS), (-1.5, 2.25, (-1.0, -0.2, 0.1, 0.7, 1.9))],
)
def test_bspline_design_equals_scipy_bit_for_bit(lo, hi, knots):
    spec = EstimatorSpec("bspline", MEAN_LOSS, Axis(np.linspace(lo, hi, 50)), knots=knots)
    t = np.concatenate([np.full(4, lo), knots, np.full(4, hi)])
    rng = np.random.default_rng(29)
    # random points, every knot and both end points
    x = np.concatenate([rng.uniform(lo, hi, 533), t, [lo, hi]])
    want = BSpline.design_matrix(x, t, 3).toarray()
    got = _bspline_design(x, t)
    assert np.array_equal(got, want)
    assert np.array_equal(_basis_matrix(spec, x), want)
    np.testing.assert_allclose(got.sum(axis=1), 1.0, rtol=0, atol=1e-14)


def test_fourier_basis_values_and_length():
    spec = EstimatorSpec("fourier", MEAN_LOSS, _axis(), n_terms=4)
    v = basis_eval(spec, 0.0)
    assert v.size == 10
    np.testing.assert_allclose(v[:2], [1.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(v[2:6], np.zeros(4), atol=1e-12)
    np.testing.assert_allclose(v[6:], np.ones(4), atol=1e-12)
    spec = EstimatorSpec(
        "fourier", MEAN_LOSS, _axis(), n_terms=3, fourier_linear=False
    )
    assert basis_eval(spec, 0.5).size == 7


def test_basis_rejects_points_outside_domain():
    spec = EstimatorSpec("fourier", MEAN_LOSS, _axis(), n_terms=2)
    with pytest.raises(OutOfDomainError):
        basis_eval(spec, 1.5)
    data = Dataset([0.1, 0.5, 2.0], [1.0, 2.0, 3.0])
    with pytest.raises(OutOfDomainError):
        fit(data, spec)


def test_fourier_mean_recovers_linear_trend():
    rng = np.random.default_rng(29)
    x = rng.uniform(0, 1, 60)
    data = Dataset(x, 2.0 + 3.0 * x)
    spec = EstimatorSpec("fourier", MEAN_LOSS, _axis(), n_terms=2)
    nodes = spec.eval_axis.coords
    np.testing.assert_allclose(
        fit(data, spec).estimate.values, 2.0 + 3.0 * nodes, atol=1e-8
    )


def test_bspline_mean_recovers_cubic():
    rng = np.random.default_rng(31)
    x = rng.uniform(0, 1, 80)
    y = 1.0 - 2.0 * x + 0.5 * x**3
    spec = EstimatorSpec("bspline", MEAN_LOSS, _axis(), knots=(0.35, 0.7))
    nodes = spec.eval_axis.coords
    np.testing.assert_allclose(
        fit(Dataset(x, y), spec).estimate.values,
        1.0 - 2.0 * nodes + 0.5 * nodes**3,
        atol=1e-8,
    )


def test_series_interpolates_on_square_design():
    # 2 interior knots give a 6-column cubic spline basis; with exactly 6
    # data points the mean fit interpolates them
    rng = np.random.default_rng(37)
    x = np.array([0.0, 0.2, 0.4, 0.6, 0.8, 1.0])
    y = rng.normal(size=6)
    spec = EstimatorSpec("bspline", MEAN_LOSS, _axis(), knots=(0.35, 0.7))
    res = fit(Dataset(x, y), spec)
    design = np.stack([basis_eval(spec, float(v)) for v in x])
    np.testing.assert_allclose(design @ res.coefficients, y, atol=1e-8)


def test_series_rank_deficiency_detected():
    rng = np.random.default_rng(41)
    x = rng.uniform(0, 1, 5)
    spec = EstimatorSpec("fourier", MEAN_LOSS, _axis(), n_terms=4)
    with pytest.raises(RankDeficientDesignError):
        fit(Dataset(x, rng.normal(size=5)), spec)


@pytest.mark.parametrize("loss", [MEAN_LOSS, Loss("quantile", 0.5)], ids=["mean", "quantile"])
def test_series_quantile_refuses_a_design_without_k_separated_rows(loss):
    # x within 1e-4 of the first interior knot or beyond leaves the first
    # B-spline below 4e-8 on every row: least squares still finds full rank,
    # but the smallest singular value is 8.8e-12 of the largest, and a mean
    # fit would read about -6.8e10 at the nodes left of the data
    rng = np.random.default_rng(3)
    x = np.concatenate([[0.2999, 1.0], rng.uniform(0.2999, 1.0, 40)])
    spec = EstimatorSpec("bspline", loss, _axis(), knots=(0.3, 0.6))
    with pytest.raises(RankDeficientDesignError, match="6 columns is singular to 1e-6"):
        fit(Dataset(x, rng.normal(size=x.size)), spec)


def _assert_series_fits_exact(data, spec, taus):
    """Each level's series fit attains the LP optimum of the check loss over
    all n points, and is its row of the quantile process bit for bit."""
    design = np.stack([basis_eval(spec, float(v)) for v in data.x])
    process = fit_quantile_process(data, spec, taus).values
    for j, tau in enumerate(taus):
        res = fit(data, replace(spec, loss=Loss("quantile", tau)))
        assert np.array_equal(res.estimate.values, process[j]), tau
        _assert_attains_lp(design, data.y, tau, res.coefficients)


_SERIES_SPECS = [
    EstimatorSpec("bspline", MEAN_LOSS, _axis(), knots=(0.3, 0.6)),
    EstimatorSpec("fourier", MEAN_LOSS, _axis(), n_terms=2),
]


def test_series_quantile_within_smoothing_bound_of_exact_lp():
    # the series analogue of the local-linear oracle: no smoothing, so the
    # bound is the LP optimum itself
    rng = np.random.default_rng(61)
    x = rng.uniform(0.0, 1.0, 60)
    data = Dataset(x, np.sin(3.0 * x) + rng.normal(0.0, 0.3, x.size))
    for spec in _SERIES_SPECS:
        _assert_series_fits_exact(data, spec, (0.1, 0.5, 0.9))


@pytest.mark.parametrize("spec", _SERIES_SPECS, ids=["bspline", "fourier"])
def test_series_quantile_exact_on_lattice_and_duplicated_data(spec):
    # residuals tied at zero make degenerate vertices, where a descent without
    # an anti-cycling rule can pivot forever; y = 0 ties every residual
    rng = np.random.default_rng(67)
    taus = (0.05, 0.2, 0.5, 0.75, 0.95)
    lattice = np.repeat(np.linspace(0.0, 1.0, 11), 5)
    x = np.concatenate([[0.0, 1.0], np.repeat(rng.uniform(0.0, 1.0, 14), 4)])
    y = np.sin(3.0 * x) + rng.normal(0.0, 0.3, x.size)
    x0 = np.concatenate([[0.0, 1.0], rng.uniform(0.0, 1.0, 18)])
    for data in (
        Dataset(lattice, rng.integers(-2, 3, lattice.size).astype(float)),
        Dataset(lattice, np.zeros(lattice.size)),
        Dataset(x, y),
        Dataset(np.tile(x0, 3), np.tile(np.sin(3.0 * x0) + rng.normal(0.0, 0.3, 20), 3)),
        Dataset(np.linspace(0.0, 1.0, 60), np.round(4.0 * np.sin(np.linspace(0.0, 3.0, 60)))),
    ):
        _assert_series_fits_exact(data, spec, taus)


def test_intercept_only_median_within_tolerance():
    # with one constant column the exact fit is the sample quantile; 25
    # points keep tau * m fractional, so the minimizer is unique
    rng = np.random.default_rng(43)
    y = rng.permutation(np.linspace(0.0, 3.0, 25) + rng.uniform(0, 0.01, 25))
    taus = np.array([0.1, 0.25, 0.5, 0.75, 0.9])
    coef = estimators._series_quantiles(np.zeros(25), np.ones((25, 1)), y[None], None, taus)[0]
    assert coef[:, 0].tolist() == [sample_quantile(y, tau) for tau in taus]


@pytest.mark.parametrize("n", [20, 30, 40, 60])
def test_series_quantile_exact_on_a_flat_optimum(n):
    # tau * n is an integer at every level, so the check loss is flat between
    # two order statistics (intercept only) or along an edge, where a rounded
    # directional derivative of either sign would pivot back and forth; tied y
    # add degenerate vertices
    rng = np.random.default_rng(71)
    taus = np.array([0.1, 0.2, 0.3, 0.5, 0.7, 0.9])
    for y in (rng.normal(size=n), rng.integers(0, 4, n).astype(float)):
        coef = estimators._series_quantiles(np.zeros(n), np.ones((n, 1)), y[None], None, taus)[0]
        for j, tau in enumerate(taus):
            lo = sample_quantile(y, tau)
            hi = np.sort(y)[int(round(tau * n))]
            assert coef[j, 0] in (lo, hi)
        x = np.concatenate([[0.0, 1.0], rng.uniform(0.0, 1.0, n - 2)])
        for spec in _SERIES_SPECS:
            _assert_series_fits_exact(Dataset(x, y), spec, taus)


def test_series_quantile_process_on_table_2_data_is_exact():
    # every level of the desk net is fit() bit for bit, and a few attain the LP
    cfg = McConfig(reps=1, seed=11)
    data = simulate_rep(cfg, 0)
    taus = desk_tau_net()
    for spec in cfg.estimators[2:]:
        process = fit_quantile_process(data, spec, taus).values
        for j, tau in enumerate(taus):
            row = fit(data, replace(spec, loss=Loss("quantile", tau))).estimate.values
            assert np.array_equal(process[j], row), (spec.method, tau)
        _assert_series_fits_exact(data, spec, taus[[0, 9, 18]])


def _start_cases():
    """(D, R, w, taus, short): series and local-linear rows with residuals R
    (+inf outside) and counts w, and whether the 4k + 1 rows nearest the
    median hold fewer than k independent rows, so that the start widens."""
    rng = np.random.default_rng(83)
    taus = (0.05, 0.3, 0.5, 0.9)
    x = rng.uniform(0.0, 1.0, 200)
    bspline = _basis_matrix(EstimatorSpec("bspline", MEAN_LOSS, _axis(), knots=(0.3, 0.6)), x)
    fourier = _basis_matrix(EstimatorSpec("fourier", MEAN_LOSS, _axis(), n_terms=4), x)
    for design in (bspline, fourier):
        w = np.array([np.bincount(rng.integers(0, 200, 200), minlength=200) for _ in range(3)])
        R = np.where(w > 0, rng.normal(size=(3, 200)), np.inf)
        yield np.broadcast_to(design, (3,) + design.shape), R, w * 1.0, taus, False
        yield design[None], rng.normal(size=(1, 200)), None, taus, False
    # local-linear windows: rows (w, w u)
    u = rng.uniform(0.0, 1.0, (5, 40))
    w = rng.integers(0, 3, (5, 40)) * 1.0
    R = np.where(w > 0, rng.normal(size=(5, 40)), np.inf)
    yield w[:, :, None] * np.stack([np.ones_like(u), u], axis=2), R, w, taus, False
    # 60 rows near q at the levels 0.4 to 0.6, 70 far on either side; the
    # near rows at two tied x, or left of the first knot, where the last two
    # B-spline columns vanish
    R = np.concatenate([1e-3 * rng.normal(size=60), 1.0 + rng.uniform(size=70),
                        -1.0 - rng.uniform(size=70)])
    spec = EstimatorSpec("bspline", MEAN_LOSS, _axis(), knots=(0.3, 0.6))
    for near in (np.repeat([0.2, 0.7], 30), rng.uniform(0.0, 0.25, 60)):
        design = _basis_matrix(spec, np.concatenate([near, rng.uniform(0.0, 1.0, 140)]))
        yield design[None], R[None], None, (0.4, 0.5, 0.6), True


def test_start_bases_on_a_prefix_are_the_all_row_bases():
    for D, R, w, taus, short in _start_cases():
        got = estimators._start_bases(D, R, w, np.array(taus))
        assert np.array_equal(got, start_bases_reference(D, R, w, taus))
        if short:
            k = D.shape[2]
            first = np.argsort(np.abs(R[0] - np.sort(R[0])[99]))[: 4 * k + 1]
            assert np.linalg.matrix_rank(D[0, first]) < k


def test_every_desk_level_attains_the_lp_optimum_under_heteroscedastic_noise():
    # noise whose scale grows with x moves each level's start away from the
    # least-squares fit by a different amount: every level of fit and of two
    # count-weighted draws attains the LP optimum of its rows
    rng = np.random.default_rng(89)
    x = rng.uniform(0.1, 0.9, 150)
    data = Dataset(x, 1.0 + 2.0 * x + (0.1 + 2.0 * x) * rng.normal(size=150))
    taus, ax = desk_tau_net(), _axis(7, 0.1, 0.9)
    W = np.array([np.bincount(estimators._resample(5, b, 0, 150), minlength=150) for b in (0, 1)])
    y = np.broadcast_to(data.y, W.shape)
    for spec in (EstimatorSpec("loclinear", MEAN_LOSS, ax, bandwidth=0.2),
                 EstimatorSpec("bspline", MEAN_LOSS, ax, knots=(0.4, 0.65)),
                 EstimatorSpec("fourier", MEAN_LOSS, ax, n_terms=2)):
        if spec.method == "loclinear":
            a, b = _exact_fits(data, spec, taus)
            assert np.array_equal(fit_quantile_process(data, spec, taus).values, a)
            order, xs, lo, hi = estimators._windows(x, spec)
            wa, wb = estimators._loclinear_quantiles(
                xs, y[:, order], W[:, order] * 1.0, lo, hi, ax.coords, taus)
            for j, tau in enumerate(taus):
                _assert_exact_lp(data, ax.coords, spec.bandwidth, tau, a[j], b[j])
                for d in range(2):
                    res = Dataset(x.repeat(W[d]), data.y.repeat(W[d]))
                    _assert_exact_lp(res, ax.coords, spec.bandwidth, tau, wa[d, j], wb[d, j])
            continue
        _, coef = estimators._fits(x, data.y[None], spec, taus)
        _, drawn = estimators._fits(x, data.y[None], spec, taus, W * 1.0)
        for j, tau in enumerate(taus):
            _assert_attains_lp(_basis_matrix(spec, x), data.y, tau, coef[0, j])
            for d in range(2):
                design = _basis_matrix(spec, x.repeat(W[d]))
                _assert_attains_lp(design, data.y.repeat(W[d]), tau, drawn[d, j])


# seed-11 replication, level and draw (bootstrap seed 3) of count-weighted
# bspline draws whose descent stopped above the optimum before every
# retirement was checked on a fresh basis: the first four from least-squares
# starts, the others from starts at the level's residual quantile
_DRIFTING_DRAWS = [
    (0, 0.5, 9), (1, 0.5, 57), (2, 0.3, 84), (2, 0.5, 84), (0, 0.5, 11), (0, 0.5, 89)
]


def test_bspline_draws_that_drifted_attain_the_lp_optimum():
    cfg = McConfig(reps=3, seed=11)
    spec = next(s for s in cfg.estimators if s.method == "bspline")
    for rep, tau, b in _DRIFTING_DRAWS:
        data = simulate_rep(cfg, rep)
        idx = estimators._resample(3, b, 0, data.n)
        w = np.bincount(idx, minlength=data.n)[None] * 1.0
        _, coef = estimators._fits(data.x, data.y[None], spec, np.array([tau]), w)
        res = Dataset(data.x[idx], data.y[idx])
        design = _basis_matrix(spec, res.x)
        _assert_attains_lp(design, res.y, tau, coef[0, 0])
        one = fit(res, replace(spec, loss=Loss("quantile", tau)))
        _assert_attains_lp(design, res.y, tau, one.coefficients)


def test_quantile_process_accepts_a_fit_stalled_at_its_optimum():
    # under IRLS one local-linear fit of this replication stopped moving by
    # about 8e-6 per iteration at a stationary point; the exact search must
    # fit it too
    cfg = McConfig(reps=2, seed=1010019)
    spec = next(s for s in cfg.estimators if s.method == "loclinear")
    taus = desk_tau_net()
    est = fit_quantile_process(simulate_rep(cfg, 0), spec, taus)
    assert est.shape == (taus.size, spec.eval_axis.coords.size)


def test_quantile_fits_converge_across_methods_and_levels():
    rng = np.random.default_rng(59)
    # keep the data inside the eval span: the series basis rejects points
    # outside its domain
    x = rng.uniform(0.1, 0.9, 250)
    y = 2.0 * x + rng.normal(0, 0.4, 250) * (1.0 + x)
    data = Dataset(x, y)
    ax = _axis(9, 0.1, 0.9)
    specs = [
        EstimatorSpec("loclinear", MEAN_LOSS, ax, bandwidth=0.25),
        EstimatorSpec("bspline", MEAN_LOSS, ax, knots=(0.4, 0.65)),
        EstimatorSpec("fourier", MEAN_LOSS, ax, n_terms=2),
    ]
    from dataclasses import replace

    for spec in specs:
        for tau in (0.05, 0.5, 0.95):
            out = fit(data, replace(spec, loss=Loss("quantile", tau)))
            assert np.all(np.isfinite(out.estimate.values))


def test_quantile_process_shape_and_slices():
    rng = np.random.default_rng(61)
    x = rng.uniform(0, 1, 80)
    y = x + rng.normal(0, 0.3, 80)
    data = Dataset(x, y)
    spec = EstimatorSpec(
        "kernel", Loss("quantile", 0.5), _axis(8, 0.1, 0.9), bandwidth=0.3
    )
    taus = [0.25, 0.5, 0.75]
    proc = fit_quantile_process(data, spec, taus)
    assert proc.shape == (3, 8)
    np.testing.assert_array_equal(proc.axes[0].coords, taus)
    from dataclasses import replace

    for i, tau in enumerate(taus):
        single = fit(data, replace(spec, loss=Loss("quantile", tau)))
        np.testing.assert_array_equal(proc.values[i], single.estimate.values)


def test_quantile_process_levels_are_ordered_in_practice():
    rng = np.random.default_rng(67)
    x = rng.uniform(0, 1, 400)
    y = 1.0 + 2.0 * x + rng.normal(0, 0.5, 400)
    spec = EstimatorSpec(
        "kernel", Loss("quantile", 0.5), _axis(12, 0.1, 0.9), bandwidth=0.25
    )
    proc = fit_quantile_process(Dataset(x, y), spec, [0.25, 0.75])
    frac = np.mean(proc.values[1] >= proc.values[0] - 1e-12)
    assert frac >= 0.95


def test_quantile_process_validation():
    data = Dataset([0.0, 0.5, 1.0], [1.0, 2.0, 3.0])
    spec = EstimatorSpec(
        "kernel", Loss("quantile", 0.5), _axis(3), bandwidth=2.0
    )
    with pytest.raises(EmptyInputError):
        fit_quantile_process(data, spec, [])
    with pytest.raises(NonIncreasingAxisError):
        fit_quantile_process(data, spec, [0.5, 0.5])
    with pytest.raises(OutOfRangeError):
        fit_quantile_process(data, spec, [0.5, 1.0])
    with pytest.raises(OutOfRangeError, match="taus must be a list of numbers"):
        fit_quantile_process(data, spec, ["0.25", "0.75"])


def test_bootstrap_determinism_and_stderr():
    rng = np.random.default_rng(71)
    x = rng.uniform(0, 1, 60)
    data = Dataset(x, x + rng.normal(0, 0.5, 60))
    spec = EstimatorSpec("kernel", MEAN_LOSS, _axis(6, 0.2, 0.8), bandwidth=0.3)
    se1, draws1 = bootstrap(data, spec, 24, seed=9)
    se2, draws2 = bootstrap(data, spec, 24, seed=9)
    assert se1 == se2
    assert draws1.shape == (24, 6)
    assert draws1 == draws2
    assert np.all(se1.values > 0)
    se3, _ = bootstrap(data, spec, 24, seed=10)
    assert se3 != se1


@pytest.mark.parametrize("method", ["kernel", "loclinear", "bspline", "fourier"])
def test_bootstrap_builds_no_grid_function_per_draw(method, monkeypatch):
    cfg, (data,) = _simulated(1)
    spec = next(s for s in cfg.estimators if s.method == method)
    built = []
    init = GriddedFunction.__init__

    def counting_init(self, *args):
        built.append(self)
        init(self, *args)

    monkeypatch.setattr(GriddedFunction, "__init__", counting_init)
    counts = []
    for b_draws in (10, 200):
        built.clear()
        bootstrap(data, spec, b_draws, seed=4)
        counts.append(len(built))
    assert counts[0] == counts[1]


def test_bootstrap_constant_outcome_gives_zero_stderr():
    x = np.linspace(0, 1, 30)
    data = Dataset(x, np.full(30, 4.0))
    spec = EstimatorSpec("kernel", MEAN_LOSS, _axis(5), bandwidth=0.5)
    stderr, _ = bootstrap(data, spec, 16, seed=1)
    np.testing.assert_array_equal(stderr.values, np.zeros(5))


def test_bootstrap_needs_two_draws():
    data = Dataset([0.0, 1.0], [1.0, 2.0])
    spec = EstimatorSpec("kernel", MEAN_LOSS, _axis(2), bandwidth=2.0)
    with pytest.raises(TooFewDrawsError):
        bootstrap(data, spec, 1, seed=0)


def test_bootstrap_seed_is_a_non_negative_integer():
    data = Dataset([0.0, 0.5, 1.0], [1.0, 2.0, 3.0])
    spec = EstimatorSpec("kernel", MEAN_LOSS, _axis(2), bandwidth=2.0)
    for seed in (-1, 1.5, "3", True):
        with pytest.raises(OutOfRangeError, match="seed must be an integer >= 0"):
            bootstrap(data, spec, 4, seed=seed)
    se, _ = bootstrap(data, spec, 4, seed=3)
    assert bootstrap(data, spec, 4, seed=np.int64(3))[0] == se
    assert bootstrap(data, spec, 4, seed=3.0)[0] == se


def test_bootstrap_aborts_on_persistent_failures():
    # the right eval node is covered by a single data point, so most
    # resamples cannot fit there and the failure budget is exhausted
    x = np.concatenate([np.linspace(0.0, 0.3, 15), [0.7]])
    y = np.zeros_like(x)
    data = Dataset(x, y)
    spec = EstimatorSpec("kernel", MEAN_LOSS, Axis([0.15, 0.7]), bandwidth=0.1)
    with pytest.raises(TooManyFailedDrawsError):
        bootstrap(data, spec, 30, seed=3)
    with pytest.raises(TooManyFailedDrawsError):
        bootstrap_oracle(data, spec, 30, seed=3)


@pytest.mark.parametrize("b_draws", [2.9, 2.5, True, "5", -1, None])
def test_bootstrap_draw_count_is_an_integer(b_draws):
    data = Dataset([0.0, 0.5, 1.0], [1.0, 2.0, 3.0])
    spec = EstimatorSpec("kernel", MEAN_LOSS, _axis(2), bandwidth=2.0)
    with pytest.raises(OutOfRangeError, match="b_draws must be an integer >= 0"):
        bootstrap(data, spec, b_draws, seed=0)
    with pytest.raises(TooFewDrawsError):
        bootstrap(data, spec, 1.0, seed=0)
    assert bootstrap(data, spec, 4.0, seed=3)[0] == bootstrap(data, spec, 4, seed=3)[0]


def _simulated(reps=3):
    cfg = McConfig(reps=reps, seed=11)
    return cfg, [simulate_rep(cfg, r) for r in range(reps)]


@pytest.mark.parametrize("method", ["kernel", "loclinear"])
def test_window_mean_fit_is_the_unweighted_reference_bit_for_bit(method):
    cfg, datasets = _simulated()
    spec = next(s for s in cfg.estimators if s.method == method)
    rng = np.random.default_rng(23)
    x = rng.uniform(0, 1, 80)
    datasets.append(Dataset(x, np.sin(3 * x) + rng.normal(0, 0.2, 80)))
    small = replace(spec, eval_axis=_axis(9, 0.1, 0.9), bandwidth=0.2)
    for data, sp in zip(datasets, [spec] * 3 + [small]):
        assert np.array_equal(fit(data, sp).estimate.values, window_mean_reference(data, sp))


def _bootstrap_outcome(fn, data, spec, b_draws, seed):
    """("ok", stderr, draws, warnings) or ("abort", None, None, warnings)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            stderr, draws = fn(data, spec, b_draws, seed)
            result = ("ok", stderr.values, draws.values)
        except TooManyFailedDrawsError:
            result = ("abort", None, None)
    return (*result, [str(w.message) for w in caught])


def _assert_matches_oracle(data, spec, b_draws, seed) -> str:
    got = _bootstrap_outcome(bootstrap, data, spec, b_draws, seed)
    want = _bootstrap_outcome(bootstrap_oracle, data, spec, b_draws, seed)
    assert got[0] == want[0] and got[3] == want[3]
    if got[0] == "ok":
        np.testing.assert_allclose(got[2], want[2], rtol=1e-9, atol=0.0)
        np.testing.assert_allclose(got[1], want[1], rtol=1e-9, atol=0.0)
    return got[0] if got[0] == "abort" or not got[3] else "redrawn"


@pytest.mark.parametrize("method", ["kernel", "loclinear", "bspline", "fourier"])
def test_bootstrap_matches_the_per_draw_oracle(method):
    cfg, datasets = _simulated(2)
    ei, spec = next((i, s) for i, s in enumerate(cfg.estimators) if s.method == method)
    for r, data in enumerate(datasets):
        assert _assert_matches_oracle(data, spec, 100, _bootstrap_seed(cfg, r, ei)) == "ok"


def _failing_cases():
    """Data on which some draws fail: a kernel window, a local-linear window
    and a B-spline knot interval that only a few points reach; the
    local-linear window holds four tied x.  Then a point outside the
    series domain that most draws hold, and last the kernel case under the
    check loss.  (The local-linear case under the check loss is
    test_check_loss_draws_on_a_flat_optimum.)"""
    rng = np.random.default_rng(5)
    noisy = lambda x: Dataset(x, 1.0 + x + rng.normal(0.0, 0.1, x.size))
    tail = lambda lead, *points: np.r_[np.linspace(0.0, lead, 60 - len(points)), points]
    yield (
        noisy(tail(0.6, 0.8, 0.85, 0.9)),
        EstimatorSpec("kernel", MEAN_LOSS, Axis([0.3, 0.85]), bandwidth=0.1),
    )
    yield (
        noisy(tail(0.6, 0.9, 0.9, 0.9, 0.9, 0.93, 0.95, 0.96)),
        EstimatorSpec("loclinear", MEAN_LOSS, Axis([0.3, 0.92]), bandwidth=0.05),
    )
    yield (
        noisy(tail(0.7, 0.85, 0.9, 0.95)),
        EstimatorSpec("bspline", MEAN_LOSS, Axis(np.linspace(0.0, 0.95, 5)), knots=(0.3, 0.6, 0.8)),
    )
    yield (
        noisy(tail(0.9, 0.99)),
        EstimatorSpec("fourier", MEAN_LOSS, Axis(np.linspace(0.0, 0.95, 5)), n_terms=1),
    )
    yield (
        noisy(tail(0.6, 0.8, 0.85, 0.9)),
        EstimatorSpec("kernel", Loss("quantile", 0.5), Axis([0.3, 0.85]), bandwidth=0.1),
    )


@pytest.mark.parametrize(
    "case, outcomes",
    [(0, {"redrawn", "abort"}), (1, {"redrawn", "abort"}), (2, {"redrawn", "abort"}),
     (3, {"abort"}), (4, {"redrawn", "abort"})],
    ids=["kernel", "loclinear-tied", "bspline", "outside-domain", "kernel-quantile"],
)
def test_bootstrap_failures_and_redraws_match_the_oracle(case, outcomes):
    data, spec = list(_failing_cases())[case]
    seen = {_assert_matches_oracle(data, spec, 40, seed) for seed in range(6)}
    assert outcomes <= seen


def _spy_on_draw_fits(monkeypatch):
    """Record the rows x n of the count weights of every call of the fitter
    that bootstrap prepares."""
    calls, real = [], estimators._fitter

    def fitter(*args):
        fit_rows = real(*args)

        def spy(Y, W=None):
            calls.append(W.shape)
            return fit_rows(Y, W)

        return spy

    monkeypatch.setattr(estimators, "_fitter", fitter)
    return calls


@pytest.mark.parametrize("case", [0, 2, 3], ids=["kernel", "bspline", "outside-domain"])
def test_bootstrap_fits_parts_of_at_most_one_block_of_counts(monkeypatch, case):
    # a pass holds the counts of one part of its draws at a time, and the
    # parts, failures and redraws change no bit
    data, spec = list(_failing_cases())[case]
    for seed in range(3):
        want = _bootstrap_outcome(bootstrap, data, spec, 40, seed)
        with monkeypatch.context() as m:
            calls = _spy_on_draw_fits(m)
            m.setattr(estimators, "BLOCK_ELEMENTS", 7 * data.n)
            got = _bootstrap_outcome(bootstrap, data, spec, 40, seed)
        assert max(rows for rows, _ in calls) <= 7 and len(calls) >= 6
        assert got[0] == want[0] and got[3] == want[3]
        for a, b in zip(got[1:3], want[1:3]):
            assert (a is None and b is None) or np.array_equal(a, b)


@pytest.mark.parametrize("case", [0, 1, 4], ids=["kernel", "loclinear-tied", "kernel-quantile"])
def test_bootstrap_fails_thin_window_draws_from_one_mask(monkeypatch, case):
    # a part whose fit raises for thin windows is fit once more, without
    # its thin draws, rather than bisected
    data, spec = list(_failing_cases())[case]
    calls = _spy_on_draw_fits(monkeypatch)
    redrawn = 0
    for seed in range(6):
        calls.clear()
        outcome, _, _, caught = _bootstrap_outcome(bootstrap, data, spec, 40, seed)
        if outcome == "abort" or not caught:
            continue
        failed = int(caught[0].split()[2])
        redrawn += 1
        # each pass is one part: at most two calls, and a pass per failure at most
        assert len(calls) <= 2 * (1 + failed), (seed, calls)
        assert calls[0][0] == 40 and calls[1][0] < 40
    assert redrawn


@pytest.mark.parametrize("method", ["kernel", "loclinear", "bspline", "fourier"])
def test_check_loss_bootstrap_is_the_oracle_bit_for_bit(method):
    rng = np.random.default_rng(41)
    x = np.sort(rng.uniform(2.0, 20.0, 120))
    data = Dataset(x, 70.0 + 5.0 * x + rng.normal(0.0, 4.0, x.size))
    specs = default_estimators(Axis(np.linspace(x[0], x[-1], 12)))
    spec = replace(next(s for s in specs if s.method == method), loss=Loss("quantile", 0.3))
    got, want = bootstrap(data, spec, 6, 8), bootstrap_oracle(data, spec, 6, 8)
    assert np.array_equal(got[0].values, want[0].values)
    assert got[1] == want[1]


def _settled_resample(data, spec, seed, b):
    """The rows of draw b as bootstrap settles it: its first attempt whose
    fit does not fail."""
    for retry in range(20):
        idx = estimators._resample(seed, b, retry, data.n)
        try:
            fit(Dataset(data.x[idx], data.y[idx]), spec)
        except EmptyWindowError:
            continue
        return idx
    raise AssertionError(f"no attempt of draw {b} fits")


def _weighted_loclinear(data, spec, idx):
    """(intercepts, slopes) of the local-linear check-loss fit of the
    resample idx, as a row of counts over data."""
    order, xs, lo, hi = estimators._windows(data.x, spec)
    w = np.bincount(idx, minlength=data.n)[order][None] * 1.0
    a, b = estimators._loclinear_quantiles(
        xs, data.y[order][None], w, lo, hi, spec.eval_axis.coords, np.array([spec.loss.tau]))
    return a[0, 0], b[0, 0]


@pytest.mark.parametrize("method", ["kernel", "loclinear", "bspline", "fourier"])
def test_check_loss_draws_attain_the_lp_optimum_of_their_resample(method):
    # a draw is a row of counts, and its weighted check loss is the check
    # loss of its resample: the kernel draws are sample_quantile of the
    # resampled windows, the others attain the LP optimum of the resample
    rng = np.random.default_rng(41)
    x = np.sort(rng.uniform(2.0, 20.0, 120))
    data = Dataset(x, 70.0 + 5.0 * x + rng.normal(0.0, 4.0, x.size))
    specs = default_estimators(Axis(np.linspace(x[0], x[-1], 12)))
    spec = replace(next(s for s in specs if s.method == method), loss=Loss("quantile", 0.3))
    tau, nodes = spec.loss.tau, spec.eval_axis.coords
    _, draws = bootstrap(data, spec, 4, 8)
    for b in range(4):
        idx = estimators._resample(8, b, 0, data.n)
        res = Dataset(data.x[idx], data.y[idx])
        if method == "kernel":
            want = [sample_quantile(res.y[_window(res.x, c, spec.bandwidth)], tau) for c in nodes]
            assert draws.values[b].tolist() == want, b
        elif method == "loclinear":
            a, slope = _weighted_loclinear(data, spec, idx)
            assert np.array_equal(a, draws.values[b]), b
            _assert_exact_lp(res, nodes, spec.bandwidth, tau, a, slope)
        else:
            w = np.bincount(idx, minlength=data.n)[None] * 1.0
            est, coef = estimators._fits(data.x, data.y[None], spec, np.array([tau]), w)
            assert np.array_equal(est[0, 0], draws.values[b]), b
            _assert_attains_lp(_basis_matrix(spec, res.x), res.y, tau, coef[0, 0])


def test_check_loss_draws_on_a_flat_optimum():
    # the tied local-linear window under the median: with few distinct x and
    # integer counts a draw's check loss is often flat at its optimum, and
    # the descent on count-weighted rows may end on another optimal vertex
    # than the descent on the resampled rows.  Failures, redraws and aborts
    # are still the oracle's, and a draw that differs attains the LP optimum
    # of its resample at every node
    data, spec = list(_failing_cases())[1]
    spec = replace(spec, loss=Loss("quantile", 0.5))
    nodes, differ = spec.eval_axis.coords, 0
    for seed in range(6):
        got = _bootstrap_outcome(bootstrap, data, spec, 40, seed)
        want = _bootstrap_outcome(bootstrap_oracle, data, spec, 40, seed)
        assert got[0] == want[0] and got[3] == want[3]
        if got[0] == "abort":
            continue
        for b in np.flatnonzero(np.any(got[2] != want[2], axis=1)):
            differ += 1
            idx = _settled_resample(data, spec, seed, b)
            res = Dataset(data.x[idx], data.y[idx])
            a, slope = _weighted_loclinear(data, spec, idx)
            assert np.array_equal(a, got[2][b]), (seed, b)
            _assert_exact_lp(res, nodes, spec.bandwidth, spec.loss.tau, a, slope)
    # the flat optima do occur on this data, so the LP check above runs
    assert differ > 0
