import math
import warnings

import numpy as np
import pytest

from monotonize.bands import assemble_band
from monotonize.errors import (
    GridMismatchError,
    NonFiniteValueError,
    NonIncreasingAxisError,
    OutOfRangeError,
    ShapeMismatchError,
)
from monotonize.estimators import MEAN_LOSS, EstimatorSpec, basis_eval
from monotonize.grid import (
    INF,
    Axis,
    GriddedFunction,
    _distinct,
    _lp_rows,
    check_p,
    is_monotone,
    lp_distance,
    lp_length,
    make_grid_function,
    VALUE_RTOL,
    value_tol,
)
from monotonize.isotonic import blend, monotonize
from monotonize.rearrange import eta_p


def test_axis_rejects_non_increasing_coords():
    with pytest.raises(NonIncreasingAxisError):
        Axis([0.0, 1.0, 1.0])
    with pytest.raises(NonIncreasingAxisError):
        Axis([0.0, 2.0, 1.0])


def test_axis_rejects_non_finite_coords():
    with pytest.raises(NonFiniteValueError):
        Axis([0.0, np.nan])
    with pytest.raises(NonFiniteValueError):
        Axis([0.0, np.inf])


def test_axis_single_node_is_allowed():
    a = Axis([0.25])
    assert len(a) == 1
    assert a.equidistant
    np.testing.assert_allclose(a.node_weights(), [1.0])


def test_axis_equidistant_detection():
    assert Axis(np.linspace(0, 1, 7)).equidistant
    assert not Axis([0.0, 1.0, 3.0]).equidistant
    # gaps differing only at float noise still count as equidistant
    coords = np.linspace(2, 20, 533)
    assert Axis(coords).equidistant


def test_equidistant_axis_weights_are_equal():
    w = Axis(np.linspace(0, 1, 5)).node_weights()
    np.testing.assert_allclose(w, np.full(5, 0.2))
    assert w.sum() == pytest.approx(1.0)


def test_non_equidistant_axis_weights_are_trapezoid():
    w = Axis([0.0, 1.0, 3.0]).node_weights()
    np.testing.assert_allclose(w, [0.5 / 3, 1.5 / 3, 1.0 / 3])
    assert w.sum() == pytest.approx(1.0)


def test_axis_weights_sum_to_one_random():
    rng = np.random.default_rng(42)
    for _ in range(200):
        n = int(rng.integers(2, 30))
        coords = np.sort(rng.uniform(-5, 5, n))
        if np.any(np.diff(coords) <= 0):
            continue
        w = Axis(coords).node_weights()
        assert w.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(w > 0)


def test_grid_function_validates_shape_and_values():
    with pytest.raises(ShapeMismatchError):
        GriddedFunction([Axis([0.0, 1.0])], np.zeros((2, 2)))
    with pytest.raises(NonFiniteValueError):
        GriddedFunction([Axis([0.0, 1.0])], [0.0, np.nan])


def test_grid_function_values_are_read_only():
    f = make_grid_function([[0.0, 1.0]], [1.0, 2.0])
    with pytest.raises(ValueError):
        f.values[0] = 5.0


def test_with_values_keeps_grid():
    f = make_grid_function([[0.0, 1.0]], [1.0, 2.0])
    g = f.with_values([3.0, 4.0])
    assert f.same_grid(g)
    assert f != g
    assert g == make_grid_function([[0.0, 1.0]], [3.0, 4.0])


def test_check_p_accepts_one_two_inf():
    for p in (1.0, 1.5, 2.0, INF):
        check_p(p)
    for p in (0.5, 0.0, -1.0, np.nan):
        with pytest.raises(OutOfRangeError):
            check_p(p)


def test_lp_distance_hand_values():
    f = make_grid_function([[0.0, 0.5, 1.0]], [3.0, 1.0, 2.0])
    g = make_grid_function([[0.0, 0.5, 1.0]], [0.0, 1.0, 2.0])
    assert lp_distance(f, g, 1) == pytest.approx(1.0)
    assert lp_distance(f, g, 2) == pytest.approx(math.sqrt(3.0))
    assert lp_distance(f, g, INF) == pytest.approx(3.0)


def test_lp_distance_2d_hand_value():
    axes = [[0.0, 1.0], [0.0, 1.0]]
    f = make_grid_function(axes, [[1.0, 3.0], [2.0, 0.0]])
    g = make_grid_function(axes, [[0.0, 0.0], [0.0, 0.0]])
    assert lp_distance(f, g, 1) == pytest.approx((1 + 3 + 2 + 0) / 4)
    assert lp_distance(f, g, 2) == pytest.approx(math.sqrt((1 + 9 + 4) / 4))
    assert lp_distance(f, g, INF) == pytest.approx(3.0)


def test_lp_distance_requires_same_grid():
    f = make_grid_function([[0.0, 1.0]], [1.0, 2.0])
    g = make_grid_function([[0.0, 2.0]], [1.0, 2.0])
    with pytest.raises(GridMismatchError):
        lp_distance(f, g, 2)


def test_lp_distance_non_equidistant_uses_trapezoid_weights():
    f = make_grid_function([[0.0, 1.0, 3.0]], [1.0, 1.0, 1.0])
    g = make_grid_function([[0.0, 1.0, 3.0]], [0.0, 0.0, 0.0])
    # all deviations are 1, so every p gives 1 under normalized weights
    assert lp_distance(f, g, 1) == pytest.approx(1.0)
    assert lp_distance(f, g, 2) == pytest.approx(1.0)


def test_lp_length_band_fixture():
    class _Pair:
        lower = make_grid_function([[0.0, 1.0]], [1.0, 0.0])
        upper = make_grid_function([[0.0, 1.0]], [2.0, 3.0])

    assert lp_length(_Pair, 1) == pytest.approx(2.0)
    assert lp_length(_Pair, 2) == pytest.approx(math.sqrt(5.0))
    assert lp_length(_Pair, INF) == pytest.approx(3.0)


def test_is_monotone_1d_and_2d():
    assert is_monotone(make_grid_function([[0.0, 1.0, 2.0]], [1.0, 1.0, 2.0]))
    assert not is_monotone(make_grid_function([[0.0, 1.0, 2.0]], [1.0, 0.5, 2.0]))
    axes = [[0.0, 1.0], [0.0, 1.0]]
    assert is_monotone(make_grid_function(axes, [[0.0, 1.0], [2.0, 3.0]]))
    assert not is_monotone(make_grid_function(axes, [[0.0, 2.0], [1.0, 1.5]]))


def test_is_monotone_tolerates_float_noise():
    f = make_grid_function([[0.0, 1.0]], [1.0, 1.0 - 1e-14])
    assert is_monotone(f)


def test_value_tol_scales_with_span():
    assert value_tol(np.array([0.0, 1.0])) == pytest.approx(1e-12)
    assert value_tol(np.array([0.0, 1e6])) == pytest.approx(1e-6)


def test_value_tol_stays_finite_near_the_float_limit():
    # hi - lo overflows to inf here, which used to make every comparison pass
    assert value_tol(np.array([-1e308, 1e308])) == pytest.approx(2e-12 * 1e308)
    assert not is_monotone(make_grid_function([[0.0, 1.0, 2.0]], [1e308, -1e308, 0.0]))
    assert is_monotone(make_grid_function([[0.0, 1.0]], [-1e308, 1e308]))
    # at ordinary magnitudes the tolerance keeps its bits
    rng = np.random.default_rng(67)
    for lo, hi in rng.normal(0.0, 1e3, (200, 2)):
        expect = VALUE_RTOL * max(1.0, max(lo, hi) - min(lo, hi))
        assert value_tol(np.array([lo, hi])) == expect


def test_lp_distance_stays_finite_near_the_float_limit():
    unit = [[0.0, 1.0]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no overflow warning from numpy
        # values 1e200 apart: their squares overflow unless scaled
        f = make_grid_function(unit, [1e200, -1e200])
        g = make_grid_function(unit, [0.0, 0.0])
        assert lp_distance(f, g, 2) == pytest.approx(1e200, rel=1e-15)
        # f - g overflows at one node, but the mean of |f - g|^p is finite
        f = make_grid_function(unit, [1.7e308, 0.0])
        g = make_grid_function(unit, [-1.7e308, 0.0])
        assert lp_distance(f, g, 1) == pytest.approx(1.7e308, rel=1e-15)
        f = make_grid_function(unit, [1e308, 0.0])
        g = make_grid_function(unit, [-1e308, 0.0])
        assert lp_distance(f, g, 2) == pytest.approx(math.sqrt(2.0) * 1e308, rel=1e-15)
        # here every |f - g| is 3.4e308, beyond the float range: the L^1 and
        # L^inf distances are too, and they read inf
        f = make_grid_function(unit, [1.7e308, -1.7e308])
        g = make_grid_function(unit, [-1.7e308, 1.7e308])
        assert lp_distance(f, g, 1) == math.inf
        assert lp_distance(f, g, INF) == math.inf


def test_lp_distance_does_not_underflow():
    unit = [[0.0, 1.0]]
    zero = make_grid_function(unit, [0.0, 0.0])
    # the largest |f - g|^p falls below the normal range in every case but
    # the first, where the closed form a * 0.5^(1/p) is computed directly
    for a, ps in ((1e-300, (1.0, 2.0, 3.0)), (3.0, (2.0, 1100.0, 5000.0))):
        f = make_grid_function(unit, [a, 0.0])
        for p in ps:
            assert lp_distance(f, zero, p) == pytest.approx(a * 0.5 ** (1.0 / p), rel=1e-15)


def test_lp_distance_keeps_its_bits_at_ordinary_magnitudes():
    rng = np.random.default_rng(71)
    axes = [np.linspace(0.0, 1.0, 7), [0.0, 1.0, 3.0]]
    for scale in (1e-3, 1.0, 1e3, 1e150):
        f = make_grid_function(axes, rng.normal(0.0, scale, (7, 3)))
        g = make_grid_function(axes, rng.normal(0.0, scale, (7, 3)))
        diff = np.abs(f.values - g.values)
        for p in (1.0, 1.5, 2.0):
            acc = diff**p
            for ax in f.axes:
                acc = np.tensordot(ax.node_weights(), acc, axes=(0, 0))
            assert lp_distance(f, g, p) == float(acc) ** (1.0 / p)
        assert lp_distance(f, g, INF) == float(diff.max())


def test_axis_with_gaps_beyond_the_float_range():
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no overflow warning from numpy
        # the gap, 3.4e308, and the span overflow unless scaled
        axis = Axis([-1.7e308, 1.7e308])
        assert axis.equidistant
        np.testing.assert_array_equal(axis.node_weights(), [0.5, 0.5])
        axis = Axis([-1.7e308, 0.0, 1.7e308])
        assert axis.equidistant
        axis = Axis([-1.7e308, 1e308, 1.7e308])
        assert not axis.equidistant
        weights = axis.node_weights()
        assert weights.sum() == pytest.approx(1.0, rel=1e-15)
        np.testing.assert_allclose(weights, [2.7 / 6.8, 3.4 / 6.8, 0.7 / 6.8], rtol=1e-15)


def test_axis_keeps_its_bits_at_ordinary_magnitudes():
    rng = np.random.default_rng(73)
    for scale in (1e-3, 1.0, 1e3, 1e300):
        c = np.sort(rng.normal(0.0, scale, 9))
        w = np.empty(9)
        w[0], w[-1] = (c[1] - c[0]) / 2.0, (c[-1] - c[-2]) / 2.0
        w[1:-1] = (c[2:] - c[:-2]) / 2.0
        np.testing.assert_array_equal(Axis(c).node_weights(), w / (c[-1] - c[0]))


def test_lp_rows_are_lp_distance_row_by_row_across_magnitudes():
    # rows 2^1000 apart in magnitude: one needs no scaling, one scales its
    # powers down, one divides by its largest difference, one subtracts
    # after scaling, and one has no difference at all
    rng = np.random.default_rng(17)
    axes = [Axis(np.linspace(0.0, 1.0, 5)), Axis([0.0, 0.3, 1.0, 1.5])]
    base = rng.normal(size=(2, 5, 4))
    a = np.stack([base[0], np.ldexp(base[0], 1000), np.ldexp(base[0], -1000),
                  np.full((5, 4), 1.7e308), base[0]])
    b = np.stack([base[1], np.ldexp(base[1], 1000), np.ldexp(base[1], -1000),
                  np.full((5, 4), -1.7e308), base[0]])
    for p in (1.0, 2.0, 3.5, INF):
        rows = _lp_rows(a, b, axes, p)
        shared = _lp_rows(a, b[:1], axes, p)
        for i in range(len(a)):
            f, g = GriddedFunction(axes, a[i]), GriddedFunction(axes, b[i])
            assert rows[i] == lp_distance(f, g, p)
            assert shared[i] == lp_distance(f, GriddedFunction(axes, b[0]), p)


def test_distinct_is_np_unique_bit_for_bit():
    # signed zeros compare equal, and np.unique keeps the first one after
    # its sort; NaNs count as one value
    rng = np.random.default_rng(59)
    for _ in range(300):
        a = rng.choice([-0.0, 0.0, 1.0, -2.5, 3.0, np.nan, -np.inf], size=rng.integers(0, 40))
        got, want = _distinct(a), np.unique(a)
        assert np.array_equal(got, want, equal_nan=True)
        assert np.array_equal(np.signbit(got), np.signbit(want))


_F = GriddedFunction([Axis([0.0, 1.0, 2.0])], [0.0, 2.0, 1.0])
_SERIES = EstimatorSpec("fourier", MEAN_LOSS, Axis([0.0, 0.5, 1.0]), n_terms=1)


@pytest.mark.parametrize(
    "call, value",
    [
        pytest.param(lambda v: eta_p((0, 1), 0.5, 2, resolution=v), 2.9, id="eta_p-resolution-2.9"),
        pytest.param(lambda v: eta_p((0, 1), v, 2), "0.5", id="eta_p-epsilon-str"),
        pytest.param(lambda v: lp_distance(_F, _F, v), True, id="lp_distance-True"),
        pytest.param(lambda v: lp_distance(_F, _F, v), "2", id="lp_distance-str"),
        pytest.param(lambda v: lp_distance(_F, _F, v), None, id="lp_distance-None"),
        pytest.param(check_p, True, id="check_p-True"),
        pytest.param(check_p, "2", id="check_p-str"),
        pytest.param(check_p, None, id="check_p-None"),
        pytest.param(lambda v: blend(_F, _F, v), True, id="blend-True"),
        pytest.param(lambda v: blend(_F, _F, v), "0.5", id="blend-str"),
        pytest.param(lambda v: monotonize(_F, "blend", lam=v), True, id="monotonize-True"),
        pytest.param(lambda v: monotonize(_F, "blend", lam=v), "0.5", id="monotonize-str"),
        pytest.param(lambda v: basis_eval(_SERIES, v), True, id="basis_eval-True"),
        pytest.param(lambda v: basis_eval(_SERIES, v), "0.5", id="basis_eval-str"),
        pytest.param(lambda v: basis_eval(_SERIES, v), None, id="basis_eval-None"),
        pytest.param(lambda v: basis_eval(_SERIES, v), [0.5], id="basis_eval-list"),
        pytest.param(lambda v: assemble_band(_F, _F, v), "2", id="assemble_band-str"),
    ],
)
def test_public_scalars_follow_the_number_rule(call, value):
    # a bool, a string, None or a list is never a number, and a count such
    # as eta_p's resolution is a whole number
    with pytest.raises(OutOfRangeError):
        call(value)
