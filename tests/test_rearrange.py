import numpy as np
import pytest

from monotonize.errors import (
    AxisOutOfRangeError,
    EmptyInputError,
    EmptyOrderingSetError,
    InfeasibleConstraintError,
    InvalidOrderingError,
    NonEquidistantAxisError,
    NonFiniteValueError,
    OutOfRangeError,
)
from monotonize.grid import INF, is_monotone, lp_distance, make_grid_function
from monotonize.rearrange import (
    all_orderings,
    eta_p,
    rearrange_1d,
    rearrange_average,
    rearrange_axis,
    rearrange_pi,
)

from oracles import rearrange_quantile_oracle

UNIT = [0.0, 1.0]


def _random_values(rng, n):
    # mix continuous draws with a coarse lattice so ties are frequent
    if rng.random() < 0.5:
        return rng.integers(0, 5, n) * 0.5
    return rng.uniform(-3, 3, n)


def test_sorting_matches_quantile_definition():
    rng = np.random.default_rng(7)
    for _ in range(200):
        n = int(rng.integers(1, 13))
        v = _random_values(rng, n)
        out = rearrange_1d(v)
        for i in range(n):
            assert out[i] == rearrange_quantile_oracle(v, (i + 1) / n)


def test_rearrange_1d_hand_values():
    np.testing.assert_array_equal(rearrange_1d([3.0, 1.0, 2.0]), [1.0, 2.0, 3.0])
    np.testing.assert_array_equal(
        rearrange_1d([3.0, 1.0, 2.0], "decreasing"), [3.0, 2.0, 1.0]
    )
    np.testing.assert_array_equal(rearrange_1d([2.0, 2.0, 1.0]), [1.0, 2.0, 2.0])


def test_rearrange_1d_validation():
    with pytest.raises(EmptyInputError):
        rearrange_1d([])
    with pytest.raises(NonFiniteValueError):
        rearrange_1d([1.0, np.nan])
    with pytest.raises(OutOfRangeError):
        rearrange_1d([1.0, 2.0], direction="up")


def test_oracle_validation():
    with pytest.raises(EmptyInputError):
        rearrange_quantile_oracle([], 0.5)
    for x in (0.0, 1.5, -0.1):
        with pytest.raises(OutOfRangeError):
            rearrange_quantile_oracle([1.0, 2.0], x)


def test_rearrangement_preserves_value_multiset():
    rng = np.random.default_rng(11)
    for _ in range(50):
        v = _random_values(rng, int(rng.integers(1, 40)))
        np.testing.assert_array_equal(rearrange_1d(v), np.sort(v))


def test_axis_rearrangement_2x2_fixtures():
    f = make_grid_function([UNIT, UNIT], [[3.0, 1.0], [0.0, 2.0]])
    np.testing.assert_array_equal(
        rearrange_pi(f, (1, 2)).values, [[0.0, 2.0], [1.0, 3.0]]
    )
    np.testing.assert_array_equal(
        rearrange_pi(f, (2, 1)).values, [[0.0, 1.0], [2.0, 3.0]]
    )
    np.testing.assert_array_equal(
        rearrange_average(f).values, [[0.0, 1.5], [1.5, 3.0]]
    )


def test_ordering_composition_applies_last_axis_first():
    rng = np.random.default_rng(3)
    f = make_grid_function(
        [np.linspace(0, 1, 4), np.linspace(0, 1, 5)], rng.uniform(0, 1, (4, 5))
    )
    expect = rearrange_axis(rearrange_axis(f, 1), 2)
    assert rearrange_pi(f, (2, 1)) == expect
    expect = rearrange_axis(rearrange_axis(f, 2), 1)
    assert rearrange_pi(f, (1, 2)) == expect


def test_pi_rearrangement_is_monotone_and_idempotent():
    rng = np.random.default_rng(19)
    for _ in range(25):
        f = make_grid_function(
            [np.linspace(0, 1, 5), np.linspace(0, 1, 6)], rng.normal(size=(5, 6))
        )
        for pi in all_orderings(2):
            out = rearrange_pi(f, pi)
            assert is_monotone(out)
            assert rearrange_pi(out, pi) == out


def test_ordering_validation():
    f = make_grid_function([UNIT, UNIT], np.zeros((2, 2)))
    with pytest.raises(InvalidOrderingError):
        rearrange_pi(f, (1, 1))
    with pytest.raises(AxisOutOfRangeError):
        rearrange_pi(f, (0, 1))
    with pytest.raises(AxisOutOfRangeError):
        rearrange_pi(f, (1, 3))
    with pytest.raises(AxisOutOfRangeError):
        rearrange_axis(f, 5)
    with pytest.raises(InvalidOrderingError):
        rearrange_average(f, orderings=[(1, 2), (1, 2)])
    with pytest.raises(EmptyOrderingSetError):
        rearrange_average(f, orderings=[])


def test_all_orderings_enumeration():
    assert all_orderings(2) == ((1, 2), (2, 1))
    assert len(all_orderings(3)) == 6
    assert all(len(set(pi)) == 3 for pi in all_orderings(3))


def test_high_dimension_needs_explicit_orderings():
    axes = [UNIT] * 4
    f = make_grid_function(axes, np.zeros((2, 2, 2, 2)))
    with pytest.raises(EmptyOrderingSetError):
        rearrange_average(f)
    out = rearrange_average(f, orderings=[(4, 3, 2, 1)])
    assert out.same_grid(f)


def test_rearrangement_refuses_non_equidistant_axis():
    f = make_grid_function([[0.0, 1.0, 3.0]], [3.0, 1.0, 2.0])
    with pytest.raises(NonEquidistantAxisError):
        rearrange_axis(f, 1)


def test_rearrangement_never_increases_error():
    # against a monotone target the rearranged estimate is no further away
    rng = np.random.default_rng(23)
    for _ in range(200):
        n = int(rng.integers(2, 30))
        axis = np.linspace(0, 1, n)
        target = make_grid_function([axis], np.sort(rng.uniform(-2, 2, n)))
        f = target.with_values(target.values + rng.normal(0, 1, n))
        out = rearrange_pi(f, (1,))
        for p in (1.0, 1.5, 2.0, INF):
            assert lp_distance(out, target, p) <= lp_distance(f, target, p) + 1e-10


def test_average_rearrangement_never_increases_error_2d():
    rng = np.random.default_rng(29)
    axes = [np.linspace(0, 1, 4), np.linspace(0, 1, 5)]
    base = np.add.outer(np.sort(rng.uniform(0, 1, 4)), np.sort(rng.uniform(0, 2, 5)))
    target = make_grid_function(axes, base)
    for _ in range(100):
        f = target.with_values(base + rng.normal(0, 0.8, base.shape))
        avg = rearrange_average(f)
        assert is_monotone(avg)
        for p in (1.0, 2.0, INF):
            err_orig = lp_distance(f, target, p)
            err_avg = lp_distance(avg, target, p)
            per_pi = [
                lp_distance(rearrange_pi(f, pi), target, p)
                for pi in all_orderings(2)
            ]
            assert err_avg <= err_orig + 1e-10
            assert err_avg <= np.mean(per_pi) + 1e-10


def test_eta_p_reference_values():
    assert eta_p(UNIT, 0.5, 2) == pytest.approx(0.5, abs=1e-9)
    assert eta_p(UNIT, 1.0, 2) == pytest.approx(2.0, abs=1e-12)
    # p = 1 admits pairs with zero sorting gain, so the constant degenerates
    assert eta_p(UNIT, 0.3, 1) == pytest.approx(0.0, abs=1e-12)
    assert eta_p((0.0, 2.0), 1.0, 2) == pytest.approx(2.0, abs=1e-9)


def test_eta_p_is_positive_for_p_above_one():
    for p in (1.5, 2.0, 3.0):
        assert eta_p(UNIT, 0.25, p, resolution=41) > 0.0


def test_eta_p_validation():
    with pytest.raises(InfeasibleConstraintError):
        eta_p(UNIT, 1.5, 2)
    with pytest.raises(OutOfRangeError):
        eta_p((1.0, 1.0), 0.5, 2)
    with pytest.raises(OutOfRangeError):
        eta_p(UNIT, 0.0, 2)
    with pytest.raises(OutOfRangeError):
        eta_p(UNIT, 0.5, 0.5)
    with pytest.raises(OutOfRangeError):
        eta_p(UNIT, 0.5, INF)
    with pytest.raises(OutOfRangeError):
        eta_p(UNIT, 0.5, 2, resolution=1)


def test_strict_gain_lower_bound_on_crossing_fixture():
    # f crosses the target in opposite directions on the two end nodes:
    # the pair (node 1, node 4) violates monotonicity by eps = 0.5 against a
    # target that increases by more than eps on the same pair, and each node
    # carries measure delta = 1/4.  Sorting must then beat the original
    # squared error by at least delta * eta_2.
    axis = np.linspace(0, 1, 4)
    f = make_grid_function([axis], [1.0, 0.6, 0.4, 0.0])
    target = make_grid_function([axis], [0.0, 0.2, 0.8, 1.0])
    delta, eps = 0.25, 0.5
    out = rearrange_pi(f, (1,))
    np.testing.assert_allclose(out.values, [0.0, 0.4, 0.6, 1.0])
    orig_pow = lp_distance(f, target, 2) ** 2
    rear_pow = lp_distance(out, target, 2) ** 2
    assert orig_pow == pytest.approx(0.58, abs=1e-12)
    assert rear_pow == pytest.approx(0.02, abs=1e-12)
    gain_bound = delta * eta_p(UNIT, eps, 2)
    assert gain_bound == pytest.approx(0.125, abs=1e-9)
    assert rear_pow <= orig_pow - gain_bound + 1e-12


def test_rearrange_average_near_the_float_limit():
    # the two orderings' sum overflows unless the average is taken scaled
    f = make_grid_function([UNIT, UNIT], [[1.7e308, 1.6e308], [1.5e308, 1.0e308]])
    out = rearrange_average(f)
    np.testing.assert_array_equal(out.values, [[1.0e308, 1.5e308], [1.6e308, 1.7e308]])
    for pi in all_orderings(2):
        np.testing.assert_array_equal(
            rearrange_average(f, orderings=[pi]).values, rearrange_pi(f, pi).values
        )


def test_average_over_a_leading_axis_is_the_average_of_each_function():
    # the repair of a block of functions stacked along a leading axis gives
    # each function the bits of its own call, including the scaling that
    # one function near the float limit needs and would cost the bits of
    # another near the subnormal range
    from monotonize.grid import Axis, GriddedFunction
    from monotonize.isotonic import isotonize_average, isotonize_axis
    from monotonize.rearrange import _average

    rng = np.random.default_rng(23)
    axes = [Axis(np.linspace(0.0, 1.0, 4)), Axis(np.linspace(0.0, 1.0, 3))]
    base = rng.normal(size=(4, 3))
    rows = np.stack([base, np.ldexp(base, -1021), base / np.abs(base).max() * 1.7e308])
    block = GriddedFunction([Axis([0.0, 1.0, 2.0]), *axes], rows)
    for axis_op, average in ((rearrange_axis, rearrange_average),
                             (isotonize_axis, isotonize_average)):
        out = _average(block, None, axis_op, lead=1).values
        for i, row in enumerate(rows):
            np.testing.assert_array_equal(out[i], average(GriddedFunction(axes, row)).values)
