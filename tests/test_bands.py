import math
import sys
import warnings

import numpy as np
import pytest

from monotonize.bands import (
    Band,
    assemble_band,
    covers,
    critical_value_max_t,
    max_t,
    monotonize_band,
    order_statistic_quantile,
)
from monotonize.errors import (
    AllNodesDegenerateError,
    CrossingBandError,
    GridMismatchError,
    NegativeStderrError,
    OutOfRangeError,
    TooFewDrawsError,
)
from monotonize.grid import INF, lp_length, make_grid_function
from monotonize.rearrange import eta_p

UNIT = [0.0, 1.0]


def _band(axis, lower, upper):
    return Band(
        make_grid_function([axis], lower), make_grid_function([axis], upper)
    )


def test_band_rejects_crossing_endpoints():
    with pytest.raises(CrossingBandError):
        _band(UNIT, [1.0, 0.0], [0.5, 3.0])


def test_band_accepts_touching_endpoints():
    b = _band(UNIT, [1.0, 2.0], [1.0, 2.0])
    assert lp_length(b, 2) == 0.0
    # crossings at float-noise scale are tolerated
    _band(UNIT, [1.0, 2.0], [1.0 - 1e-14, 2.0])


def test_band_requires_shared_grid():
    with pytest.raises(GridMismatchError):
        Band(
            make_grid_function([UNIT], [0.0, 0.0]),
            make_grid_function([[0.0, 2.0]], [1.0, 1.0]),
        )


def test_assemble_band_validation():
    center = make_grid_function([UNIT], [1.0, 2.0])
    stderr = make_grid_function([UNIT], [0.5, 1.0])
    assemble_band(center, stderr, 0.0)
    with pytest.raises(NegativeStderrError):
        assemble_band(center, stderr.with_values([-0.5, 1.0]), 2.0)
    with pytest.raises(OutOfRangeError):
        assemble_band(center, stderr, -1.0)
    with pytest.raises(OutOfRangeError):
        assemble_band(center, stderr, math.nan)
    with pytest.raises(GridMismatchError):
        assemble_band(center, make_grid_function([[0.0, 2.0]], [0.5, 1.0]), 2.0)


def test_assemble_band_hand_value():
    center = make_grid_function([UNIT], [1.0, 2.0])
    stderr = make_grid_function([UNIT], [0.5, 1.0])
    band = assemble_band(center, stderr, 2.0)
    np.testing.assert_allclose(band.lower.values, [0.0, 0.0])
    np.testing.assert_allclose(band.upper.values, [2.0, 4.0])


def test_order_statistic_quantile_rule():
    rng = np.random.default_rng(2)
    values = rng.permutation(np.arange(1.0, 101.0))
    # (1 - 0.1) * 100 lands a hair above 90 in floats; the rule must still
    # pick the 90-th order statistic
    assert order_statistic_quantile(values, 0.1) == 90.0
    assert order_statistic_quantile(values, 0.0) == 100.0
    assert order_statistic_quantile(values, 0.995) == 1.0
    assert order_statistic_quantile([0.5, 1.0, 2.0], 0.5) == 1.0
    assert order_statistic_quantile([3.0], 0.3) == 3.0


def test_order_statistic_quantile_validation():
    with pytest.raises(TooFewDrawsError):
        order_statistic_quantile([], 0.1)
    for alpha in (1.0, -0.1, 1.5, "x", "0.1", True):
        with pytest.raises(OutOfRangeError):
            order_statistic_quantile([1.0, 2.0], alpha)


def test_critical_value_max_t_hand_case():
    center = make_grid_function([UNIT], [0.0, 0.0])
    stderr = make_grid_function([UNIT], [1.0, 2.0])
    draws = [
        center.with_values([1.0, 0.0]),
        center.with_values([-2.0, 0.0]),
        center.with_values([0.0, 4.0]),
    ]
    # per-draw max-t statistics are [1, 2, 2]
    assert critical_value_max_t(center, draws, stderr, 0.1) == 2.0
    assert critical_value_max_t(center, draws, stderr, 0.9) == 1.0


def test_critical_value_max_t_excludes_degenerate_nodes():
    center = make_grid_function([UNIT], [0.0, 0.0])
    stderr = make_grid_function([UNIT], [1e-15, 1.0])
    draws = [center.with_values([5.0, 1.0]), center.with_values([5.0, 2.0])]
    with pytest.warns(RuntimeWarning):
        crit = critical_value_max_t(center, draws, stderr, 0.0)
    assert crit == 2.0


def test_critical_value_max_t_degenerate_everywhere():
    center = make_grid_function([UNIT], [0.0, 0.0])
    stderr = make_grid_function([UNIT], [0.0, 0.0])
    draws = [center.with_values([1.0, 1.0]), center.with_values([2.0, 2.0])]
    with pytest.raises(AllNodesDegenerateError):
        critical_value_max_t(center, draws, stderr, 0.1)


def test_critical_value_max_t_needs_two_draws():
    center = make_grid_function([UNIT], [0.0, 0.0])
    stderr = make_grid_function([UNIT], [1.0, 1.0])
    with pytest.raises(TooFewDrawsError):
        critical_value_max_t(center, [center], stderr, 0.1)


def test_monotonize_band_fixture():
    band = _band(UNIT, [1.0, 0.0], [2.0, 3.0])
    truth = make_grid_function([UNIT], [0.5, 2.5])
    assert lp_length(band, 2) == pytest.approx(math.sqrt(5.0), abs=1e-12)
    assert lp_length(band, 1) == pytest.approx(2.0, abs=1e-12)
    assert not covers(band, truth)
    out = monotonize_band(band, "rearrange")
    np.testing.assert_allclose(out.lower.values, [0.0, 1.0])
    np.testing.assert_allclose(out.upper.values, [2.0, 3.0])
    assert lp_length(out, 2) == pytest.approx(2.0, abs=1e-12)
    assert lp_length(out, 1) == pytest.approx(2.0, abs=1e-12)
    assert covers(out, truth)


def test_band_shortening_beats_strict_gain_bound_1d():
    # the end-points disagree in direction by eps = 0.5 on end node pairs of
    # measure delta = 1/4 each, so the squared L2 length must drop by at
    # least delta * eta_2
    axis = np.linspace(0, 1, 4)
    band = _band(axis, [1.0, 0.6, 0.4, 0.0], [2.0, 2.6, 2.8, 3.2])
    out = monotonize_band(band, "rearrange")
    orig_pow = lp_length(band, 2) ** 2
    new_pow = lp_length(out, 2) ** 2
    assert orig_pow == pytest.approx(5.25, abs=1e-12)
    assert new_pow == pytest.approx(4.63, abs=1e-12)
    bound = 0.25 * eta_p(UNIT, 0.5, 2)
    assert new_pow <= orig_pow - bound + 1e-12


def test_band_shortening_beats_strict_gain_bound_2d():
    axes = [UNIT, UNIT]
    band = Band(
        make_grid_function(axes, [[1.0, 0.0], [0.0, 1.0]]),
        make_grid_function(axes, [[1.0, 1.5], [2.0, 2.0]]),
    )
    out = monotonize_band(band, "rearrange", orderings=[(2, 1)])
    orig_pow = lp_length(band, 2) ** 2
    new_pow = lp_length(out, 2) ** 2
    assert orig_pow == pytest.approx(1.8125, abs=1e-12)
    assert new_pow == pytest.approx(1.3125, abs=1e-12)
    bound = 0.5 * 0.25 * eta_p(UNIT, 0.5, 2)
    assert new_pow <= orig_pow - bound + 1e-12


def test_monotonize_band_preserves_order_and_coverage():
    rng = np.random.default_rng(61)
    for _ in range(100):
        n = int(rng.integers(2, 25))
        axis = np.linspace(0, 1, n)
        truth = make_grid_function([axis], np.sort(rng.uniform(-2, 2, n)))
        lower = truth.with_values(truth.values - rng.uniform(0.05, 1.0, n))
        upper = truth.with_values(truth.values + rng.uniform(0.05, 1.0, n))
        band = Band(lower, upper)
        assert covers(band, truth)
        for method, lam in (("rearrange", 0.5), ("isotonize", 0.5), ("blend", 0.3)):
            out = monotonize_band(band, method, lam=lam)
            assert np.all(out.lower.values <= out.upper.values + 1e-12)
            assert covers(out, truth)
            for p in (1.0, 2.0, INF):
                assert lp_length(out, p) <= lp_length(band, p) + 1e-10


def test_covers_is_tolerance_padded():
    band = _band(UNIT, [0.0, 0.0], [1.0, 1.0])
    inside = make_grid_function([UNIT], [0.5, 0.5])
    below = make_grid_function([UNIT], [-1e-14, 0.5])
    outside = make_grid_function([UNIT], [-0.5, 0.5])
    assert covers(band, inside)
    assert covers(band, below)
    assert not covers(band, outside)
    with pytest.raises(GridMismatchError):
        covers(band, make_grid_function([[0.0, 2.0]], [0.5, 0.5]))


def test_band_rejects_crossing_endpoints_near_the_float_limit():
    with pytest.raises(CrossingBandError):
        _band(UNIT, [1e308, 0.0], [-1e308, 1.0])


def test_band_and_covers_decide_exactly_near_the_float_maximum():
    big = sys.float_info.max
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no overflow warning from numpy
        # upper + tol and lower - tol pass the float maximum at one node each
        band = _band(UNIT, [-big, 0.0], [0.0, big])
        assert covers(band, make_grid_function([UNIT], [-big, big]))
        assert covers(band, make_grid_function([UNIT], [-big / 2, big / 2]))
        assert not covers(band, make_grid_function([UNIT], [big / 2, big]))
        assert not covers(band, make_grid_function([UNIT], [-big, -big / 2]))
        with pytest.raises(CrossingBandError):
            _band(UNIT, [big, 0.0], [-big, big])


def test_max_t_skips_degenerate_nodes():
    center = make_grid_function([[0.0, 0.5, 1.0]], [0.0, 1.0, 2.0])
    stderr = center.with_values([2.0, 0.0, 0.5])
    f = center.with_values([-4.0, 100.0, 2.5])
    # |f - center| / stderr is 2 and 1 on the two nodes with a usable stderr
    assert max_t(center, f, stderr) == 2.0
    with pytest.raises(AllNodesDegenerateError):
        max_t(center, f, stderr.with_values([0.0, 1e-12, 0.0]))
    with pytest.raises(GridMismatchError):
        max_t(center, make_grid_function([[0.0, 0.5, 2.0]], [0.0, 0.0, 0.0]), stderr)
