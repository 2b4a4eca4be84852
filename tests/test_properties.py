"""Property tests of the axis-by-axis operators and of monotonized bands.

Grids have d = 1..3 axes of 1..4 nodes (singleton axes included), and values
mix a coarse integer lattice, so ties are frequent, with continuous draws.
The shape properties and the L^p error property also run at magnitudes up
to 2^1023, near the float limit.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from monotonize.bands import Band, covers, monotonize_band
from monotonize.grid import INF, is_monotone, lp_distance, lp_length, make_grid_function
from monotonize.isotonic import isotonize_average, isotonize_pi, monotonize
from monotonize.rearrange import rearrange_average, rearrange_pi

# derandomized, so a tier-1 run is reproducible; few examples keep it quick
PROPERTY = settings(max_examples=30, deadline=None, derandomize=True)

PS = (1.0, 2.0, INF)
NEAR_MAX_SCALE = 2.0**1020  # values up to 8 * 2^1020 = 2^1023


@st.composite
def grid_values(draw, shape, lo=-8.0, hi=8.0):
    n = math.prod(shape)
    entry = st.one_of(st.integers(-3, 3).map(float), st.floats(lo, hi))
    return np.array(draw(st.lists(entry, min_size=n, max_size=n))).reshape(shape)


@st.composite
def grids(draw, scales=(1.0,)):
    """A random grid function and one ordering of its axes."""
    d = draw(st.integers(1, 3))
    shape = tuple(draw(st.lists(st.integers(1, 4), min_size=d, max_size=d)))
    values = draw(grid_values(shape)) * draw(st.sampled_from(scales))
    f = make_grid_function([np.linspace(0.0, 1.0, k) for k in shape], values)
    return f, draw(st.permutations(range(1, d + 1)))


@st.composite
def monotone_like(draw, f):
    """A function on f's grid that is weakly increasing in every axis."""
    out = np.zeros(f.shape)
    for j, k in enumerate(f.shape):
        steps = draw(st.lists(st.floats(0.0, 2.0), min_size=k, max_size=k))
        shape = [1] * f.ndim
        shape[j] = k
        out = out + np.cumsum(steps).reshape(shape)
    return f.with_values(out)


def _operators(pi):
    return {
        "rearrange_pi": lambda g: rearrange_pi(g, pi),
        "isotonize_pi": lambda g: isotonize_pi(g, pi),
        "rearrange_average": rearrange_average,
        "isotonize_average": isotonize_average,
        "blend": lambda g: monotonize(g, "blend", lam=0.3),
    }


def _close(a, b, scale):
    np.testing.assert_allclose(a.values, b.values, rtol=1e-12, atol=1e-12 * scale)


@PROPERTY
@given(grids(scales=(1.0, 0.3, NEAR_MAX_SCALE)))
def test_every_operator_output_is_monotone(case):
    f, pi = case
    for name, op in _operators(pi).items():
        assert is_monotone(op(f)), name


@PROPERTY
@given(grids(scales=(1.0, NEAR_MAX_SCALE)))
def test_every_operator_is_idempotent(case):
    f, pi = case
    once = rearrange_pi(f, pi)
    assert rearrange_pi(once, pi) == once  # sorting sorted fibers moves nothing
    scale = max(1.0, float(np.max(np.abs(f.values))))
    for name, op in _operators(pi).items():
        once = op(f)
        _close(op(once), once, scale)


@PROPERTY
@given(grids(scales=(1.0, NEAR_MAX_SCALE)))
def test_pi_operator_equals_average_over_its_one_ordering(case):
    f, pi = case
    assert rearrange_average(f, [pi]) == rearrange_pi(f, pi)
    assert isotonize_average(f, [pi]) == isotonize_pi(f, pi)


@PROPERTY
@given(st.data())
def test_no_operator_increases_lp_error_to_a_monotone_target(data):
    f, pi = data.draw(grids())
    target = data.draw(monotone_like(f))
    noisy = target.with_values(target.values + f.values)
    for p in PS:
        before = lp_distance(noisy, target, p)
        for name, op in _operators(pi).items():
            after = lp_distance(op(noisy), target, p)
            assert after <= before * (1.0 + 1e-10) + 1e-12, (name, p)


@PROPERTY
@given(st.data())
def test_no_operator_increases_lp_error_near_the_float_limit(data):
    f, pi = data.draw(grids())
    base = data.draw(monotone_like(f))
    # |base + f| <= 3 * 8 + 8 = 2^5, so the noisy values reach up to 2^1023;
    # at 2^-1000 the p-th powers of the errors fall below the normal range
    for scale in (2.0**1018, 2.0**-1000):
        noisy = base.with_values((base.values + f.values) * scale)
        target = base.with_values(base.values * scale)
        for p in PS:
            before = lp_distance(noisy, target, p)
            assert math.isfinite(before), p
            for name, op in _operators(pi).items():
                after = lp_distance(op(noisy), target, p)
                assert after <= before * (1.0 + 1e-10) + 1e-12 * scale, (name, p, scale)


@PROPERTY
@given(st.data())
def test_monotonized_band_keeps_order_and_coverage_and_never_grows(data):
    f, _ = data.draw(grids())
    truth = data.draw(monotone_like(f))
    below = np.abs(data.draw(grid_values(f.shape, 0.0, 3.0)))
    above = np.abs(data.draw(grid_values(f.shape, 0.0, 3.0)))
    band = Band(truth.with_values(truth.values - below), truth.with_values(truth.values + above))
    lam = data.draw(st.sampled_from([0.0, 0.4, 1.0]))
    for method in ("rearrange", "isotonize", "blend"):
        mono = monotonize_band(band, method, lam=lam)  # Band checks lower <= upper
        assert covers(mono, truth), method
        for p in PS:
            assert lp_length(mono, p) <= lp_length(band, p) * (1.0 + 1e-10) + 1e-12
