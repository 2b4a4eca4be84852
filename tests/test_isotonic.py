from itertools import combinations_with_replacement

import numpy as np
import pytest

from monotonize.errors import (
    EmptyInputError,
    LambdaOutOfRangeError,
    NonEquidistantAxisError,
    NonFiniteValueError,
    NonPositiveWeightError,
    OutOfRangeError,
    ShapeMismatchError,
)
from monotonize.grid import INF, is_monotone, lp_distance, make_grid_function
from monotonize.isotonic import (
    blend,
    isotonize_average,
    isotonize_axis,
    isotonize_pi,
    monotonize,
    pava,
)
from monotonize.rearrange import rearrange_average

from oracles import IndexOutOfRangeError, isotonic_maxmin_oracle

UNIT = [0.0, 1.0]


def test_pava_hand_values():
    np.testing.assert_allclose(pava([3.0, 1.0, 2.0]), [2.0, 2.0, 2.0])
    np.testing.assert_allclose(pava([1.0, 3.0, 2.0, 4.0]), [1.0, 2.5, 2.5, 4.0])
    np.testing.assert_allclose(pava([3.0, 1.0], weights=[1.0, 3.0]), [1.5, 1.5])


def test_pava_is_identity_on_weakly_increasing_input():
    for v in ([1.0, 1.0, 2.0], [0.0, 0.0, 0.0], [1.0, 2.0, 2.0, 5.0]):
        np.testing.assert_array_equal(pava(v), v)


def test_pava_validation():
    with pytest.raises(EmptyInputError):
        pava([])
    with pytest.raises(NonFiniteValueError):
        pava([1.0, np.inf])
    with pytest.raises(ShapeMismatchError):
        pava([1.0, 2.0], weights=[1.0])
    with pytest.raises(NonPositiveWeightError):
        pava([1.0, 2.0], weights=[1.0, 0.0])
    with pytest.raises(NonFiniteValueError):
        pava([1.0, 2.0], weights=[1.0, np.nan])


def test_maxmin_oracle_validation():
    with pytest.raises(IndexOutOfRangeError):
        isotonic_maxmin_oracle([1.0, 2.0], 2)
    with pytest.raises(IndexOutOfRangeError):
        isotonic_maxmin_oracle([1.0, 2.0], -1)


def test_pava_matches_maxmin_oracle_exhaustive_small():
    rng = np.random.default_rng(5)
    for _ in range(50):
        n = int(rng.integers(1, 9))
        v = rng.normal(size=n)
        w = rng.uniform(0.2, 3.0, n)
        out = pava(v, w)
        for i in range(n):
            assert out[i] == pytest.approx(
                isotonic_maxmin_oracle(v, i, w), abs=1e-10
            )


def test_pava_matches_maxmin_oracle_sampled_indices():
    rng = np.random.default_rng(13)
    for _ in range(200):
        n = int(rng.integers(2, 41))
        v = rng.normal(size=n) if rng.random() < 0.5 else rng.integers(0, 4, n) * 1.0
        w = rng.uniform(0.1, 5.0, n)
        out = pava(v, w)
        for i in rng.integers(0, n, 5):
            assert out[i] == pytest.approx(
                isotonic_maxmin_oracle(v, int(i), w), abs=1e-10
            )


def test_pava_output_is_monotone_and_mean_preserving():
    rng = np.random.default_rng(17)
    for _ in range(200):
        n = int(rng.integers(1, 50))
        v = rng.normal(0, 2, n)
        w = rng.uniform(0.5, 2.0, n)
        out = pava(v, w)
        assert np.all(np.diff(out) >= 0.0)
        assert np.dot(w, out) == pytest.approx(np.dot(w, v), rel=1e-12, abs=1e-12)


def test_pava_idempotent():
    rng = np.random.default_rng(23)
    for _ in range(50):
        v = rng.normal(size=int(rng.integers(1, 30)))
        out = pava(v)
        np.testing.assert_allclose(pava(out), out, atol=1e-14)


def test_pava_beats_every_lattice_candidate():
    # pava is the exact weighted L2 projection, so no weakly increasing
    # vector on a 0.05 lattice of the value range can fit the input better
    rng = np.random.default_rng(31)
    step = 0.05
    for _ in range(30):
        n = int(rng.integers(2, 6))
        v = rng.integers(0, 21, n) * step
        if v.max() == v.min():
            continue
        w = rng.integers(1, 4, n) * 0.5
        count = int(round((v.max() - v.min()) / step)) + 1
        lattice = v.min() + step * np.arange(count)
        cands = np.array(list(combinations_with_replacement(lattice, n)))
        sse = ((cands - v) ** 2 * w).sum(axis=1)
        sse_pava = float(((pava(v, w) - v) ** 2 * w).sum())
        assert sse_pava <= sse.min() + 1e-12


def test_pava_preserves_pointwise_order():
    rng = np.random.default_rng(37)
    for _ in range(100):
        n = int(rng.integers(1, 25))
        g = rng.normal(size=n)
        m = g + rng.uniform(0, 2, n)
        w = rng.uniform(0.5, 2.0, n)
        assert np.all(pava(g, w) <= pava(m, w) + 1e-12)


def test_isotonize_pi_2x2_fixture():
    f = make_grid_function([UNIT, UNIT], [[1.0, 3.0], [2.0, 0.0]])
    out = isotonize_pi(f, (1, 2))
    np.testing.assert_allclose(out.values, [[1.0, 2.0], [1.0, 2.0]])
    out = isotonize_pi(f, (2, 1))
    np.testing.assert_allclose(out.values, [[1.0, 1.5], [1.75, 1.75]])
    avg = isotonize_average(f)
    np.testing.assert_allclose(avg.values, [[1.0, 1.75], [1.375, 1.875]])


def test_isotonize_pi_reduces_to_pava_in_1d():
    rng = np.random.default_rng(41)
    v = rng.normal(size=9)
    f = make_grid_function([np.linspace(0, 1, 9)], v)
    np.testing.assert_array_equal(isotonize_pi(f, (1,)).values, pava(v))


def test_isotonize_pi_is_monotone_and_idempotent():
    rng = np.random.default_rng(43)
    for _ in range(25):
        f = make_grid_function(
            [np.linspace(0, 1, 4), np.linspace(0, 1, 5)], rng.normal(size=(4, 5))
        )
        for pi in ((1, 2), (2, 1)):
            out = isotonize_pi(f, pi)
            assert is_monotone(out)
            np.testing.assert_allclose(
                isotonize_pi(out, pi).values, out.values, atol=1e-12
            )
        assert is_monotone(isotonize_average(f))


def test_isotonize_refuses_non_equidistant_axis():
    f = make_grid_function([[0.0, 1.0, 3.0]], [3.0, 1.0, 2.0])
    with pytest.raises(NonEquidistantAxisError):
        isotonize_axis(f, 1)


def test_isotonization_never_increases_error():
    rng = np.random.default_rng(47)
    for _ in range(200):
        n = int(rng.integers(2, 30))
        axis = np.linspace(0, 1, n)
        target = make_grid_function([axis], np.sort(rng.uniform(-2, 2, n)))
        f = target.with_values(target.values + rng.normal(0, 1, n))
        out = isotonize_pi(f, (1,))
        for p in (1.0, 2.0, INF):
            assert lp_distance(out, target, p) <= lp_distance(f, target, p) + 1e-10


def test_blend_hand_value():
    a = make_grid_function([UNIT], [1.0, 2.0])
    b = make_grid_function([UNIT], [1.5, 1.5])
    np.testing.assert_allclose(blend(a, b, 0.5).values, [1.25, 1.75])
    assert blend(a, b, 1.0) == a
    assert blend(a, b, 0.0) == b


def test_blend_validation():
    a = make_grid_function([UNIT], [1.0, 2.0])
    b = make_grid_function([[0.0, 2.0]], [1.0, 2.0])
    with pytest.raises(LambdaOutOfRangeError):
        blend(a, a, 1.5)
    with pytest.raises(LambdaOutOfRangeError):
        blend(a, a, -0.1)
    from monotonize.errors import GridMismatchError

    with pytest.raises(GridMismatchError):
        blend(a, b, 0.5)


def test_blend_never_increases_error():
    rng = np.random.default_rng(53)
    for _ in range(100):
        n = int(rng.integers(2, 25))
        axis = np.linspace(0, 1, n)
        target = make_grid_function([axis], np.sort(rng.uniform(-2, 2, n)))
        f = target.with_values(target.values + rng.normal(0, 1, n))
        err = {p: lp_distance(f, target, p) for p in (1.0, 2.0, INF)}
        for lam in (0.0, 0.25, 0.5, 0.75, 1.0):
            out = monotonize(f, method="blend", lam=lam)
            assert is_monotone(out)
            for p in (1.0, 2.0, INF):
                assert lp_distance(out, target, p) <= err[p] + 1e-10


def test_monotonize_dispatch():
    rng = np.random.default_rng(59)
    f = make_grid_function([np.linspace(0, 1, 6)], rng.normal(size=6))
    assert monotonize(f, "rearrange") == rearrange_average(f)
    assert monotonize(f, "isotonize") == isotonize_average(f)
    assert monotonize(f, "blend", lam=1.0) == rearrange_average(f)
    assert monotonize(f, "blend", lam=0.0) == isotonize_average(f)
    half = monotonize(f, "blend", lam=0.5)
    np.testing.assert_allclose(
        half.values,
        0.5 * rearrange_average(f).values + 0.5 * isotonize_average(f).values,
    )
    with pytest.raises(OutOfRangeError):
        monotonize(f, "sort")
    with pytest.raises(LambdaOutOfRangeError):
        monotonize(f, "blend", lam=2.0)


# --- magnitudes near the float limit ------------------------------------------

NEAR_MAX = [[1.7e308, 1.6e308], [1.5e308, 1.0e308]]


def test_pava_pools_near_the_float_limit():
    mean = 1.7e308 / 2 + 1.6e308 / 2  # the exact mean, rounded once
    np.testing.assert_array_equal(pava([1.7e308, 1.6e308]), [mean, mean])
    # the weighted products overflow too when the weights are huge
    np.testing.assert_allclose(
        pava([1.7e308, 1.6e308], weights=[1e308, 1e308]), [mean, mean], rtol=1e-15
    )
    np.testing.assert_array_equal(pava([3.0, 1.0], weights=[1e308, 1e308]), [2.0, 2.0])


def test_pava_scaling_changes_no_bits_at_normal_magnitudes():
    rng = np.random.default_rng(61)
    for _ in range(50):
        n = int(rng.integers(1, 40))
        v = rng.normal(size=n) * 10.0 ** rng.integers(-300, 300)
        w = rng.uniform(0.1, 3.0, n) * 10.0 ** rng.integers(-5, 5)
        out = pava(v, w)
        # the unscaled pooling, written out
        blocks = []
        for x, wx in zip(v, w):
            blocks.append([x, wx, 1])
            while len(blocks) > 1 and blocks[-2][0] > blocks[-1][0]:
                (m1, w1, c1), (m2, w2, c2) = blocks[-2], blocks.pop()
                blocks[-1] = [(m1 * w1 + m2 * w2) / (w1 + w2), w1 + w2, c1 + c2]
        expect = np.repeat([b[0] for b in blocks], [b[2] for b in blocks])
        np.testing.assert_array_equal(out, expect)


def test_isotonize_average_near_the_float_limit():
    f = make_grid_function([UNIT, UNIT], NEAR_MAX)
    out = isotonize_average(f)
    np.testing.assert_allclose(out.values, np.full((2, 2), 1.45e308), rtol=1e-15)
    assert is_monotone(out)
