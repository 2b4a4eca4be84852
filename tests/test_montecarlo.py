import csv
import json
import math
from pathlib import Path

import numpy as np
import pytest
from scipy.special import ndtri
from scipy.stats import norm

from monotonize import estimators, montecarlo
from monotonize.errors import (
    AllNodesDegenerateError,
    EmptyInputError,
    ImprovementViolationError,
    NonFiniteValueError,
    NonIncreasingAxisError,
    OutOfRangeError,
    ShapeMismatchError,
)
from monotonize.estimators import MEAN_LOSS, EstimatorSpec
from monotonize.grid import Axis
from monotonize.rearrange import rearrange_axis
from monotonize.montecarlo import (
    AGE_RANGE,
    DEFAULT_KNOTS,
    BENCHMARK_BETA,
    BENCHMARK_BOOTSTRAP_B,
    BENCHMARK_N,
    BENCHMARK_REPS,
    McConfig,
    config_from_dict,
    default_estimators,
    design_vector,
    desk_tau_net,
    full_tau_net,
    parse_tau_net,
    run_experiment,
    simulate_rep,
    true_cef,
    true_cqf,
)
from oracles import montecarlo_reference


def _small_axis(grid=20):
    return Axis(np.linspace(AGE_RANGE[0], AGE_RANGE[1], grid))


def _kernel_only(grid=20, bandwidth=1.5):
    return (
        EstimatorSpec("kernel", MEAN_LOSS, _small_axis(grid), bandwidth=bandwidth),
    )


def test_benchmark_constants():
    assert BENCHMARK_BETA == (71.25, 8.13, -2.72, 1.78, -6.43)
    assert BENCHMARK_N == 533
    assert BENCHMARK_REPS == 1000
    assert BENCHMARK_BOOTSTRAP_B == 200
    assert DEFAULT_KNOTS == (3.0, 5.0, 8.0, 10.0, 11.5, 13.0, 14.5, 16.0, 18.0)
    net = full_tau_net()
    assert net.size == 199
    assert net[0] == pytest.approx(0.005)
    assert net[-1] == pytest.approx(0.995)
    assert desk_tau_net().size == 19


def test_design_vector_hand_values():
    np.testing.assert_allclose(design_vector(2.0), [1, 2, 0, 0, 0])
    np.testing.assert_allclose(design_vector(20.0), [1, 20, 15, 10, 5])
    # hinges are strict: at its own knot a hinge contributes zero
    np.testing.assert_allclose(design_vector(5.0), [1, 5, 0, 0, 0])
    np.testing.assert_allclose(design_vector(12.0), [1, 12, 7, 2, 0])
    assert design_vector(np.array([2.0, 20.0])).shape == (2, 5)


def test_true_cef_values_and_slopes():
    assert true_cef(2.0) == pytest.approx(87.51, abs=1e-9)
    assert true_cef(20.0) == pytest.approx(178.70, abs=1e-9)
    for left, slope in ((3.0, 8.13), (6.0, 5.41), (11.0, 7.19), (16.0, 0.76)):
        assert true_cef(left + 1.0) - true_cef(left) == pytest.approx(slope, abs=1e-9)
    ages = np.linspace(*AGE_RANGE, 200)
    assert np.all(np.diff(true_cef(ages)) > 0)


def test_true_cqf_equals_norm_ppf_bit_for_bit():
    u = full_tau_net()[:, None]
    x = np.linspace(AGE_RANGE[0], AGE_RANGE[1], 100)
    assert np.array_equal(true_cqf(u, x), true_cef(x) + 4.0 * norm.ppf(u))


def test_true_cqf_values_and_monotonicity():
    assert true_cqf(0.5, 7.0) == pytest.approx(true_cef(7.0), abs=1e-12)
    spread = true_cqf(0.95, 7.0) - true_cqf(0.05, 7.0)
    assert spread == pytest.approx(2.0 * 4.0 * norm.ppf(0.95), abs=1e-9)
    us = np.linspace(0.05, 0.95, 10)
    assert np.all(np.diff(true_cqf(us, 7.0)) > 0)
    ages = np.linspace(2, 20, 30)
    assert np.all(np.diff(true_cqf(0.3, ages)) > 0)
    surface = true_cqf(us[:, None], ages[None, :])
    assert surface.shape == (10, 30)
    for u in (0.0, 1.0, -0.2):
        with pytest.raises(OutOfRangeError):
            true_cqf(u, 7.0)


def test_ndtri_port_equals_scipy_ndtri_bit_for_bit():
    k = np.arange(1.0, 301.0)
    # each side of the centre/tail switches at e^-2 and 1 - e^-2 and of the
    # tail switch at x = 8, where u = e^-32
    switches = [math.exp(-2.0), 1.0 - math.exp(-2.0), math.exp(-32.0)]
    u = np.concatenate([
        full_tau_net(),
        desk_tau_net(),
        np.random.default_rng(2009).random(200_000),
        10.0 ** -k,
        1.0 - 10.0 ** -k[:16],
        [5e-324],
        [np.nextafter(s, toward) for s in switches for toward in (0.0, 1.0)],
    ])
    assert np.all((u > 0.0) & (u < 1.0))
    port = np.array([montecarlo._ndtri(t) for t in u.tolist()])
    assert np.array_equal(port.view(np.int64), ndtri(u).view(np.int64))


def test_default_estimators_cover_all_methods():
    specs = default_estimators(_small_axis())
    assert [s.method for s in specs] == ["kernel", "loclinear", "bspline", "fourier"]
    assert specs[3].fourier_linear is False
    assert specs[2].knots == DEFAULT_KNOTS


def test_config_validation():
    McConfig(n=50, reps=2, estimators=_kernel_only())
    with pytest.raises(ShapeMismatchError):
        McConfig(beta=(1.0, 2.0))
    with pytest.raises(OutOfRangeError):
        McConfig(sigma=-1.0)
    with pytest.raises(OutOfRangeError):
        McConfig(n=0)
    with pytest.raises(ShapeMismatchError):
        McConfig(n=5, x_design=[2.0, 3.0])
    with pytest.raises(OutOfRangeError):
        McConfig(n=2, x_design=[2.0, 25.0])
    with pytest.raises(OutOfRangeError):
        McConfig(reps=0)
    with pytest.raises(OutOfRangeError):
        McConfig(estimators=("kernel",))
    with pytest.raises(NonIncreasingAxisError):
        McConfig(taus=[0.5, 0.4])
    with pytest.raises(EmptyInputError):
        McConfig(taus=[])
    with pytest.raises(OutOfRangeError):
        McConfig(taus=[0.5, 1.0])
    with pytest.raises(OutOfRangeError):
        McConfig(alpha=1.0)
    with pytest.raises(OutOfRangeError):
        McConfig(bootstrap_B=1)
    with pytest.raises(OutOfRangeError):
        McConfig(lambda_grid=(1.5,))
    with pytest.raises(OutOfRangeError, match="lambda_grid must be a non-empty list"):
        McConfig(lambda_grid=())
    # each weight names a report column, so a repeated weight would merge two
    with pytest.raises(OutOfRangeError, match="lambda_grid repeats a weight"):
        McConfig(lambda_grid=(0.5, 0.25, 0.5))


def test_config_defaults():
    cfg = McConfig()
    assert cfg.n == BENCHMARK_N
    np.testing.assert_allclose(cfg.x_design, np.linspace(2.0, 20.0, BENCHMARK_N))
    assert len(cfg.estimators) == 4
    assert len(cfg.estimators[0].eval_axis) == 100
    assert cfg.taus.size == 19
    assert cfg.lambda_grid == (0.5,)


def _skewed_design(n=200):
    # non-equidistant ages, dense near 2 and sparse near 20
    return 2.0 + 18.0 * (np.arange(n) / (n - 1)) ** 2


def test_config_takes_n_from_x_design():
    x = _skewed_design()
    cfg = McConfig(x_design=x, reps=2, estimators=_kernel_only())
    assert cfg.n == 200
    np.testing.assert_array_equal(cfg.x_design, x)
    assert simulate_rep(cfg, 0).n == 200
    assert McConfig(n=200, x_design=x).n == 200
    with pytest.raises(ShapeMismatchError):
        McConfig(n=199, x_design=x)


def test_config_from_dict_takes_n_from_x_design():
    x = _skewed_design()
    cfg = config_from_dict({"x_design": x.tolist(), "reps": 2, "grid": 12})
    assert cfg.n == 200
    np.testing.assert_array_equal(cfg.x_design, x)
    assert all(len(s.eval_axis) == 12 for s in cfg.estimators)
    assert cfg.estimators[0].eval_axis.coords[-1] == x.max()
    with pytest.raises(ShapeMismatchError):
        config_from_dict({"x_design": x.tolist(), "n": 533})


def test_simulate_rep_determinism():
    cfg = McConfig(n=40, reps=3, estimators=_kernel_only())
    a = simulate_rep(cfg, 0)
    b = simulate_rep(cfg, 0)
    np.testing.assert_array_equal(a.y, b.y)
    c = simulate_rep(cfg, 1)
    assert not np.array_equal(a.y, c.y)
    with pytest.raises(OutOfRangeError):
        simulate_rep(cfg, -1)


def test_simulate_rep_zero_noise_hits_the_truth():
    cfg = McConfig(n=25, sigma=0.0, reps=1, estimators=_kernel_only())
    data = simulate_rep(cfg, 0)
    np.testing.assert_allclose(data.y, true_cef(cfg.x_design), rtol=1e-12)


def test_simulate_rep_noise_is_centered():
    cfg = McConfig(n=10000, sigma=2.0, reps=1, seed=5, estimators=_kernel_only())
    data = simulate_rep(cfg, 0)
    resid = data.y - true_cef(cfg.x_design)
    assert abs(resid.mean()) <= 4.0 * 2.0 / 100.0


def test_run_experiment_validation():
    cfg = McConfig(n=30, reps=1, estimators=_kernel_only())
    with pytest.raises(OutOfRangeError):
        run_experiment(cfg, table=4)


@pytest.mark.parametrize("table", [1.9, True, "1", 0, 4, None])
def test_run_experiment_table_is_an_integer(table):
    cfg = McConfig(n=30, reps=1, estimators=_kernel_only())
    with pytest.raises(OutOfRangeError, match="table must be"):
        run_experiment(cfg, table=table)


@pytest.mark.parametrize("rep_index", [2.5, True, "2", -1, None])
def test_simulate_rep_index_is_an_integer(rep_index):
    cfg = McConfig(n=30, reps=3, estimators=_kernel_only())
    with pytest.raises(OutOfRangeError, match="rep_index must be an integer >= 0"):
        simulate_rep(cfg, rep_index)
    assert np.array_equal(simulate_rep(cfg, 2.0).y, simulate_rep(cfg, np.int64(2)).y)


def test_errors_table_shape_and_ratios():
    cfg = McConfig(
        n=80,
        reps=3,
        seed=2,
        estimators=(
            EstimatorSpec("kernel", MEAN_LOSS, _small_axis(), bandwidth=1.5),
            EstimatorSpec("fourier", MEAN_LOSS, _small_axis(), n_terms=2),
        ),
    )
    report = run_experiment(cfg, table=1)
    assert report.table == 1
    assert len(report.rows) == 2 * 3
    assert report.columns[:3] == ["method", "p", "error_original"]
    for row in report.rows:
        assert row["error_original"] > 0
        for lab in ("rearranged", "isotonized", "blend_0.5"):
            assert 0.0 <= row["ratio_" + lab] <= 1.0 + 1e-9
    errors = report.per_rep["errors"]
    assert errors.shape == (3, 2, 4, 3)
    orig = errors[:, :, :1, :]
    assert np.all(errors[:, :, 1:, :] <= orig * (1 + 1e-10) + 1e-14)


def test_draws_past_the_float_maximum_are_refused_without_a_warning():
    # warnings are errors here, so an overflow warning fails the test; the
    # mean 1.7e308 (1 + x) overflows, the mean 1.79e308 does not but its draws do
    big_mean = McConfig(beta=(1.7e308, 1.7e308, 0.0, 0.0, 0.0), sigma=0.0, n=30)
    big_noise = McConfig(
        beta=(1.79e308, 0.0, 0.0, 0.0, 0.0), sigma=1e306, n=30, reps=2, estimators=_kernel_only()
    )
    calls = [lambda: simulate_rep(big_mean, 1), lambda: simulate_rep(big_noise, 1)]
    calls += [lambda t=t: run_experiment(big_noise, table=t) for t in (1, 3)]
    for call in calls:
        with pytest.raises(NonFiniteValueError, match="observations must be finite"):
            call()


def test_errors_table_degenerate_noise_reports_unit_ratios():
    # zero noise and a constant truth make every fit exact: original errors
    # are 0 and the 0/0 ratios are reported as 1
    cfg = McConfig(
        beta=(5.0, 0.0, 0.0, 0.0, 0.0),
        sigma=0.0,
        n=30,
        reps=2,
        estimators=_kernel_only(),
    )
    report = run_experiment(cfg, table=1)
    for row in report.rows:
        assert row["error_original"] == 0.0
        assert row["ratio_rearranged"] == 1.0
        assert row["ratio_isotonized"] == 1.0


def test_quantile_table_runs_and_improves():
    cfg = McConfig(
        n=120,
        reps=2,
        seed=3,
        taus=np.linspace(0.2, 0.8, 5),
        estimators=_kernel_only(grid=12, bandwidth=2.0),
    )
    report = run_experiment(cfg, table=2)
    assert report.table == 2
    errors = report.per_rep["errors"]
    assert errors.shape == (2, 1, 4, 3)
    orig = errors[:, :, :1, :]
    assert np.all(errors[:, :, 1:, :] <= orig * (1 + 1e-10) + 1e-14)
    for row in report.rows:
        assert row["p"] in ("1", "2", "inf")


def test_bands_table_reports_coverage_and_lengths():
    cfg = McConfig(
        n=80,
        reps=8,
        seed=4,
        bootstrap_B=16,
        estimators=_kernel_only(grid=15),
    )
    report = run_experiment(cfg, table=3)
    assert report.table == 3
    assert len(report.rows) == 3
    for row in report.rows:
        assert 0.0 <= row["coverage_original"] <= 1.0
        assert row["length_original"] > 0
        for lab in ("rearranged", "isotonized", "blend_0.5"):
            assert row["coverage_" + lab] >= row["coverage_original"] - 1e-12
            assert row["length_ratio_" + lab] <= 1.0 + 1e-9
    assert np.all(report.per_rep["criticals"] > 0)
    lengths = report.per_rep["lengths"]
    assert np.all(lengths[:, :, 1:, :] <= lengths[:, :, :1, :] * (1 + 1e-10) + 1e-14)


def test_report_csv_text_format():
    cfg = McConfig(n=50, reps=2, seed=6, estimators=_kernel_only())
    text = run_experiment(cfg, table=1).to_csv_text()
    lines = text.splitlines()
    assert lines[0].startswith("method,p,error_original,ratio_")
    assert len(lines) == 1 + 3
    assert text.endswith("\n")
    # every non-string cell parses back as a float
    for line in lines[1:]:
        cells = line.split(",")
        assert cells[0] == "kernel"
        assert cells[1] in ("1", "2", "inf")
        [float(c) for c in cells[2:]]


def test_config_from_dict_defaults_and_conversions():
    cfg = config_from_dict({})
    assert cfg.n == BENCHMARK_N
    cfg = config_from_dict(
        {"n": 40, "reps": 2, "grid": 12, "taus": {"lo": 0.25, "hi": 0.75, "step": 0.25}}
    )
    assert cfg.n == 40
    np.testing.assert_allclose(cfg.taus, [0.25, 0.5, 0.75])
    assert all(len(s.eval_axis) == 12 for s in cfg.estimators)
    cfg = config_from_dict(
        {
            "n": 40,
            "estimators": [
                {"method": "kernel", "bandwidth": 1.5},
                {"method": "fourier", "n_terms": 2},
            ],
        }
    )
    assert len(cfg.estimators) == 2
    assert cfg.estimators[0].bandwidth == 1.5
    assert cfg.estimators[1].fourier_linear is True


def test_config_from_dict_rejects_unknown_keys():
    with pytest.raises(OutOfRangeError):
        config_from_dict({"reps": 2, "replications": 5})
    with pytest.raises(OutOfRangeError):
        config_from_dict({"estimators": [{"bandwidth": 1.0}]})
    with pytest.raises(OutOfRangeError):
        config_from_dict({"estimators": [{"method": "kernel", "bandwidth": 1, "h": 2}]})
    with pytest.raises(OutOfRangeError):
        config_from_dict({"grid": 1})
    # an empty list used to fall back to the default four at 100 nodes
    for ests in (5, [5], [], ["kernel"], {"method": "kernel"}):
        with pytest.raises(OutOfRangeError, match="estimators must be a non-empty list"):
            config_from_dict({"grid": 7, "estimators": ests})


def test_parse_tau_net_text_and_dict_agree():
    np.testing.assert_array_equal(parse_tau_net("0.05:0.95:0.05"), desk_tau_net())
    np.testing.assert_array_equal(
        parse_tau_net({"lo": 0.05, "hi": 0.95, "step": 0.05}), desk_tau_net()
    )
    np.testing.assert_array_equal(parse_tau_net("0.5:0.5:0.1"), [0.5])


@pytest.mark.parametrize(
    "net",
    [
        "0.1:0.9:0", {"lo": 0.1, "hi": 0.9, "step": 0},
        "0.1:0.9", {"lo": 0.1, "step": 0.1},
        "0.1:0.9:0.3", {"lo": 0.1, "hi": 0.9, "step": 0.3},
        "0.1:0.9:2", "0.9:0.1:0.1", "0.1:0.9:inf", "0:0.5:0.1", "a:b:c",
        {"lo": 0.1, "hi": 0.9, "step": 0.1, "count": 9}, {"lo": 0.1, "hi": None, "step": 0.1},
    ],
)
def test_parse_tau_net_rejects_bad_nets(net):
    with pytest.raises(OutOfRangeError):
        parse_tau_net(net)
    if isinstance(net, dict):
        with pytest.raises(OutOfRangeError):
            config_from_dict({"taus": net})


@pytest.mark.parametrize("key", ["n", "reps", "seed", "bootstrap_B", "grid"])
def test_config_integer_fields_reject_non_integers(key):
    for bad in ("abc", [3], 1e999, 2.5, "3", True, -1):
        with pytest.raises(OutOfRangeError, match=key):
            config_from_dict({key: bad})


def test_config_integer_fields_take_integral_floats_and_numpy_integers():
    cfg = config_from_dict(
        {"n": np.int64(40), "reps": 3.0, "seed": np.uint32(7), "bootstrap_B": 5.0,
         "grid": np.int16(12), "estimators": [{"method": "fourier", "n_terms": 2.0}]}
    )
    assert (cfg.n, cfg.reps, cfg.seed, cfg.bootstrap_B) == (40, 3, 7, 5)
    assert all(type(v) is int for v in (cfg.n, cfg.reps, cfg.seed, cfg.bootstrap_B))
    assert len(cfg.estimators[0].eval_axis) == 12 and cfg.estimators[0].n_terms == 2


def test_config_non_finite_values_name_their_key():
    with pytest.raises(OutOfRangeError, match="x_design"):
        config_from_dict({"x_design": [float("nan"), 3.0, 4.0]})
    with pytest.raises(OutOfRangeError, match="sigma"):
        config_from_dict({"sigma": float("inf")})


def test_config_rejects_non_numeric_fields_and_a_one_age_design():
    for kwargs in (
        {"sigma": "abc"},
        {"alpha": "x"},
        {"beta": 5.0},
        {"taus": ["a"]},
        {"x_design": ["a"]},
        {"lambda_grid": 0.5},
        {"sigma": True},
        {"alpha": "0.1"},
        {"lambda_grid": [True]},
        {"taus": ["0.25", "0.75"]},
        {"x_design": [True, 3.0]},
    ):
        with pytest.raises(OutOfRangeError, match=f"{next(iter(kwargs))} must be"):
            McConfig(reps=2, **kwargs)
    with pytest.raises(OutOfRangeError, match="at least two distinct x values"):
        McConfig(n=1)
    with pytest.raises(OutOfRangeError, match="at least two distinct x values"):
        config_from_dict({"x_design": [5.0, 5.0], "grid": 12})


# Each per-replication improvement assertion, made to fail by replacing an
# operator in the harness's namespace with a broken one.  The harness hands
# the operators a block of replications, the replication axis first.


def _shifted(offset):
    return lambda f, *args: f.with_values(f.values + offset)


def _widened_about_the_mean(f, *args):
    # twice as far from the true mean: a band stays ordered and covering,
    # but gets twice as long
    truth = true_cef(f.axes[-1].coords)
    return f.with_values(truth + 2.0 * (f.values - truth))


def _true_quantile_surface(f, *args, **kwargs):
    surface = true_cqf(f.axes[-2].coords[:, None], f.axes[-1].coords[None, :])
    return f.with_values(np.broadcast_to(surface, f.shape))


_CFG = dict(n=60, seed=5, taus=np.linspace(0.25, 0.75, 3), bootstrap_B=8)


@pytest.mark.parametrize(
    "table, operator, broken, message",
    [
        (1, "rearrange_axis", _shifted(100.0), "kernel rearranged L^1 error"),
        (2, "_compose", _true_quantile_surface, "kernel averaged rearrangement"),
        (3, "isotonize_axis", _shifted(1e3), "kernel isotonized band lost coverage"),
        (3, "rearrange_axis", _widened_about_the_mean, "kernel rearranged band L^1"),
    ],
    ids=["1-rearranged", "2-averaged", "3-isotonized-coverage", "3-rearranged-length"],
)
def test_a_worse_variant_aborts_the_run(monkeypatch, table, operator, broken, message):
    monkeypatch.setattr(montecarlo, operator, broken)
    cfg = McConfig(reps=3, estimators=_kernel_only(grid=10, bandwidth=2.0), **_CFG)
    with pytest.raises(ImprovementViolationError) as info:
        run_experiment(cfg, table=table)
    assert str(info.value).startswith("replication 0: ")
    assert message in str(info.value)


def _broken_at_replication_2(f, axis):
    # the leading axis of a block holds its replication indices
    out = rearrange_axis(f, axis)
    hit = (f.axes[0].coords == 2.0).reshape((-1,) + (1,) * (f.ndim - 1))
    return out.with_values(out.values + np.where(hit, 1e3, 0.0))


@pytest.mark.parametrize("table", [1, 2, 3])
def test_a_violation_inside_a_block_names_its_replication(monkeypatch, table):
    monkeypatch.setattr(montecarlo, "rearrange_axis", _broken_at_replication_2)
    cfg = McConfig(reps=3, estimators=_kernel_only(grid=10, bandwidth=2.0), **_CFG)
    assert len(montecarlo._blocks(cfg, 3 * 10)) == 1
    with pytest.raises(ImprovementViolationError, match="^replication 2: kernel rearranged"):
        run_experiment(cfg, table=table)


def test_a_crossing_variant_band_aborts_the_run(monkeypatch):
    # negated end-points put the lower one above the upper one
    monkeypatch.setattr(montecarlo, "isotonize_axis", lambda f, *args: f.with_values(-f.values))
    cfg = McConfig(reps=3, estimators=_kernel_only(grid=10, bandwidth=2.0), **_CFG)
    message = "^replication 0: kernel isotonized band crossed"
    with pytest.raises(ImprovementViolationError, match=message):
        run_experiment(cfg, table=3)


def test_bands_table_zero_stderr_names_the_replication(monkeypatch):
    # a bootstrap whose stderr is zero at every node leaves no max-t statistic
    def zero_stderr(data, spec, n_draws, seed):
        fhat = estimators.fit(data, spec).estimate
        return fhat.with_values(np.zeros(fhat.shape)), [fhat, fhat]

    monkeypatch.setattr(montecarlo, "bootstrap", zero_stderr)
    cfg = McConfig(n=60, reps=2, seed=5, bootstrap_B=8, estimators=_kernel_only(grid=10))
    with pytest.raises(AllNodesDegenerateError, match="^replication 0: "):
        run_experiment(cfg, table=3)


@pytest.mark.parametrize("table", [1, 2, 3])
def test_blocked_tables_equal_the_one_replication_reference(monkeypatch, table):
    # blend weights 0 and 1 repeat the isotonized and rearranged variants;
    # blocks of two replications split five replications three ways
    cfg = config_from_dict({
        "n": 150, "reps": 5, "seed": 7, "grid": 12, "taus": [0.2, 0.4, 0.6, 0.8],
        "bootstrap_B": 20, "lambda_grid": [0.0, 0.5, 1.0],
    })
    size = 12 * (4 if table == 2 else 1)
    # a replication holds four fits and six variants of one of them
    monkeypatch.setattr(montecarlo, "BLOCK_ELEMENTS", 2 * size * 10)
    assert [len(reps) for reps in montecarlo._blocks(cfg, size)] == [2, 2, 1]
    got = run_experiment(cfg, table=table).per_rep
    want = montecarlo_reference(cfg, table)
    for key, values in want.items():
        assert np.array_equal(got[key], values), key


def _spy_on_solvers(monkeypatch):
    """Record (method, rows x n) of every solver call that the _fits calls of
    tables 1 and 2 make, one call per part of a block of replications; a
    solver that another calls (the least-squares start of a series quantile
    fit) is not recorded again."""
    calls, fitting, busy = [], [], []
    real_fits = estimators._fits

    def fits(x, Y, spec, taus=None, W=None):
        fitting[:] = [spec.method]
        return real_fits(x, Y, spec, taus, W)

    monkeypatch.setattr(montecarlo, "_fits", fits)
    # each solver and the position of its rows of y
    solvers = {"_window_means": 2, "_kernel_quantiles": 0, "_loclinear_quantiles": 1,
               "_series_means": 1, "_series_quantiles": 2}
    for name, at in solvers.items():

        def spy(*args, real=getattr(estimators, name), at=at):
            if not busy:
                calls.append((fitting[0], args[at].shape))
            busy.append(name)
            try:
                return real(*args)
            finally:
                busy.pop()

        monkeypatch.setattr(estimators, name, spy)
    return calls


def test_table_1_fits_chunks_whose_work_arrays_stay_within_the_block_size(monkeypatch):
    # all five replications fit in one block, one _fits call per estimator;
    # _fits solves them in parts of BLOCK_ELEMENTS // (_width * n): 5 rows
    # for the window methods, 2 for bspline (13 columns) and fourier (9)
    calls = _spy_on_solvers(monkeypatch)
    cfg = config_from_dict({"n": 2500, "reps": 5, "seed": 3, "grid": 20})
    assert len(montecarlo._blocks(cfg, 20)) == 1
    run_experiment(cfg, table=1)
    widths = {spec.method: estimators._width(spec) for spec in cfg.estimators}
    assert widths == {"kernel": 5, "loclinear": 5, "bspline": 13, "fourier": 9}
    assert all(rows * n * widths[m] <= estimators.BLOCK_ELEMENTS for m, (rows, n) in calls)
    for method, parts in (("kernel", [5]), ("loclinear", [5]), ("bspline", [2, 2, 1]),
                          ("fourier", [2, 2, 1])):
        assert [shape for m, shape in calls if m == method] == [(rows, 2500) for rows in parts]


def test_table_2_fits_chunks_whose_work_arrays_stay_within_the_block_size(monkeypatch):
    # two levels on 60 ages: a replication's bspline fit holds 13 * 2 * 60 =
    # 1560 numbers, so a block size of three of them solves bspline in parts
    # of 3, 3 and 1, fourier (9 columns) in 4 and 3, and the window methods
    # in one part of 7; the report is the one-replication reference's, bit
    # for bit
    calls = _spy_on_solvers(monkeypatch)
    cfg = config_from_dict({"n": 60, "reps": 7, "seed": 5, "grid": 10, "taus": [0.25, 0.75]})
    assert len(montecarlo._blocks(cfg, 20)) == 1
    monkeypatch.setattr(estimators, "BLOCK_ELEMENTS", 3 * 1560)
    got = run_experiment(cfg, table=2).per_rep
    widths = {spec.method: estimators._width(spec) for spec in cfg.estimators}
    assert all(rows * 2 * n * widths[m] <= 3 * 1560 for m, (rows, n) in calls)
    for method, parts in (("kernel", [7]), ("loclinear", [7]), ("bspline", [3, 3, 1]),
                          ("fourier", [4, 3])):
        assert [shape for m, shape in calls if m == method] == [(rows, 60) for rows in parts]
    for key, values in montecarlo_reference(cfg, 2).items():
        assert np.array_equal(got[key], values), key


def test_table_1_builds_the_series_bases_once_per_chunk(monkeypatch):
    # 20 replications in one block and one _fits call per estimator, solved
    # in parts of 9, 9 and 2 (65536 // (13 * 533)): each series estimator
    # builds its design and grid bases once per _fits call, not per part
    real, methods = estimators._basis_matrix, []

    def spy(spec, x):
        methods.append(spec.method)
        return real(spec, x)

    monkeypatch.setattr(estimators, "_basis_matrix", spy)
    calls = _spy_on_solvers(monkeypatch)
    run_experiment(config_from_dict({"reps": 20, "seed": 11}), table=1)
    assert [shape[0] for m, shape in calls if m == "bspline"] == [9, 9, 2]
    assert methods.count("bspline") == methods.count("fourier") == 2


REPORTS = Path(__file__).parent / "data"


@pytest.mark.parametrize("table", [1, 2, 3])
def test_reports_match_their_checked_in_values(table):
    # tests/data holds `simulate --table t --config reports.json` for t = 1, 2, 3;
    # a change that moves a report updates its file and declares the move
    cfg = config_from_dict(json.loads((REPORTS / "reports.json").read_text()))
    fresh = list(csv.reader(run_experiment(cfg, table).to_csv_text().splitlines()))
    with open(REPORTS / f"table{table}.csv", newline="", encoding="utf-8") as fh:
        kept = list(csv.reader(fh))
    assert fresh[0] == kept[0]
    assert len(fresh) == len(kept)
    for got, want in zip(fresh[1:], kept[1:]):
        assert got[:2] == want[:2]
        # last-bit differences of numpy's SIMD math on other CPUs only
        np.testing.assert_allclose(
            np.array(got[2:], dtype=float), np.array(want[2:], dtype=float), rtol=1e-12, atol=0.0
        )
