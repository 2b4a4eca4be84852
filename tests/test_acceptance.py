"""End-to-end acceptance checks.

Each test prints one terminal-visible verdict line, "ACCEPTANCE n: PASS" or
"ACCEPTANCE n: FAIL", in addition to the usual pytest outcome.  The expensive
simulation runs are shared through session-scoped fixtures.
"""

import json
import math
from fractions import Fraction
from itertools import combinations_with_replacement

import numpy as np
import pytest

from monotonize.bands import Band, covers, monotonize_band
from monotonize.cli import main
from monotonize.estimators import (
    Dataset,
    EstimatorSpec,
    Loss,
    fit,
    fit_quantile_process,
)
from monotonize.grid import (
    INF,
    Axis,
    GriddedFunction,
    lp_distance,
    lp_length,
    make_grid_function,
)
from monotonize.isotonic import pava
from monotonize.montecarlo import (
    BENCHMARK_BETA,
    McConfig,
    run_experiment,
    simulate_rep,
    true_cef,
    true_cqf,
)
from monotonize.rearrange import (
    eta_p,
    rearrange_1d,
    rearrange_average,
    rearrange_pi,
)

from oracles import isotonic_maxmin_oracle, rearrange_quantile_oracle

RTOL = 1e-10
ATOL = 1e-14
SEED = 11

PS = (1.0, 2.0, INF)
P_LABELS = ("1", "2", "inf")
METHODS = ("kernel", "loclinear", "bspline", "fourier")


class _Verdict:
    """Prints the verdict line straight to the terminal, capture or not."""

    def __init__(self, n, capsys):
        self.n = n
        self.capsys = capsys

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        word = "PASS" if exc_type is None else "FAIL"
        with self.capsys.disabled():
            print(f"\nACCEPTANCE {self.n}: {word}", flush=True)
        return False


@pytest.fixture(scope="session")
def table1_report():
    cfg = McConfig(reps=100, seed=SEED)
    return cfg, run_experiment(cfg, table=1)


@pytest.fixture(scope="session")
def table2_report():
    cfg = McConfig(reps=25, seed=SEED)
    return cfg, run_experiment(cfg, table=2)


@pytest.fixture(scope="session")
def table3_report():
    cfg = McConfig(reps=100, seed=SEED, bootstrap_B=100)
    return cfg, run_experiment(cfg, table=3)


def _rows_by_key(report):
    return {(r["method"], r["p"]): r for r in report.rows}


def test_acceptance_1_per_replication_error_reduction(table1_report, capsys):
    with _Verdict(1, capsys):
        cfg, report = table1_report
        errors = report.per_rep["errors"]
        assert errors.shape == (100, 4, 4, 3)
        assert np.all(np.isfinite(errors))
        orig = errors[:, :, :1, :]
        mono = errors[:, :, 1:, :]
        violations = mono > orig * (1.0 + RTOL) + ATOL
        assert int(violations.sum()) == 0


def test_acceptance_2_ratio_pattern(table1_report, capsys):
    with _Verdict(2, capsys):
        cfg, report = table1_report
        rows = _rows_by_key(report)
        ratio_cols = [c for c in report.columns if c.startswith("ratio_")]
        assert len(ratio_cols) == 3
        for p in P_LABELS:
            for col in ratio_cols:
                best = rows[("fourier", p)][col]
                for other in ("kernel", "loclinear", "bspline"):
                    assert best < rows[(other, p)][col]
        for col in ratio_cols:
            assert rows[("fourier", "inf")][col] < 0.6
        for method in ("kernel", "loclinear"):
            for p in P_LABELS:
                for col in ratio_cols:
                    ratio = rows[(method, p)][col]
                    assert 0.85 < ratio <= 1.0 + 1e-9


def test_acceptance_3_quantile_process_averaging(table2_report, capsys):
    with _Verdict(3, capsys):
        cfg, report = table2_report
        errors = report.per_rep["errors"]
        assert errors.shape == (25, 4, 4, 3)
        orig = errors[:, :, :1, :]
        mono = errors[:, :, 1:, :]
        assert np.all(mono <= orig * (1.0 + RTOL) + ATOL)

        # independent re-derivation on the cheapest estimator, first 3 reps
        spec = cfg.estimators[0]
        assert spec.method == "kernel"
        truth = GriddedFunction(
            [Axis(cfg.taus), spec.eval_axis],
            true_cqf(
                cfg.taus[:, None],
                spec.eval_axis.coords[None, :],
                cfg.beta,
                cfg.sigma,
            ),
        )
        orderings = ((1, 2), (2, 1))
        for r in range(3):
            data = simulate_rep(cfg, r)
            fhat = fit_quantile_process(data, spec, cfg.taus)
            avg = rearrange_average(fhat, orderings)
            for pi, p in enumerate(PS):
                e_orig = lp_distance(fhat, truth, p)
                e_avg = lp_distance(avg, truth, p)
                per_pi = [
                    lp_distance(rearrange_pi(fhat, o), truth, p)
                    for o in orderings
                ]
                assert e_avg <= e_orig * (1.0 + RTOL) + ATOL
                assert e_avg <= np.mean(per_pi) * (1.0 + RTOL) + ATOL
                assert math.isclose(errors[r, 0, 0, pi], e_orig, rel_tol=1e-12)
                assert math.isclose(errors[r, 0, 1, pi], e_avg, rel_tol=1e-12)


def test_acceptance_4_band_coverage_and_length(table3_report, capsys):
    with _Verdict(4, capsys):
        cfg, report = table3_report
        coverage = report.per_rep["coverage"]
        lengths = report.per_rep["lengths"]
        assert coverage.shape == (100, 4, 4)
        counts = coverage.sum(axis=0)
        for ei in range(4):
            assert counts[ei, 0] in (89, 90, 91)
            for vi in range(1, 4):
                assert counts[ei, vi] >= counts[ei, 0]
                assert counts[ei, vi] >= 89
        assert np.all(
            lengths[:, :, 1:, :] <= lengths[:, :, :1, :] * (1.0 + RTOL) + ATOL
        )
        rows = _rows_by_key(report)
        for col in (c for c in report.columns if c.startswith("length_ratio_")):
            assert rows[("fourier", "inf")][col] < 0.9
            for key in rows:
                assert rows[key][col] <= 1.0 + 1e-9


def test_acceptance_5_oracle_equivalences(capsys):
    with _Verdict(5, capsys):
        rng = np.random.default_rng(101)

        # sorting versus the inf-definition of the rearranged value
        for _ in range(1000):
            n = int(rng.integers(1, 51))
            if rng.random() < 0.5:
                values = rng.integers(0, 6, size=n) * 0.5
            else:
                values = rng.normal(size=n)
            out = rearrange_1d(values)
            for i in range(n):
                assert out[i] == rearrange_quantile_oracle(values, (i + 1) / n)

        # pooled projection versus the max-min representation
        for _ in range(1000):
            n = int(rng.integers(1, 41))
            values = rng.normal(size=n)
            weights = rng.uniform(0.5, 2.0, size=n)
            proj = pava(values, weights)
            indices = (
                range(n)
                if n <= 6
                else rng.integers(0, n, size=3)
            )
            for i in indices:
                want = isotonic_maxmin_oracle(values, int(i), weights)
                assert abs(proj[int(i)] - want) <= 1e-10

        # pooled projection versus lattice brute force
        step = 0.05
        for _ in range(20):
            n = int(rng.integers(2, 6))
            values = rng.integers(0, 13, size=n) * step
            weights = rng.integers(1, 4, size=n) * 0.5
            proj = pava(values, weights)
            sse_proj = float(np.sum(weights * (proj - values) ** 2))
            lo, hi = values.min(), values.max()
            lattice = lo + step * np.arange(round((hi - lo) / step) + 1)
            best = math.inf
            for cand in combinations_with_replacement(lattice, n):
                sse = float(np.sum(weights * (np.array(cand) - values) ** 2))
                best = min(best, sse)
            assert sse_proj <= best + 1e-12
            snapped = np.sort(lattice[np.argmin(np.abs(lattice[None, :] - proj[:, None]), axis=1)])
            sse_snap = float(np.sum(weights * (snapped - values) ** 2))
            assert best <= sse_snap + 1e-12

        # kernel quantile fit versus direct order statistics
        for _ in range(50):
            m = int(rng.integers(10, 60))
            x = rng.uniform(0.0, 1.0, size=m)
            y = rng.normal(size=m)
            den = int(rng.integers(2, 13))
            num = int(rng.integers(1, den))
            tau = num / den
            nodes = np.quantile(x, [0.25, 0.5, 0.75])
            if np.any(np.diff(nodes) <= 0.0):
                continue
            bandwidth = 0.3 * (x.max() - x.min())
            spec = EstimatorSpec(
                "kernel", Loss("quantile", tau=tau), Axis(nodes), bandwidth=bandwidth
            )
            fitted = fit(Dataset(x, y), spec).estimate.values
            for j, node in enumerate(nodes):
                window = np.sort(y[(x >= node - bandwidth) & (x <= node + bandwidth)])
                k = math.ceil(Fraction(num, den) * len(window))
                k = min(max(k, 1), len(window))
                assert fitted[j] == window[k - 1]


def test_acceptance_6_hand_fixtures(capsys):
    with _Verdict(6, capsys):
        axes = [[0.0, 1.0], [0.0, 1.0]]
        f = make_grid_function(axes, [[3.0, 1.0], [0.0, 2.0]])
        np.testing.assert_allclose(
            rearrange_pi(f, (1, 2)).values, [[0.0, 2.0], [1.0, 3.0]], atol=1e-9
        )
        np.testing.assert_allclose(
            rearrange_pi(f, (2, 1)).values, [[0.0, 1.0], [2.0, 3.0]], atol=1e-9
        )

        axis = [0.0, 1.0]
        band = Band(
            make_grid_function([axis], [1.0, 0.0]),
            make_grid_function([axis], [2.0, 3.0]),
        )
        truth = make_grid_function([axis], [0.5, 2.5])
        assert abs(lp_length(band, 2.0) - math.sqrt(5.0)) <= 1e-9
        assert covers(band, truth) is False
        mono = monotonize_band(band, "rearrange")
        assert abs(lp_length(mono, 2.0) - 2.0) <= 1e-9
        assert covers(mono, truth) is True

        assert abs(eta_p((0.0, 1.0), 0.5, 2.0) - 0.5) <= 1e-9

        assert abs(true_cef(2.0, BENCHMARK_BETA) - 87.51) <= 1e-9
        assert abs(true_cef(20.0, BENCHMARK_BETA) - 178.70) <= 1e-9


def test_acceptance_7_simulate_determinism(tmp_path, capsys):
    with _Verdict(7, capsys):
        config = {
            "n": 60,
            "reps": 4,
            "seed": 5,
            "grid": 12,
            "bootstrap_B": 12,
            "estimators": [{"method": "kernel", "bandwidth": 2.0}],
        }
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config), encoding="utf-8")

        def run(table, threads, name):
            out = tmp_path / name
            rc = main(
                ["simulate", "--config", str(cfg_path), "--table", str(table),
                 "--out", str(out), "--threads", str(threads)]
            )
            assert rc == 0
            return out.read_bytes()

        first = run(1, 1, "t1_a.csv")
        assert first == run(1, 1, "t1_b.csv")
        assert first == run(1, 3, "t1_c.csv")
        bands_first = run(3, 1, "t3_a.csv")
        assert bands_first == run(3, 2, "t3_b.csv")
        assert first != bands_first
