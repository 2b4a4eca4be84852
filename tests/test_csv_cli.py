import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import monotonize
from monotonize import csvio
from monotonize.cli import main
from monotonize.errors import (
    CrossingBandError,
    CsvFormatError,
    GridMismatchError,
    ShapeMismatchError,
)
from monotonize.bands import Band, assemble_band, critical_value_max_t, monotonize_band
from monotonize.estimators import Dataset
from monotonize.grid import make_grid_function
from monotonize.isotonic import pava

from oracles import read_draws_reference


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


# --- serialization round trips ------------------------------------------------


def test_grid_function_round_trip_1d(tmp_path):
    rng = np.random.default_rng(3)
    f = make_grid_function([np.linspace(0, 1, 9)], rng.normal(size=9))
    path = tmp_path / "f.csv"
    csvio.write_grid_function(f, path)
    assert csvio.read_grid_function(path) == f


def test_grid_function_round_trip_2d(tmp_path):
    rng = np.random.default_rng(5)
    f = make_grid_function(
        [np.linspace(0, 1, 4), [1.0, 2.5, 7.0]], rng.normal(size=(4, 3))
    )
    path = tmp_path / "f.csv"
    csvio.write_grid_function(f, path)
    assert csvio.read_grid_function(path) == f


def test_grid_function_rows_may_be_scrambled(tmp_path):
    rng = np.random.default_rng(7)
    f = make_grid_function([[0.0, 1.0], [0.0, 1.0]], rng.normal(size=(2, 2)))
    path = tmp_path / "f.csv"
    csvio.write_grid_function(f, path)
    lines = path.read_text().splitlines()
    shuffled = [lines[0]] + [lines[i] for i in (3, 1, 4, 2)]
    path2 = tmp_path / "g.csv"
    _write(path2, "\n".join(shuffled) + "\n")
    assert csvio.read_grid_function(path2) == f


def test_dataset_round_trip(tmp_path):
    rng = np.random.default_rng(11)
    data = Dataset(rng.uniform(0, 1, 20), rng.normal(size=20))
    path = tmp_path / "d.csv"
    csvio.write_dataset(data, path)
    back = csvio.read_dataset(path)
    np.testing.assert_array_equal(back.x, data.x)
    np.testing.assert_array_equal(back.y, data.y)


def test_band_round_trip(tmp_path):
    rng = np.random.default_rng(13)
    mid = rng.normal(size=6)
    band = Band(
        make_grid_function([np.linspace(0, 1, 6)], mid - 1.0),
        make_grid_function([np.linspace(0, 1, 6)], mid + 1.0),
    )
    path = tmp_path / "b.csv"
    csvio.write_band(band, path)
    assert csvio.read_band(path) == band


def test_draws_round_trip(tmp_path):
    rng = np.random.default_rng(17)
    axis = np.linspace(0, 1, 5)
    draws = make_grid_function([np.arange(4), axis], rng.normal(size=(4, 5)))
    path = tmp_path / "draws.csv"
    csvio.write_draws(draws, path)
    back = csvio.read_draws(path)
    assert back.shape == (4, 5)
    assert back == draws


@pytest.mark.parametrize("shape", [(1, 1), (3, 4), (2, 3, 2), (2, 1, 2, 2)])
def test_every_written_draws_file_reads_back(tmp_path, shape):
    rng = np.random.default_rng(19)
    axes = [np.arange(shape[0])] + [np.linspace(-1.0, 2.0, s) for s in shape[1:]]
    draws = make_grid_function(axes, rng.normal(size=shape))
    path = tmp_path / "draws.csv"
    csvio.write_draws(draws, path)
    assert csvio.read_draws(path) == draws


def test_write_draws_refuses_a_function_without_a_grid_axis(tmp_path):
    draws = make_grid_function([[0.0, 1.0, 2.0]], [0.5, 1.5, 2.5])
    path = tmp_path / "draws.csv"
    with pytest.raises(ShapeMismatchError, match="grid axis"):
        csvio.write_draws(draws, path)
    assert not path.exists()


# --- malformed input ------------------------------------------------------


def test_empty_file_rejected(tmp_path):
    path = _write(tmp_path / "e.csv", "")
    with pytest.raises(CsvFormatError):
        csvio.read_grid_function(path)


def test_header_only_rejected(tmp_path):
    path = _write(tmp_path / "e.csv", "x1,value\n")
    with pytest.raises(CsvFormatError):
        csvio.read_grid_function(path)


def test_bad_header_rejected(tmp_path):
    path = _write(tmp_path / "e.csv", "t,value\n0.0,1.0\n")
    with pytest.raises(CsvFormatError):
        csvio.read_grid_function(path)
    path = _write(tmp_path / "d.csv", "x,z\n0.0,1.0\n")
    with pytest.raises(CsvFormatError):
        csvio.read_dataset(path)


def test_non_numeric_field_rejected(tmp_path):
    path = _write(tmp_path / "e.csv", "x1,value\n0.0,low\n")
    with pytest.raises(CsvFormatError, match="non-numeric"):
        csvio.read_grid_function(path)


def test_wrong_field_count_rejected(tmp_path):
    path = _write(tmp_path / "e.csv", "x1,value\n0.0,1.0,2.0\n")
    with pytest.raises(CsvFormatError, match="expected 2 fields"):
        csvio.read_grid_function(path)


def test_incomplete_grid_rejected(tmp_path):
    path = _write(
        tmp_path / "e.csv",
        "x1,x2,value\n0.0,0.0,1.0\n0.0,1.0,2.0\n1.0,0.0,3.0\n",
    )
    with pytest.raises(CsvFormatError, match="do not tile"):
        csvio.read_grid_function(path)


def test_duplicate_grid_node_rejected(tmp_path):
    path = _write(
        tmp_path / "e.csv",
        "x1,x2,value\n0.0,0.0,1.0\n0.0,0.0,2.0\n1.0,0.0,3.0\n1.0,1.0,4.0\n",
    )
    with pytest.raises(CsvFormatError, match="duplicate"):
        csvio.read_grid_function(path)


def test_crossing_band_file_rejected(tmp_path):
    path = _write(tmp_path / "b.csv", "x1,lower,upper\n0.0,2.0,1.0\n1.0,0.0,1.0\n")
    with pytest.raises(CrossingBandError):
        csvio.read_band(path)


def test_draws_index_gaps_rejected(tmp_path):
    head = "draw,x1,value\n"
    path = _write(tmp_path / "e.csv", head + "0,0.0,1.0\n2,0.0,1.0\n")
    with pytest.raises(CsvFormatError, match="without gaps"):
        csvio.read_draws(path)
    path = _write(tmp_path / "e2.csv", head + "0.5,0.0,1.0\n")
    with pytest.raises(CsvFormatError, match="non-negative integers"):
        csvio.read_draws(path)


def test_huge_draw_index_is_one_error_without_a_numpy_warning(tmp_path):
    head = "draw,x1,value\n"
    for index in ("1e300", "inf", "2"):
        path = _write(tmp_path / "e.csv", head + f"0,0.0,1.0\n{index},0.0,1.0\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(CsvFormatError, match="without gaps"):
                csvio.read_draws(path)


def test_draws_report_the_first_broken_draw_as_before(tmp_path):
    # draw 0 lacks a node and draw 1 has a non-finite coordinate: as when
    # draws were assembled one by one, draw 0 is the one reported
    text = "draw,x1,value\n0,0.0,1.0\n1,0.0,1.0\n1,nan,2.0\n0,1.0,1.0\n0,1.0,3.0\n"
    path = _write(tmp_path / "e.csv", text)
    with pytest.raises(CsvFormatError, match="do not tile") as new:
        csvio.read_draws(path)
    with pytest.raises(CsvFormatError) as ref:
        read_draws_reference(path)
    assert str(new.value) == str(ref.value)


def test_non_utf8_csv_is_one_invalid_input_line(tmp_path, capsys):
    path = tmp_path / "utf16.csv"
    path.write_bytes("x1,value\n0.0,1.0\n".encode("utf-16"))
    assert path.read_bytes()[:2] == b"\xff\xfe"
    with pytest.raises(CsvFormatError, match="not UTF-8"):
        csvio.read_grid_function(str(path))
    rc = main(["rearrange", "--input", str(path), "--out", str(tmp_path / "o.csv")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("monotonize: invalid input: ") and err.count("\n") == 1
    assert "not UTF-8" in err


def test_oversized_csv_field_is_one_invalid_input_line(tmp_path, capsys):
    path = _write(tmp_path / "big.csv", "x1,value\n0.0,1.0\n1.0," + "1" * 200_000 + "\n")
    with pytest.raises(CsvFormatError, match="big.csv:3: field larger than field limit"):
        csvio.read_grid_function(path)
    rc = main(["rearrange", "--input", path, "--out", str(tmp_path / "o.csv")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("monotonize: invalid input: ") and err.count("\n") == 1


def test_cli_band_past_the_float_maximum_is_one_invalid_input_line(tmp_path, capsys):
    # warnings are errors here: the end-point center + critical * stderr
    # overflows to inf, which Band refuses without an overflow warning
    u = np.random.default_rng(0).random(50)
    xy = zip(np.linspace(0.0, 1.0, 50).tolist(), (1.7e308 * u).tolist())
    data = _write(tmp_path / "d.csv", "x,y\n" + "".join(f"{x!r},{y!r}\n" for x, y in xy))
    out = tmp_path / "e.csv"
    rc = main(["estimate", "--data", data, "--method", "fourier", "--nterms", "2",
               "--bootstrap", "20", "--seed", "1", "--out", str(out),
               "--band-out", str(tmp_path / "b.csv")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err == "monotonize: invalid input: function values must be finite\n"
    assert not out.exists()


def test_cli_estimate_on_x_across_the_float_range_warns_nothing(tmp_path, capsys):
    # warnings are errors here: the grid's max - min and the window bounds
    # overflow unless the fit guards them.  A fit ends in its estimate or in
    # one invalid-input line, never in a numpy warning
    data = _write(tmp_path / "d.csv", "x,y\n-1e308,1\n1e308,2\n0,3\n")
    out = tmp_path / "e.csv"
    args = ["estimate", "--data", data, "--method", "loclinear", "--grid", "2", "--out", str(out)]
    assert main(args + ["--bandwidth", "1.7e308"]) == 0
    assert capsys.readouterr().err == ""
    f = csvio.read_grid_function(str(out))
    assert f.axes[0].coords.tolist() == [-1e308, 1e308]
    np.testing.assert_allclose(f.values, [1.0, 2.0], rtol=1e-15)
    out.unlink()
    assert main(args + ["--bandwidth", "1"]) == 1
    assert capsys.readouterr().err == (
        "monotonize: invalid input: fewer than 2 distinct x within bandwidth 1.0 of node -1e+308\n"
    )
    assert not out.exists()
    # the series bases and the local-linear check loss on four points: the
    # span, the knot gaps and x - x_first overflow unless the fit scales x
    data = _write(tmp_path / "d4.csv", "x,y\n-1e308,1\n1e308,2\n0,3\n5e307,4\n")
    args = ["estimate", "--data", data, "--grid", "3", "--out", str(out)]
    for extra in (["--method", "fourier", "--nterms", "1"],
                  ["--method", "loclinear", "--bandwidth", "1.7e308", "--loss", "quantile",
                   "--tau", "0.5"]):
        assert main(args + extra) == 0, extra
        assert capsys.readouterr().err == ""
        f = csvio.read_grid_function(str(out))
        assert f.axes[0].coords.tolist() == [-1e308, 0.0, 1e308]
        assert np.all(np.isfinite(f.values))
        out.unlink()
    assert main(args + ["--method", "bspline", "--knots", "0"]) == 2
    assert capsys.readouterr().err == (
        "monotonize: numerical failure: series design of 5 columns is singular to 1e-6 "
        "of its largest singular value\n"
    )
    assert not out.exists()


def test_draws_grid_mismatch_rejected(tmp_path):
    text = "draw,x1,value\n0,0.0,1.0\n0,1.0,2.0\n1,0.0,1.0\n1,2.0,2.0\n"
    path = _write(tmp_path / "e.csv", text)
    with pytest.raises(GridMismatchError):
        csvio.read_draws(path)


# --- command line --------------------------------------------------------


def _grid_csv(tmp_path, values, name="in.csv"):
    f = make_grid_function([np.linspace(0, 1, len(values))], values)
    path = tmp_path / name
    csvio.write_grid_function(f, path)
    return str(path)


def test_cli_rearrange_sorts_values(tmp_path, capsys):
    src = _grid_csv(tmp_path, [3.0, 1.0, 2.0])
    out = str(tmp_path / "out.csv")
    assert main(["rearrange", "--input", src, "--out", out]) == 0
    assert "wrote" in capsys.readouterr().out
    np.testing.assert_array_equal(
        csvio.read_grid_function(out).values, [1.0, 2.0, 3.0]
    )


def test_cli_rearrange_is_idempotent_byte_for_byte(tmp_path):
    src = _grid_csv(tmp_path, [0.3, -1.2, 4.5, 0.3])
    once = str(tmp_path / "once.csv")
    twice = str(tmp_path / "twice.csv")
    assert main(["rearrange", "--input", src, "--out", once]) == 0
    assert main(["rearrange", "--input", once, "--out", twice]) == 0
    assert (tmp_path / "once.csv").read_bytes() == (tmp_path / "twice.csv").read_bytes()


def test_cli_rearrange_keeps_monotone_input_identical(tmp_path):
    src = _grid_csv(tmp_path, [-0.5, 0.25, 1.75])
    out = str(tmp_path / "out.csv")
    assert main(["rearrange", "--input", src, "--out", out]) == 0
    assert (tmp_path / "in.csv").read_bytes() == (tmp_path / "out.csv").read_bytes()


def test_cli_isotonize_applies_pava(tmp_path):
    values = [3.0, 1.0, 2.0, 5.0]
    src = _grid_csv(tmp_path, values)
    out = str(tmp_path / "out.csv")
    assert main(["isotonize", "--input", src, "--out", out]) == 0
    np.testing.assert_allclose(csvio.read_grid_function(out).values, pava(values))


def test_cli_blend_lambda(tmp_path):
    values = [3.0, 1.0, 2.0]
    src = _grid_csv(tmp_path, values)
    out = str(tmp_path / "out.csv")
    assert main(["rearrange", "--input", src, "--out", out, "--lambda", "0.25"]) == 0
    expect = 0.25 * np.sort(values) + 0.75 * pava(values)
    np.testing.assert_allclose(csvio.read_grid_function(out).values, expect)


def test_cli_explicit_orderings_2d(tmp_path):
    f = make_grid_function([[0.0, 1.0], [0.0, 1.0]], [[3.0, 1.0], [0.0, 2.0]])
    src = tmp_path / "in.csv"
    csvio.write_grid_function(f, src)
    out = str(tmp_path / "out.csv")
    assert main(["rearrange", "--input", str(src), "--out", out,
                 "--orderings", "2,1"]) == 0
    np.testing.assert_array_equal(
        csvio.read_grid_function(out).values, [[0.0, 1.0], [2.0, 3.0]]
    )


def test_cli_band_from_band_file(tmp_path, capsys):
    band = Band(
        make_grid_function([[0.0, 1.0]], [1.0, 0.0]),
        make_grid_function([[0.0, 1.0]], [2.0, 3.0]),
    )
    src = tmp_path / "band.csv"
    csvio.write_band(band, src)
    out = str(tmp_path / "out.csv")
    assert main(["band", "--input", str(src), "--out", out]) == 0
    text = capsys.readouterr().out
    assert "L2 length" in text and "ratio" in text
    mono = csvio.read_band(out)
    np.testing.assert_allclose(mono.lower.values, [0.0, 1.0])


def test_cli_band_from_center_and_critical(tmp_path):
    center = _grid_csv(tmp_path, [1.0, 2.0], "center.csv")
    stderr = _grid_csv(tmp_path, [0.5, 1.0], "stderr.csv")
    out = str(tmp_path / "band.csv")
    rc = main(
        ["band", "--center", center, "--stderr", stderr, "--critical", "2.0",
         "--out", out]
    )
    assert rc == 0
    band = csvio.read_band(out)
    np.testing.assert_allclose(band.upper.values, [2.0, 4.0])


def test_cli_band_from_center_and_draws(tmp_path, capsys):
    rng = np.random.default_rng(19)
    axis = np.linspace(0, 1, 4)
    center = make_grid_function([axis], np.zeros(4))
    csvio.write_grid_function(center, tmp_path / "center.csv")
    csvio.write_grid_function(
        center.with_values(np.full(4, 0.5)), tmp_path / "stderr.csv"
    )
    draws = make_grid_function([np.arange(8), axis], rng.normal(size=(8, 4)))
    csvio.write_draws(draws, tmp_path / "draws.csv")
    rc = main(
        ["band", "--center", str(tmp_path / "center.csv"),
         "--stderr", str(tmp_path / "stderr.csv"),
         "--draws", str(tmp_path / "draws.csv"),
         "--out", str(tmp_path / "band.csv")]
    )
    assert rc == 0
    assert "critical value:" in capsys.readouterr().out


def test_cli_band_alpha_zero_builds_on_the_largest_statistic(tmp_path, capsys):
    axis = np.linspace(0, 1, 3)
    center = make_grid_function([axis], np.zeros(3))
    csvio.write_grid_function(center, tmp_path / "center.csv")
    csvio.write_grid_function(center.with_values(np.ones(3)), tmp_path / "stderr.csv")
    # per-draw max-t statistics are 1, 3 and 2
    draws = make_grid_function(
        [np.arange(3), axis], [[1.0, 0.5, 0.0], [0.0, -3.0, 1.0], [2.0, 0.0, 0.0]]
    )
    csvio.write_draws(draws, tmp_path / "draws.csv")
    out = tmp_path / "band.csv"
    rc = main(
        ["band", "--center", str(tmp_path / "center.csv"),
         "--stderr", str(tmp_path / "stderr.csv"),
         "--draws", str(tmp_path / "draws.csv"), "--alpha", "0", "--out", str(out)]
    )
    assert rc == 0
    assert "critical value: 3.0\n" in capsys.readouterr().out
    band = csvio.read_band(out)
    np.testing.assert_array_equal(band.lower.values, [-3.0, -3.0, -3.0])
    np.testing.assert_array_equal(band.upper.values, [3.0, 3.0, 3.0])


def _band_files_2d(tmp_path, draw_axes=None):
    """center, stderr and draws CSVs on a 4 x 3 grid: the draws on draw_axes."""
    rng = np.random.default_rng(31)
    axes = [np.linspace(0, 1, 4), [0.0, 0.5, 1.0]]
    center = make_grid_function(axes, rng.normal(size=(4, 3)))
    stderr = center.with_values(rng.uniform(0.5, 1.5, size=(4, 3)))
    draws = make_grid_function([np.arange(9), *(draw_axes or axes)], rng.normal(size=(9, 4, 3)))
    paths = [str(tmp_path / f) for f in ("center.csv", "stderr.csv", "draws.csv")]
    csvio.write_grid_function(center, paths[0])
    csvio.write_grid_function(stderr, paths[1])
    csvio.write_draws(draws, paths[2])
    return (center, stderr, draws), paths


def test_cli_band_from_draws_on_a_2d_grid(tmp_path, capsys):
    (center, stderr, draws), (c, se, d) = _band_files_2d(tmp_path)
    out = str(tmp_path / "band.csv")
    rc = main(["band", "--center", c, "--stderr", se, "--draws", d, "--alpha", "0.2",
               "--out", out])
    assert rc == 0
    critical = critical_value_max_t(center, draws, stderr, 0.2)
    assert f"critical value: {critical!r}\n" in capsys.readouterr().out
    assert csvio.read_band(out) == monotonize_band(assemble_band(center, stderr, critical))


def test_cli_band_draws_on_another_grid_is_one_line(tmp_path, capsys):
    _, (c, se, d) = _band_files_2d(tmp_path, [np.linspace(0, 1, 4), [0.0, 0.5, 2.0]])
    center, stderr = map(csvio.read_grid_function, (c, se))
    with pytest.raises(GridMismatchError):
        critical_value_max_t(center, csvio.read_draws(d), stderr, 0.1)
    out = str(tmp_path / "b.csv")
    rc = main(["band", "--center", c, "--stderr", se, "--draws", d, "--out", out])
    assert rc == 1
    assert capsys.readouterr() == (
        "", "monotonize: invalid input: functions do not live on the same grid\n"
    )
    assert not (tmp_path / "b.csv").exists()


def test_cli_band_usage_error(tmp_path, capsys):
    center = _grid_csv(tmp_path, [1.0, 2.0], "center.csv")
    stderr = _grid_csv(tmp_path, [0.5, 0.5], "stderr.csv")
    for argv, message in (
        ([], "give --input, --lower/--upper, or --center/--stderr"),
        (["--stderr", stderr], "--center/--stderr needs --critical or --draws"),
    ):
        rc = main(["band", "--center", center, *argv])
        assert rc == 1
        assert capsys.readouterr().err == f"monotonize: invalid input: band: {message}\n"


def _dataset_csv(tmp_path, n=60, seed=23):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0, 1, n)
    data = Dataset(x, 1.0 + 2.0 * x + rng.normal(0, 0.3, n))
    path = tmp_path / "data.csv"
    csvio.write_dataset(data, path)
    return str(path)


def test_cli_estimate_mean(tmp_path, capsys):
    data = _dataset_csv(tmp_path)
    out = str(tmp_path / "fit.csv")
    rc = main(
        ["estimate", "--data", data, "--method", "kernel", "--bandwidth", "0.3",
         "--grid", "12", "--out", out]
    )
    assert rc == 0
    assert "wrote" in capsys.readouterr().out
    f = csvio.read_grid_function(out)
    assert f.shape == (12,)


def test_cli_estimate_quantile_needs_tau(tmp_path, capsys):
    data = _dataset_csv(tmp_path)
    rc = main(
        ["estimate", "--data", data, "--method", "kernel", "--bandwidth", "0.3",
         "--loss", "quantile", "--out", str(tmp_path / "f.csv")]
    )
    assert rc == 1
    assert "needs --tau" in capsys.readouterr().err


def test_cli_estimate_quantile_process(tmp_path):
    data = _dataset_csv(tmp_path)
    out = str(tmp_path / "proc.csv")
    rc = main(
        ["estimate", "--data", data, "--method", "kernel", "--bandwidth", "0.35",
         "--loss", "quantile", "--taus", "0.25:0.75:0.25", "--grid", "8",
         "--out", out]
    )
    assert rc == 0
    proc = csvio.read_grid_function(out)
    assert proc.shape == (3, 8)
    np.testing.assert_allclose(proc.axes[0].coords, [0.25, 0.5, 0.75])


def test_cli_estimate_taus_refuse_bootstrap(tmp_path, capsys):
    data = _dataset_csv(tmp_path)
    rc = main(
        ["estimate", "--data", data, "--method", "kernel", "--bandwidth", "0.35",
         "--loss", "quantile", "--taus", "0.25:0.75:0.25",
         "--bootstrap", "8", "--out", str(tmp_path / "f.csv")]
    )
    assert rc == 1
    assert "--taus" in capsys.readouterr().err


def test_cli_estimate_bootstrap_outputs(tmp_path, capsys):
    data = _dataset_csv(tmp_path)
    out = str(tmp_path / "fit.csv")
    rc = main(
        ["estimate", "--data", data, "--method", "loclinear", "--bandwidth", "0.4",
         "--grid", "9", "--bootstrap", "12", "--seed", "3", "--out", out,
         "--stderr-out", str(tmp_path / "se.csv"),
         "--draws-out", str(tmp_path / "draws.csv"),
         "--band-out", str(tmp_path / "band.csv")]
    )
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == ["wrote"] * 3 + ["critical", "wrote"]
    assert [line.split()[-1] for line in lines if line.startswith("wrote")] == [
        out, *(str(tmp_path / f) for f in ("se.csv", "draws.csv", "band.csv"))
    ]
    assert csvio.read_grid_function(str(tmp_path / "se.csv")).shape == (9,)
    assert csvio.read_draws(str(tmp_path / "draws.csv")).shape == (12, 9)
    band = csvio.read_band(str(tmp_path / "band.csv"))
    assert np.all(band.lower.values <= band.upper.values)


def test_cli_estimate_bootstrap_outputs_need_flag(tmp_path, capsys):
    data = _dataset_csv(tmp_path)
    rc = main(
        ["estimate", "--data", data, "--method", "kernel", "--bandwidth", "0.3",
         "--out", str(tmp_path / "f.csv"), "--stderr-out", str(tmp_path / "se.csv")]
    )
    assert rc == 1
    assert "--bootstrap" in capsys.readouterr().err
    assert not (tmp_path / "f.csv").exists()


@pytest.mark.parametrize("draws", [["--bootstrap", "5", "--seed", "-1"], ["--bootstrap", "1"]])
def test_cli_estimate_refused_bootstrap_writes_no_file(tmp_path, capsys, draws):
    data = _dataset_csv(tmp_path)
    rc = main(
        ["estimate", "--data", data, "--method", "kernel", "--bandwidth", "0.35",
         "--out", str(tmp_path / "f.csv"), "--band-out", str(tmp_path / "b.csv"), *draws]
    )
    assert rc == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("monotonize: invalid input: ")
    assert not (tmp_path / "f.csv").exists() and not (tmp_path / "b.csv").exists()


@pytest.mark.parametrize(
    "extra",
    [
        ["--taus", "0.1:0.9:0.1", "--draws-out", "d.csv", "--stderr-out", "s.csv"],
        ["--tau", "0.3"],
        ["--taus", "0.25:0.75:0.25"],
        ["--loss", "mean", "--tau", "0.3", "--bootstrap", "4"],
        ["--loss", "quantile", "--tau", "0.3", "--taus", "0.25:0.75:0.25"],
        ["--loss", "quantile", "--taus", "0.25:0.75:0.25", "--bootstrap", "0"],
        *(["--loss", "quantile", "--taus", "0.25:0.75:0.25", flag, "o.csv"]
          for flag in ("--stderr-out", "--draws-out", "--band-out")),
    ],
)
def test_cli_estimate_refuses_options_it_would_ignore(tmp_path, capsys, extra):
    data = _dataset_csv(tmp_path)
    extra = [str(tmp_path / a) if a.endswith(".csv") else a for a in extra]
    rc = main(["estimate", "--data", data, "--method", "kernel", "--bandwidth", "0.35",
               "--grid", "8", "--out", str(tmp_path / "f.csv"), *extra])
    assert rc == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("monotonize: invalid input: ") and err.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["data.csv"]


def test_cli_estimate_numerical_failure_exit_code(tmp_path, capsys):
    rng = np.random.default_rng(29)
    data = Dataset(rng.uniform(0, 1, 5), rng.normal(size=5))
    path = tmp_path / "small.csv"
    csvio.write_dataset(data, path)
    rc = main(
        ["estimate", "--data", str(path), "--method", "fourier", "--nterms", "4",
         "--out", str(tmp_path / "f.csv")]
    )
    assert rc == 2
    assert "numerical failure" in capsys.readouterr().err


@pytest.mark.parametrize("method", [["bspline", "--knots", "0.3,0.6"], ["fourier", "--nterms", "2"]])
def test_cli_estimate_pivot_cap_is_one_numerical_failure_line(tmp_path, capsys, monkeypatch, method):
    from monotonize import estimators

    monkeypatch.setattr(estimators, "_pivot_cap", lambda n, k: 1)
    data = _dataset_csv(tmp_path)
    out = tmp_path / "f.csv"
    rc = main(["estimate", "--data", data, "--method", *method, "--loss", "quantile",
               "--tau", "0.1", "--grid", "8", "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("monotonize: numerical failure: check-loss descent: 1 levels unsolved")
    assert err.count("\n") == 1
    assert not out.exists()


def test_cli_invalid_input_exit_code(tmp_path, capsys):
    rc = main(
        ["rearrange", "--input", str(tmp_path / "missing.csv"),
         "--out", str(tmp_path / "out.csv")]
    )
    assert rc == 1
    err = capsys.readouterr().err
    assert err.strip()
    rc = main(["frobnicate"])
    assert rc == 1


def test_cli_bad_bandwidth_is_invalid_input(tmp_path, capsys):
    data = _dataset_csv(tmp_path)
    rc = main(
        ["estimate", "--data", data, "--method", "kernel", "--bandwidth", "-1",
         "--out", str(tmp_path / "f.csv")]
    )
    assert rc == 1
    assert "invalid input" in capsys.readouterr().err


def test_cli_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "monotonize" in capsys.readouterr().out


def test_cli_simulate_deterministic_across_threads(tmp_path):
    config = {
        "n": 40,
        "reps": 3,
        "seed": 11,
        "grid": 10,
        "estimators": [{"method": "kernel", "bandwidth": 2.0}],
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config), encoding="utf-8")
    outs = []
    for name, threads in (("a.csv", "1"), ("b.csv", "1"), ("c.csv", "3")):
        out = tmp_path / name
        rc = main(
            ["simulate", "--config", str(cfg_path), "--table", "1",
             "--out", str(out), "--threads", threads]
        )
        assert rc == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1] == outs[2]


def test_cli_simulate_threads_below_one_is_one_invalid_input_line(tmp_path, capsys):
    out = tmp_path / "r.csv"
    rc = main(["simulate", "--table", "1", "--out", str(out), "--threads", "0"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err == "monotonize: invalid input: threads must be at least 1\n"
    assert not out.exists()


def test_cli_simulate_rejects_bad_config(tmp_path, capsys):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text("{not json", encoding="utf-8")
    rc = main(
        ["simulate", "--config", str(cfg_path), "--table", "1",
         "--out", str(tmp_path / "r.csv")]
    )
    assert rc == 1
    assert "invalid input" in capsys.readouterr().err
    cfg_path.write_text(json.dumps({"repz": 3}), encoding="utf-8")
    rc = main(
        ["simulate", "--config", str(cfg_path), "--table", "1",
         "--out", str(tmp_path / "r.csv")]
    )
    assert rc == 1


def test_cli_simulate_non_utf8_config_is_one_invalid_input_line(tmp_path, capsys):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_bytes(json.dumps({"reps": 2}).encode("utf-16"))
    rc = main(
        ["simulate", "--config", str(cfg_path), "--table", "1",
         "--out", str(tmp_path / "r.csv")]
    )
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("monotonize: invalid input: ") and err.count("\n") == 1
    assert "not UTF-8" in err


@pytest.mark.parametrize(
    "config",
    [
        {"taus": {"lo": 0.1, "hi": 0.9, "step": 0}},
        {"taus": {"lo": 0.1, "step": 0.1}},
        {"taus": {"lo": 0.1, "hi": 0.9, "step": 0.3}},
        {"reps": "abc"},
        {"sigma": "abc"},
        {"alpha": "x"},
        {"beta": [71.25, 8.13, "x", 1.78, -6.43]},
        {"taus": ["a"]},
        {"x_design": ["a"]},
        {"lambda_grid": ["x"]},
        {"lambda_grid": 0.5},
        {"estimators": 5},
        {"estimators": [5]},
        {"estimators": [], "grid": 7},
        {"estimators": [{"method": "kernel", "bandwidth": "x"}]},
        {"estimators": [{"method": "bspline", "knots": ["a"]}]},
        {"estimators": [{"method": "fourier", "n_terms": "x"}]},
        {"estimators": [{"method": "fourier", "n_terms": 2, "fourier_linear": "no"}]},
        # a count is a whole number, a seed is at least 0, and neither a bool
        # nor a quoted number is a number
        {"reps": 2.9},
        {"grid": 7.5},
        {"reps": "3"},
        {"reps": True},
        {"seed": -1},
        {"seed": 1.5},
        {"bootstrap_B": 2.5},
        {"sigma": True},
        {"lambda_grid": [True]},
        {"taus": ["0.25", "0.75"]},
        {"estimators": [{"method": "fourier", "n_terms": 2.7}]},
        {"estimators": [{"method": "kernel", "bandwidth": True}]},
        {"x_design": [float("nan"), 3.0, 4.0]},
        {"sigma": float("inf")},
        {"lambda_grid": [0.5, 0.5]},
        {"lambda_grid": []},
    ],
)
def test_cli_simulate_bad_config_value_is_one_invalid_input_line(tmp_path, capsys, config):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config), encoding="utf-8")
    rc = main(
        ["simulate", "--config", str(cfg_path), "--table", "2",
         "--out", str(tmp_path / "r.csv")]
    )
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("monotonize: invalid input: ") and err.count("\n") == 1
    assert not (tmp_path / "r.csv").exists()


@pytest.mark.parametrize("table", ["1", "2", "3"])
def test_cli_simulate_overflowing_draw_is_one_invalid_input_line(tmp_path, capsys, table):
    # sigma times a normal draw overflows; with warnings as errors a numpy
    # overflow warning would end the run before the finiteness check
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"sigma": 1e308, "reps": 2}), encoding="utf-8")
    rc = main(["simulate", "--config", str(cfg_path), "--table", table,
               "--out", str(tmp_path / "r.csv")])
    assert rc == 1
    assert capsys.readouterr().err == "monotonize: invalid input: observations must be finite\n"


@pytest.mark.parametrize("table", ["1", "2", "3"])
def test_cli_simulate_overflowing_truth_is_one_invalid_input_line(tmp_path, capsys, table):
    # the true curve passes the float maximum; with warnings as errors a numpy
    # overflow warning would end the run before the finiteness check
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"reps": 2, "beta": [1.7e308, 1.7e308, 0, 0, 0]}),
                        encoding="utf-8")
    rc = main(["simulate", "--config", str(cfg_path), "--table", table,
               "--out", str(tmp_path / "r.csv")])
    assert rc == 1
    assert capsys.readouterr().err == "monotonize: invalid input: function values must be finite\n"


@pytest.mark.parametrize(
    "extra", [["--bootstrap", "5", "--seed", "-1"], ["--grid", "1"]]
)
def test_cli_estimate_refused_value_is_one_invalid_input_line(tmp_path, capsys, extra):
    data = _dataset_csv(tmp_path)
    rc = main(
        ["estimate", "--data", data, "--method", "kernel", "--bandwidth", "0.35",
         "--out", str(tmp_path / "f.csv"), *extra]
    )
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("monotonize: invalid input: ") and err.count("\n") == 1


@pytest.mark.parametrize("net", ["0.1:0.9:0", "0.1:0.9", "0.1:0.9:0.3"])
def test_cli_estimate_bad_tau_net_is_one_invalid_input_line(tmp_path, capsys, net):
    data = _dataset_csv(tmp_path)
    rc = main(
        ["estimate", "--data", data, "--method", "kernel", "--bandwidth", "0.35",
         "--loss", "quantile", "--taus", net, "--out", str(tmp_path / "f.csv")]
    )
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("monotonize: invalid input: ") and err.count("\n") == 1


@pytest.mark.parametrize("x", [[0.5], [0.5, 0.5, 0.5]])
def test_cli_estimate_needs_two_distinct_x(tmp_path, capsys, x):
    data = tmp_path / "data.csv"
    csvio.write_dataset(Dataset(x, np.arange(len(x), dtype=float)), data)
    rc = main(
        ["estimate", "--data", str(data), "--method", "kernel", "--bandwidth", "0.3",
         "--out", str(tmp_path / "f.csv")]
    )
    assert rc == 1
    err = capsys.readouterr().err
    assert err == (
        "monotonize: invalid input: an evaluation grid needs at least two "
        "distinct x values; every x is 0.5\n"
    )


def test_cli_simulate_improvement_violation_is_one_numerical_failure_line(
    tmp_path, capsys, monkeypatch
):
    from monotonize import montecarlo

    monkeypatch.setattr(
        montecarlo, "rearrange_axis", lambda f, *args: f.with_values(f.values + 100.0)
    )
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(
        json.dumps({"n": 40, "reps": 2, "grid": 10,
                    "estimators": [{"method": "kernel", "bandwidth": 2.0}]}),
        encoding="utf-8",
    )
    out = tmp_path / "r.csv"
    rc = main(["simulate", "--config", str(cfg_path), "--table", "1", "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("monotonize: numerical failure: replication 0: kernel rearranged")
    assert err.count("\n") == 1
    assert not out.exists()


def test_cli_simulate_degenerate_band_stderr_is_one_numerical_failure_line(
    tmp_path, capsys, monkeypatch
):
    from monotonize import montecarlo

    def zero_stderr(data, spec, n_draws, seed):
        fhat = montecarlo.fit(data, spec).estimate
        return fhat.with_values(np.zeros(fhat.shape)), [fhat, fhat]

    monkeypatch.setattr(montecarlo, "bootstrap", zero_stderr)
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(
        json.dumps({"n": 40, "reps": 2, "grid": 10, "bootstrap_B": 4,
                    "estimators": [{"method": "kernel", "bandwidth": 2.0}]}),
        encoding="utf-8",
    )
    out = tmp_path / "r.csv"
    rc = main(["simulate", "--config", str(cfg_path), "--table", "3", "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("monotonize: numerical failure: replication 0: ")
    assert err.count("\n") == 1
    assert not out.exists()


def test_cli_rearrange_on_an_axis_spanning_the_float_range(tmp_path):
    # in a fresh interpreter, so that a numpy warning would reach stderr
    src = tmp_path / "in.csv"
    src.write_text("x1,value\n-1.7e308,2.0\n1.7e308,1.0\n", encoding="utf-8")
    out = tmp_path / "out.csv"
    path = [str(Path(monotonize.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    done = subprocess.run(
        [sys.executable, "-m", "monotonize", "rearrange", "--input", str(src), "--out", str(out)],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path))),
        capture_output=True,
        text=True,
    )
    assert (done.returncode, done.stderr) == (0, "")
    f = csvio.read_grid_function(out)
    np.testing.assert_array_equal(f.axes[0].coords, [-1.7e308, 1.7e308])
    np.testing.assert_array_equal(f.values, [1.0, 2.0])
