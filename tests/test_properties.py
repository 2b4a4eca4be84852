"""Property tests of the axis-by-axis operators, monotonized bands and CSV.

Grids have d = 1..3 axes of 1..4 nodes (singleton axes included), and values
mix a coarse integer lattice, so ties are frequent, with continuous draws.
The shape properties and the L^p error property also run at magnitudes up
to 2^1023, near the float limit.  The batched isotonization, the CSV writers
and the CSV readers must match their row-by-row references in tests/oracles
bit for bit, byte for byte, and error for error.
"""

import csv
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monotonize import csvio
from monotonize.bands import Band, covers, monotonize_band
from monotonize.estimators import Dataset
from monotonize.grid import INF, is_monotone, lp_distance, lp_length, make_grid_function
from monotonize.isotonic import isotonize_average, isotonize_axis, isotonize_pi, monotonize
from monotonize.rearrange import rearrange_average, rearrange_pi

from oracles import (
    isotonize_average_reference,
    isotonize_axis_reference,
    read_draws_reference,
    read_rows_reference,
    write_rows_reference,
)

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


# --- batched isotonization against one pava call per fiber -------------------

# rows of one axis pass at these magnitudes need different power-of-two
# shifts: none below about 2^1000, a few bits at 2^1020.  Applied to the
# subnormal 1e-310 rows, the shift of the 2^1020 rows would drop low bits.
ROW_SCALES = (1e-310, 1e-300, 1.0, 1e300, 2.0**1020)


def _same_bits(a, b):
    assert a.shape == b.shape and a.tobytes() == b.tobytes()


@PROPERTY
@given(st.data())
def test_batched_isotonization_matches_per_fiber_pava_bit_for_bit(data):
    d = data.draw(st.integers(2, 3))
    shape = tuple(data.draw(st.lists(st.integers(1, 5), min_size=d, max_size=d)))
    values = data.draw(grid_values(shape))
    # scale along one axis, so the fibers of every other axis differ in magnitude
    j = data.draw(st.integers(0, d - 1))
    scale = st.sampled_from(ROW_SCALES)
    scales = data.draw(st.lists(scale, min_size=shape[j], max_size=shape[j]))
    values = values * np.array(scales).reshape([-1 if i == j else 1 for i in range(d)])
    f = make_grid_function([np.linspace(0.0, 1.0, k) for k in shape], values)
    for axis in range(1, d + 1):
        _same_bits(isotonize_axis(f, axis).values, isotonize_axis_reference(f, axis).values)
    _same_bits(isotonize_average(f).values, isotonize_average_reference(f).values)


def test_batched_isotonization_mixes_all_magnitudes_in_one_pass():
    rng = np.random.default_rng(5)
    k = len(ROW_SCALES)
    base = rng.integers(-3, 4, size=(k, 6, 3)) + rng.uniform(-1.0, 1.0, size=(k, 6, 3))
    scales = np.reshape(ROW_SCALES, (k, 1, 1))
    for values in (base * scales, base[:, :, 0] * scales[:, :, 0]):
        f = make_grid_function([np.linspace(0.0, 1.0, n) for n in values.shape], values)
        for axis in range(1, f.ndim + 1):
            _same_bits(isotonize_axis(f, axis).values, isotonize_axis_reference(f, axis).values)
        _same_bits(isotonize_average(f).values, isotonize_average_reference(f).values)


@PROPERTY
@given(st.data())
def test_batched_isotonization_of_weakly_increasing_fibers_is_the_identity(data):
    f, _ = data.draw(grids())
    g = data.draw(monotone_like(f))
    for axis in range(1, g.ndim + 1):
        out = isotonize_axis(g, axis).values
        _same_bits(out, g.values)
        _same_bits(out, isotonize_axis_reference(g, axis).values)


# --- CSV writers and readers against their row-by-row references -------------

EDGE_FLOATS = (0.0, -0.0, 5e-324, -5e-324, 1.7e308, -1.7e308, 0.1, 1.0 / 3.0)
edge_or_float = st.one_of(
    st.sampled_from(EDGE_FLOATS), st.floats(allow_nan=False, allow_infinity=False)
)


@st.composite
def edge_grids(draw):
    """A grid function of d = 1..3 with edge-case coordinates and values."""
    d = draw(st.integers(1, 3))
    axes = []
    for _ in range(d):
        coords = np.unique(draw(st.lists(edge_or_float, min_size=1, max_size=4)))
        axes.append(coords)
    shape = tuple(len(a) for a in axes)
    values = draw(st.lists(edge_or_float, min_size=math.prod(shape), max_size=math.prod(shape)))
    return make_grid_function(axes, np.reshape(values, shape))


@PROPERTY
@given(st.data())
def test_csv_writers_match_the_row_by_row_reference_byte_for_byte(tmp_path_factory, data):
    tmp = tmp_path_factory.getbasetemp()
    new, ref = tmp / "new.csv", tmp / "ref.csv"
    f = data.draw(edge_grids())
    header = csvio._coord_header(f.ndim)

    csvio.write_grid_function(f, new)
    write_rows_reference(ref, header + ["value"], [("", f.axes, [f.values])])
    assert new.read_bytes() == ref.read_bytes()

    n = f.values.size
    g = np.asarray(data.draw(st.lists(edge_or_float, min_size=n, max_size=n)))
    lower = np.minimum(f.values, g.reshape(f.shape))
    upper = np.maximum(f.values, g.reshape(f.shape))
    csvio.write_band(Band(f.with_values(lower), f.with_values(upper)), new)
    write_rows_reference(ref, header + ["lower", "upper"], [("", f.axes, [lower, upper])])
    assert new.read_bytes() == ref.read_bytes()

    stacked = np.stack([f.values, lower, upper])[: data.draw(st.integers(1, 3))]
    draws = make_grid_function([np.arange(len(stacked)), *f.axes], stacked)
    csvio.write_draws(draws, new)
    blocks = [(f"{b},", f.axes, [v]) for b, v in enumerate(stacked)]
    write_rows_reference(ref, ["draw"] + header + ["value"], blocks)
    assert new.read_bytes() == ref.read_bytes()

    x, y = f.values.reshape(-1), g
    csvio.write_dataset(Dataset(x, y), new)
    lines = "".join(f"{float(a)!r},{float(b)!r}\n" for a, b in zip(x, y))
    assert new.read_text(encoding="utf-8") == "x,y\n" + lines


def _outcome(read, path):
    """What a reader returns, or the class and message of what it raises."""
    try:
        return "ok", read(path)
    except Exception as exc:  # the class and message are what is compared
        return type(exc), str(exc)


def _assert_same_rows(new, ref):
    assert new[0] == ref[0]
    if new[0] == "ok":
        assert new[1][0] == ref[1][0]
        _same_bits(new[1][1], ref[1][1])
    else:
        assert new[1] == ref[1]


# pieces that take numpy's C reader and pieces that keep csv on its own path:
# quotes, underscores, CR, full-width digits, NUL, \x1c-\x1f, a BOM, and
# \x0c, \x0b and \u2028, at which str.splitlines would split a line but csv does not
NUMBER_FIELDS = (
    "0", "1.5", "-0.0", "5e-324", "1.7e308", " 2.5", "3.0 ", "nan", "-inf", "inf",
    "1_0", '"4.5"', "\uff11.5", "2\x0c", "\x0b3", "4\u2028", "1e999", "+NaN",
)
OTHER_FIELDS = (
    "", "abc", "1,5", "1e", '"1,5"', '"7\n8"', '""', "0x10",
    "1\x1c", "\x1f2", "1\x00", "1\x0c2", "1\u20282", "1\x0b2",
)
BLANK_LINES = ("", " ", "\t", "\x0c")
FIELD_LIMITS = (csv.field_size_limit(), 12)


@st.composite
def csv_texts(draw):
    """Mostly well-formed CSV text with fuzzed fields, widths and line ends."""
    # a mid-range pick: hypothesis favours the ends of a range
    if draw(st.integers(0, 19)) == 7:
        return ""
    header = draw(st.sampled_from(["x1,value", "x1,x2,value", " x1 , value", "draw,x1,value"]))
    header = "" if draw(st.integers(0, 19)) == 7 else header
    width = len(header.split(","))
    number = st.one_of(st.sampled_from(NUMBER_FIELDS), st.floats().map(repr))
    anything = st.one_of(number, st.sampled_from(OTHER_FIELDS))
    lines = [header]
    for _ in range(draw(st.integers(0, 6))):
        if draw(st.integers(0, 5)) == 0:
            lines.append(draw(st.sampled_from(BLANK_LINES)))
            continue
        n = width if draw(st.integers(0, 3)) else draw(st.integers(1, 4))
        field = anything if draw(st.integers(0, 3)) == 0 else number
        trailing = "," if draw(st.integers(0, 9)) == 0 else ""
        lines.append(",".join(draw(st.lists(field, min_size=n, max_size=n))) + trailing)
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    bom = "\ufeff" if draw(st.integers(0, 9)) == 0 else ""
    return bom + end.join(lines) + (end if draw(st.booleans()) else "")


def _same_read(path, text):
    if isinstance(text, str):
        text = text.encode("utf-8")
    path.write_bytes(text)
    new = _outcome(lambda p: csvio._read_rows(p, "grid function"), path)
    ref = _outcome(lambda p: read_rows_reference(p, "grid function"), path)
    _assert_same_rows(new, ref)


@PROPERTY
@given(st.lists(csv_texts(), min_size=5, max_size=5), st.sampled_from(FIELD_LIMITS))
def test_csv_reader_matches_the_row_by_row_reference(tmp_path_factory, texts, limit):
    path = tmp_path_factory.getbasetemp() / "fuzz.csv"
    default = csv.field_size_limit(limit)
    try:
        for text in texts:
            _same_read(path, text)
    finally:
        csv.field_size_limit(default)


# files that numpy's C reader parses otherwise than csv and float, or not at all
CSV_TRAPS = {
    "oversized field, inf": "x1,value\n0.0,1.0\n1.0," + "1" * 200_000 + "\n",
    "oversized field, finite": "x1,value\n0.0,1.0\n1.0,1." + "0" * 200_000 + "\n",
    "quoted numbers": 'x1,value\n"0",1\n1,"2.5"\n',
    "quoted line break": 'x1,value\n0,"1\n2"\n',
    "quoted header": '"x1",value\n0,1\n',
    "underscores": "x1,value\n0,1_0\n1,2_000.5\n",
    "CR line ends": "x1,value\r0,1\r1,2\r",
    "CRLF line ends": "x1,value\r\n0,1\r\n1,2\r\n",
    "CR inside the header": "x1,value\r2\n0,1\n",
    "full-width digits": "x1,value\n0,\uff11\n1,\uff12.5\n",
    "form feed": "x1,value\n0,1\x0c1,2\n",
    "form feed around a number": "x1,value\n0,1\x0c\n\x0c1,2\n",
    "vertical tab": "x1,value\n0,1\x0b1,2\n",
    "line separator": "x1,value\n0,1\u20281,2\n",
    "line separator around a number": "x1,value\n0,1\u2028\n1,\u20282\n",
    "file separator": "x1,value\n0,1\x1c\n1,2\n",
    "unit separator": "x1,value\n0,\x1f1\n1,2\n",
    "NUL in a field": "x1,value\n0,1\x00\n1,2\n",
    "NUL in the header": "x1\x00,value\n0,1\n",
    "empty file": "",
    "blank header": "\n0,1\n",
    "header without line end": "x1,value",
    "empty body": "x1,value\n",
    "blank body": "x1,value\n\n\n",
    "whitespace body": "x1,value\n \n",
    "blank lines": "x1,value\n\n0,1\n\n1,2\n\n",
    "whitespace-only line": "x1,value\n0,1\n   \n1,2\n",
    "whitespace-only line, one column": "value\n1\n \t\n2\n",
    "spaces around numbers": "x1,value\n 0 , 1 \n\t1\t,\t2\t\n",
    "trailing commas": "x1,value\n0,1,\n1,2,\n",
    "trailing comma in the header": "x1,value,\n0,1,\n",
    "empty field": "x1,value\n0,\n1,2\n",
    "BOM": "\ufeffx1,value\n0,1\n",
    "nan and inf": "x1,value\n0,nan\n1,-inf\n2,inf\n3,-nan\n4,Infinity\n5,+NaN\n",
    "beyond the float range": "x1,value\n0,1e999\n1,-1e999\n2,5e-324\n3,1e-400\n",
    "ragged rows": "x1,value\n0,1\n1\n2,3,4\n",
    "non-numeric field": "x1,value\n0,1\n1,abc\n",
    "hex": "x1,value\n0,0x10\n",
    "not UTF-8": b"x1,value\n0,\xff\n",
    "UTF-16": "x1,value\n0.0,1.0\n".encode("utf-16"),
    "truncated UTF-8": b"x1,value\n0,1\xe2\x82",
}


@pytest.mark.parametrize("text", CSV_TRAPS.values(), ids=CSV_TRAPS)
def test_csv_reader_matches_the_reference_on_each_trap(tmp_path, text):
    _same_read(tmp_path / "trap.csv", text)


BREAKS = ("none", "drop", "repeat", "coord", "relabel", "index", "nan")


@st.composite
def draws_texts(draw):
    """A draws file of 1..3 same-grid draws, then one copy per kind of break."""
    d = draw(st.integers(1, 2))
    shape = tuple(draw(st.lists(st.integers(1, 3), min_size=d, max_size=d)))
    mesh = np.meshgrid(*(np.arange(k, dtype=float) for k in shape), indexing="ij")
    nodes = np.stack([m.reshape(-1) for m in mesh], axis=1).tolist()
    n_draws = draw(st.integers(1, 3))
    rows = [[float(b), *node, draw(st.sampled_from(EDGE_FLOATS))]
            for b in range(n_draws) for node in nodes]
    rows = [rows[i] for i in draw(st.permutations(range(len(rows))))]
    header = ",".join(["draw"] + [f"x{k}" for k in range(1, d + 1)] + ["value"])
    texts = []
    for kind in BREAKS:
        broken = [list(r) for r in rows]
        i = draw(st.integers(0, len(rows) - 1))
        if kind == "drop":
            del broken[i]
        elif kind == "repeat":
            broken.append(list(broken[i]))
        elif kind == "coord":
            stray = draw(st.sampled_from([0.5, 7.0, -1.0, math.nan]))
            broken[i][draw(st.integers(1, d))] = stray
        elif kind == "relabel":
            # one draw then repeats a node that another lacks
            broken[i][0] = (broken[i][0] + 1) % n_draws
        elif kind == "index":
            broken[i][0] = draw(st.sampled_from([n_draws, 0.5]))
        elif kind == "nan":
            broken[i][-1] = math.nan
        texts.append("\n".join([header] + [",".join(map(repr, r)) for r in broken]) + "\n")
    return texts


def _assert_same_draws(new, ref):
    assert new[0] == ref[0]
    if new[0] != "ok":
        assert new[1] == ref[1]
        return
    g, h = new[1], ref[1]
    assert len(g.axes) == len(h.axes)
    for a, b in zip(g.axes, h.axes):
        _same_bits(a.coords, b.coords)
    _same_bits(g.values, h.values)


@PROPERTY
@given(draws_texts())
def test_draws_reader_matches_the_draw_by_draw_reference(tmp_path_factory, texts):
    path = tmp_path_factory.getbasetemp() / "draws.csv"
    for text in texts:
        path.write_text(text, encoding="utf-8")
        new = _outcome(csvio.read_draws, path)
        _assert_same_draws(new, _outcome(read_draws_reference, path))
