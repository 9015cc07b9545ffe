"""The whole-array float formatter against the one-value-at-a-time oracle.

``format_floats`` and ``write_csv`` take a numpy path from
``_VECTOR_MIN`` values up; every test here forces that path (or pits it
against the per-value path) on values chosen to break it: half-way
points, decade edges, the round-up into the next decade, subnormals,
three-digit exponents and the extremes of the double range.
"""

import math

import numpy as np
import pytest

from wavectl import serialize
from wavectl.serialize import format_float, format_floats, json_text, write_csv

DBL_MAX = np.finfo(float).max
TINY = np.finfo(float).smallest_subnormal
DECADES = range(-30, 31)


@pytest.fixture
def vector(monkeypatch):
    """format_floats with the numpy path forced for every array size."""
    monkeypatch.setattr(serialize, "_VECTOR_MIN", 0)
    return format_floats


def oracle(values):
    return [format_float(x) for x in np.ravel(values).tolist()]


def neighbours(values, ulps=3):
    """``values`` and the doubles up to ``ulps`` steps either side of each."""
    values = np.asarray(values, dtype=float)
    out = [values]
    up = down = values
    for _ in range(ulps):
        up, down = np.nextafter(up, np.inf), np.nextafter(down, -np.inf)
        out += [up, down]
    return np.concatenate(out)


def test_exact_half_way_points(vector):
    # dyadic values with ten significant digits ending in 5 sit exactly
    # half way between two 9-digit strings and round half to even
    rng = np.random.default_rng(1)
    m = rng.integers(10 ** 8, 10 ** 9, 2000)
    halves = np.concatenate([
        m + 0.5,                                       # ddddddddd.5
        (m * 10 + 5).astype(float),                    # dddddddddd5
        (m * 10 + 5) * 10.0 ** rng.integers(0, 6, m.size),   # exact up to 2**53
        (m + 0.5) / 2.0 ** rng.integers(1, 30, m.size),      # exact binary scalings
        [100000000.5, 100000001.5, 999999998.5, 999999999.5, 0.5, 2.5, 12.5],
    ])
    assert vector(halves) == oracle(halves)
    assert vector(-halves) == oracle(-halves)


def test_near_half_way_points(vector):
    # the doubles nearest decimal half-way points, and their neighbours
    rng = np.random.default_rng(2)
    digits = rng.integers(10 ** 8, 10 ** 9, 40)
    near = np.array([float(f"{d // 10 ** 8}.{d % 10 ** 8:08d}5e{e}")
                     for d in digits for e in DECADES])
    near = neighbours(near)
    assert vector(near) == oracle(near)


def test_powers_of_ten_and_their_neighbours(vector):
    powers = neighbours([float(f"1e{e}") for e in DECADES], ulps=2)
    assert vector(powers) == oracle(powers)
    assert vector(-powers) == oracle(-powers)


def test_round_up_into_the_next_decade(vector):
    # 9.999999995e(e) rounds to 1.00000000e(e+1), one ulp below may not
    edges = neighbours([float(f"9.999999995e{e}") for e in DECADES], ulps=1)
    edges = np.concatenate([edges, neighbours([float(f"9.99999999e{e}") for e in DECADES])])
    assert vector(edges) == oracle(edges)


@pytest.mark.parametrize("miss", [-1.0, 1.0])
def test_a_decade_missed_by_one_is_corrected(vector, monkeypatch, miss):
    # the exactness argument needs log10 only to land within one decade
    rng = np.random.default_rng(5)
    values = rng.uniform(1.0, 10.0, 5000) * 10.0 ** rng.integers(-16, 32, 5000)
    log10 = np.log10
    monkeypatch.setattr(serialize.np, "log10", lambda a: log10(a) + miss)
    assert vector(values) == oracle(values)


def test_extremes_of_the_double_range(vector):
    extremes = np.array([
        0.0, -0.0, TINY, -TINY, 2 * TINY, 2.5e-310, np.finfo(float).tiny,
        DBL_MAX, -DBL_MAX, np.nextafter(DBL_MAX, 0.0), 1e100, 9.9999999995e99, 1e-100,
        1.234567891e-200, -7.5e250, 1e-15, 1e-14, 9.99999999e-15, 1e31, 9.999999995e30,
    ])
    assert vector(extremes) == oracle(extremes)
    assert vector(extremes)[1] == "0.00000000e+00"


def test_million_random_values_across_exponents(vector):
    rng = np.random.default_rng(3)
    # a third anywhere in the double range, two thirds in the decades the
    # numpy path formats without help
    bits = rng.integers(0, 2 ** 63, 350_000, dtype=np.uint64).view(np.float64)
    bits = np.where(np.isfinite(bits), bits, 1.0)
    decades = rng.uniform(1.0, 10.0, 700_000) * 10.0 ** rng.integers(-16, 33, 700_000)
    values = np.concatenate([bits, decades]) * rng.choice([-1.0, 1.0], 1_050_000)
    assert vector(values) == oracle(values)


def test_both_paths_below_and_above_the_crossover():
    rng = np.random.default_rng(4)
    for size in (0, 1, serialize._VECTOR_MIN - 1, serialize._VECTOR_MIN, 1000):
        values = rng.standard_normal((size,)) * 1e5
        assert format_floats(values) == oracle(values)
    grid = rng.standard_normal((30, 7, 5)) * 10.0 ** rng.integers(-40, 40, (30, 7, 5))
    assert format_floats(grid) == oracle(grid)
    assert json_text({"g": grid}) == json_text({"g": grid.tolist()})


# fallback values (half-way points, subnormals, three-digit exponents) and
# -0.0, spread over every array below
SLOW = np.array([100000000.5, 2.5e-310, -DBL_MAX, 1e100, -0.0, 999999999.5, 1e-15])


@pytest.mark.parametrize("shape", [
    (), (0,), (1,), (7,), (300,), (0, 4), (4, 0), (1, 1), (3, 1), (1, 300), (300, 1),
    (12, 25), (0, 0, 0), (2, 5, 0), (0, 2, 5), (1, 1, 1), (3, 4, 5), (2, 1, 130), (4, 3, 30),
], ids=str)
@pytest.mark.parametrize("vector_min", [serialize._VECTOR_MIN, 0])
def test_json_float_arrays_print_as_their_lists(monkeypatch, shape, vector_min):
    # each array, at three indents, prints as the nested lists of its
    # values; vector_min 0 puts every non-empty array through the word matrix
    monkeypatch.setattr(serialize, "_VECTOR_MIN", vector_min)
    rng = np.random.default_rng(len(shape) + math.prod(shape))
    a = rng.standard_normal(shape) * 10.0 ** rng.integers(-40, 40, shape)
    a.ravel()[::5] = np.resize(SLOW, a.ravel()[::5].size)
    for wrap in (lambda x: x, lambda x: {"g": x}, lambda x: [{"k": [1, x]}, 2.5]):
        assert json_text(wrap(a)) == json_text(wrap(a.tolist()))


def _csv_oracle(header, columns):
    rows = zip(*(c.tolist() for c in columns))
    return ",".join(header) + "\n" + "".join(
        ",".join(str(v) if isinstance(v, int) else format_float(v) for v in row) + "\n"
        for row in rows)


# two float columns: one block of all rows takes the numpy path from here up
SWITCH_ROWS = serialize._VECTOR_MIN // 2


@pytest.mark.parametrize("rows", [1, 2, SWITCH_ROWS - 1, SWITCH_ROWS, SWITCH_ROWS + 1, 300])
def test_csv_blocks_agree_with_per_value_text(tmp_path, monkeypatch, rows):
    # fallback values (half-way points, subnormals, three-digit exponents)
    # on both sides of every block boundary, with integer columns of both
    # signs and widths; small blocks format value by value unless the numpy
    # path is forced, one block of all rows takes it from SWITCH_ROWS up
    rng = np.random.default_rng(rows)
    slow = np.array([100000000.5, 2.5e-310, -DBL_MAX, 1e100, -0.0, 999999999.5, 1e-15])
    x = rng.standard_normal(rows) * 10.0 ** rng.integers(-20, 25, rows)
    x[::3] = slow[np.arange(0, rows, 3) % slow.size]
    i64 = rng.integers(-(2 ** 63), 2 ** 63 - 1, rows, dtype=np.int64)
    i64[:2] = [np.iinfo(np.int64).min, np.iinfo(np.int64).max][:rows]
    small = np.arange(rows, dtype=np.int8) - 5
    u64 = rng.integers(0, 2 ** 64 - 1, rows, dtype=np.uint64)
    columns = (small, x, i64, x[::-1].copy(), u64)
    header = ("m", "x", "i", "y", "u")
    texts = []
    for vector_min in (serialize._VECTOR_MIN, 0):
        monkeypatch.setattr(serialize, "_VECTOR_MIN", vector_min)
        for block_rows in (1, 2, 2 ** 40):
            monkeypatch.setattr(serialize, "_BLOCK_ROWS", block_rows)
            path = tmp_path / f"t{vector_min}-{block_rows}.csv"
            texts.append(write_csv(path, header, columns))
            assert path.read_text(encoding="utf-8") == texts[-1]
    assert texts == [_csv_oracle(header, columns)] * 6


def test_csv_integer_columns_through_the_numpy_path(tmp_path, monkeypatch):
    monkeypatch.setattr(serialize, "_VECTOR_MIN", 0)
    values = np.array([0, -1, 9, -9, 10, -10, 999, -999, 1000, 10 ** 18, -(10 ** 18),
                       np.iinfo(np.int64).min, np.iinfo(np.int64).max])
    text = write_csv(tmp_path / "t.csv", ("v",), (values,))
    assert text == "v\n" + "".join(f"{v}\n" for v in values.tolist())
    assert write_csv(tmp_path / "u.csv", ("u",), (np.array([0, 2 ** 64 - 1], dtype=np.uint64),)) \
        == "u\n0\n18446744073709551615\n"


def test_numpy_path_refuses_non_finite_values(vector):
    for bad in (math.nan, math.inf, -math.inf):
        values = np.ones(500)
        values[250] = bad
        with pytest.raises(ValueError, match="non-finite"):
            vector(values)


# the scan CSV's header; its first three columns are axes of the (P, Nf, Nw) grid
SCAN_HEADER = ("probe_deg", "frequency_hz", "amplitude_v", "magnitude")
# half-way points, which _float_slots leaves to _FLOAT, one per axis
PROBE_HALF, FREQ_HALF, AMP_HALF = 123456789.5, 1234567895.0, 0.0123456789 + 5e-11


def _scan_columns(probes, nf, nw):
    """Broadcast and materialized scan columns over values chosen to break the numpy path."""
    rng = np.random.default_rng(probes * 1000 + nf)
    edges = np.array([-7.0, 0.0, -0.0, TINY, -TINY, 1e300, -1e-300, 1e-300])
    probe = np.array([PROBE_HALF, -0.0, -7.25, TINY])[:probes]
    f = rng.standard_normal(nf) * 10.0 ** rng.integers(-30, 30, nf)
    f[:edges.size + 1] = np.append(edges, FREQ_HALF)
    w = rng.standard_normal(nw) * 10.0 ** rng.integers(-30, 30, nw)
    w[-edges.size - 1:] = np.append(edges, AMP_HALF)
    mag = rng.standard_normal((probes, nf, nw)) * 10.0 ** rng.integers(-300, 300, (probes, nf, nw))
    mag.ravel()[::7] = np.resize(SLOW, mag.ravel()[::7].size)
    shape = (probes, nf, nw)
    factored = (np.broadcast_to(probe[:, None, None], shape), np.broadcast_to(f[:, None], shape),
                np.broadcast_to(w, shape), mag)
    materialized = (np.repeat(probe, nf * nw), np.tile(np.repeat(f, nw), probes),
                    np.tile(w, nf * probes), mag.ravel())
    return factored, materialized


@pytest.mark.parametrize("probes", [1, 2, 3, 4])
def test_axis_factored_csv_is_the_materialized_csv(tmp_path, monkeypatch, probes):
    # probe, frequency and amplitude columns broadcast over the grid, as
    # the scan command passes them, write the bytes of the same columns
    # materialized with np.repeat and np.tile and of format_float per
    # cell.  40 x 121 rows a probe are no multiple of the 4096-row block,
    # and blocks of 50 rows split most frequencies' 121 rows; a vector
    # minimum above every size puts the columns through the cell path
    factored, materialized = _scan_columns(probes, 40, 121)
    # compared as lists of lines, whose first difference pytest names at once
    expected = _csv_oracle(SCAN_HEADER, materialized).splitlines()
    assert _csv_oracle(SCAN_HEADER, [np.ravel(c) for c in factored]).splitlines() == expected
    formatted = []

    class Spy(str):
        def format(self, *values):
            formatted.extend(values)
            return super().format(*values)

    monkeypatch.setattr(serialize, "_FLOAT", Spy(serialize._FLOAT))
    for block_rows in (serialize._BLOCK_ROWS, 50):
        monkeypatch.setattr(serialize, "_BLOCK_ROWS", block_rows)
        for vector_min in (serialize._VECTOR_MIN, 10 ** 9):
            monkeypatch.setattr(serialize, "_VECTOR_MIN", vector_min)
            formatted.clear()
            assert write_csv(tmp_path / "f.csv", SCAN_HEADER, factored).splitlines() == expected
            if vector_min < 10 ** 9:
                # each axis' half-way value takes the fallback once, not once a row
                assert [formatted.count(v) for v in (PROBE_HALF, FREQ_HALF, AMP_HALF)] == [1] * 3
            assert write_csv(tmp_path / "m.csv", SCAN_HEADER, materialized).splitlines() == expected
            assert (tmp_path / "f.csv").read_bytes() == (tmp_path / "m.csv").read_bytes()


def test_broadcast_columns_small_integer_and_non_finite(tmp_path):
    # a grid below _VECTOR_MIN cells, an integer axis, and a broadcast
    # column's non-finite value, refused as in a materialized column
    shape = (2, 3, 4)
    columns = (np.broadcast_to(np.arange(3)[:, None] - 1, shape),
               np.broadcast_to(np.array([-0.0, 2.5e-310, 0.5, 1e300]), shape),
               np.arange(24.0).reshape(shape) - 11.5)
    flat = [np.ravel(c) for c in columns]
    header = ("i", "j", "k")
    assert write_csv(tmp_path / "t.csv", header, columns) == _csv_oracle(header, flat)
    assert write_csv(tmp_path / "u.csv", header[1:], columns[1:]) \
        == _csv_oracle(header[1:], flat[1:])
    for bad in (math.nan, math.inf):
        column = np.broadcast_to(np.array([0.0, bad, 1.0, 2.0]), (100, 4))
        with pytest.raises(ValueError, match="non-finite"):
            write_csv(tmp_path / "t.csv", ("a", "b"), (column, np.zeros((100, 4))))


@pytest.mark.parametrize("shape", [(5,), (3, 4), (2, 3, 5), (4, 1, 3, 2)], ids=str)
def test_boxes_cover_a_range_in_order(shape):
    a = np.arange(math.prod(shape)).reshape(shape)
    for start in range(a.size + 1):
        for stop in range(start, a.size + 1):
            boxes = list(serialize._boxes(shape, start, stop))
            assert all(a[index].shape == box for index, box in boxes)
            got = [a[index].ravel() for index, _ in boxes]
            assert np.array_equal(np.concatenate([[]] + got), np.arange(start, stop))
            assert len(boxes) <= 2 * len(shape) - 1


@pytest.mark.parametrize("nul_share", [0.0, 0.3, 0.9, 1.0])
def test_text_drops_the_nuls_as_a_mask_does(nul_share):
    rng = np.random.default_rng(int(nul_share * 10))
    for rows, words in ((0, 3), (1, 1), (7, 5), (300, 19)):
        b = rng.integers(1, 128, (rows, words, 4), dtype=np.uint8)
        b[rng.random(b.shape) < nul_share] = 0
        out = b.view(np.uint32).reshape(rows, words)
        flat = b.ravel()
        assert serialize._text(out) == flat[flat != 0].tobytes().decode("ascii")
