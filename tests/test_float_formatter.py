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
