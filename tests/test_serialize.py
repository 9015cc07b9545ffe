import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from wavectl.serialize import (
    format_float,
    format_floats,
    json_text,
    sha256_of,
    write_csv,
    write_json,
)


def test_format_float_nine_significant_digits():
    assert format_float(1.0) == "1.00000000e+00"
    assert format_float(299792458.0) == "2.99792458e+08"
    assert format_float(-0.0) == "0.00000000e+00"


def test_format_float_rejects_nonfinite():
    with pytest.raises(ValueError):
        format_float(math.nan)
    with pytest.raises(ValueError):
        format_float(math.inf)


def csv_text(header, columns):
    """Oracle: the CSV text of columns, one format_float call per float."""
    rows = zip(*(c.tolist() for c in columns))
    return ",".join(header) + "\n" + "".join(
        ",".join(str(v) if isinstance(v, int) else format_float(v) for v in row) + "\n"
        for row in rows)


def test_format_cell_types(tmp_path):
    # integer columns print verbatim, float columns through format_float;
    # other dtypes have no CSV form
    path = tmp_path / "t.csv"
    text = write_csv(path, ("i", "u", "x"), (np.array([7, -1]), np.array([7, 0], dtype=np.uint8),
                                             np.array([0.5, -0.0])))
    assert text == "i,u,x\n7,7,5.00000000e-01\n-1,0,0.00000000e+00\n"
    for bad in (np.array([True]), np.array(["label"]), np.array([1j])):
        with pytest.raises(TypeError):
            write_csv(path, ("v",), (bad,))


def test_csv_layout(tmp_path):
    text = write_csv(tmp_path / "t.csv", ("a", "b"), (np.array([1, 2]), np.array([0.5, 1.5])))
    assert text == "a,b\n1,5.00000000e-01\n2,1.50000000e+00\n"


def test_json_sorted_keys_and_arrays():
    text = json_text({"b": 1, "a": [1.0, 2.0], "c": None})
    assert text.index('"a"') < text.index('"b"') < text.index('"c"')
    assert "null" in text
    # numpy arrays serialize like lists
    assert json_text({"x": np.array([1.0])}) == json_text({"x": [1.0]})


def test_json_rejects_complex():
    with pytest.raises(TypeError):
        json_text({"z": 1 + 2j})


def test_sha256_stable_across_key_order():
    assert sha256_of({"a": 1, "b": 2.0}) == sha256_of({"b": 2.0, "a": 1})
    assert sha256_of({"a": 1}) != sha256_of({"a": 2})


def test_write_round_trip(tmp_path):
    p = tmp_path / "t.csv"
    write_csv(p, ("x",), (np.array([1]),))
    assert p.read_bytes() == b"x\n1\n"
    q = tmp_path / "t.json"
    write_json(q, {"k": 1.0})
    assert q.read_bytes() == b'{\n  "k": 1.00000000e+00\n}\n'


TINY = np.finfo(float).smallest_subnormal
HUGE = np.finfo(float).max
# shapes (n,), (n, k), (0,) and (n, 0)
SHAPES = st.one_of(
    st.tuples(st.integers(0, 12)),
    st.tuples(st.integers(1, 6), st.integers(0, 5)),
)
FINITE = hnp.arrays(np.float64, SHAPES, elements=st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, TINY, -TINY, HUGE, -HUGE])))


@settings(max_examples=200, deadline=None)
@given(FINITE)
@example(np.array([-0.0, 0.0, TINY, -TINY, HUGE, -HUGE, 2.5e-310]))
@example(np.zeros((3, 0)))
@example(np.zeros(0))
def test_array_formatter_matches_format_float(a):
    assert format_floats(a) == [format_float(x) for x in a.ravel()]
    assert json_text(a) == json_text(a.tolist())
    assert json_text({"k": [a, {"v": a}]}) == json_text({"k": [a.tolist(), {"v": a.tolist()}]})


@settings(max_examples=100, deadline=None)
@given(FINITE.filter(lambda a: a.ndim == 1))
def test_csv_columns_match_csv_text(tmp_path_factory, a):
    path = tmp_path_factory.mktemp("csv") / "t.csv"
    index = np.arange(a.size) - 3
    columns = (index, a, a[::-1].copy())
    text = write_csv(path, ("i", "x", "y"), columns)
    assert text == csv_text(("i", "x", "y"), columns)
    assert path.read_text(encoding="utf-8") == text


@settings(max_examples=100, deadline=None)
@given(FINITE.filter(lambda a: a.size > 0), st.data(),
       st.sampled_from([math.nan, math.inf, -math.inf]))
def test_one_non_finite_value_is_refused(tmp_path_factory, a, data, bad):
    a = a.copy()
    a.flat[data.draw(st.integers(0, a.size - 1))] = bad
    with pytest.raises(ValueError, match="non-finite"):
        json_text({"x": a})
    path = tmp_path_factory.mktemp("csv") / "t.csv"
    with pytest.raises(ValueError, match="non-finite"):
        write_csv(path, ("x",), (a.ravel(),))


def test_csv_columns_span_several_blocks(tmp_path):
    x = np.linspace(-1.0, 1.0, 10_001)
    columns = (np.arange(x.size), x)
    text = write_csv(tmp_path / "t.csv", ("m", "x"), columns)
    assert text == csv_text(("m", "x"), columns)


@pytest.mark.parametrize("build, error, fragment", [
    (lambda path: write_csv(path, ("a", "b"), (np.zeros(3), np.zeros(2))), ValueError,
     "CSV columns must be 1-D arrays of equal length"),
    (lambda path: json_text({1: 2}), TypeError, "JSON object keys must be strings"),
], ids=["unequal_columns", "int_key"])
def test_serialize_typed_errors(tmp_path, build, error, fragment):
    with pytest.raises(error) as info:
        build(tmp_path / "out")
    assert fragment in str(info.value)


def test_json_text_of_an_empty_object():
    assert json_text({}) == "{}\n"
