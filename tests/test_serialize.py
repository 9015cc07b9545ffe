import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from wavectl.serialize import (
    _emit_floats,
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


def _reference_emit(obj, indent, out):
    """Reference: the emitter that tests the types in the order None, bool,
    int, float, str, dict, float ndarray, list, and quotes with json.dumps."""
    pad = "  " * indent
    if obj is None:
        out.append("null")
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(format_float(obj))
    elif isinstance(obj, str):
        out.append(json.dumps(obj, ensure_ascii=True))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        keys = sorted(obj.keys())
        for i, key in enumerate(keys):
            if not isinstance(key, str):
                raise TypeError("JSON object keys must be strings")
            out.append(pad + "  " + json.dumps(key, ensure_ascii=True) + ": ")
            _reference_emit(obj[key], indent + 1, out)
            out.append(",\n" if i < len(keys) - 1 else "\n")
        out.append(pad + "}")
    elif isinstance(obj, np.ndarray) and obj.ndim and obj.dtype.kind == "f":
        _emit_floats(obj, indent, out)
    elif isinstance(obj, (list, tuple)):
        if len(obj) == 0:
            out.append("[]")
            return
        out.append("[\n")
        for i, item in enumerate(obj):
            out.append(pad + "  ")
            _reference_emit(item, indent + 1, out)
            out.append(",\n" if i < len(obj) - 1 else "\n")
        out.append(pad + "]")
    else:
        raise TypeError(f"unsupported JSON value type {type(obj).__name__}")


def _reference_text(obj):
    out = []
    _reference_emit(obj, 0, out)
    return "".join(out) + "\n"


# keys and strings with non-ASCII characters, quotes, backslashes and
# control characters among plain ones
TEXT = st.text(st.one_of(st.characters(), st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f')),
               max_size=8)
SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), TEXT,
    st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64),
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(allow_nan=False, allow_infinity=False).map(np.float64),
    st.floats(width=32, allow_nan=False, allow_infinity=False).map(np.float32),
    st.just(-0.0),
    hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=3, min_side=0, max_side=4),
               elements=st.floats(allow_nan=False, allow_infinity=False)),
)
DOCUMENTS = st.recursive(SCALARS, lambda inner: st.one_of(
    st.lists(inner, max_size=4),
    st.lists(inner, max_size=4).map(tuple),
    st.dictionaries(TEXT, inner, max_size=4),
), max_leaves=24)


@settings(max_examples=400, deadline=None)
@given(DOCUMENTS)
@example({})
@example([])
@example(())
@example({"": [{}, [], ()], "\u00e9\u2603\U0001f600": "\"\\\n\u0001", "k": -0.0})
def test_json_text_equals_the_reference_emitter(doc):
    assert json_text(doc) == _reference_text(doc)


@pytest.mark.parametrize("doc", [
    math.nan, {"a": [1.0, math.inf]}, np.float32("nan"), {"x": np.float64(-math.inf)},
    {1: 2.0}, {"a": 0, 1: 0}, {2: 0, 1: 0}, {"s": {1, 2}}, [1 + 2j],
    np.array([1, 2]), {"k": np.array(1.5)}, [np.array([1.0, math.nan])], [np.bool_(True)],
], ids=["nan", "inf_in_list", "float32_nan", "float64_inf", "int_key", "mixed_keys",
        "int_keys", "set", "complex", "int_array", "0d_array", "nan_in_array", "numpy_bool"])
def test_json_text_refuses_as_the_reference_emitter(doc):
    with pytest.raises((TypeError, ValueError)) as expected:
        _reference_text(doc)
    with pytest.raises(expected.type) as actual:
        json_text(doc)
    assert type(actual.value) is expected.type
    assert str(actual.value) == str(expected.value)
