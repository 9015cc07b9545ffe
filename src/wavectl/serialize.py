"""Deterministic CSV and JSON emission.

Every floating-point value is printed with 9 significant digits in
scientific notation so that repeated runs with identical inputs
produce byte-identical artifacts on any platform.  JSON objects are
emitted with sorted keys and a fixed indentation; CSV uses bare
comma-separated cells and a single trailing newline.

Float arrays take a whole-array path with the same output: one
finiteness check and one ``-0.0`` collapse per array, then one format
call per value (``format_floats``).  In JSON each innermost row of a
float ndarray is joined into one string; a CSV is given as columns and
written in blocks of rows, each row through one ``str.format``
template.
"""

import hashlib
import json
import math
from enum import Enum

import numpy as np


# 9 significant digits in scientific form, the one float format
_FLOAT = "{:.8e}"


def format_float(x):
    """Render a finite float with 9 significant digits, scientific form."""
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"cannot serialize non-finite value {x!r}")
    if x == 0.0:
        x = 0.0  # collapse -0.0 so the sign bit cannot leak into output
    return _FLOAT.format(x)


def _finite_floats(values):
    """``values`` as a float array with -0.0 collapsed; ValueError if any is not finite."""
    a = np.asarray(values, dtype=float)
    finite = np.isfinite(a)
    if not finite.all():
        raise ValueError(f"cannot serialize non-finite value {float(a[~finite][0])!r}")
    return a + 0.0  # -0.0 + 0.0 is +0.0, as in format_float


def format_floats(values):
    """format_float of every value of a float array, in C order."""
    return list(map(_FLOAT.format, _finite_floats(values).ravel().tolist()))


# rows formatted and written at a time
_BLOCK_ROWS = 4096


def write_csv(path, header, columns):
    """Write a CSV file from equal-length 1-D column arrays; return its text.

    Integer columns print as ``{:d}`` and float columns as format_float
    prints them.  Rows are written in blocks, each row through one
    template.
    """
    columns, template = _csv_columns(columns)
    parts = [",".join(header) + "\n"]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(parts[0])
        for start in range(0, columns[0].size, _BLOCK_ROWS):
            block = "".join(map(template.format, *(
                c[start:start + _BLOCK_ROWS].tolist() for c in columns)))
            fh.write(block)
            parts.append(block)
    return "".join(parts)


def _csv_columns(columns):
    """Checked columns and the row template that prints them."""
    arrays = [np.asarray(c) for c in columns]
    if len({a.shape for a in arrays}) != 1 or arrays[0].ndim != 1:
        raise ValueError("CSV columns must be 1-D arrays of equal length")
    fields = []
    for i, a in enumerate(arrays):
        if a.dtype.kind in "iu":
            fields.append("{:d}")
        elif a.dtype.kind == "f":
            arrays[i] = _finite_floats(a)
            fields.append(_FLOAT)
        else:
            raise TypeError(f"unsupported CSV column dtype {a.dtype}")
    return arrays, ",".join(fields) + "\n"


def _emit(obj, indent, out):
    pad = "  " * indent
    if obj is None:
        out.append("null")
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, Enum):
        _emit(obj.value, indent, out)
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
            _emit(obj[key], indent + 1, out)
            out.append(",\n" if i < len(keys) - 1 else "\n")
        out.append(pad + "}")
    elif isinstance(obj, np.ndarray) and obj.ndim and obj.dtype.kind == "f":
        _emit_floats(obj, indent, out)
    elif isinstance(obj, np.ndarray):
        _emit(obj.tolist(), indent, out)
    elif isinstance(obj, (list, tuple)):
        if len(obj) == 0:
            out.append("[]")
            return
        out.append("[\n")
        for i, item in enumerate(obj):
            out.append(pad + "  ")
            _emit(item, indent + 1, out)
            out.append(",\n" if i < len(obj) - 1 else "\n")
        out.append(pad + "]")
    else:
        raise TypeError(f"unsupported JSON value type {type(obj).__name__}")


def _emit_floats(a, indent, out):
    """A float ndarray as _emit prints its .tolist(), built row by row."""
    items = format_floats(a)
    for level in range(a.ndim - 1, -1, -1):
        count = a.shape[level]
        if count == 0:
            items = ["[]"] * math.prod(a.shape[:level])
            continue
        pad = "  " * (indent + level)
        sep = ",\n" + pad + "  "
        items = ["[\n" + pad + "  " + sep.join(items[i:i + count]) + "\n" + pad + "]"
                 for i in range(0, len(items), count)]
    out.append(items[0])


def json_text(obj):
    """Serialize to canonical JSON text (sorted keys, fixed floats)."""
    out = []
    _emit(obj, 0, out)
    return "".join(out) + "\n"


def write_json(path, obj):
    text = json_text(obj)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    return text


def sha256_of(obj):
    """Stable content hash of a JSON-serializable object."""
    return hashlib.sha256(json_text(obj).encode("utf-8")).hexdigest()
