"""Deterministic CSV and JSON emission.

Every floating-point value is printed with 9 significant digits in
scientific notation so that repeated runs with identical inputs
produce byte-identical artifacts on any platform.  JSON objects are
emitted with sorted keys and a fixed indentation; CSV uses bare
comma-separated cells and a single trailing newline.

Float arrays are checked for finiteness and have ``-0.0`` collapsed
once per array; from ``_VECTOR_MIN`` values up they are formatted in
one numpy pass, smaller ones one value at a time (``format_floats``).
The numpy pass writes each value as a NUL-padded 16-byte slot of
lookup-table words, and one mask drops the pads.  A JSON float ndarray
is one such matrix, with the commas, brackets and indentation between
its values written into the words after each value; a CSV is given as columns
and written in blocks of rows, each block one byte matrix of all its
columns.

The numpy pass is exact.  With e the decade of |x| (corrected by one
where s leaves [1e8, 1e9)) and k = 8 - e, 10**k is an exact double for
|k| <= 22, so s = |x|·10**k is one correctly rounded multiply or
divide, within 6e-8 of the true product below 1e9.  rint(s), bumped a
decade at 1e9, is then the digit string _FLOAT prints, unless the
product may sit at a half-way point: values with |s mod 1 - 0.5| <
1e-6 or |k| > 22 (which covers every |e| > 99) go through _FLOAT.
"""

import hashlib
import json
import math
from enum import Enum

import numpy as np


# 9 significant digits in scientific form, the one float format
_FLOAT = "{:.8e}"
# float arrays, and CSV blocks counted in float cells, below this size are
# formatted one value at a time: the measured crossover of the two paths
# when each call also opens and writes its file, as every caller does
_VECTOR_MIN = 256


def _words(cells):
    """Four-character ASCII strings, NUL-padded, as one uint32 word each."""
    return np.frombuffer("".join(cells).encode("ascii"), dtype=np.uint32)


def _digit_words(width):
    """The zero-padded ``width`` ASCII digits of 0 .. 10**width - 1, a word each."""
    i = np.arange(10 ** width)
    b = np.zeros((i.size, 4), np.uint8)
    for col in range(width):
        b[:, col] = ord("0") + i // 10 ** (width - 1 - col) % 10
    return b.view(np.uint32).ravel()


# A float's slot is four words: sign (or NUL), first digit, point and
# second digit | the next four digits | the last three and a NUL | "e",
# the exponent's sign and two digits.  The longest _FLOAT string of a
# finite float, "-1.23456789e-308", also fills the 16 bytes.
_SLOT_WORDS = 4
_LEAD = _words([sign + f"{d // 10}.{d % 10}" for sign in ("\0", "-") for d in range(100)])
_QUAD = _digit_words(4)
_TRIPLE = _digit_words(3)
_EXPONENT = _words([f"e{e:+03d}" for e in range(-99, 100)])
_COMMA, _NEWLINE = _words([",\0\0\0", "\n\0\0\0"])
# 10**k for -22 <= k <= 22 as a factor and a divisor, one of them 1; each
# power of ten up to 10**22 is an exact double
_UP = np.array([float(10 ** max(k, 0)) for k in range(-22, 23)])
_DOWN = np.array([float(10 ** max(-k, 0)) for k in range(-22, 23)])


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
    a = _finite_floats(values).ravel()
    return _joined_floats(a, 1, ["\n"], np.zeros(a.size, np.intp)).splitlines()


def _joined_floats(x, inner, separators, ends):
    """_FLOAT of each value of finite 1-D ``x``, as rows of ``inner`` values.

    The values of a row are joined by ``separators[0]`` and row r is
    followed by ``separators[ends[r]]``.  From _VECTOR_MIN values up the
    text is one word matrix, a row of it to a row of values, decoded once.
    """
    rows = x.reshape(-1, inner)
    if x.size < _VECTOR_MIN:
        return "".join([separators[0].join(map(_FLOAT.format, row)) + separators[end]
                        for row, end in zip(rows.tolist(), ends.tolist())])
    gap = -(-len(separators[0]) // 4)  # words of the separator within a row
    width = -(-max(map(len, separators)) // 4)
    table = _words([sep.ljust(4 * width, "\0") for sep in separators]).reshape(-1, width)
    step = _SLOT_WORDS + gap
    out = np.zeros((rows.shape[0], inner * step - gap + width), np.uint32)
    cells = out[:, :inner * step].reshape(-1, inner, step)
    _float_slots(rows, cells[..., :_SLOT_WORDS])
    cells[:, :-1, _SLOT_WORDS:] = table[0, :gap]
    out[:, inner * step - gap:] = table[ends]
    return _text(out)


def _text(out):
    """The bytes of a C-contiguous NUL-padded word matrix, without the NULs."""
    b = out.view(np.uint8)
    return b[b != 0].tobytes().decode("ascii")


def _float_slots(x, out):
    """Write _FLOAT of each value of finite ``x`` into the zeroed words ``out``.

    ``out`` has the shape of ``x`` and one more axis of 4 words.
    """
    zero = x == 0.0
    a = np.where(zero, 1.0, np.abs(x))
    e = np.floor(np.log10(a)).astype(np.int64)
    s = _scaled(a, e)
    off = (s >= 1e9).view(np.int8) - (s < 1e8).view(np.int8)  # log10 may miss by one
    if off.any():
        fix = np.nonzero(off)
        e[fix] += off[fix]
        s[fix] = _scaled(a[fix], e[fix])
    slow = (np.abs(8 - e) > 22) | (np.abs(s - np.floor(s) - 0.5) < 1e-6)
    n = np.rint(s)
    top = n >= 1e9  # rounded up into the next decade
    e += top
    n[top] = 1e8
    keep = ~(slow | zero)
    n = np.where(keep, n, 0.0).astype(np.int64)
    e = np.where(keep, e, 0)
    lead = n // 10 ** 7
    mid = n // 1000
    out[..., 0] = _LEAD[lead + 100 * (x < 0.0)]
    out[..., 1] = _QUAD[mid - 10000 * lead]
    out[..., 2] = _TRIPLE[n - 1000 * mid]
    out[..., 3] = _EXPONENT[e + 99]
    fallback = np.nonzero(slow)
    if fallback[0].size:
        text = np.array(list(map(_FLOAT.format, x[fallback].tolist())), dtype="S16")
        out[fallback] = text.view(np.uint32).reshape(-1, _SLOT_WORDS)


def _scaled(a, e):
    """a·10**(8 - e): one correctly rounded multiply or divide where |8 - e| <= 22."""
    i = 30 - e  # 8 - e + 22
    return a * np.take(_UP, i, mode="clip") / np.take(_DOWN, i, mode="clip")


def _str_words(v):
    """str() of each value of 1-D ``v``, NUL-padded to a whole number of words: a row each."""
    text = np.array(list(map(str, v.tolist())), dtype=bytes)
    width = -(-text.itemsize // 4)
    return text.astype(f"S{4 * width}").view(np.uint32).reshape(v.size, width)


# rows formatted and written at a time
_BLOCK_ROWS = 4096


def write_csv(path, header, columns):
    """Write a CSV file from equal-length 1-D column arrays; return its text.

    Integer columns print as ``{:d}`` and float columns as format_float
    prints them.  Rows are written in blocks, each built as one byte
    matrix of all its columns.
    """
    columns = _csv_columns(columns)
    parts = [",".join(header) + "\n"]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(parts[0])
        for start in range(0, columns[0].size, _BLOCK_ROWS):
            block = _csv_block([c[start:start + _BLOCK_ROWS] for c in columns])
            fh.write(block)
            parts.append(block)
    return "".join(parts)


def _csv_columns(columns):
    """Checked column arrays, float columns finite with -0.0 collapsed."""
    arrays = [np.asarray(c) for c in columns]
    if len({a.shape for a in arrays}) != 1 or arrays[0].ndim != 1:
        raise ValueError("CSV columns must be 1-D arrays of equal length")
    for i, a in enumerate(arrays):
        if a.dtype.kind == "f":
            arrays[i] = _finite_floats(a)
        elif a.dtype.kind not in "iu":
            raise TypeError(f"unsupported CSV column dtype {a.dtype}")
    return arrays


def _csv_block(columns):
    """The CSV rows of a block of columns: each cell's words, then a separator word.

    The float cells of all columns are formatted in one pass.  A block
    of fewer than _VECTOR_MIN float cells, integer cells aside, is
    formatted one cell at a time.
    """
    floats = [c.dtype.kind == "f" for c in columns]
    if columns[0].size * sum(floats) < _VECTOR_MIN:
        cells = [map(_FLOAT.format if f else str, c.tolist()) for c, f in zip(columns, floats)]
        return "".join([",".join(row) + "\n" for row in zip(*cells)])
    slots = np.zeros((columns[0].size, sum(floats), _SLOT_WORDS), np.uint32)
    if slots.size:
        _float_slots(np.stack([c for c, f in zip(columns, floats) if f], axis=1), slots)
    float_cells = iter(slots.transpose(1, 0, 2))
    cells = [next(float_cells) if f else _str_words(c) for c, f in zip(columns, floats)]
    out = np.zeros((columns[0].size, sum(c.shape[1] + 1 for c in cells)), np.uint32)
    at = 0
    for words in cells:
        out[:, at:at + words.shape[1]] = words
        at += words.shape[1] + 1
        out[:, at - 1] = _COMMA
    out[:, -1] = _NEWLINE
    return _text(out)


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
    """A float ndarray as _emit prints its .tolist(), in one string.

    Each innermost row ends by closing the levels that end with it and
    opening them again; which ones end follows from the row's index.
    """
    if not a.size:
        _emit(a.tolist(), indent, out)
        return
    pads = ["  " * (indent + level) for level in range(a.ndim)]
    opens = ["[\n" + pad + "  " for pad in pads]
    closes = ["\n" + pad + "]" for pad in reversed(pads)]  # innermost first
    separators = ["".join(closes[:k]) + ",\n" + pads[-1 - k] + "  " + "".join(opens[a.ndim - k:])
                  for k in range(a.ndim)] + ["".join(closes)]
    row = np.arange(1, a.size // a.shape[-1] + 1)
    ends = sum((row % math.prod(a.shape[level:-1]) == 0 for level in range(a.ndim - 1)),
               np.ones_like(row))
    out.append("".join(opens)
               + _joined_floats(_finite_floats(a).ravel(), a.shape[-1], separators, ends))


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
