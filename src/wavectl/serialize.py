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
lookup-table words, and one ``bytes.translate`` drops the pads.  A JSON
float ndarray is one such matrix, with the commas, brackets and
indentation between its values written into the words after each
value.  A CSV is given as columns of one shape, its rows their
elements in C order, and written in blocks of rows: a block of float
columns is the same matrix, with a comma or a newline after each
value, and a CSV with an integer column is formatted one cell at a
time.  A column that is a broadcast view repeats each value along its
zero-stride axes; its distinct values, the core, are checked and
formatted once, and their slots are copied into every block.

The numpy pass is exact.  With e the decade of |x| (corrected by one
where s leaves [1e8, 1e9)) and k = 8 - e, 10**k is an exact double for
|k| <= 22, so s = |x|·10**k is one correctly rounded multiply or
divide, within 6e-8 of the true product below 1e9.  rint(s), bumped a
decade at 1e9, is then the digit string _FLOAT prints, unless the
product may sit at a half-way point: values with |s mod 1 - 0.5| <
1e-6 or |k| > 22 (which covers every |e| > 99) go through _FLOAT.
"""

import hashlib
import math
from json.encoder import encode_basestring_ascii as _quote

import numpy as np


# 9 significant digits in scientific form, the one float format
_FLOAT = "{:.8e}"
# float arrays, and float CSV blocks counted in cells, below this size are
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
# a slot as one 16-byte element, which numpy copies whole
_SLOT = np.dtype((np.void, 4 * _SLOT_WORDS))
_LEAD = _words([sign + f"{d // 10}.{d % 10}" for sign in ("\0", "-") for d in range(100)])
_QUAD = _digit_words(4)
_TRIPLE = _digit_words(3)
_EXPONENT = _words([f"e{e:+03d}" for e in range(-99, 100)])
# 10**k for -22 <= k <= 22 as a factor and a divisor, one of them 1; each
# power of ten up to 10**22 is an exact double
_UP = np.array([float(10 ** max(k, 0)) for k in range(-22, 23)])
_DOWN = np.array([float(10 ** max(-k, 0)) for k in range(-22, 23)])


def format_float(x):
    """Render a finite float with 9 significant digits, scientific form."""
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"cannot serialize non-finite value {x!r}")
    return _FLOAT.format(x + 0.0)  # -0.0 + 0.0 is +0.0: the sign bit cannot leak


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
    out, slots = _word_matrix(inner, separators, ends)
    _float_slots(rows, slots)
    return _text(out)


def _word_matrix(inner, separators, ends):
    """The word matrix of rows of ``inner`` slots, separators written, slots not.

    Returns the matrix and its (rows, inner, _SLOT_WORDS) view of the
    slots, which the caller fills: every word of the matrix is a slot
    word or a separator word.
    """
    gap = -(-len(separators[0]) // 4)  # words of the separator within a row
    width = -(-max(map(len, separators)) // 4)
    table = _words([sep.ljust(4 * width, "\0") for sep in separators]).reshape(-1, width)
    step = _SLOT_WORDS + gap
    out = np.empty((ends.size, inner * step - gap + width), np.uint32)
    cells = out[:, :inner * step].reshape(-1, inner, step)
    cells[:, :-1, _SLOT_WORDS:] = table[0, :gap]
    out[:, inner * step - gap:] = table[ends]
    return out, cells[..., :_SLOT_WORDS]


def _text(out):
    """The bytes of a C-contiguous NUL-padded word matrix, without the NULs."""
    return out.tobytes().translate(None, b"\0").decode("ascii")


def _float_slots(x, out):
    """Write _FLOAT of each value of finite ``x`` into the words ``out``, NUL-padded.

    ``out`` has the shape of ``x`` and one more axis of 4 words, each
    of which is written.
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


# rows formatted and written at a time
_BLOCK_ROWS = 4096


def write_csv(path, header, columns):
    """Write a CSV file from columns of one shape; return its text.

    The rows are the columns' elements in C order, so 1-D columns of
    equal length give a row per index.  Integer columns print with
    ``str`` and float columns as format_float prints them.  A column may
    be a broadcast view (``np.broadcast_to``), whose distinct values are
    formatted once.  Rows are formatted and written in blocks
    (_csv_blocks).
    """
    shape, cores = _csv_cores(columns)
    parts = [",".join(header) + "\n"]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(parts[0])
        for block in _csv_blocks(shape, cores):
            fh.write(block)
            parts.append(block)
    return "".join(parts)


def _csv_cores(columns):
    """The columns' shape and their checked cores, floats finite with -0.0 collapsed."""
    arrays = [np.asarray(c) for c in columns]
    if len({a.shape for a in arrays}) != 1 or arrays[0].ndim == 0:
        raise ValueError("CSV columns must be 1-D arrays of equal length, "
                         "or arrays of one shape")
    cores = [_core(a) for a in arrays]
    for i, core in enumerate(cores):
        if core.dtype.kind == "f":
            cores[i] = _finite_floats(core)
        elif core.dtype.kind not in "iu":
            raise TypeError(f"unsupported CSV column dtype {core.dtype}")
    return arrays[0].shape, cores


def _core(a):
    """``a`` without the repeats along its zero-stride axes: one of each distinct value."""
    return a[tuple(slice(None) if step else slice(1) for step in a.strides)]


def _csv_blocks(shape, cores):
    """The CSV rows of columns of ``shape`` with these cores, _BLOCK_ROWS rows at a time.

    Float columns alone from _VECTOR_MIN cells up give word matrices:
    a core smaller than the column has its slots formatted once and
    copied into each block a box at a time (_boxes); the other columns
    are formatted a block at a time, before the first block's matrix is
    allocated.  Other CSVs are formatted one cell at a time.
    """
    rows = math.prod(shape)
    if any(c.dtype.kind != "f" for c in cores) or rows * len(cores) < _VECTOR_MIN:
        flat = [(np.broadcast_to(c, shape) if c.size < rows else c).reshape(-1) for c in cores]
        for start in range(0, rows, _BLOCK_ROWS):
            cells = [map(_FLOAT.format if c.dtype.kind == "f" else str,
                         c[start:start + _BLOCK_ROWS].tolist()) for c in flat]
            yield "".join([",".join(row) + "\n" for row in zip(*cells)])
        return
    repeated = {j: np.broadcast_to(_slots(c), shape) for j, c in enumerate(cores) if c.size < rows}
    flat = {j: c.reshape(-1) for j, c in enumerate(cores) if j not in repeated}
    out = None
    for start in range(0, rows, _BLOCK_ROWS):
        stop = min(start + _BLOCK_ROWS, rows)
        fresh = {j: _slots(x[start:stop]) for j, x in flat.items()}
        if out is None:  # the first block is the longest; every block reuses its matrix
            out, words = _word_matrix(len(cores), [",", "\n"], np.ones(stop, np.intp))
            slots = words.view(_SLOT)[..., 0]
        for j, values in fresh.items():
            slots[:stop - start, j] = values
        row = 0
        for index, box in _boxes(shape, start, stop) if repeated else ():
            n = math.prod(box)
            # a view: slots' rows are a slice of out's, and only the row axis is split
            cells = slots[row:row + n].reshape(box + (len(cores),))
            for j, values in repeated.items():
                cells[..., j] = values[index]
            row += n
        yield _text(out[:stop - start])


def _slots(x):
    """_float_slots of finite ``x`` in a new array of x's shape, a _SLOT per value."""
    words = np.empty(x.shape + (_SLOT_WORDS,), np.uint32)
    _float_slots(x, words)
    return words.view(_SLOT)[..., 0]


def _boxes(shape, start, stop, prefix=()):
    """Cover elements ``start`` to ``stop`` of a C-order array of ``shape`` with boxes.

    Yields (index, box shape) pairs in order: the index is a few integers
    and one slice over the leading axes, and the box every element it
    selects, the trailing axes whole.  At most 2·ndim - 1 boxes cover
    any range.
    """
    inner = math.prod(shape[1:])
    (i, head), (j, tail) = divmod(start, inner), divmod(stop, inner)
    if i == j:
        if head < tail:
            yield from _boxes(shape[1:], head, tail, prefix + (i,))
        return
    if head:
        yield from _boxes(shape[1:], head, inner, prefix + (i,))
        i += 1
    if i < j:
        yield prefix + (slice(i, j),), (j - i,) + shape[1:]
    if tail:
        yield from _boxes(shape[1:], 0, tail, prefix + (j,))


def _emit(obj, indent, out):
    """Append the canonical JSON text of ``obj`` to ``out``.

    The types are tested in the order they occur most often; bool comes
    before int, of which it is a subclass.  Strings and keys are quoted
    by the function ``json.dumps(s)`` quotes a str with.
    """
    if isinstance(obj, float):
        out.append(format_float(obj))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner = "  " * (indent + 1)
        sep = "{\n" + inner
        for key in sorted(obj):
            if not isinstance(key, str):
                raise TypeError("JSON object keys must be strings")
            out.append(sep + _quote(key) + ": ")
            _emit(obj[key], indent + 1, out)
            sep = ",\n" + inner
        out.append("\n" + inner[2:] + "}")
    elif isinstance(obj, str):
        out.append(_quote(obj))
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif obj is None:
        out.append("null")
    elif isinstance(obj, np.floating):
        out.append(format_float(obj))
    elif isinstance(obj, np.ndarray) and obj.ndim and obj.dtype.kind == "f":
        _emit_floats(obj, indent, out)
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        inner = "  " * (indent + 1)
        sep = "[\n" + inner
        for item in obj:
            out.append(sep)
            _emit(item, indent + 1, out)
            sep = ",\n" + inner
        out.append("\n" + inner[2:] + "]")
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
