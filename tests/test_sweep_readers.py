"""The one-pass sweep readers against the per-line readers they replaced.

The reference readers below parse a CSV or Touchstone sweep one line at
a time, checking each line as it goes.  ``ingest_impedance`` converts a
whole file at once and walks the lines only to name the first bad one,
so on any file, valid or mutated, it must return byte-identical
frequencies and impedances, or raise the same error with the same
message and line number.
"""

import gc
import io
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import wavectl as w
from wavectl import unitcell
from wavectl.errors import ParseError
from wavectl.unitcell import _FREQ_UNITS, _impedance_from_s, _read_text


def _reference_touchstone(path):
    unit = 1e9
    fmt = "ma"
    z_ref = 50.0
    rows = []
    saw_option = False
    with io.StringIO(_read_text(path), newline=None) as fh:  # universal newlines, as open()
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("!", 1)[0].strip()
            if not line:
                continue
            if line.startswith("#"):
                if saw_option:
                    continue
                saw_option = True
                tokens = line[1:].split()
                i = 0
                while i < len(tokens):
                    tok = tokens[i].lower()
                    if tok in _FREQ_UNITS:
                        unit = _FREQ_UNITS[tok]
                    elif tok in ("ri", "ma", "db"):
                        fmt = tok
                    elif tok == "s":
                        pass
                    elif tok in ("y", "z", "g", "h"):
                        raise ParseError(
                            f"only S-parameter files are supported, got {tok.upper()}", lineno
                        )
                    elif tok == "r":
                        if i + 1 >= len(tokens):
                            raise ParseError("option line ends after R with no impedance", lineno)
                        try:
                            z_ref = float(tokens[i + 1])
                        except ValueError:
                            z_ref = math.nan
                        if not (0 < z_ref < math.inf):
                            raise ParseError(f"reference impedance {tokens[i + 1]!r} is not "
                                             "a positive finite number", lineno)
                        i += 1
                    else:
                        raise ParseError(f"unrecognized option token {tokens[i]!r}", lineno)
                    i += 1
                continue
            parts = line.split()
            if len(parts) != 3:
                raise ParseError(
                    f"expected 3 columns (frequency and one S value), got {len(parts)}", lineno
                )
            try:
                f_val, a, b = (float(p) for p in parts)
                if not math.isfinite(f_val + a + b):
                    raise ValueError
                if fmt == "ri":
                    s = complex(a, b)
                else:
                    mag = a if fmt == "ma" else 10.0 ** (a / 20.0)
                    s = mag * complex(math.cos(math.radians(b)), math.sin(math.radians(b)))
            except (ValueError, OverflowError):
                raise ParseError(
                    f"non-numeric, non-finite or out-of-range data in {line!r}", lineno
                ) from None
            if s == 1:
                raise ParseError("S = 1 exactly; impedance is undefined", lineno)
            rows.append((lineno, f_val * unit, z_ref * (1.0 + s) / (1.0 - s)))
    return _reference_samples(rows)


def _reference_csv(path):
    rows = []
    lines = _read_text(path).splitlines()
    if not lines:
        raise ParseError("empty file")
    header = [h.strip() for h in lines[0].split(",")]
    if header != ["f_hz", "re_z", "im_z"]:
        raise ParseError(f"expected header f_hz,re_z,im_z, got {lines[0]!r}", 1)
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 3:
            raise ParseError(f"expected 3 columns, got {len(parts)}", lineno)
        try:
            f_val, re_z, im_z = (float(p) for p in parts)
            if not math.isfinite(f_val + re_z + im_z):
                raise ValueError
        except ValueError:
            raise ParseError(
                f"non-numeric, non-finite or out-of-range data in {line!r}", lineno
            ) from None
        rows.append((lineno, f_val, complex(re_z, im_z)))
    return _reference_samples(rows)


def _reference_samples(rows):
    if not rows:
        raise ParseError("no data rows found")
    for lineno, f_hz, _ in rows:
        if f_hz <= 0:
            raise ParseError(f"frequency {f_hz!r} Hz is not positive", lineno)
        if f_hz == math.inf:  # a Touchstone f_val * unit overflowed
            raise ParseError("frequency overflows when scaled to Hz", lineno)
    f = np.array([r[1] for r in rows])
    falls = np.diff(f) <= 0
    if np.any(falls):
        raise ParseError("frequencies must be strictly increasing", rows[np.argmax(falls) + 1][0])
    return w.ImpedanceSamples(frequencies=f, impedances=np.array([r[2] for r in rows]))


def _outcome(read, path):
    """What reading path gives: the sample bytes, or the error's type and message."""
    try:
        got = read(path)
    except w.WavectlError as err:
        return type(err).__name__, str(err)
    return (got.frequencies.dtype, got.frequencies.tobytes(),
            got.impedances.dtype, got.impedances.tobytes())


def _reference_outcome(path):
    read = _reference_touchstone if path.suffix == ".s1p" else _reference_csv
    return _outcome(read, path)


# 20 rows of the bundled cell from 1 to 5.75 GHz: (f in Hz, Z, S)
_F = 1e9 + 0.25e9 * np.arange(20)
_Z = w.synthesize_samples(w.load_bundled_config().cell, _F).impedances


def _s(z_ref):
    return (_Z - z_ref) / (_Z + z_ref)


def _ri(f, s):
    return f"{f!r} {s.real!r} {s.imag!r}"


def _ma(f, s):
    return f"{f!r} {abs(s)!r} {math.degrees(math.atan2(s.imag, s.real))!r}"


def _db(f, s):
    return f"{f!r} {20.0 * math.log10(abs(s))!r} {math.degrees(math.atan2(s.imag, s.real))!r}"


def _base_sweeps():
    f, z, s50, s75 = _F.tolist(), _Z.tolist(), _s(50.0).tolist(), _s(75.0).tolist()
    # signed zeros, and S on both sides of |Re(1 - S)| = |Im(1 - S)|
    z[2:4] = complex(-0.0, z[2].imag), complex(z[3].real, -0.0)
    ri = s50[:2] + [complex(-0.0, -0.0), complex(0.5, -0.0), 0.5 + 0.5j, 1j, 1.5 - 0.5j] + s50[7:]
    csv = ["f_hz,re_z,im_z"] + [f"{a!r},{b.real!r},{b.imag!r}" for a, b in zip(f, z)]
    ghz = [x / 1e9 for x in f]
    bases = {
        "plain.csv": "\n".join(csv) + "\n",
        # blank lines, spaces around fields and \r\n line ends
        "crlf.csv": "\r\n".join(csv[:5] + ["", "  "] + [f" {r} ".replace(",", " , ")
                                                          for r in csv[5:]]) + "\r\n",
        # \v, \f, U+0085 and U+2028 end a line for str.splitlines
        "splits.csv": "\n".join(csv[:4] + ["\v", csv[4] + "\f", "\x85" + csv[5],
                                           csv[6] + "\u2028"] + csv[7:]),
        "ri.s1p": "\n".join(["! bundled cell", "# Hz S RI R 50"]
                            + [_ri(a, b) + "  ! row" for a, b in zip(f, ri)]) + "\n",
        "ma.s1p": "\r".join(["# GHz S MA R 75"] + [_ma(a, b) for a, b in zip(ghz, s75)]) + "\r",
        "db.s1p": "\r\n".join(["!", "# kHz S DB"]
                              + [_db(a / 1e3, b) for a, b in zip(f, s50)]) + "\r\n",
        # rows before the option line read as GHz MA R 50; a second option line is ignored
        "late-option.s1p": "\n".join([_ma(a, b) for a, b in zip(ghz[:4], s50[:4])]
                                     + ["# GHz S RI R 50"]
                                     + [_ri(a, b) for a, b in zip(ghz[4:12], s50[4:12])]
                                     + ["# Hz S DB R 75 ! ignored"]
                                     + [_ri(a, b) for a, b in zip(ghz[12:], s50[12:])]),
        # \v, \f, U+0085 and U+2028 inside a line are whitespace for str.split
        "spaces.s1p": "\n".join(["# Hz S RI R 50"]
                                + [_ri(a, b).replace(" ", sep, 1)
                                   for a, b, sep in zip(f, s50, "\v\f\x85\u2028" * 5)]),
    }
    return {name: text.encode() for name, text in bases.items()}


BASE = _base_sweeps()


_EDGES = [0.0, -0.0, 5e-324, -1e-300, 0.5, -0.5, 1.0, -1.0, 1.5, -2.0, 1e300, -1e300]


@pytest.mark.parametrize("z_ref", [50.0, 1e-300, 1e300])
def test_s_to_z_is_pythons_complex_arithmetic(z_ref):
    # signed zeros, both branches of the quotient and its |Re| = |Im| boundary, overflow
    pairs = [(a, b) for a in _EDGES for b in _EDGES if complex(a, b) != 1]
    s_re, s_im = np.array(pairs).T
    want = np.array([z_ref * (1.0 + complex(a, b)) / (1.0 - complex(a, b)) for a, b in pairs])
    got = _impedance_from_s(s_re, s_im, z_ref)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("name", sorted(BASE))
def test_base_sweeps_read_as_the_reference_reads_them(tmp_path, name):
    path = tmp_path / name
    path.write_bytes(BASE[name])
    got = _outcome(w.ingest_impedance, path)
    assert got == _reference_outcome(path)
    assert isinstance(got[0], np.dtype), got  # every base sweep parses


# characters that move a sweep between the readers' rules
_TEXT = st.sampled_from(list("0123456789.-+eE,# \t!_\n\r\v\f\x85\u2028xSsRIiMADdBbHzZkGg")
                        + ["1", "inf", "nan", "1e300", "-0", "\r\n", "e-400"])


@pytest.fixture(scope="module")
def sweep_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("sweeps")


@settings(max_examples=1500, deadline=None)
@given(name=st.sampled_from(sorted(BASE)),
       edits=st.lists(st.tuples(st.sampled_from(["replace", "insert", "delete"]),
                                st.integers(0, 2**16), _TEXT), min_size=1, max_size=4))
def test_mutated_sweeps_read_as_the_reference_reads_them(sweep_dir, name, edits):
    text = BASE[name].decode()
    for op, where, chunk in edits:
        pos = where % (len(text) + 1)
        if op == "replace":
            text = text[:pos] + chunk + text[pos + 1:]
        elif op == "insert":
            text = text[:pos] + chunk + text[pos:]
        else:
            text = text[:pos] + text[pos + 1:]
    path = sweep_dir / name
    path.write_bytes(text.encode())
    assert _outcome(w.ingest_impedance, path) == _reference_outcome(path)


# 3001-row sweeps: the readers split 1024 rows at a time, so these faults
# are found, and named, past the first chunk
_LONG_F = np.linspace(1e9, 5e9, 3001)
_LONG_Z = w.synthesize_samples(w.load_bundled_config().cell, _LONG_F).impedances
_FAULTS = ["bad-number", "two-fields", "s-equals-1", "zero-hz", "falling", "chunks-1-and-3",
           "short-then-long", "short-then-long-in-chunk-1", "short-then-long-led-by-nul"]


def _long_rows(kind):
    """Header line and the rows' fields of a 3001-row CSV, RI or DB sweep."""
    f = _LONG_F.tolist()
    if kind == "csv":
        return "f_hz,re_z,im_z", [[repr(a), repr(b.real), repr(b.imag)]
                                  for a, b in zip(f, _LONG_Z.tolist())]
    s = ((_LONG_Z - 50.0) / (_LONG_Z + 50.0)).tolist()
    row = _ri if kind == "ri" else _db
    return f"# Hz S {kind.upper()} R 50", [row(a, b).split(" ") for a, b in zip(f, s)]


def _put_fault(rows, kind, fault):
    """Edit rows to hold the fault; the index of the row the error names."""
    k = 2000
    if fault == "bad-number":
        rows[k][1] = "1.2.3"
    elif fault == "two-fields":
        del rows[k][2]
    elif fault == "s-equals-1":  # 1 + 0j, or 0 dB at 0 degrees
        rows[k][1:] = ["1.0" if kind == "ri" else "0.0", "0.0"]
    elif fault == "zero-hz":
        rows[k][0] = "0.0"
    elif fault == "falling":
        rows[k], rows[k + 1] = rows[k + 1], rows[k]
        k += 1
    elif fault == "short-then-long-led-by-nul":  # 2 + 4 fields, the 4 starting with a NUL
        rows[k].pop()
        rows[k + 1].insert(0, "\0")
    elif fault.startswith("short-then-long"):  # 2 + 4 fields: 3 a line, but not on each line
        k = 100 if fault.endswith("chunk-1") else k
        rows[k + 1].append(rows[k].pop())
    else:  # a bad line in chunk 1 and another in chunk 3: the first is named
        rows[100][2] = "x"
        rows[2500][0] = "nan"
        k = 100
    return k


@pytest.mark.parametrize("kind, fault", [(kind, fault) for kind in ("csv", "ri", "db")
                                         for fault in _FAULTS
                                         if (kind, fault) != ("csv", "s-equals-1")])
def test_faults_past_the_first_chunk_are_named_as_the_reference_names_them(tmp_path, kind,
                                                                           fault):
    header, rows = _long_rows(kind)
    k = _put_fault(rows, kind, fault)
    sep = "," if kind == "csv" else " "
    path = tmp_path / ("long.csv" if kind == "csv" else "long.s1p")
    path.write_text("\n".join([header] + [sep.join(row) for row in rows]) + "\n")
    got = _outcome(w.ingest_impedance, path)
    assert got == _reference_outcome(path)
    assert got[1].startswith(f"line {k + 2}: "), got  # line 1 is the header


@pytest.mark.parametrize("kind", ["csv", "ri", "db"])
@pytest.mark.parametrize("bad", [(0,), (1,), (1500,), (2999,), (3000,), (7, 8), (100, 2500)])
def test_the_bad_line_is_found_in_logarithmically_many_conversions(tmp_path, monkeypatch,
                                                                     kind, bad):
    name = "_columns" if kind == "csv" else "_touchstone_block"
    convert = getattr(unitcell, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return convert(*args, **kwargs)

    monkeypatch.setattr(unitcell, name, counted)
    header, rows = _long_rows(kind)
    for k in bad:
        rows[k][1] = "1.2.3"
    sep = "," if kind == "csv" else " "
    path = tmp_path / ("long.csv" if kind == "csv" else "long.s1p")
    path.write_text("\n".join([header] + [sep.join(row) for row in rows]) + "\n")
    got = _outcome(w.ingest_impedance, path)
    assert got == _reference_outcome(path)
    assert got[1].startswith(f"line {bad[0] + 2}: "), got  # line 1 is the header
    assert len(calls) <= 2 * math.log2(len(rows)) + 2


@pytest.mark.parametrize("kind", ["csv", "ri"])
def test_reading_a_long_sweep_starts_no_garbage_collection(tmp_path, kind):
    # each chunk is split as one string, with no list per line, so a read
    # allocates too few tracked objects to start a collection
    f = np.linspace(1e9, 5e9, 6001)
    z = w.synthesize_samples(w.load_bundled_config().cell, f).impedances
    if kind == "csv":
        text = "f_hz,re_z,im_z\n" + "".join(f"{a!r},{b.real!r},{b.imag!r}\n"
                                            for a, b in zip(f.tolist(), z.tolist()))
    else:
        s = ((z - 50.0) / (z + 50.0)).tolist()
        text = "# Hz S RI R 50\n" + "".join(_ri(a, b) + "\n" for a, b in zip(f.tolist(), s))
    path = tmp_path / ("long.csv" if kind == "csv" else "long.s1p")
    path.write_text(text)
    started = []

    def count(phase, info):
        if phase == "start":
            started.append(info["generation"])

    gc.collect()
    gc.callbacks.append(count)
    try:
        got = w.ingest_impedance(path)
    finally:
        gc.callbacks.remove(count)
    assert got.frequencies.size == 6001
    assert started == []
