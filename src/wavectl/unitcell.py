"""Varactor-tuned unit cell: impedance, reflection, and model extraction.

Each radiating element is loaded by a reverse-biased varactor whose
junction capacitance depends on the applied dc voltage.  A
four-element RLC equivalent circuit (series R_d, L_d, shunt C_d, and
a sheet inductance L_s) turns that capacitance into a surface
impedance, and the surface impedance into a reflection coefficient
for a normally incident plane wave.

The reverse path is also covered: given sampled impedance data (from
a solver export or a measurement file) the circuit parameters are
recovered by one weighted linear least-squares solve on the series
branch left once the sheet inductance is removed; each sample weighs
|Z| / |Z_ser|**2, the inverse of its error under relative noise on Z.
"""

from __future__ import annotations

import math
import re
import warnings
from dataclasses import dataclass
from functools import partial
from itertools import islice, repeat

import numpy as np

from .constants import ETA0, MU0
from .errors import ClampWarning, FitError, InputError, ParseError
from .numutil import freeze_field


@dataclass(frozen=True)
class VaractorTable:
    """Measured varactor characteristic: (V, C_v, R_v) rows plus L_v.

    Rows must be strictly increasing in bias voltage with strictly
    decreasing capacitance (reverse-biased junction).
    """

    series_inductance: float
    rows: tuple

    def __post_init__(self):
        if not (0 < self.series_inductance < math.inf):
            raise InputError("series_inductance must be positive and finite")
        rows = tuple((float(v), float(c), float(r)) for v, c, r in self.rows)
        if not all(math.isfinite(x) for row in rows for x in row):
            raise InputError("varactor rows must be finite")
        if len(rows) < 2:
            raise InputError("varactor table needs at least two rows")
        volts, caps, res = zip(*rows)
        if not all(a < b for a, b in zip(volts, volts[1:])):
            raise InputError("varactor rows must be strictly increasing in voltage")
        if not all(a > b for a, b in zip(caps, caps[1:])):
            raise InputError("varactor capacitance must be strictly decreasing")
        if not all(c > 0 for c in caps):
            raise InputError("varactor capacitance must be positive")
        if not all(r >= 0 for r in res):
            raise InputError("varactor resistance must be nonnegative")
        for name, column in zip(("_volts", "_caps", "_res"), (volts, caps, res)):
            freeze_field(self, name, column)
        freeze_field(self, "_res_caps", _complex(self._res, self._caps), complex)
        object.__setattr__(self, "rows", rows)

    @property
    def bias_range(self):
        return self._volts[0], self._volts[-1]


@dataclass(frozen=True)
class CellCircuit:
    """Four-element equivalent circuit of one unit cell.

    The shunt branch L_s resonates against the series R_d, L_d, C_d
    branch; the pole of the combined impedance sits below the series
    branch's own zero.
    """

    R_d: float
    C_d: float
    L_d: float
    L_s: float

    def __post_init__(self):
        for name in ("R_d", "C_d", "L_d", "L_s"):
            if not (0 < getattr(self, name) < math.inf):
                raise InputError(f"{name} must be strictly positive and finite")
        # each resonance is 1/sqrt of a product that must not underflow to 0 or overflow
        for names, product in (("C_d * L_d", self.C_d * self.L_d),
                               ("C_d * (L_d + L_s)", self.C_d * (self.L_d + self.L_s))):
            if not (0 < product < math.inf):
                raise InputError(f"{names} is out of float range at C_d = {self.C_d!r} F, "
                                 f"L_d = {self.L_d!r} H, L_s = {self.L_s!r} H")

    @property
    def electric_resonance(self):
        """Angular frequency of the impedance zero (series resonance)."""
        return 1.0 / math.sqrt(self.C_d * self.L_d)

    @property
    def magnetic_resonance(self):
        """Angular frequency of the impedance pole."""
        return 1.0 / math.sqrt(self.C_d * (self.L_d + self.L_s))


@dataclass(frozen=True)
class ImpedanceSamples:
    """A one-port impedance sweep: strictly increasing frequencies."""

    frequencies: np.ndarray
    impedances: np.ndarray

    def __post_init__(self):
        f = freeze_field(self, "frequencies", self.frequencies)
        z = freeze_field(self, "impedances", self.impedances, complex)
        if f.ndim != 1 or f.shape != z.shape:
            raise InputError("frequencies and impedances must be 1-d arrays of equal length")
        if f.size < 16:
            raise InputError("impedance sweep needs at least 16 points")
        if not (np.all(np.isfinite(f)) and np.all(np.isfinite(z))):
            raise InputError("frequencies and impedances must be finite")
        if not np.all(np.diff(f) > 0):
            raise InputError("frequencies must be strictly increasing")

    def __len__(self):
        return self.frequencies.size


_CLAMP_MESSAGE = "bias voltage outside the varactor table range; clamped to the end row"


def _lookup_arrays(table: VaractorTable, volts):
    """Vector lookup with end-row clamping.  Returns (R + jC, clamped).

    One complex np.interp over the R + jC column searches the table once
    for both, and it returns the end rows outside the table, so nothing
    is clipped.  R and C are the real and imaginary parts of its result,
    a new array.  numpy forms the complex slope as dC * (1 / dV) where
    the real interp forms dC / dV: the two agree bit for bit wherever
    each row spacing is a power of two (the bundled table's is 1 V), and
    elsewhere within 2 ulp of the column's largest entry.
    """
    v = np.asarray(volts, dtype=float)
    lo, hi = table.bias_range
    v_min, v_max = (v.min(), v.max()) if v.size else (lo, hi)
    if not (math.isfinite(v_min) and math.isfinite(v_max)):  # min and max propagate NaN
        raise InputError("bias voltage must be finite")
    return np.interp(v, table._volts, table._res_caps), bool(v_min < lo or v_max > hi)


def _ladder(cell, table, f_c):
    """The cell's bilinear map at carrier f_c: (-1/w, a, b, c, d), w = 2 pi f_c.

    The cell is a ladder of two-ports closed by the varactor, so its
    reflection is one bilinear map of the varactor's Z = R_v - j/(w C_v),
    Gamma = (a Z + b) / (c Z + d) (Pozar, Microwave Engineering, ch. 4).
    [[a, b], [c, d]] is the product of the sections' matrices from the
    incident side: Gamma of the surface impedance, the shunt L_s, the
    series R_d + jwL_d, the shunt C_d and the varactor's series jwL_v,
    which folds into b and d.  A shunt section is written by its
    impedance or its admittance, whichever stays within 1, so a section
    that is all but open or shorted holds no infinity.  The products run
    in Python complex arithmetic, each scaled by the power of two that
    brings its largest part into [0.5, 1): the map is projective, so the
    scaling is exact and changes nothing, and it keeps every entry of
    the next product in range.
    """
    w = 2.0 * math.pi * f_c
    x_s, y_d = w * cell.L_s, w * cell.C_d
    sections = (
        (1j * x_s, 0.0, 1.0, 1j * x_s) if x_s <= 1.0 else (1.0, 0.0, -1j / x_s, 1.0),  # Z || jwL_s
        (1.0, cell.R_d + 1j * w * cell.L_d, 0.0, 1.0),  # Z + R_d + jwL_d
        (1.0, 0.0, 1j * y_d, 1.0) if y_d < 1.0 else (-1j / y_d, 0.0, 1.0, -1j / y_d),  # Z || C_d
        (1.0, 1j * w * table.series_inductance, 0.0, 1.0),  # Z + jwL_v
    )
    a, b, c, d = 1.0, -ETA0, 1.0, ETA0  # (Z - eta0) / (Z + eta0)
    for e, f, g, h in sections:
        a, b, c, d = a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h
        top = max(abs(a.real), abs(a.imag), abs(b.real), abs(b.imag),
                  abs(c.real), abs(c.imag), abs(d.real), abs(d.imag))
        if 0.0 < top < math.inf:
            shift = -math.frexp(top)[1]
            a, b, c, d = (complex(math.ldexp(x.real, shift), math.ldexp(x.imag, shift))
                          for x in (a, b, c, d))
    return -1.0 / w, a, b, c, d


def _reflection_array(cell, table, volts, f_c, z=None, tmp=None, ladder=None):
    """Vectorized bias -> reflection kernel shared by profile and scans.

    Returns (gamma, clamped): complex reflection coefficients for each
    bias sample, in z, plus a flag telling whether any lookup was
    clamped.  z and tmp are complex arrays of the bias's shape, or None
    for new ones; the kernel overwrites tmp.  ladder is
    _ladder(cell, table, f_c), formed here when None: a caller that runs
    the kernel on many blocks forms it once.  The lookup's R + jC turns
    into the varactor's R_v - j/(w C_v) in place, by one real division
    of its imaginary part, and two multiply-adds and one complex
    division give Gamma = (a Z + b) / (c Z + d).
    """
    neg_inv_w, a, b, c, d = _ladder(cell, table, f_c) if ladder is None else ladder
    z_v, clamped = _lookup_arrays(table, volts)
    np.divide(neg_inv_w, z_v.imag, out=z_v.imag)
    num = np.add(np.multiply(z_v, a, out=z), b, out=z)
    den = np.add(np.multiply(z_v, c, out=tmp), d, out=tmp)
    return np.divide(num, den, out=num), clamped


def _check_carrier(cell, table, f_c):
    """The cell's _ladder at f_c; InputError naming f_c unless it is
    positive and finite and the kernel stays finite there.

    The kernel runs once at the table's own voltages, where the lookup
    returns each row's R_v and C_v exactly.  Every value a lookup returns
    lies between two rows, and R_v >= 0 makes the varactor passive, so
    |Gamma| <= 1 at every bias: a map that is finite at the rows stays
    finite between them.
    """
    if not (0 < f_c < math.inf):
        raise InputError(f"carrier frequency {float(f_c)!r} Hz must be positive and finite")
    with np.errstate(all="ignore"):
        ladder = _ladder(cell, table, f_c)
        gamma, _ = _reflection_array(cell, table, table._volts, f_c, ladder=ladder)
    if not np.isfinite(gamma).all():
        raise InputError(f"carrier frequency {float(f_c)!r} Hz is out of range for the cell model")
    return ladder


def reflection_profile(cell: CellCircuit, table: VaractorTable, bias, f_c: float) -> np.ndarray:
    """Complex reflection coefficient of each element at f_c for bias
    voltages, one per element (a scalar is one element), such as
    rectified_bias returns.

    Shape (M,), read-only: the cell kernel's own values, bit for bit.
    InputError unless the bias is a scalar or a nonempty 1-d array.
    """
    volts = np.atleast_1d(np.asarray(bias, dtype=float))
    if volts.ndim != 1:
        raise InputError("bias must be a scalar or a 1-d array, one voltage per element")
    if volts.size < 1:
        raise InputError("bias may not be empty")
    ladder = _check_carrier(cell, table, f_c)
    gamma, clamped = _reflection_array(cell, table, volts, f_c, ladder=ladder)
    if clamped:
        warnings.warn(_CLAMP_MESSAGE, ClampWarning, stacklevel=2)
    gamma.setflags(write=False)
    return gamma


def equivalent_impedance(cell: CellCircuit, frequencies) -> np.ndarray:
    """Unloaded-cell impedance sweep (varactor branch removed):
    (R_d + jwL_d + 1/(jwC_d)) || jwL_s."""
    w = 2.0 * math.pi * np.asarray(frequencies, dtype=float)
    series = cell.R_d + 1j * w * cell.L_d + -1j / (w * cell.C_d)
    z_s = 1j * w * cell.L_s
    return series * z_s / (series + z_s)


def synthesize_samples(cell: CellCircuit, frequencies) -> ImpedanceSamples:
    """Generate an impedance sweep from a known circuit (for round trips)."""
    f = np.asarray(frequencies, dtype=float)
    return ImpedanceSamples(frequencies=f, impedances=equivalent_impedance(cell, f))


def fit_circuit_model(samples: ImpedanceSamples, substrate_thickness: float) -> CellCircuit:
    """Recover the four circuit parameters from an impedance sweep.

    The sheet inductance follows from the substrate thickness alone,
    L_s = mu0 * t.  Removing its admittance leaves the series branch,
    Z_ser = 1 / (1/Z - 1/(jwL_s)) = R_d + j(wL_d - 1/(wC_d)), which is
    linear in (R_d, L_d, 1/C_d) (Levy's complex-curve fit, IRE Trans.
    Automatic Control, 1959).  One weighted least-squares solve gives
    them: R_d is the weighted mean of Re Z_ser and (L_d, 1/C_d) fit
    Im Z_ser on the columns [w, -1/w].  Each sample weighs
    |Z| / |Z_ser|**2, the inverse of its error under relative noise on
    Z (dZ_ser = Z_ser**2 dZ / Z**2).  Noise-free data is recovered to
    rounding at any sweep that holds the sixteen points ImpedanceSamples
    requires.  A fitted value that is not positive, a sample at which
    the series branch is undefined (Z = 0 or Z = jwL_s), a sweep whose
    values are out of range for the arithmetic, or a fitted circuit that
    CellCircuit refuses raises FitError.
    """
    if not (substrate_thickness > 0):
        raise InputError("substrate_thickness must be positive")
    l_s = MU0 * substrate_thickness
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            r_d, l_d, inv_c_d = _series_branch_fit(samples, l_s)
    except FloatingPointError as err:
        raise FitError(f"the sweep's values are out of range for the fit: {err}") from None
    if not (r_d > 0 and l_d > 0 and inv_c_d > 0):
        raise FitError(f"fitted R_d = {r_d:.6g}, L_d = {l_d:.6g}, 1/C_d = {inv_c_d:.6g}: "
                       "not all positive; the sweep does not look like this circuit")
    try:
        return CellCircuit(R_d=r_d, C_d=1.0 / inv_c_d, L_d=l_d, L_s=l_s)
    except InputError as err:
        raise FitError(f"the fitted circuit is out of range: {err}") from None


def _series_branch_fit(samples, l_s):
    """(R_d, L_d, 1/C_d) by the weighted solve fit_circuit_model describes."""
    w = 2.0 * math.pi * samples.frequencies
    z = samples.impedances
    if np.any(z == 0):
        raise FitError("an impedance sample is zero (S = -1); the series branch is undefined")
    y_ser = 1.0 / z + 1j / (w * l_s)
    if np.any(y_ser == 0):
        raise FitError("an impedance sample equals j*w*L_s; the series branch is open there")
    z_ser = 1.0 / y_ser
    weight = np.abs(z) / np.abs(z_ser) ** 2

    r_d = float(np.average(z_ser.real, weights=weight**2))
    # scale the columns to unit norm first: w and 1/w differ by some 20
    # orders of magnitude, and unscaled the 1/C_d column is lost to rounding
    columns = np.stack((w, -1.0 / w)) * weight  # one row per column, contiguous
    norms = np.linalg.norm(columns, axis=1)
    solution = np.linalg.lstsq((columns / norms[:, None]).T, weight * z_ser.imag,
                               rcond=None)[0] / norms
    return (r_d, *solution.tolist())


_FREQ_UNITS = {"hz": 1.0, "khz": 1e3, "mhz": 1e6, "ghz": 1e9}


def _read_text(path):
    """A file, named or open in binary mode, as UTF-8 text.

    ParseError names the line of the first byte that is not UTF-8.
    """
    if hasattr(path, "read"):
        data = path.read()
    else:
        with open(path, "rb") as fh:
            data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as err:
        head = data[:err.start].replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        raise ParseError(f"byte 0x{data[err.start]:02x} is not UTF-8 text",
                         head.count(b"\n") + 1) from None


_TOUCHSTONE_DEFAULTS = (1e9, "ma", 50.0)  # GHz, MA, R 50 until an option line says otherwise
_COMMENT = re.compile("![^\n]*")
_CHUNK_ROWS = 1024  # rows read at a time: a chunk is joined into one string and split once


def _columns(lines, sep=None):
    """(n, 3) float table of data lines, each three fields separated by sep (None: whitespace).

    Every field goes through float(), so the accepted number syntax is
    float()'s.  ParseError, with no line number, if a line has not three
    fields, a field is not a number, or a row's sum (f + a) + b is not
    finite.
    """
    table = np.empty((len(lines), 3))
    glue = f"{sep or ' '}\0{sep or ' '}"  # a NUL field between lines, which float() refuses
    for start in range(0, len(lines), _CHUNK_ROWS):
        chunk = lines[start:start + _CHUNK_ROWS]
        fields = glue.join(chunk).split(sep)
        if len(fields) == 4 * len(chunk) - 1:
            # the NULs are every fourth field if each line has three; if not, a NUL stays
            del fields[3::4]
            try:
                table[start:start + len(chunk)] = np.fromiter(
                    map(float, fields), float, 3 * len(chunk)).reshape(-1, 3)
                continue
            except ValueError:  # float() refused a field
                pass
        # the chunk fails: name its first field count that is not 3, as a line-by-line read would
        got = next((n for n in map(len, map(str.split, chunk, repeat(sep))) if n != 3), 3)
        if got == 3:
            raise _bad_data(chunk)
        what = "3 columns" if sep else "3 columns (frequency and one S value)"  # CSV, s1p
        raise ParseError(f"expected {what}, got {got}")
    with np.errstate(over="ignore", invalid="ignore"):
        if not np.isfinite(table[:, 0] + table[:, 1] + table[:, 2]).all():
            raise _bad_data(lines)
    return table


def _bad_data(lines):
    """The ParseError for a value that is not a finite number in range; it quotes the lines."""
    return ParseError("non-numeric, non-finite or out-of-range data in " + repr("\n".join(lines)))


def _complex(real, imag):
    """Complex array with exactly these parts (no arithmetic touches a signed zero)."""
    z = np.empty(real.shape, complex)
    z.real, z.imag = real, imag
    return z


def _polar_s(fmt, a, b):
    """S of an MA or DB pair (angle b in degrees), in Python float arithmetic.

    OverflowError above 6165 dB.
    """
    mag = a if fmt == "ma" else 10.0 ** (a / 20.0)
    return mag * complex(math.cos(math.radians(b)), math.sin(math.radians(b)))


def _impedance_from_s(s_re, s_im, z_ref):
    """z_ref * (1 + S) / (1 - S) for arrays of Re S and Im S, bit for bit as Python computes it.

    The steps are CPython's complex arithmetic written out: 1.0 + S and
    1.0 - S promote 1.0 to 1 + 0j, the product promotes z_ref to
    z_ref + 0j, and the quotient is Smith's, dividing through by the
    larger part of the denominator.  The tests compare it with Python's
    own expression bit for bit, signed zeros included.  S = 1 is
    excluded by the caller.
    """
    with np.errstate(all="ignore"):  # overflow fails ImpedanceSamples' finite check
        num_re, num_im = 1.0 + s_re, 0.0 + s_im
        den_re, den_im = 1.0 - s_re, 0.0 - s_im
        a_re, a_im = z_ref * num_re - 0.0 * num_im, z_ref * num_im + 0.0 * num_re
        # both branches run everywhere; np.where keeps one
        by_re = np.abs(den_re) >= np.abs(den_im)
        ratio = np.where(by_re, den_im / den_re, den_re / den_im)
        denom = np.where(by_re, den_re + den_im * ratio, den_re * ratio + den_im)
        z_re = np.where(by_re, a_re + a_im * ratio, a_re * ratio + a_im) / denom
        z_im = np.where(by_re, a_im - a_re * ratio, a_im * ratio - a_re) / denom
    return _complex(z_re, z_im)


def _numbered(lines):
    """The line number of each line of the file that is not blank."""
    return [n for n, line in enumerate(lines, start=1) if line.strip()]


def _located(convert, lines, linenos):
    """convert(lines); if that fails, the ParseError of the first line that fails alone.

    Each conversion reads every line on its own, so a block fails
    exactly when one of its lines does.  The first bad line is found by
    halving: convert the first half of the failing range, and keep
    whichever half holds a bad line, about log2(len(lines)) conversions
    in all.  linenos() numbers the lines in the file, and is only called
    when the block fails.
    """
    try:
        return convert(lines)
    except ParseError:
        start, stop = 0, len(lines)
        while stop - start > 1:
            middle = (start + stop) // 2
            try:
                convert(lines[start:middle])
            except ParseError:
                stop = middle
            else:
                start = middle
        try:
            convert(lines[start:stop])
        except ParseError as err:
            raise ParseError(str(err), linenos()[start]) from None
        raise


def _touchstone_options(line):
    """(frequency unit, data format, reference impedance) of a '#' option line."""
    unit, fmt, z_ref = _TOUCHSTONE_DEFAULTS
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
            raise ParseError(f"only S-parameter files are supported, got {tok.upper()}")
        elif tok == "r":
            if i + 1 >= len(tokens):
                raise ParseError("option line ends after R with no impedance")
            try:
                z_ref = float(tokens[i + 1])
            except ValueError:
                z_ref = math.nan
            if not (0 < z_ref < math.inf):
                raise ParseError(f"reference impedance {tokens[i + 1]!r} is not "
                                 "a positive finite number")
            i += 1
        else:
            raise ParseError(f"unrecognized option token {tokens[i]!r}")
        i += 1
    return unit, fmt, z_ref


def _touchstone_block(options, lines):
    """(f in Hz, Z) of data lines read under one set of options; ParseError with no line number."""
    unit, fmt, z_ref = options
    table = _columns(lines)
    if fmt == "ri":
        s_re, s_im = table[:, 1], table[:, 2]
    else:  # per value, in the Python float arithmetic of _polar_s
        pairs = map(float, table[:, 1]), map(float, table[:, 2])
        try:
            s = np.fromiter(map(_polar_s, repeat(fmt), *pairs), complex, len(table))
        except OverflowError:
            raise _bad_data(lines) from None
        s_re, s_im = s.real, s.imag
    if np.any((s_re == 1.0) & (s_im == 0.0)):
        raise ParseError("S = 1 exactly; impedance is undefined")
    with np.errstate(over="ignore"):  # an overflowing frequency fails _sweep_samples' check
        f = table[:, 0] * unit
    return f, _impedance_from_s(s_re, s_im, z_ref)


def _parse_touchstone(path):
    text = _read_text(path)
    if "\r" in text:  # universal newlines
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    raw = _COMMENT.sub("", text).split("\n")
    lines = list(filter(None, map(str.strip, raw)))
    first = next((i for i, line in enumerate(lines) if line[0] == "#"), len(lines))
    # the data rows' line numbers: every '#' line is an option line, not a row
    rows = lambda: [n for n, line in zip(_numbered(raw), lines) if line[0] != "#"]
    options = _TOUCHSTONE_DEFAULTS
    f, z = _located(partial(_touchstone_block, options), lines[:first], rows)
    if first < len(lines):
        options = _located(lambda block: _touchstone_options(*block), lines[first:first + 1],
                           lambda: _numbered(raw)[first:])
        # later option lines are ignored per the format
        rest = [line for line in lines[first + 1:] if line[0] != "#"]
        f_rest, z_rest = _located(partial(_touchstone_block, options), rest,
                                  lambda: rows()[first:])
        f, z = np.concatenate((f, f_rest)), np.concatenate((z, z_rest))
    return _sweep_samples(f, z, rows)


def _parse_impedance_csv(path):
    lines = _read_text(path).splitlines()
    if not lines:
        raise ParseError("empty file")
    header = [h.strip() for h in lines[0].split(",")]
    if header != ["f_hz", "re_z", "im_z"]:
        raise ParseError(f"expected header f_hz,re_z,im_z, got {lines[0]!r}", 1)
    rows = lambda: _numbered(lines)[1:]  # line 1 is the header
    data = list(filter(str.strip, islice(lines, 1, None)))
    table = _located(partial(_columns, sep=","), data, rows)
    return _sweep_samples(table[:, 0], _complex(table[:, 1], table[:, 2]), rows)


def _sweep_samples(f, z, linenos):
    """ImpedanceSamples from parsed columns; linenos() lists each row's line, for errors."""
    if not f.size:
        raise ParseError("no data rows found")
    # the fit divides by the angular frequency; a Touchstone f * unit may overflow
    bad = ~((f > 0) & (f < math.inf))
    if np.any(bad):
        k = int(np.argmax(bad))
        raise ParseError(f"frequency {float(f[k])!r} Hz is not positive" if f[k] <= 0
                         else "frequency overflows when scaled to Hz", linenos()[k])
    falls = np.diff(f) <= 0
    if np.any(falls):
        raise ParseError("frequencies must be strictly increasing",
                         linenos()[int(np.argmax(falls)) + 1])
    return ImpedanceSamples(frequencies=f, impedances=z)


def ingest_impedance(path, fmt: str = "auto") -> ImpedanceSamples:
    """Load an impedance sweep from a CSV or one-port Touchstone file.

    path is the file's name or the file open in binary mode.  fmt is
    "csv", "s1p", or "auto" (by the extension of the file's name).
    """
    fmt = fmt.lower()
    if fmt == "auto":
        name = str(getattr(path, "name", path))
        fmt = "s1p" if name.lower().endswith(".s1p") else "csv"
    if fmt == "csv":
        return _parse_impedance_csv(path)
    if fmt in ("s1p", "touchstone"):
        return _parse_touchstone(path)
    raise InputError(f"unknown impedance format {fmt!r}")
