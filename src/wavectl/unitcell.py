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

import io
import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .constants import ETA0, MU0
from .errors import ClampWarning, FitError, InputError, ParseError
from .numutil import freeze_field, wrap_phase


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
        volts, caps, res = (freeze_field(self, name, column)
                            for name, column in zip(("_volts", "_caps", "_res"), zip(*rows)))
        if not np.all(np.diff(volts) > 0):
            raise InputError("varactor rows must be strictly increasing in voltage")
        if not np.all(np.diff(caps) < 0):
            raise InputError("varactor capacitance must be strictly decreasing")
        if not np.all(caps > 0):
            raise InputError("varactor capacitance must be positive")
        if not np.all(res >= 0):
            raise InputError("varactor resistance must be nonnegative")
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

    reference_impedance: float
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


@dataclass(frozen=True)
class ReflectionProfile:
    """Per-element reflection coefficient at the carrier.

    magnitudes are linear in [0, 1]; phases are principal values in
    (-pi, pi] radians.
    """

    magnitudes: np.ndarray
    phases: np.ndarray

    def __post_init__(self):
        mags = freeze_field(self, "magnitudes", self.magnitudes)
        phases = freeze_field(self, "phases", self.phases)
        if mags.ndim != 1 or mags.shape != phases.shape:
            raise InputError("magnitudes and phases must be 1-d arrays of equal length")
        if mags.size < 1:
            raise InputError("reflection profile may not be empty")
        if np.any(mags < 0):
            raise InputError("reflection magnitudes must be nonnegative")

    def __len__(self):
        return self.magnitudes.size

    def coefficients(self):
        """Complex reflection coefficients R_m * exp(j alpha_m)."""
        return self.magnitudes * np.exp(1j * self.phases)


_CLAMP_MESSAGE = "bias voltage outside the varactor table range; clamped to the end row"


def _lookup_arrays(table: VaractorTable, volts):
    """Vector lookup with end-row clamping.  Returns (C, R, clamped)."""
    v = np.asarray(volts, dtype=float)
    if not np.all(np.isfinite(v)):
        raise InputError("bias voltage must be finite")
    lo, hi = table.bias_range
    clamped = bool(np.any(v < lo) or np.any(v > hi))
    v = np.clip(v, lo, hi)
    caps = np.interp(v, table._volts, table._caps)
    res = np.interp(v, table._volts, table._res)
    return caps, res, clamped


# The bias -> reflection kernel in its three steps.  Each takes arrays
# (a bias pattern or a block of the steering grid), so every path
# evaluates the same ufuncs.  Each step writes its intermediates and
# result into the arrays of a _Buffers, or into new ones where a field
# is None.

class _Buffers(NamedTuple):
    """Arrays of one shape for the kernel: a float and two complex ones."""

    real: np.ndarray | None = None
    z: np.ndarray | None = None
    tmp: np.ndarray | None = None


_NEW = _Buffers()


def _varactor_array(table, caps, res, w, buf=_NEW):
    """Varactor impedance R_v + j(w L_v - 1/(w C_v)) at angular frequency w, in buf.z."""
    x = np.multiply(w, caps, out=buf.real)
    x = np.divide(1.0, x, out=buf.real)
    x = np.subtract(w * table.series_inductance, x, out=buf.real)
    return np.add(res, np.multiply(1j, x, out=buf.z), out=buf.z)


def _surface_array(cell, z_v, w, buf=_NEW):
    """Surface impedance (R_d + jwL_d + C_d||Z_v) || jwL_s, in buf.z; z_v None unloads C_d."""
    z_cd = -1j / (w * cell.C_d)
    if z_v is not None:
        den = np.add(z_v, z_cd, out=buf.tmp)
        z_cd = np.divide(np.multiply(z_v, z_cd, out=buf.z), den, out=buf.z)
    series = np.add(cell.R_d + 1j * w * cell.L_d, z_cd, out=buf.z)
    z_s = 1j * w * cell.L_s
    den = np.add(series, z_s, out=buf.tmp)
    return np.divide(np.multiply(series, z_s, out=buf.z), den, out=buf.z)


def _gamma_array(z_ris, buf=_NEW):
    """Normal-incidence reflection coefficient (Z - eta0) / (Z + eta0), in buf.z."""
    den = np.add(z_ris, ETA0, out=buf.tmp)
    return np.divide(np.subtract(z_ris, ETA0, out=buf.z), den, out=buf.z)


def _reflection_array(cell, table, volts, f_c, buf=_NEW):
    """Vectorized bias -> reflection pipeline shared by profile and scans.

    Returns (gamma, clamped): complex reflection coefficients for each
    bias sample, in buf.z, plus a flag telling whether any lookup was
    clamped.  volts may be buf.real; the kernel overwrites buf.real and
    buf.tmp.
    """
    caps, res, clamped = _lookup_arrays(table, volts)
    w = 2.0 * math.pi * f_c
    gamma = _gamma_array(_surface_array(cell, _varactor_array(table, caps, res, w, buf), w, buf),
                         buf)
    return gamma, clamped


def _check_carrier(cell, table, f_c):
    """InputError naming f_c unless it is positive and finite and the kernel stays finite there.

    The kernel runs once over the table's own rows: every capacitance
    and resistance a lookup returns lies between two of them, so the
    rows bound each reactance the kernel forms.
    """
    if not (0 < f_c < math.inf):
        raise InputError(f"carrier frequency {float(f_c)!r} Hz must be positive and finite")
    w = 2.0 * math.pi * f_c
    try:
        with np.errstate(all="ignore"):
            finite = np.isfinite(_gamma_array(_surface_array(
                cell, _varactor_array(table, table._caps, table._res, w), w))).all()
    except ZeroDivisionError:  # w C_d underflows to 0
        finite = False
    if not finite:
        raise InputError(f"carrier frequency {float(f_c)!r} Hz is out of range for the cell model")


def reflection_profile(cell: CellCircuit, table: VaractorTable, bias, f_c: float) -> ReflectionProfile:
    """Element-wise reflection coefficients for a bias pattern at f_c."""
    _check_carrier(cell, table, f_c)
    volts = np.atleast_1d(np.asarray(
        bias.voltages if hasattr(bias, "voltages") else bias, dtype=float))
    gamma, clamped = _reflection_array(cell, table, volts, f_c)
    if clamped:
        warnings.warn(_CLAMP_MESSAGE, ClampWarning, stacklevel=2)
    return ReflectionProfile(magnitudes=np.abs(gamma), phases=wrap_phase(np.angle(gamma)))


def equivalent_impedance(cell: CellCircuit, frequencies) -> np.ndarray:
    """Unloaded-cell impedance sweep (varactor branch removed)."""
    return _surface_array(cell, None, 2.0 * math.pi * np.asarray(frequencies, dtype=float))


def synthesize_samples(cell: CellCircuit, frequencies, reference_impedance: float = 50.0) -> ImpedanceSamples:
    """Generate an impedance sweep from a known circuit (for round trips)."""
    f = np.asarray(frequencies, dtype=float)
    return ImpedanceSamples(
        reference_impedance=reference_impedance,
        frequencies=f,
        impedances=equivalent_impedance(cell, f),
    )


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
    the series branch is undefined (Z = 0 or Z = jwL_s), or a sweep
    whose values are out of range for the arithmetic raises FitError.
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
    return CellCircuit(R_d=r_d, C_d=1.0 / inv_c_d, L_d=l_d, L_s=l_s)


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
    """The file as UTF-8 text; ParseError naming the line of the first byte that is not."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as err:
        head = data[:err.start].replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        raise ParseError(f"byte 0x{data[err.start]:02x} is not UTF-8 text",
                         head.count(b"\n") + 1) from None


def _parse_touchstone(path):
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
                    continue  # later option lines are ignored per the format
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
                if not math.isfinite(f_val + a + b):  # float() takes nan and inf
                    raise ValueError
                if fmt == "ri":
                    s = complex(a, b)
                else:
                    mag = a if fmt == "ma" else 10.0 ** (a / 20.0)  # overflows above 6165 dB
                    s = mag * complex(math.cos(math.radians(b)), math.sin(math.radians(b)))
            except (ValueError, OverflowError):
                raise ParseError(
                    f"non-numeric, non-finite or out-of-range data in {line!r}", lineno
                ) from None
            if s == 1:
                raise ParseError("S = 1 exactly; impedance is undefined", lineno)
            rows.append((lineno, f_val * unit, z_ref * (1.0 + s) / (1.0 - s)))
    return _sweep_samples(rows, z_ref)


def _parse_impedance_csv(path):
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
            if not math.isfinite(f_val + re_z + im_z):  # float() takes nan and inf
                raise ValueError
        except ValueError:
            raise ParseError(
                f"non-numeric, non-finite or out-of-range data in {line!r}", lineno
            ) from None
        rows.append((lineno, f_val, complex(re_z, im_z)))
    return _sweep_samples(rows, 50.0)


def _sweep_samples(rows, reference_impedance):
    """ImpedanceSamples from parsed (lineno, f_hz, z) rows; errors name the line."""
    if not rows:
        raise ParseError("no data rows found")
    f = np.array([r[1] for r in rows])
    below = f <= 0  # the fit divides by the angular frequency
    if np.any(below):
        lineno, f_hz, _ = rows[int(np.argmax(below))]
        raise ParseError(f"frequency {f_hz!r} Hz is not positive", lineno)
    falls = np.diff(f) <= 0
    if np.any(falls):
        raise ParseError("frequencies must be strictly increasing", rows[np.argmax(falls) + 1][0])
    return ImpedanceSamples(reference_impedance=reference_impedance, frequencies=f,
                            impedances=np.array([r[2] for r in rows]))


def ingest_impedance(path, fmt: str = "auto") -> ImpedanceSamples:
    """Load an impedance sweep from a CSV or one-port Touchstone file.

    fmt is "csv", "s1p", or "auto" (by file extension).
    """
    fmt = fmt.lower()
    if fmt == "auto":
        fmt = "s1p" if str(path).lower().endswith(".s1p") else "csv"
    if fmt == "csv":
        return _parse_impedance_csv(path)
    if fmt in ("s1p", "touchstone"):
        return _parse_touchstone(path)
    raise InputError(f"unknown impedance format {fmt!r}")
