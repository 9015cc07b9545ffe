"""Varactor-tuned unit cell: impedance, reflection, and model extraction.

Each radiating element is loaded by a reverse-biased varactor whose
junction capacitance depends on the applied dc voltage.  A
four-element RLC equivalent circuit (series R_d, L_d, shunt C_d, and
a sheet inductance L_s) turns that capacitance into a surface
impedance, and the surface impedance into a reflection coefficient
for a normally incident plane wave.

The reverse path is also covered: given sampled impedance data (from
a solver export or a measurement file) the circuit parameters are
recovered from the pole/zero pair of the impedance sweep.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .constants import ETA0, MU0
from .errors import ClampWarning, FitError, InputError, ParseError, SingularInputError
from .numutil import is_at_infinity, parabola_vertex, wrap_phase


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
        volts = np.array([r[0] for r in rows])
        caps = np.array([r[1] for r in rows])
        res = np.array([r[2] for r in rows])
        if not np.all(np.diff(volts) > 0):
            raise InputError("varactor rows must be strictly increasing in voltage")
        if not np.all(np.diff(caps) < 0):
            raise InputError("varactor capacitance must be strictly decreasing")
        if not np.all(caps > 0):
            raise InputError("varactor capacitance must be positive")
        if not np.all(res >= 0):
            raise InputError("varactor resistance must be nonnegative")
        object.__setattr__(self, "rows", rows)
        volts.setflags(write=False)
        caps.setflags(write=False)
        res.setflags(write=False)
        object.__setattr__(self, "_volts", volts)
        object.__setattr__(self, "_caps", caps)
        object.__setattr__(self, "_res", res)

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
        f = np.asarray(self.frequencies, dtype=float).copy()
        z = np.asarray(self.impedances, dtype=complex).copy()
        if f.ndim != 1 or f.shape != z.shape:
            raise InputError("frequencies and impedances must be 1-d arrays of equal length")
        if f.size < 16:
            raise InputError("impedance sweep needs at least 16 points")
        if not np.all(np.diff(f) > 0):
            raise InputError("frequencies must be strictly increasing")
        f.setflags(write=False)
        z.setflags(write=False)
        object.__setattr__(self, "frequencies", f)
        object.__setattr__(self, "impedances", z)

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
        mags = np.asarray(self.magnitudes, dtype=float).copy()
        phases = np.asarray(self.phases, dtype=float).copy()
        if mags.ndim != 1 or mags.shape != phases.shape:
            raise InputError("magnitudes and phases must be 1-d arrays of equal length")
        if mags.size < 1:
            raise InputError("reflection profile may not be empty")
        if np.any(mags < 0):
            raise InputError("reflection magnitudes must be nonnegative")
        mags.setflags(write=False)
        phases.setflags(write=False)
        object.__setattr__(self, "magnitudes", mags)
        object.__setattr__(self, "phases", phases)

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


def varactor_lookup(table: VaractorTable, bias_voltage: float):
    """(C_v, R_v) at a bias voltage, linear between rows, clamped outside."""
    caps, res, clamped = _lookup_arrays(table, float(bias_voltage))
    if clamped:
        warnings.warn(_CLAMP_MESSAGE, ClampWarning, stacklevel=2)
    return float(caps), float(res)


def varactor_impedance(table: VaractorTable, bias_voltage: float, f: float) -> complex:
    """Series RLC impedance of the varactor at bias V and frequency f."""
    if not (f > 0):
        raise InputError("frequency must be positive")
    c_v, r_v = varactor_lookup(table, bias_voltage)
    return complex(_varactor_array(table, c_v, r_v, 2.0 * math.pi * f))


def ris_impedance(cell: CellCircuit, z_varactor: complex, f: float) -> complex:
    """Surface impedance of the loaded cell.

    The varactor sits in parallel with C_d, in series with R_d and
    L_d, and the whole branch in parallel with the sheet inductance
    L_s.  Passing an at-infinity varactor impedance removes that
    branch (the unloaded cell, equal to equivalent_impedance).
    """
    if not (f > 0):
        raise InputError("frequency must be positive")
    if is_at_infinity(z_varactor):
        return complex(equivalent_impedance(cell, f))
    try:
        return complex(_surface_array(cell, complex(z_varactor), 2.0 * math.pi * f))
    except ZeroDivisionError:
        raise InputError("degenerate parallel combination: branch impedances cancel") from None


def reflection_coefficient(z_ris: complex) -> complex:
    """Normal-incidence reflection coefficient of a surface impedance."""
    z_ris = complex(z_ris)
    if z_ris == -ETA0:
        raise SingularInputError("surface impedance equals -eta0; reflection undefined")
    return _gamma_array(z_ris)


# The bias -> reflection kernel in its three steps.  Each takes arrays
# (the steering grid's (Nf, Nw, M) tensor) or scalars (the public
# views above), so every path evaluates the same expressions.

def _varactor_array(table, caps, res, w):
    """Varactor impedance R_v + j(w L_v - 1/(w C_v)) at angular frequency w."""
    return res + 1j * (w * table.series_inductance - 1.0 / (w * caps))


def _surface_array(cell, z_v, w):
    """Surface impedance (R_d + jwL_d + C_d||Z_v) || jwL_s; z_v None unloads C_d."""
    z_cd = -1j / (w * cell.C_d)
    series = cell.R_d + 1j * w * cell.L_d + (
        z_cd if z_v is None else z_v * z_cd / (z_v + z_cd))
    z_s = 1j * w * cell.L_s
    return series * z_s / (series + z_s)


def _gamma_array(z_ris):
    """Normal-incidence reflection coefficient (Z - eta0) / (Z + eta0)."""
    return (z_ris - ETA0) / (z_ris + ETA0)


def _reflection_array(cell, table, volts, f_c):
    """Vectorized bias -> reflection pipeline shared by profile and scans.

    Returns (gamma, clamped): complex reflection coefficients for each
    bias sample plus a flag telling whether any lookup was clamped.
    """
    caps, res, clamped = _lookup_arrays(table, volts)
    w = 2.0 * math.pi * f_c
    gamma = _gamma_array(_surface_array(cell, _varactor_array(table, caps, res, w), w))
    return gamma, clamped


def reflection_profile(cell: CellCircuit, table: VaractorTable, bias, f_c: float) -> ReflectionProfile:
    """Element-wise reflection coefficients for a bias pattern at f_c."""
    if not (f_c > 0):
        raise InputError("carrier frequency must be positive")
    volts = np.atleast_1d(np.asarray(
        bias.voltages if hasattr(bias, "voltages") else bias, dtype=float))
    gamma, clamped = _reflection_array(cell, table, volts, f_c)
    if clamped:
        warnings.warn(_CLAMP_MESSAGE, ClampWarning, stacklevel=2)
    return ReflectionProfile(magnitudes=np.abs(gamma), phases=wrap_phase(np.angle(gamma)))


def linear_ideal_phase(bias_voltage: float, v_min: float, v_max: float) -> float:
    """Idealized lossless element: phase strictly linear in bias.

    Runs 0 at v_min to a full turn at v_max, reported as a principal
    value; out-of-range voltages are clamped with a warning.
    """
    if not (v_min < v_max):
        raise InputError("v_min must be below v_max")
    v = float(bias_voltage)
    if v < v_min or v > v_max:
        warnings.warn(
            "bias voltage outside the linear-phase range; clamped", ClampWarning, stacklevel=2
        )
        v = min(max(v, v_min), v_max)
    return wrap_phase(2.0 * math.pi * (v - v_min) / (v_max - v_min))


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

    The sheet inductance follows from the substrate thickness alone;
    the pole of |Z| and the zero of Im(Z) above it anchor the
    remaining three values.  The sweep must bracket both resonances.
    """
    if not (substrate_thickness > 0):
        raise InputError("substrate_thickness must be positive")
    l_s = MU0 * substrate_thickness

    w = 2.0 * math.pi * samples.frequencies
    z = samples.impedances
    mag = np.abs(z)

    # pole: the tallest interior local maximum of |Z|
    interior = (mag[1:-1] >= mag[:-2]) & (mag[1:-1] >= mag[2:])
    candidates = np.nonzero(interior)[0] + 1
    candidates = candidates[np.isfinite(mag[candidates]) & (mag[candidates] > 0)]
    if candidates.size == 0:
        raise FitError("pole resonance (impedance maximum) not bracketed by the sweep")
    i_pole = int(candidates[np.argmax(mag[candidates])])

    # refine on log|Z|: near the pole the log of the resonance curve
    # is close to a parabola, so three points pin the vertex well
    idx = np.array([i_pole - 1, i_pole, i_pole + 1])
    vertex = parabola_vertex(w[idx], np.log(mag[idx]))
    if vertex is not None and w[i_pole - 1] <= vertex[0] <= w[i_pole + 1]:
        w_m = vertex[0]
    else:
        w_m = w[i_pole]  # no maximum inside the bracket: fall back

    # zero: Im(Z) sign change nearest the |Z| minimum above the pole
    above = np.nonzero(w > w_m)[0]
    if above.size < 2:
        raise FitError("zero resonance (reactance sign change) not bracketed by the sweep")
    im = z.imag
    sign_change = np.nonzero(im[above[:-1]] * im[above[1:]] <= 0)[0]
    sign_change = sign_change[im[above[sign_change]] != im[above[sign_change] + 1]]
    if sign_change.size == 0:
        raise FitError("zero resonance (reactance sign change) not bracketed by the sweep")
    i_min = above[np.argmin(mag[above])]
    starts = above[sign_change]
    j = starts[np.argmin(np.abs(starts - i_min))]
    # linear inverse interpolation on Im(Z)
    w_e = w[j] - im[j] * (w[j + 1] - w[j]) / (im[j + 1] - im[j])

    if not (w_e > w_m):
        raise FitError("resonances out of order; sweep does not look like one pole below one zero")

    ratio = (w_e / w_m) ** 2 - 1.0
    l_d = l_s / ratio
    c_d = 1.0 / (l_d * w_e * w_e)

    # the loss resistance follows from the real part of Z on the pole;
    # interpolate log Re(Z) with the same three-point parabola so the
    # sharp resonance peak is not flattened by linear interpolation
    re = z.real
    if np.any(re[idx] <= 0):
        re_pole = float(np.interp(w_m, w, re))
    else:
        re_pole = math.exp(_lagrange_at(w[idx], np.log(re[idx]), w_m))
    if re_pole <= 0:
        raise FitError("nonpositive resistance at the pole; cannot recover the loss term")
    r_d = l_s * l_s / (c_d * (l_d + l_s) * re_pole)

    return CellCircuit(R_d=r_d, C_d=c_d, L_d=l_d, L_s=l_s)


def _lagrange_at(x, y, xq):
    """Value at xq of the parabola through three (x, y) points."""
    x0, x1, x2 = x
    y0, y1, y2 = y
    t0 = y0 * (xq - x1) * (xq - x2) / ((x0 - x1) * (x0 - x2))
    t1 = y1 * (xq - x0) * (xq - x2) / ((x1 - x0) * (x1 - x2))
    t2 = y2 * (xq - x0) * (xq - x1) / ((x2 - x0) * (x2 - x1))
    return t0 + t1 + t2


_FREQ_UNITS = {"hz": 1.0, "khz": 1e3, "mhz": 1e6, "ghz": 1e9}


def _parse_touchstone(path):
    unit = 1e9
    fmt = "ma"
    z_ref = 50.0
    rows = []
    saw_option = False
    with open(path, "r", encoding="utf-8") as fh:
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
                            raise ParseError(
                                f"reference impedance {tokens[i + 1]!r} is not a number", lineno
                            ) from None
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
            except ValueError:
                raise ParseError(f"non-numeric data in {line!r}", lineno) from None
            if fmt == "ri":
                s = complex(a, b)
            elif fmt == "ma":
                s = a * complex(math.cos(math.radians(b)), math.sin(math.radians(b)))
            else:  # db
                s = 10.0 ** (a / 20.0) * complex(
                    math.cos(math.radians(b)), math.sin(math.radians(b))
                )
            if s == 1:
                raise ParseError("S = 1 exactly; impedance is undefined", lineno)
            rows.append((lineno, f_val * unit, z_ref * (1.0 + s) / (1.0 - s)))
    if not rows:
        raise ParseError("no data rows found")
    freqs = [r[1] for r in rows]
    for (ln_a, f_a, _), (ln_b, f_b, _) in zip(rows, rows[1:]):
        if f_b <= f_a:
            raise ParseError("frequencies must be strictly increasing", ln_b)
    return ImpedanceSamples(
        reference_impedance=z_ref,
        frequencies=np.array(freqs),
        impedances=np.array([r[2] for r in rows]),
    )


def _parse_impedance_csv(path):
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
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
        except ValueError:
            raise ParseError(f"non-numeric data in {line!r}", lineno) from None
        rows.append((lineno, f_val, complex(re_z, im_z)))
    if not rows:
        raise ParseError("no data rows found")
    for (ln_a, f_a, _), (ln_b, f_b, _) in zip(rows, rows[1:]):
        if f_b <= f_a:
            raise ParseError("frequencies must be strictly increasing", ln_b)
    return ImpedanceSamples(
        reference_impedance=50.0,
        frequencies=np.array([r[1] for r in rows]),
        impedances=np.array([r[2] for r in rows]),
    )


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


def impedance_samples_csv_rows(samples: ImpedanceSamples):
    """Rows for the f_hz,re_z,im_z CSV schema."""
    for f, z in zip(samples.frequencies, samples.impedances):
        yield float(f), float(z.real), float(z.imag)
