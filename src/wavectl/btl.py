"""Biasing transmission line: standing waves and rectified tap voltages.

The array elements are biased by a low-frequency signal injected onto
a meandered transmission line that runs beneath the radiating
elements.  With a reflective termination the signal forms a standing
wave, so every tap along the line sees a different envelope; a peak
detector at each tap converts that envelope into a dc bias voltage.

This module models the line itself: the wave in space and time, the
rectified dc pattern at the taps, and the standing-wave amplitude a
real (non-ideal) generator actually delivers.

Conventions
-----------
* Units are SI throughout: meters, hertz, volts, ohms, seconds.
* The element taps sit at x_m = m * d_x for m = 0 .. M-1.  The line
  extends L_left beyond the first tap (to the termination) and
  L_right beyond the last tap (to the feed).
* The slowness factor n_slow is the ratio of the free-space speed to
  the phase velocity projected onto the array axis; it folds together
  the meander geometry and the substrate's effective index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .constants import C0
from .errors import InputError
from .numutil import freeze_field

# most taps a line may carry: a 3601-angle pattern over this many taps
# peaks near 0.5 GB, and every per-tap array stays small
_MAX_ELEMENTS = 2**12


class Termination(Enum):
    """How the far (left) end of the line is closed."""

    SHORT = "short"
    OPEN = "open"
    MATCHED = "matched"


@dataclass(frozen=True)
class BtlDesign:
    """Geometry and electrical description of the biasing line.

    spacing is the tap pitch d_x along the array axis; slowness is
    dimensionless (>= 1); characteristic_impedance is in ohms.
    """

    element_count: int
    spacing: float
    left_extension: float
    right_extension: float
    slowness: float
    characteristic_impedance: float
    termination: Termination = Termination.SHORT

    def __post_init__(self):
        if not isinstance(self.element_count, (int, np.integer)) or isinstance(
            self.element_count, bool
        ):
            raise InputError("element_count must be an integer")
        if self.element_count < 1:
            raise InputError("element_count must be at least 1")
        if self.element_count > _MAX_ELEMENTS:
            raise InputError(f"element_count is too large: at most {_MAX_ELEMENTS} taps")
        if not (0 < self.spacing < math.inf):
            raise InputError("spacing must be positive and finite")
        if not (0 <= self.left_extension < math.inf and 0 <= self.right_extension < math.inf):
            raise InputError("extensions must be nonnegative and finite")
        if not (1.0 <= self.slowness < math.inf):
            raise InputError("slowness must be at least 1 and finite")
        if not (0 < self.characteristic_impedance < math.inf):
            raise InputError("characteristic_impedance must be positive and finite")
        if not isinstance(self.termination, Termination):
            raise InputError("termination must be a Termination value")
        total_length = self.total_length
        if total_length == math.inf:
            raise InputError("the line length (element_count - 1) * spacing + extensions "
                             "overflows")
        if not (total_length > 0):
            raise InputError("total line length must be strictly positive")

    @property
    def length(self):
        """Aperture length L = (M - 1) * d_x covered by the taps."""
        return (self.element_count - 1) * self.spacing

    @property
    def total_length(self):
        """Full line length L_tot = L + L_left + L_right."""
        return self.length + self.left_extension + self.right_extension

    def tap_positions(self):
        """x_m = m * d_x for each element, meters."""
        return np.arange(self.element_count) * self.spacing

    def wavenumber(self, f):
        """Wavenumber along the array axis at frequency f (rad/m); InputError if it overflows."""
        k = 2.0 * math.pi * f * self.slowness / C0
        if not np.isfinite(k).all():
            raise InputError(f"frequency {float(np.max(f))!r} Hz overflows the wavenumber")
        return k


@dataclass(frozen=True)
class MicrostripSpec:
    """Microstrip cross-section plus the meander path length per cell."""

    relative_permittivity: float
    substrate_thickness: float
    trace_width: float
    path_length_per_cell: float

    def __post_init__(self):
        if not (1.0 <= self.relative_permittivity < math.inf):
            raise InputError("relative_permittivity must be at least 1 and finite")
        for name in ("substrate_thickness", "trace_width", "path_length_per_cell"):
            if not (0 < getattr(self, name) < math.inf):
                raise InputError(f"{name} must be positive and finite")


@dataclass(frozen=True)
class Mode:
    """One sinusoidal component of the injected biasing signal."""

    mode_index: int
    amplitude: float
    phase: float = 0.0

    def __post_init__(self):
        if not isinstance(self.mode_index, (int, np.integer)) or isinstance(
            self.mode_index, bool
        ):
            raise InputError("mode_index must be an integer")
        if self.mode_index < 1:
            raise InputError("mode_index must be a positive integer")
        if not (math.isfinite(self.amplitude) and self.amplitude >= 0):
            raise InputError("mode amplitude must be finite and nonnegative")
        if not math.isfinite(self.phase):
            raise InputError("mode phase must be finite")


@dataclass(frozen=True)
class Excitation:
    """Injected biasing signal: dc offset plus harmonic modes.

    fundamental_frequency is f_b in hertz; mode n oscillates at
    n * f_b.  generator_voltage and generator_impedance describe the
    source behind the feed and matter only to the amplitude actually
    delivered (see standing_wave_amplitude).
    """

    dc_offset: float
    modes: tuple = field(default_factory=tuple)
    fundamental_frequency: float = 1.0e6
    generator_voltage: float = 10.0
    generator_impedance: float = 50.0

    def __post_init__(self):
        for name in ("dc_offset", "fundamental_frequency", "generator_voltage",
                     "generator_impedance"):
            if not math.isfinite(getattr(self, name)):
                raise InputError(f"{name} must be finite")
        if self.dc_offset < 0:
            raise InputError("dc_offset must be nonnegative")
        if not (self.fundamental_frequency > 0):
            raise InputError("fundamental_frequency must be positive")
        if not (self.generator_impedance > 0):
            raise InputError("generator_impedance must be positive")
        modes = tuple(
            m if isinstance(m, Mode) else Mode(*m) for m in self.modes
        )
        indices = [m.mode_index for m in modes]
        if len(set(indices)) != len(indices):
            raise InputError("mode indices must be unique")
        object.__setattr__(self, "modes", modes)

    @property
    def amplitude_sum(self):
        """Sum of all mode amplitudes, the ideal rectified ceiling."""
        return float(sum(m.amplitude for m in self.modes))


@dataclass(frozen=True)
class BiasPattern:
    """Per-element dc bias voltages and the tap positions they belong to."""

    positions: np.ndarray
    voltages: np.ndarray

    def __post_init__(self):
        positions = freeze_field(self, "positions", self.positions)
        voltages = freeze_field(self, "voltages", self.voltages)
        if positions.shape != voltages.shape or positions.ndim != 1:
            raise InputError("positions and voltages must be 1-d arrays of equal length")
        if not np.all(np.isfinite(voltages)):
            raise InputError("bias voltages must be finite")

    def __len__(self):
        return self.voltages.size


def effective_permittivity(spec: MicrostripSpec) -> float:
    """Quasi-static effective permittivity of the microstrip trace."""
    eps = spec.relative_permittivity
    ratio = 12.0 * spec.substrate_thickness / spec.trace_width
    return (eps + 1.0) / 2.0 + (eps - 1.0) / 2.0 / math.sqrt(1.0 + ratio)


def slowness_factor(spec: MicrostripSpec, d_x: float) -> float:
    """Slowness along the array axis: meander ratio times sqrt(eps_eff)."""
    if not (d_x > 0):
        raise InputError("d_x must be positive")
    n_geom = spec.path_length_per_cell / d_x
    n_eff = math.sqrt(effective_permittivity(spec))
    return n_geom * n_eff


def fundamental_frequency(design: BtlDesign) -> float:
    """Frequency whose quarter wavelength (slowed) spans the whole line."""
    return C0 / (4.0 * design.slowness * design.total_length)


def _spatial_factor(design, k, x, alpha=0.0):
    """Unit-amplitude spatial factor of a mode with axial wavenumber k.

    alpha is the loss in nepers per axial meter; k and x broadcast
    against each other.
    """
    gamma = alpha + 1j * k
    if design.termination is Termination.SHORT:
        # short pins the voltage at the terminated end: sin profile
        return -1j * np.sinh(gamma * (x + design.left_extension))
    if design.termination is Termination.OPEN:
        # open end reflects with a voltage antinode: cos profile
        return np.cosh(gamma * (x + design.left_extension))
    # matched end absorbs the wave: flat traveling envelope, decaying
    # from the feed end when loss is enabled
    return np.exp(-gamma * ((design.length + design.right_extension) - x))


def _mode_phasors(design, exc, x, attenuation=0.0):
    """Complex envelope of each mode at axial position(s) x.

    The instantaneous line voltage is
        w(x, t) = W0 + sum_n Re{ P[..., n] * exp(j*(n*w_b*t + phi_n)) }
    where P is the returned array (last axis runs over modes).

    attenuation is in nepers per axial meter.  The default is lossless.
    """
    x = np.asarray(x, dtype=float)
    modes = exc.modes
    out = np.zeros(x.shape + (len(modes),), dtype=complex)
    for j, mode in enumerate(modes):
        k = design.wavenumber(mode.mode_index * exc.fundamental_frequency)
        out[..., j] = mode.amplitude * _spatial_factor(design, k, x, attenuation)
    return out


def single_tone_envelope(design: BtlDesign, f_axis) -> np.ndarray:
    """Peak of a unit-amplitude, lossless single tone at each tap.

    Shape (len(f_axis), M): the single-tone bias at drive frequency f
    and amplitude W_b is W0 + W_b * envelope[f].
    """
    k = design.wavenumber(np.asarray(f_axis, dtype=float))
    return np.abs(_spatial_factor(design, k[:, None], design.tap_positions()))


def _ac_coefficients(phasors, exc):
    """Coefficients c (phasors with the mode phases folded in) and mode
    indices n of the ac sum s(tau) = Re sum_n c_n exp(j*n*tau)."""
    indices = np.array([m.mode_index for m in exc.modes], dtype=int)
    offsets = np.array([m.phase for m in exc.modes], dtype=float)
    return phasors * np.exp(1j * offsets), indices


def _ac_sum(coeff, indices, tau):
    """s(tau) for coefficients c (..., N) at phases tau (..., K): (..., K)."""
    basis = np.exp(1j * np.multiply.outer(tau, indices))  # (..., K, N)
    return (basis @ coeff[..., None])[..., 0].real


def _envelope_peaks(phasors, exc):
    """Peak over one fundamental period of the ac sum, per position.

    phasors has shape (M, N).  A single tone peaks at |P|.  For several,
    s(tau) = Re sum_n c_n z**n, z = exp(j*tau), peaks where ds/dtau = 0,
    and z**n_max * ds/dtau is a polynomial in z (Boyd, J. Eng. Math.
    2006).  The peak is the largest s over the angles of its roots and
    tau = 0; each candidate is a value s attains, so roots may stray
    off |z| = 1.
    """
    if phasors.shape[-1] == 1:
        return np.abs(phasors[:, 0])
    coeff, indices = _ac_coefficients(phasors, exc)
    # scale each tap by an exact power of two (safe for subnormal amplitudes)
    # and zero terms below rounding: np.roots never divides by a tiny lead
    mag = np.abs(coeff)
    top = mag.max(axis=-1, initial=0.0, keepdims=True)
    scaled = np.ldexp(coeff.view(float), -np.frexp(top)[1]).view(complex)
    scaled[mag < 1e-15 * top] = 0.0
    # highest power first: j*n*c_n at z**(n_max+n), -j*n*conj(c_n) at z**(n_max-n)
    n_max = int(indices.max(initial=0))
    poly = np.zeros((len(coeff), 2 * n_max + 1), dtype=complex)
    poly[:, n_max - indices] = 1j * indices * scaled
    poly[:, n_max + indices] = -1j * indices * np.conj(scaled)
    tau = np.zeros(poly.shape)  # one slot more than roots: tau = 0 always stays
    for m, row in enumerate(poly):
        roots = np.roots(row)
        tau[m, :roots.size] = np.angle(roots)
    return _ac_sum(coeff, indices, tau).max(axis=-1)


def detected_bias(positions, dc_offset, peaks, diode_drop) -> BiasPattern:
    """Peak-detector output at each tap: dc + max(peak - diode_drop, 0).

    A tap whose ac peak stays below the diode drop never conducts and
    sits at the dc offset.
    """
    if not (0 <= diode_drop < math.inf):
        raise InputError("diode_drop must be nonnegative and finite")
    return BiasPattern(positions=positions,
                       voltages=dc_offset + np.maximum(peaks - diode_drop, 0.0))


def rectified_bias(design: BtlDesign, exc: Excitation, diode_drop: float = 0.0,
                   attenuation: float = 0.0) -> BiasPattern:
    """Dc bias at every tap: dc offset plus the peak of the local ac sum.

    diode_drop models a constant rectifier drop, applied by detected_bias;
    attenuation is the line loss in nepers per axial meter.
    """
    x = design.tap_positions()
    phasors = _mode_phasors(design, exc, x, attenuation)
    return detected_bias(x, exc.dc_offset, _envelope_peaks(phasors, exc), diode_drop)


def standing_wave_amplitude(design: BtlDesign, exc: Excitation, f: float) -> float:
    """Standing-wave amplitude W_b delivered by the generator at f.

    Evaluated through an algebraically simplified form of the
    input-divider expression, exact for all frequencies including the
    removable singularities at multiples of the fundamental:

        short: W_b = Z0 |V_g| / |j Z0 sin(kappa) + Z_g cos(kappa)|
        open:  W_b = Z0 |V_g| / |j Z0 cos(kappa) + Z_g sin(kappa)|

    A matched line carries a pure traveling wave and the delivered
    amplitude is reported as |V_g| independent of frequency.
    """
    if not (f > 0):
        raise InputError("frequency must be positive")
    v_g = abs(exc.generator_voltage)
    if design.termination is Termination.MATCHED:
        return v_g
    z0 = design.characteristic_impedance
    z_g = exc.generator_impedance
    kappa = 2.0 * math.pi * f * design.slowness * design.total_length / C0  # electrical length
    if not math.isfinite(kappa):
        raise InputError(f"frequency {f!r} Hz overflows the line's electrical length")
    s = math.sin(kappa)
    c = math.cos(kappa)
    if design.termination is Termination.SHORT:
        den = abs(1j * z0 * s + z_g * c)
    else:
        den = abs(1j * z0 * c + z_g * s)
    return z0 * v_g / den
