"""Biasing transmission line: standing waves and rectified tap voltages.

The array elements are biased by a low-frequency signal injected onto
a meandered transmission line that runs beneath the radiating
elements.  With a reflective termination the signal forms a standing
wave, so every tap along the line sees a different envelope; a peak
detector at each tap converts that envelope into a dc bias voltage.

This module models the line itself: the wave in space and time, the
rectified dc pattern at the taps, the input impedance seen by the
generator, and the standing-wave amplitude a real (non-ideal)
generator actually delivers.

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
from .numutil import AT_INFINITY, golden_section_maximize

# Below this, a trigonometric factor is treated as an exact zero when
# classifying impedance poles.
_POLE_TOL = 1e-9


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
        if not (self.spacing > 0):
            raise InputError("spacing must be positive")
        if self.left_extension < 0 or self.right_extension < 0:
            raise InputError("extensions must be nonnegative")
        if not (self.slowness >= 1.0):
            raise InputError("slowness must be at least 1")
        if not (self.characteristic_impedance > 0):
            raise InputError("characteristic_impedance must be positive")
        if not isinstance(self.termination, Termination):
            raise InputError("termination must be a Termination value")
        if not (self.total_length > 0):
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
        """Wavenumber along the array axis at frequency f (rad/m)."""
        return 2.0 * math.pi * f * self.slowness / C0


@dataclass(frozen=True)
class MicrostripSpec:
    """Microstrip cross-section plus the meander path length per cell."""

    relative_permittivity: float
    substrate_thickness: float
    trace_width: float
    path_length_per_cell: float

    def __post_init__(self):
        if not (self.relative_permittivity >= 1.0):
            raise InputError("relative_permittivity must be at least 1")
        for name in ("substrate_thickness", "trace_width", "path_length_per_cell"):
            if not (getattr(self, name) > 0):
                raise InputError(f"{name} must be positive")


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
        positions = np.asarray(self.positions, dtype=float).copy()
        voltages = np.asarray(self.voltages, dtype=float).copy()
        if positions.shape != voltages.shape or positions.ndim != 1:
            raise InputError("positions and voltages must be 1-d arrays of equal length")
        if not np.all(np.isfinite(voltages)):
            raise InputError("bias voltages must be finite")
        positions.setflags(write=False)
        voltages.setflags(write=False)
        object.__setattr__(self, "positions", positions)
        object.__setattr__(self, "voltages", voltages)

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


def _mode_phasors(design, exc, x, attenuation=0.0, path_ratio=1.0):
    """Complex envelope of each mode at axial position(s) x.

    The instantaneous line voltage is
        w(x, t) = W0 + sum_n Re{ P[..., n] * exp(j*(n*w_b*t + phi_n)) }
    where P is the returned array (last axis runs over modes).

    attenuation is in nepers per meter along the meander path;
    path_ratio converts it to the array axis (path length per axial
    meter).  The default is lossless.
    """
    x = np.asarray(x, dtype=float)
    modes = exc.modes
    out = np.zeros(x.shape + (len(modes),), dtype=complex)
    alpha = attenuation * path_ratio  # nepers per axial meter
    for j, mode in enumerate(modes):
        k = design.wavenumber(mode.mode_index * exc.fundamental_frequency)
        out[..., j] = mode.amplitude * _spatial_factor(design, k, x, alpha)
    return out


def single_tone_envelope(design: BtlDesign, f_axis) -> np.ndarray:
    """Peak of a unit-amplitude, lossless single tone at each tap.

    Shape (len(f_axis), M): the single-tone bias at drive frequency f
    and amplitude W_b is W0 + W_b * envelope[f].
    """
    k = design.wavenumber(np.asarray(f_axis, dtype=float))
    return np.abs(_spatial_factor(design, k[:, None], design.tap_positions()))


def standing_wave_voltage(design: BtlDesign, exc: Excitation, x: float, t: float,
                          attenuation: float = 0.0, path_ratio: float = 1.0) -> float:
    """Instantaneous line voltage at position x and time t."""
    if x < -design.left_extension or x > design.length + design.right_extension:
        raise InputError(
            f"x = {x} m is outside the line "
            f"[{-design.left_extension}, {design.length + design.right_extension}] m"
        )
    phasors = _mode_phasors(design, exc, float(x), attenuation, path_ratio)
    total = exc.dc_offset
    w_b = 2.0 * math.pi * exc.fundamental_frequency
    for j, mode in enumerate(exc.modes):
        total += (phasors[j] * np.exp(1j * (mode.mode_index * w_b * t + mode.phase))).real
    return float(total)


def _envelope_peaks(phasors, exc):
    """Peak over one fundamental period of the ac sum, per position.

    phasors has shape (M, N).  Single-tone input short-circuits to the
    closed form |P|; the multi-tone path samples one period densely
    and refines every sampled local maximum with a golden-section
    search, which keeps the result within the refinement tolerance of
    the true peak even when maxima are closely spaced.
    """
    n_modes = phasors.shape[-1]
    if n_modes == 0:
        return np.zeros(phasors.shape[0])
    if n_modes == 1:
        return np.abs(phasors[:, 0])

    indices = np.array([m.mode_index for m in exc.modes], dtype=float)
    offsets = np.array([m.phase for m in exc.modes], dtype=float)
    # fold the per-mode phase offsets into the envelope coefficients
    coeff = phasors * np.exp(1j * offsets)

    n_max = int(max(m.mode_index for m in exc.modes))
    n_samp = 1024 * n_max
    tau = np.arange(n_samp) * (2.0 * math.pi / n_samp)  # fundamental phase
    basis = np.exp(1j * np.outer(indices, tau))  # (N, S)
    signal = (coeff @ basis).real  # (M, S)

    left = np.roll(signal, 1, axis=1)
    right = np.roll(signal, -1, axis=1)
    is_peak = (signal >= left) & (signal >= right)

    rows, cols = np.nonzero(is_peak)
    if rows.size == 0:  # flat signal; any sample is the peak
        return signal.max(axis=1)

    def evaluate(points):
        # value of the ac sum for each candidate bracket at its own phase
        phases = np.exp(1j * np.outer(points, indices))  # (B, N)
        return np.sum((coeff[rows] * phases).real, axis=1)

    step = 2.0 * math.pi / n_samp
    _, refined = golden_section_maximize(
        evaluate, tau[cols] - step, tau[cols] + step, 1e-9 * 2.0 * math.pi)
    best = signal.max(axis=1)
    np.maximum.at(best, rows, refined)
    return best


def rectified_bias(design: BtlDesign, exc: Excitation, diode_drop: float = 0.0,
                   attenuation: float = 0.0, path_ratio: float = 1.0) -> BiasPattern:
    """Dc bias at every tap: dc offset plus the peak of the local ac sum.

    diode_drop models a constant rectifier drop subtracted from the ac
    peak; with it the pattern can dip slightly below the dc offset at
    envelope nodes, matching how real peak detectors behave.
    """
    if diode_drop < 0:
        raise InputError("diode_drop must be nonnegative")
    x = design.tap_positions()
    phasors = _mode_phasors(design, exc, x, attenuation, path_ratio)
    peaks = _envelope_peaks(phasors, exc)
    voltages = exc.dc_offset + peaks - diode_drop
    return BiasPattern(positions=x, voltages=voltages)


def input_impedance(design: BtlDesign, f: float):
    """Impedance seen looking into the feed end of the line.

    Pole frequencies return the AT_INFINITY marker instead of an
    overflowing float.
    """
    if not (f > 0):
        raise InputError("frequency must be positive")
    z0 = design.characteristic_impedance
    kappa = 2.0 * math.pi * f * design.slowness * design.total_length / C0
    if design.termination is Termination.MATCHED:
        return complex(z0)
    s = math.sin(kappa)
    c = math.cos(kappa)
    if design.termination is Termination.SHORT:
        if abs(c) < _POLE_TOL:
            return AT_INFINITY
        return 1j * z0 * s / c
    if abs(s) < _POLE_TOL:
        return AT_INFINITY
    return 1j * z0 * c / s


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
    kappa = 2.0 * math.pi * f * design.slowness * design.total_length / C0
    s = math.sin(kappa)
    c = math.cos(kappa)
    if design.termination is Termination.SHORT:
        den = abs(1j * z0 * s + z_g * c)
    else:
        den = abs(1j * z0 * c + z_g * s)
    return z0 * v_g / den


def dc_current_estimate(element_count: int, dc_offset: float, load_resistance: float) -> float:
    """Total dc current drawn by M identical rectifier loads."""
    if not (load_resistance > 0):
        raise InputError("load_resistance must be positive")
    if element_count < 0:
        raise InputError("element_count must be nonnegative")
    return element_count * dc_offset / load_resistance
