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

# most taps a line may carry: a 3601-angle pattern over this many taps
# peaks near 0.5 GB, and every per-tap array stays small
_MAX_ELEMENTS = 2**12
# highest mode a drive may carry: the multi-tone peak samples 8 * n_max
# phases per tap, so over the most taps that complex (M, 8 * n_max)
# matrix also peaks near 0.5 GB
_MAX_MODE_INDEX = 2**10
# Newton steps that polish the multi-tone peak: a simple maximum settles
# in a handful, a flat one gains about a third of its distance per step
_POLISH_STEPS = 40


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
        if self.mode_index > _MAX_MODE_INDEX:
            raise InputError(f"mode_index is too large: at most {_MAX_MODE_INDEX}")
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


def _spatial_factor(design, k, x):
    """Unit-amplitude spatial factor of a lossless mode with axial
    wavenumber k; k and x broadcast against each other."""
    gamma = 1j * k
    if design.termination is Termination.SHORT:
        # short pins the voltage at the terminated end: sin profile
        return -1j * np.sinh(gamma * (x + design.left_extension))
    if design.termination is Termination.OPEN:
        # open end reflects with a voltage antinode: cos profile
        return np.cosh(gamma * (x + design.left_extension))
    # matched end absorbs the wave: flat traveling envelope
    return np.exp(-gamma * ((design.length + design.right_extension) - x))


def _mode_phasors(design, exc, x):
    """Complex envelope of each mode at axial position(s) x.

    The instantaneous line voltage is
        w(x, t) = W0 + sum_n Re{ P[..., n] * exp(j*(n*w_b*t + phi_n)) }
    where P is the returned array (last axis runs over modes).
    """
    x = np.asarray(x, dtype=float)
    modes = exc.modes
    out = np.zeros(x.shape + (len(modes),), dtype=complex)
    for j, mode in enumerate(modes):
        k = design.wavenumber(mode.mode_index * exc.fundamental_frequency)
        out[..., j] = mode.amplitude * _spatial_factor(design, k, x)
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
    s(tau) = Re sum_n c_n exp(j*n*tau) is sampled at K = 8*n_max
    equispaced phases h apart, tau = 0 among them.  Since s'(tau*) = 0 at
    the peak and |s''| <= B = sum_n n**2 |c_n| (Bernstein's inequality,
    Zygmund, Trigonometric Series, ch. X), the sample nearest tau* is
    within B*h**2/8 of the peak, so every sample that close to its tap's
    best is a candidate.  From all candidates at once, safeguarded Newton
    steps on s' = 0 climb to the peak: each step is clipped to h, and
    where s'' >= 0 it is h/2 uphill instead.  The peak is the largest s
    at any iterate; each is a value s attains, so it is never above the
    true peak and never below a sample.  A flat maximum converges only
    linearly, so the steps stop at a fixed cap without error.  With no
    tone at all every peak is 0.
    """
    if phasors.shape[-1] <= 1:
        return np.abs(phasors).max(axis=-1, initial=0.0)
    coeff, indices = _ac_coefficients(phasors, exc)
    # scale each tap by an exact power of two (safe for subnormal amplitudes)
    # and zero terms below rounding
    mag = np.abs(coeff)
    top = mag.max(axis=-1, initial=0.0, keepdims=True)
    scaled = np.ldexp(coeff.view(float), -np.frexp(top)[1]).view(complex)
    scaled[mag < 1e-15 * top] = 0.0
    count = 8 * int(indices.max())
    h = 2.0 * math.pi / count
    # n*k reduced mod K, so every sample's phases are exact to rounding
    grid = np.multiply.outer(indices, np.arange(count)) % count
    samples = (scaled @ np.exp(1j * h * grid)).real
    size = np.abs(scaled)
    band = size @ indices**2 * (h * h / 8) + 8 * np.finfo(float).eps * size.sum(axis=-1)
    rows, cols = np.nonzero(samples >= samples.max(axis=-1, keepdims=True) - band[:, None])
    terms, tau = scaled[rows], np.where(cols < count // 2, cols, cols - count) * h
    best, best_tau = np.full(tau.shape, -np.inf), tau
    for _ in range(_POLISH_STEPS):
        wave = terms * np.exp(1j * np.multiply.outer(tau, indices))
        value, slope, curve = wave.real.sum(axis=-1), wave.imag @ -indices, wave.real @ -indices**2
        rise = value > best
        best, best_tau = np.where(rise, value, best), np.where(rise, tau, best_tau)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = np.where(curve < 0, np.clip(-slope / curve, -h, h), np.sign(slope) * (h / 2))
        if not np.any(np.abs(step) > 1e-15):
            break
        tau = tau + step
    reached = np.full(samples.shape, -np.inf)
    reached[rows, cols] = best
    phase = np.zeros(samples.shape)
    phase[rows, cols] = best_tau
    tau = phase[np.arange(len(phase)), reached.argmax(axis=-1)]
    return _ac_sum(coeff, indices, tau[:, None])[:, 0]


def rectified_bias(design: BtlDesign, exc: Excitation) -> np.ndarray:
    """Dc bias at every tap of the lossless line: dc offset plus the peak
    of the local ac sum.

    Shape (M,), in volts, one per ``design.tap_positions()``, read-only;
    InputError naming the dc offset, the mode amplitudes and the drive
    frequency if any is not finite.
    """
    peaks = _envelope_peaks(_mode_phasors(design, exc, design.tap_positions()), exc)
    with np.errstate(over="ignore"):
        voltages = exc.dc_offset + peaks
    if not np.all(np.isfinite(voltages)):
        raise InputError(f"the bias of a {float(exc.dc_offset)!r} V dc offset plus modes of "
                         f"{[float(mode.amplitude) for mode in exc.modes]!r} V at a "
                         f"{float(exc.fundamental_frequency)!r} Hz drive is not finite")
    voltages.setflags(write=False)
    return voltages


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
