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
from .errors import InputError, SolverError
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


def _half_angle_basis(indices, n_max):
    """(1 + j*t)**(2n) * (1 + t*t)**(n_max - n) for each index n, highest
    power of t first: shape (N, 2*n_max + 1), every entry an exact integer."""
    basis = np.zeros((len(indices), 2 * n_max + 1), dtype=complex)
    for row, n in zip(basis, indices.tolist()):
        rise = [math.comb(2 * n, j) * (1, 1j, -1, -1j)[j % 4] for j in range(2 * n + 1)]
        even = np.zeros(2 * (n_max - n) + 1)
        even[::2] = [math.comb(n_max - n, j) for j in range(n_max - n + 1)]
        row[::-1] = np.convolve(rise, even)
    return basis


def _companion_roots(poly):
    """Roots of each row of poly (highest power first) from one batched
    eigenvalue solve of the rows' real companion matrices.

    A zero row, where ds/dtau = 0 everywhere and s is constant, gets the
    roots of t**degree: any root will do.  The (M, degree, degree) stack
    lives only inside this call, so it is freed before the candidates
    are evaluated.
    """
    degree = poly.shape[-1] - 1
    lead = poly[:, :1]
    companion = np.zeros((len(poly), degree, degree))
    companion[:, 0] = -poly[:, 1:] / np.where(lead == 0.0, 1.0, lead)
    companion[:, np.arange(1, degree), np.arange(degree - 1)] = 1.0
    return np.linalg.eigvals(companion)


def _envelope_peaks(phasors, exc):
    """Peak over one fundamental period of the ac sum, per position.

    phasors has shape (M, N).  A single tone peaks at |P|.  For several,
    s(tau) = Re sum_n c_n exp(j*n*tau) peaks where ds/dtau = 0, found as
    polynomial roots (Boyd, J. Eng. Math. 2006) through the half-angle
    substitution tau = tau0 + 2*atan(t): exp(j*n*tau) is
    exp(j*n*tau0) * (1 + j*t)**(2n) / (1 + t*t)**n, so
    (1 + t*t)**n_max * ds/dtau is a real polynomial of degree 2*n_max in
    t.  Its leading coefficient is ds/dtau at tau0 + pi, and each tap
    takes tau0 so that this is the largest of 2*n_max + 2 equispaced
    samples: a nonzero trig polynomial of degree n_max cannot vanish at
    all of them, so the lead is never tiny.  One batched eigenvalue solve
    of the taps' real companion matrices gives every root.  The peak is
    the largest s over tau0 + 2*atan(Re t) and tau = 0; each candidate is
    a value s attains, so stray roots cannot raise it.

    Raises SolverError if the eigenvalue solve does not converge.
    """
    if phasors.shape[-1] == 1:
        return np.abs(phasors[:, 0])
    coeff, indices = _ac_coefficients(phasors, exc)
    # scale each tap by an exact power of two (safe for subnormal amplitudes)
    # and zero terms below rounding
    mag = np.abs(coeff)
    top = mag.max(axis=-1, initial=0.0, keepdims=True)
    scaled = np.ldexp(coeff.view(float), -np.frexp(top)[1]).view(complex)
    scaled[mag < 1e-15 * top] = 0.0
    slope = 1j * indices * scaled  # ds/dtau = Re sum_n slope_n exp(j*n*tau)
    n_max = int(indices.max())
    degree = 2 * n_max
    samples = np.arange(degree + 2) * (2.0 * math.pi / (degree + 2))
    tau0 = samples[np.abs(_ac_sum(slope, indices, samples)).argmax(axis=-1)] - math.pi
    rotated = slope * np.exp(1j * np.multiply.outer(tau0, indices))
    poly = (rotated @ _half_angle_basis(indices, n_max)).real
    try:
        roots = _companion_roots(poly)
    except np.linalg.LinAlgError as err:
        modes = ", ".join(f"{m.mode_index}: {m.amplitude!r} V" for m in exc.modes)
        raise SolverError(
            f"the multi-tone peak solve did not converge for the drive at "
            f"{exc.fundamental_frequency!r} Hz with modes {{{modes}}}: {err}") from err
    tau = np.zeros((len(poly), degree + 1))  # tau = 0 stays a candidate
    tau[:, 1:] = tau0[:, None] + 2.0 * np.arctan(roots.real)
    return _ac_sum(coeff, indices, tau).max(axis=-1)


def rectified_bias(design: BtlDesign, exc: Excitation) -> BiasPattern:
    """Dc bias at every tap of the lossless line: dc offset plus the peak
    of the local ac sum.

    A multi-tone drive raises SolverError if its peak solve does not
    converge.
    """
    x = design.tap_positions()
    peaks = _envelope_peaks(_mode_phasors(design, exc, x), exc)
    with np.errstate(over="ignore"):
        voltages = exc.dc_offset + peaks
    if not np.all(np.isfinite(voltages)):
        raise InputError(f"the bias of a {float(exc.dc_offset)!r} V dc offset plus modes of "
                         f"{[float(mode.amplitude) for mode in exc.modes]!r} V at a "
                         f"{float(exc.fundamental_frequency)!r} Hz drive is not finite")
    return BiasPattern(positions=x, voltages=voltages)


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
