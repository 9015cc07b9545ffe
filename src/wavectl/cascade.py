"""Frequency-domain solver for the rectifier-loaded biasing line.

The analytic standing-wave model treats the line as unloaded.  This
module checks that assumption: the line is rebuilt as a cascade of
transmission-line segments with a shunt rectifier impedance at every
tap, a coupling capacitor and decoupling inductor at the feed, and a
reactive or floating termination at the far end.  Solving the chain
gives the tap voltage phasors of the loaded line, which can then be
rectified and compared against the ideal pattern.

The solve propagates a single (V, I) state from the termination to
the generator.  Seeding the state at the termination and rescaling at
the source is algebraically identical to the usual impedance
recursion plus forward voltage sweep, but never forms an infinite
impedance, so open terminations and unloaded taps need no special
cases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .btl import BtlDesign, BiasPattern, MicrostripSpec, Termination, slowness_factor
from .constants import C0
from .errors import InputError, SolverError
from .numutil import is_at_infinity

# dB per neper
_DB_PER_NP = 20.0 / math.log(10.0)


class CascadeTermination(Enum):
    """Far-end closure of the cascade model."""

    SHORT_VIA_CF = "short_via_cf"
    OPEN_FLOATING = "open_floating"


@dataclass(frozen=True)
class RectifierSpec:
    """Rectifier tap: dc load, hold capacitor, and line loading.

    load_resistance and hold_capacitance set the peak-detector time
    constant; line_loading is the shunt impedance the tap presents to
    the line (the diode input resistance bounds it to roughly a few
    hundred ohms up to the low hundreds of MHz).
    """

    load_resistance: float = 10.0e3
    hold_capacitance: float = 200.0e-12
    line_loading: complex = 1000.0 + 0.0j

    def __post_init__(self):
        if not (self.load_resistance > 0):
            raise InputError("load_resistance must be positive")
        if not (self.hold_capacitance > 0):
            raise InputError("hold_capacitance must be positive")
        z = complex(self.line_loading)
        if not is_at_infinity(z) and z.real < 0:
            raise InputError("line_loading must be passive (nonnegative real part)")

    @property
    def time_constant(self):
        """Peak-detector discharge time constant R_r * C_r, seconds."""
        return self.load_resistance * self.hold_capacitance


@dataclass(frozen=True)
class CascadeNetwork:
    """One frequency point of the loaded-line model.

    segment_angles are complex electrical lengths (radians at the
    reference frequency; a negative imaginary part encodes loss) for
    the M segments between consecutive taps and from the last tap to
    the feed.  lead_angle covers the stretch from the termination to
    the first tap.
    """

    frequency: float
    generator_voltage: float
    generator_impedance: float
    coupling_capacitance: float
    decoupling_inductance: float
    characteristic_impedance: float
    lead_angle: complex
    segment_angles: np.ndarray
    tap_loads: np.ndarray
    tap_positions: np.ndarray
    termination: CascadeTermination

    def __post_init__(self):
        if not (self.frequency > 0):
            raise InputError("frequency must be positive")
        if not (self.generator_impedance > 0):
            raise InputError("generator_impedance must be positive")
        if not (self.coupling_capacitance > 0):
            raise InputError("coupling_capacitance must be positive")
        if not (self.decoupling_inductance > 0):
            raise InputError("decoupling_inductance must be positive")
        if not (self.characteristic_impedance > 0):
            raise InputError("characteristic_impedance must be positive")
        angles = np.asarray(self.segment_angles, dtype=complex).copy()
        loads = np.asarray(self.tap_loads, dtype=complex).copy()
        pos = np.asarray(self.tap_positions, dtype=float).copy()
        if angles.ndim != 1 or loads.shape != angles.shape or pos.shape != angles.shape:
            raise InputError("segments, tap loads, and tap positions must align")
        finite = ~np.isinf(loads.real) & ~np.isinf(loads.imag)
        if np.any(loads.real[finite] < 0):
            raise InputError("tap loads must be passive (nonnegative real part)")
        for arr in (angles, loads, pos):
            arr.setflags(write=False)
        object.__setattr__(self, "segment_angles", angles)
        object.__setattr__(self, "tap_loads", loads)
        object.__setattr__(self, "tap_positions", pos)

    @property
    def element_count(self):
        return self.segment_angles.size


@dataclass(frozen=True)
class NodeVoltages:
    """Solved phasors: one per tap plus the line's feed-side node."""

    tap_positions: np.ndarray
    tap_voltages: np.ndarray
    input_voltage: complex

    def __post_init__(self):
        pos = np.asarray(self.tap_positions, dtype=float).copy()
        taps = np.asarray(self.tap_voltages, dtype=complex).copy()
        if pos.shape != taps.shape or pos.ndim != 1:
            raise InputError("positions and voltages must be 1-d arrays of equal length")
        pos.setflags(write=False)
        taps.setflags(write=False)
        object.__setattr__(self, "tap_positions", pos)
        object.__setattr__(self, "tap_voltages", taps)

    def __len__(self):
        return self.tap_voltages.size + 1


def build_network(design: BtlDesign, microstrip, rectifier: RectifierSpec, f: float,
                  z_rect=None, coupling_capacitance: float = 1.0e-6,
                  decoupling_inductance: float = 680.0e-6, total_loss_db: float = 0.0,
                  generator_voltage: float = 10.0,
                  generator_impedance: float = 50.0) -> CascadeNetwork:
    """Assemble the loaded-line model at one frequency.

    Electrical lengths come from the microstrip's effective index and
    meander path when a MicrostripSpec is given, otherwise from the
    design's slowness directly; both describe the same propagation per
    axial meter.  Pass math.inf for the coupling or decoupling
    elements to make them ideal, and z_rect (scalar or per-tap array,
    may be inf) to override the rectifier line loading.
    """
    if not (f > 0):
        raise InputError("frequency must be positive")
    if not (0 <= total_loss_db < math.inf):
        raise InputError("total_loss_db must be nonnegative and finite")
    if design.termination is Termination.SHORT:
        termination = CascadeTermination.SHORT_VIA_CF
    elif design.termination is Termination.OPEN:
        termination = CascadeTermination.OPEN_FLOATING
    else:
        raise InputError("the cascade model terminates in a short or an open, not a match")

    if microstrip is not None:
        if not isinstance(microstrip, MicrostripSpec):
            raise InputError("microstrip must be a MicrostripSpec or None")
        n_slow = slowness_factor(microstrip, design.spacing)
    else:
        n_slow = design.slowness

    beta = 2.0 * math.pi * f * n_slow / C0  # rad per axial meter
    lengths = np.full(design.element_count, design.spacing)
    lengths[-1] = design.right_extension
    alpha = 0.0
    if total_loss_db > 0:
        alpha = total_loss_db / _DB_PER_NP / design.total_length  # nepers per axial meter
    gamma = beta - 1j * alpha  # complex electrical angle per meter
    segment_angles = gamma * lengths
    lead_angle = gamma * design.left_extension

    if z_rect is None:
        z_rect = complex(rectifier.line_loading)
    loads = np.broadcast_to(np.asarray(z_rect, dtype=complex), (design.element_count,)).copy()

    return CascadeNetwork(
        frequency=f,
        generator_voltage=generator_voltage,
        generator_impedance=generator_impedance,
        coupling_capacitance=coupling_capacitance,
        decoupling_inductance=decoupling_inductance,
        characteristic_impedance=design.characteristic_impedance,
        lead_angle=lead_angle,
        segment_angles=segment_angles,
        tap_loads=loads,
        tap_positions=design.tap_positions(),
        termination=termination,
    )


def _propagate(v, i, angle, z0):
    """Advance a (V, I) state through a line segment toward the source."""
    c = np.cos(angle)
    s = np.sin(angle)
    return v * c + 1j * z0 * s * i, 1j * v * s / z0 + i * c


def solve_taps(net: CascadeNetwork) -> NodeVoltages:
    """Tap voltage phasors of the loaded line driven by its generator."""
    w = 2.0 * math.pi * net.frequency
    z0 = net.characteristic_impedance

    # seed the state at the termination with unit current / voltage
    if net.termination is CascadeTermination.SHORT_VIA_CF:
        if math.isinf(net.coupling_capacitance):
            v, i = 0.0 + 0.0j, 1.0 + 0.0j  # ideal short
        else:
            z_t = 1.0 / (1j * w * net.coupling_capacitance)
            v, i = z_t, 1.0 + 0.0j
    else:
        v, i = 1.0 + 0.0j, 0.0 + 0.0j  # floating end: no current

    v, i = _propagate(v, i, net.lead_angle, z0)

    taps = np.zeros(net.element_count, dtype=complex)
    for m in range(net.element_count):
        taps[m] = v
        load = net.tap_loads[m]
        if not is_at_infinity(load):
            if load == 0:
                raise SolverError(f"tap {m} is a dead short; the solve is singular")
            i = i + v / load
        v, i = _propagate(v, i, net.segment_angles[m], z0)

    input_voltage = v
    if not math.isinf(net.decoupling_inductance):
        i = i + v / (1j * w * net.decoupling_inductance)
    z_cf = 0.0 if math.isinf(net.coupling_capacitance) else 1.0 / (1j * w * net.coupling_capacitance)
    v_required = v + i * (z_cf + net.generator_impedance)

    scale_ref = max(abs(v), abs(i) * z0, 1.0)
    if abs(v_required) < 1e-12 * scale_ref:
        raise SolverError("line input impedance cancels the source; the solve is singular")
    scale = net.generator_voltage / v_required

    return NodeVoltages(
        tap_positions=net.tap_positions,
        tap_voltages=taps * scale,
        input_voltage=input_voltage * scale,
    )


def rectified_from_phasors(nodes: NodeVoltages, dc_offset: float,
                           diode_drop: float = 0.0) -> BiasPattern:
    """Peak-detect the solved tap phasors into a dc bias pattern.

    The drop is clamped at zero: a tap whose envelope falls below the
    diode drop simply never conducts and stays at the dc offset.
    """
    if diode_drop < 0:
        raise InputError("diode_drop must be nonnegative")
    peaks = np.maximum(np.abs(nodes.tap_voltages) - diode_drop, 0.0)
    return BiasPattern(positions=nodes.tap_positions, voltages=dc_offset + peaks)
