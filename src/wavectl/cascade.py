"""Frequency-domain solver for the rectifier-loaded biasing line.

The analytic standing-wave model treats the line as unloaded.  This
module checks that assumption: the line is rebuilt as a cascade of
transmission-line segments with a shunt rectifier impedance at every
tap, a coupling capacitor and decoupling inductor at the feed, and a
reactive or floating termination at the far end.  Solving the chain
gives the tap voltage phasors of the loaded line, which can then be
rectified and compared against the ideal pattern.  The slowness,
geometry and termination are the BtlDesign's, the same description
the ideal model uses.

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

import numpy as np

from .btl import BtlDesign, BiasPattern, Excitation, Termination, detected_bias
from .errors import InputError, SolverError
from .numutil import freeze_field

# dB per neper
_DB_PER_NP = 20.0 / math.log(10.0)


@dataclass(frozen=True)
class CascadeNetwork:
    """One frequency point of the loaded-line model.

    segment_angles are complex electrical lengths (radians at the
    reference frequency; a negative imaginary part encodes loss) for
    the M segments between consecutive taps and from the last tap to
    the feed.  lead_angle covers the stretch from the termination to
    the first tap.  termination is the line's: SHORT closes it through
    the coupling capacitor, OPEN leaves it floating, and MATCHED has no
    lumped model here, so it is refused.  Every value must be finite
    except the lumped elements and tap loads, where infinity means
    ideal and open respectively.
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
    termination: Termination

    def __post_init__(self):
        if self.termination is Termination.MATCHED:
            raise InputError("the cascade model terminates in a short or an open, not a match")
        for name in ("frequency", "generator_impedance", "characteristic_impedance"):
            if not (0 < getattr(self, name) < math.inf):
                raise InputError(f"{name} must be positive and finite")
        if not math.isfinite(self.generator_voltage):
            raise InputError("generator_voltage must be finite")
        for name in ("coupling_capacitance", "decoupling_inductance"):
            if not (getattr(self, name) > 0):
                raise InputError(f"{name} must be positive")
        angles = freeze_field(self, "segment_angles", self.segment_angles, complex)
        loads = freeze_field(self, "tap_loads", self.tap_loads, complex)
        pos = freeze_field(self, "tap_positions", self.tap_positions)
        if angles.ndim != 1 or loads.shape != angles.shape or pos.shape != angles.shape:
            raise InputError("segments, tap loads, and tap positions must align")
        if not (np.isfinite(angles).all() and np.isfinite(complex(self.lead_angle))):
            raise InputError("segment_angles and lead_angle must be finite")
        if np.isnan(loads).any():
            raise InputError("tap_loads must have no NaN part")
        finite = ~np.isinf(loads.real) & ~np.isinf(loads.imag)
        if np.any(loads.real[finite] < 0):
            raise InputError("tap loads must be passive (nonnegative real part)")

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
        pos = freeze_field(self, "tap_positions", self.tap_positions)
        taps = freeze_field(self, "tap_voltages", self.tap_voltages, complex)
        if pos.shape != taps.shape or pos.ndim != 1:
            raise InputError("positions and voltages must be 1-d arrays of equal length")

    def __len__(self):
        return self.tap_voltages.size + 1


def build_network(design: BtlDesign, f: float, z_rect=1000.0,
                  coupling_capacitance: float = 1.0e-6,
                  decoupling_inductance: float = 680.0e-6, total_loss_db: float = 0.0,
                  generator_voltage: float = Excitation.generator_voltage,
                  generator_impedance: float = Excitation.generator_impedance) -> CascadeNetwork:
    """Assemble the loaded-line model of ``design`` at one frequency.

    Electrical lengths come from the design's slowness and the line
    closes in the design's termination (a short through the coupling
    capacitor, or a floating open; a matched line is refused).  z_rect
    is the shunt impedance each tap's rectifier presents to the line,
    a scalar or a per-tap array; math.inf leaves a tap unloaded.  Pass
    math.inf for the coupling or decoupling elements to make them
    ideal.
    """
    if not (0 < f < math.inf):
        raise InputError("frequency must be positive and finite")
    if not (0 <= total_loss_db < math.inf):
        raise InputError("total_loss_db must be nonnegative and finite")

    beta = design.wavenumber(f)  # rad per axial meter
    lengths = np.full(design.element_count, design.spacing)
    lengths[-1] = design.right_extension
    alpha = 0.0
    if total_loss_db > 0:
        alpha = total_loss_db / _DB_PER_NP / design.total_length  # nepers per axial meter
    gamma = beta - 1j * alpha  # complex electrical angle per meter

    return CascadeNetwork(
        frequency=f,
        generator_voltage=generator_voltage,
        generator_impedance=generator_impedance,
        coupling_capacitance=coupling_capacitance,
        decoupling_inductance=decoupling_inductance,
        characteristic_impedance=design.characteristic_impedance,
        lead_angle=gamma * design.left_extension,
        segment_angles=gamma * lengths,
        tap_loads=np.broadcast_to(np.asarray(z_rect, dtype=complex), (design.element_count,)),
        tap_positions=design.tap_positions(),
        termination=design.termination,
    )


def _propagate(v, i, angle, z0):
    """Advance a (V, I) state through a line segment toward the source."""
    c = np.cos(angle)
    s = np.sin(angle)
    return v * c + 1j * z0 * s * i, 1j * v * s / z0 + i * c


@np.errstate(over="ignore", invalid="ignore")  # an overflow is refused below, by frequency
def solve_taps(net: CascadeNetwork) -> NodeVoltages:
    """Tap voltage phasors of the loaded line driven by its generator.

    SolverError if any part of the line state overflows, as the
    decoupling inductor's current does near 0 Hz.
    """
    w = 2.0 * math.pi * net.frequency
    z0 = net.characteristic_impedance
    if w * net.coupling_capacitance == 0:  # underflows: 1/(jwC) is out of float range
        raise SolverError(f"the tapped-line state overflows at {net.frequency!r} Hz")

    # seed the state at the termination with unit current / voltage
    if net.termination is Termination.SHORT:
        if math.isinf(net.coupling_capacitance):
            v, i = 0.0 + 0.0j, 1.0 + 0.0j  # ideal short
        else:
            z_t = 1.0 / (1j * w * net.coupling_capacitance)
            v, i = z_t, 1.0 + 0.0j
    else:
        v, i = 1.0 + 0.0j, 0.0 + 0.0j  # floating end: no current

    v, i = _propagate(v, i, net.lead_angle, z0)

    taps = np.zeros(net.element_count, dtype=complex)
    open_taps = np.isinf(net.tap_loads).tolist()  # an infinite part: no load
    for m in range(net.element_count):
        taps[m] = v
        load = net.tap_loads[m]
        if not open_taps[m]:
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
    taps = taps * scale
    input_voltage = input_voltage * scale
    if not (np.isfinite([i, v_required, input_voltage]).all() and np.isfinite(taps).all()):
        raise SolverError(f"the tapped-line state overflows at {net.frequency!r} Hz")

    return NodeVoltages(
        tap_positions=net.tap_positions,
        tap_voltages=taps,
        input_voltage=input_voltage,
    )


def rectified_from_phasors(nodes: NodeVoltages, dc_offset: float,
                           diode_drop: float = 0.0) -> BiasPattern:
    """Peak-detect the solved tap phasors into a dc bias pattern (see detected_bias)."""
    return detected_bias(nodes.tap_positions, dc_offset, np.abs(nodes.tap_voltages), diode_drop)
