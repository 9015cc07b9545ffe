"""Single-biasing-frequency reflective control.

Searching the (f_b, W_b) plane: a biasing frequency shapes the dc
profile along the array, the amplitude scales it, and together they
pick the phase gradient the elements apply to the carrier.  The
operations here evaluate the full bias -> reflection -> pattern
pipeline at one operating point, scan it over a grid, and optimize it
for one objective: the largest |F| at the target angle theta_p.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import btl as _btl
from . import radiation as _radiation
from . import unitcell as _unitcell
from .config import RunConfig
from .constants import C0
from .errors import ClampWarning, InputError
from .numutil import golden_section_maximize


# largest (f, W) grid a search may span, 29x the default 300 x 121 grid
_MAX_GRID_POINTS = 2**20
# largest Nf x Nw x M reflection a search may evaluate: a 60-element line
# over the largest grid, where a complex tensor of it would be 1 GB
_MAX_TENSOR_POINTS = _MAX_GRID_POINTS * 60
# Nf x Nw x M points evaluated at a time (512 kB of complex values)
_BLOCK_POINTS = 2**15


@dataclass(frozen=True)
class SearchSpec:
    """Search ranges for the two tunable biasing parameters.

    The dc offset w0 is a fixed operating condition, never a search
    variable.  The default grid brackets the useful region at a
    resolution finer than the operating points are usually quoted to.
    """

    f_range: tuple = (0.1e6, 30.0e6)
    f_step: float = 0.1e6
    w_range: tuple = (0.0, 12.0)
    w_step: float = 0.1
    w0: float = 4.0
    refine: bool = True

    def __post_init__(self):
        f_lo, f_hi = (float(self.f_range[0]), float(self.f_range[1]))
        w_lo, w_hi = (float(self.w_range[0]), float(self.w_range[1]))
        if not (0 < f_lo <= f_hi < math.inf):
            raise InputError("f_range must satisfy 0 < lo <= hi and be finite")
        if not (0 <= w_lo <= w_hi < math.inf):
            raise InputError("w_range must satisfy 0 <= lo <= hi and be finite")
        if not (0 < self.f_step < math.inf and 0 < self.w_step < math.inf):
            raise InputError("grid steps must be positive and finite")
        if not (0 <= self.w0 < math.inf):
            raise InputError("w0 must be nonnegative and finite")
        if _axis_count(f_lo, f_hi, self.f_step) * _axis_count(w_lo, w_hi, self.w_step) \
                > _MAX_GRID_POINTS:
            raise InputError(f"f_range/f_step and w_range/w_step span more than "
                             f"{_MAX_GRID_POINTS} grid points")
        object.__setattr__(self, "f_range", (f_lo, f_hi))
        object.__setattr__(self, "w_range", (w_lo, w_hi))

    def f_axis(self):
        return _axis(self.f_range[0], self.f_range[1], self.f_step)

    def w_axis(self):
        return _axis(self.w_range[0], self.w_range[1], self.w_step)


def _axis_count(lo, hi, step):
    """Points in the inclusive grid lo, lo + step, ... <= hi, capped past the bound."""
    return int(math.floor(min((hi - lo) / step, _MAX_GRID_POINTS) + 1e-9)) + 1


def _axis(lo, hi, step):
    """Inclusive arithmetic grid; robust to float step rounding."""
    return lo + np.arange(_axis_count(lo, hi, step)) * step


@dataclass(frozen=True)
class SteeringSolution:
    """An optimized operating point and |F(theta_p)| it achieves."""

    f_b: float
    w_b: float
    achieved_pattern: _radiation.RadiationPattern
    objective_value: float
    theta_p: float

    def to_dict(self):
        return {
            "f_hz": self.f_b,
            "w_volts": self.w_b,
            "objective": {"kind": "maximize_at", "theta_deg": math.degrees(self.theta_p)},
            "objective_value": self.objective_value,
            "pattern": {
                "theta_deg": np.rad2deg(self.achieved_pattern.theta),
                "magnitude_linear": self.achieved_pattern.magnitude,
                "metrics": self.achieved_pattern.metrics.to_dict(),
            },
        }


@dataclass(frozen=True)
class ScanGrid:
    """|F(theta_probe)| sampled over the (f_b, W_b) grid."""

    probe_angle: float
    f_axis: np.ndarray
    w_axis: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.shape != (len(self.f_axis), len(self.w_axis)):
            raise InputError("scan matrix shape must match its axes")

    def to_dict(self):
        return {
            "probe_deg": math.degrees(self.probe_angle),
            "f_hz": np.asarray(self.f_axis),
            "w_volts": np.asarray(self.w_axis),
            "magnitude": np.asarray(self.values),
        }


def _grid_maps(design, cell, table, f_axis, w_axis, w0, f_c, thetas):
    """|F(theta)| over the (f, W) grid for each angle, and whether any bias was clamped.

    maps has shape (len(thetas), Nf, Nw).  The grid is evaluated a few
    frequencies at a time into buffers allocated once per call, each
    block contracted against every angle's steering vector as soon as it
    is built, so the (Nf, Nw, M) reflection tensor never exists.
    Identical math to the rectified_bias -> reflection_profile ->
    array_factor pipeline for a single-tone excitation; only the
    evaluation order differs.
    """
    count = design.element_count
    if len(f_axis) * len(w_axis) * count > _MAX_TENSOR_POINTS:
        raise InputError(f"design.element_count ({count}) times the "
                         f"f_range/f_step x w_range/w_step grid ({len(f_axis)} x "
                         f"{len(w_axis)}) spans more than {_MAX_TENSOR_POINTS} points")
    envelope = _btl.single_tone_envelope(design, f_axis)
    w_axis = np.asarray(w_axis, dtype=float)
    steer = [np.exp(1j * (2.0 * math.pi * f_c / C0 * design.spacing * math.sin(theta))
                    * np.arange(count)) for theta in thetas]
    maps = np.empty((len(steer), len(f_axis), w_axis.size))
    # a few frequencies at a time, so each elementwise step runs in cache
    rows = max(1, min(_BLOCK_POINTS // (w_axis.size * count), len(f_axis)))
    shape = (rows, w_axis.size, count)
    buffers = _unitcell._Buffers(np.empty(shape), np.empty(shape, complex),
                                 np.empty(shape, complex))
    clamped = False
    for i in range(0, len(f_axis), rows):
        block = envelope[i:i + rows, None, :]
        buf = _unitcell._Buffers(*(b[:len(block)] for b in buffers))
        bias = np.add(w0, np.multiply(w_axis[None, :, None], block, out=buf.real),
                      out=buf.real)
        gamma, block_clamped = _unitcell._reflection_array(cell, table, bias, f_c, buf)
        clamped = clamped or block_clamped
        for p, s in enumerate(steer):
            np.abs(np.multiply(gamma, s, out=buf.tmp).mean(axis=-1), out=maps[p, i:i + rows])
    return maps, clamped


def evaluate_operating_point(design, cell, table, f_b, w_b, w0, f_c,
                             theta_grid=None) -> _radiation.RadiationPattern:
    """Full pipeline at one (f_b, W_b) point: bias, reflection, pattern."""
    exc = _btl.Excitation(
        dc_offset=w0,
        modes=(_btl.Mode(1, w_b),),
        fundamental_frequency=f_b,
    )
    bias = _btl.rectified_bias(design, exc)
    profile = _unitcell.reflection_profile(cell, table, bias, f_c)
    grid = theta_grid if theta_grid is not None else _radiation.default_theta_grid()
    req = _radiation.PatternRequest(
        carrier_frequency=f_c, element_spacing=design.spacing, theta_grid=grid
    )
    return _radiation.array_factor(profile, req)


def optimize_single_beam(design, cell, table, theta_p, spec: SearchSpec,
                         f_c: float = RunConfig.carrier_frequency) -> SteeringSolution:
    """Pick (f_b, W_b) that maximize |F(theta_p)|.

    Exhaustive scan of the SearchSpec grid, then (optionally) two
    rounds of coordinate-wise golden-section refinement bounded to one
    grid step around the best coarse point.  Exact value ties resolve
    toward lower f_b, then lower W_b.
    """
    if not (abs(theta_p) <= math.pi / 2):
        raise InputError("theta_p must lie within +-90 degrees")
    _unitcell._check_carrier(cell, table, f_c)  # once, not per refinement point
    f_axis = spec.f_axis()
    w_axis = spec.w_axis()
    (values,), clamped = _grid_maps(
        design, cell, table, f_axis, w_axis, spec.w0, f_c, [theta_p]
    )
    if clamped:
        warnings.warn(_unitcell._CLAMP_MESSAGE, ClampWarning, stacklevel=2)

    # flat argmax scans f-major then W-minor, which is the tie order
    flat = int(np.argmax(values))
    i_f, i_w = divmod(flat, w_axis.size)
    best_f = float(f_axis[i_f])
    best_w = float(w_axis[i_w])
    best_val = float(values[i_f, i_w])

    def point_value(f_b, w_b):
        maps, _ = _grid_maps(
            design, cell, table, np.array([f_b]), np.array([w_b]), spec.w0, f_c, [theta_p]
        )
        return float(maps[0, 0, 0])

    if spec.refine:
        # strict improvement keeps the coarse point on exact ties
        for _ in range(2):
            lo = max(spec.f_range[0], best_f - spec.f_step)
            hi = min(spec.f_range[1], best_f + spec.f_step)
            x, val = golden_section_maximize(lambda f: point_value(f, best_w), lo, hi, 1.0e3)
            if val > best_val:
                best_f, best_val = x, val
            lo = max(spec.w_range[0], best_w - spec.w_step)
            hi = min(spec.w_range[1], best_w + spec.w_step)
            x, val = golden_section_maximize(lambda w: point_value(best_f, w), lo, hi, 0.01)
            if val > best_val:
                best_w, best_val = x, val

    pattern = evaluate_operating_point(design, cell, table, best_f, best_w, spec.w0, f_c)
    return SteeringSolution(f_b=best_f, w_b=best_w, achieved_pattern=pattern,
                            objective_value=best_val, theta_p=theta_p)


def specular_scan(design, cell, table, spec: SearchSpec, probe_angles,
                  f_c: float = RunConfig.carrier_frequency):
    """Dense |F(theta_probe)| maps over the grid, one per probe angle.

    The reflection of each block of the grid does not depend on the
    probe, so it is built once and contracted against every probe.
    """
    probe_angles = [float(probe) for probe in probe_angles]
    if not probe_angles:
        raise InputError("at least one probe angle is required")
    if not all(abs(probe) <= math.pi / 2 for probe in probe_angles):
        raise InputError("probe angles must lie within +-90 degrees")
    _unitcell._check_carrier(cell, table, f_c)
    f_axis = spec.f_axis()
    w_axis = spec.w_axis()
    maps, clamped = _grid_maps(design, cell, table, f_axis, w_axis, spec.w0, f_c, probe_angles)
    if clamped:
        warnings.warn(_unitcell._CLAMP_MESSAGE, ClampWarning, stacklevel=2)
    return tuple(ScanGrid(probe_angle=probe, f_axis=f_axis, w_axis=w_axis, values=values)
                 for probe, values in zip(probe_angles, maps))
