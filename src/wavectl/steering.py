"""Single-biasing-frequency reflective control.

Searching the (f_b, W_b) plane: a biasing frequency shapes the dc
profile along the array, the amplitude scales it, and together they
pick the phase gradient the elements apply to the carrier.  The
operations here evaluate the full bias -> reflection -> pattern
pipeline at one operating point, scan it over a grid, and optimize it
for beam-steering or specular-suppression objectives.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple, Optional, Union

import numpy as np

from . import btl as _btl
from . import radiation as _radiation
from . import unitcell as _unitcell
from .constants import C0
from .errors import ClampWarning, InputError
from .numutil import golden_section_maximize


@dataclass(frozen=True)
class MaximizeAt:
    """Steer: maximize |F| at a target angle (radians)."""

    theta_p: float


@dataclass(frozen=True)
class MinimizeSpecular:
    """Suppress the broadside (specular) response."""


Objective = Union[MaximizeAt, MinimizeSpecular]


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
    objective: Optional[Objective] = None

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
        object.__setattr__(self, "f_range", (f_lo, f_hi))
        object.__setattr__(self, "w_range", (w_lo, w_hi))

    def f_axis(self):
        return _axis(self.f_range[0], self.f_range[1], self.f_step)

    def w_axis(self):
        return _axis(self.w_range[0], self.w_range[1], self.w_step)


def _axis(lo, hi, step):
    """Inclusive arithmetic grid; robust to float step rounding."""
    count = int(math.floor((hi - lo) / step + 1e-9)) + 1
    return lo + np.arange(count) * step


@dataclass(frozen=True)
class SteeringSolution:
    """An optimized operating point and what it achieves."""

    f_b: float
    w_b: float
    achieved_pattern: _radiation.RadiationPattern
    objective_value: float
    objective: Objective

    def to_dict(self):
        if isinstance(self.objective, MaximizeAt):
            objective = {
                "kind": "maximize_at",
                "theta_deg": math.degrees(self.objective.theta_p),
            }
        else:
            objective = {"kind": "minimize_specular"}
        return {
            "f_hz": self.f_b,
            "w_volts": self.w_b,
            "objective": objective,
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


class LargeAngleFrequency(NamedTuple):
    frequency: float
    degenerate: bool


class PhaseWrapBudget(NamedTuple):
    total_span: float
    within_budget: bool


def _objective_values(design, cell, table, f_axis, w_axis, w0, f_c, theta):
    """|F(theta)| over the (f, W) grid, fully vectorized.

    Identical math to the rectified_bias -> reflection_profile ->
    array_factor pipeline for a single-tone excitation; only the
    evaluation order differs.
    """
    envelope = _btl.single_tone_envelope(design, f_axis)
    w_axis = np.asarray(w_axis, dtype=float)
    bias = w0 + w_axis[None, :, None] * envelope[:, None, :]  # (Nf, Nw, M)
    gamma, clamped = _unitcell._reflection_array(cell, table, bias, f_c)
    psi = 2.0 * math.pi * f_c / C0 * design.spacing * math.sin(theta)
    steer = np.exp(1j * psi * np.arange(design.element_count))
    values = np.abs((gamma * steer).mean(axis=-1))
    return values, clamped


def evaluate_operating_point(design, cell, table, f_b, w_b, w0, f_c,
                             theta_grid=None) -> _radiation.RadiationPattern:
    """Full pipeline at one (f_b, W_b) point: bias, reflection, pattern."""
    if not (f_b > 0):
        raise InputError("f_b must be positive")
    if w_b < 0:
        raise InputError("w_b must be nonnegative")
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
                         f_c: float = 2.45e9, theta_grid=None) -> SteeringSolution:
    """Pick (f_b, W_b) for the requested objective.

    Exhaustive scan of the SearchSpec grid, then (optionally) two
    rounds of coordinate-wise golden-section refinement bounded to one
    grid step around the best coarse point.  Exact value ties resolve
    toward lower f_b, then lower W_b.
    """
    if not (abs(theta_p) <= math.pi / 2):
        raise InputError("theta_p must lie within +-90 degrees")
    objective = spec.objective if spec.objective is not None else MaximizeAt(theta_p)
    if isinstance(objective, MaximizeAt):
        obj_angle = objective.theta_p
        sense = 1.0
    else:
        obj_angle = 0.0
        sense = -1.0

    f_axis = spec.f_axis()
    w_axis = spec.w_axis()
    if f_axis.size == 0 or w_axis.size == 0:
        raise InputError("empty search space")

    values, clamped = _objective_values(
        design, cell, table, f_axis, w_axis, spec.w0, f_c, obj_angle
    )
    if clamped:
        warnings.warn(_unitcell._CLAMP_MESSAGE, ClampWarning, stacklevel=2)

    # flat argmax scans f-major then W-minor, which is the tie order
    flat = int(np.argmax(sense * values))
    i_f, i_w = divmod(flat, w_axis.size)
    best_f = float(f_axis[i_f])
    best_w = float(w_axis[i_w])
    best_val = float(values[i_f, i_w])

    def point_value(f_b, w_b):
        vals, _ = _objective_values(
            design, cell, table, np.array([f_b]), np.array([w_b]), spec.w0, f_c, obj_angle
        )
        return float(vals[0, 0])

    if spec.refine:
        # golden section works on the signed objective so the same
        # code path serves both senses; strict improvement keeps the
        # coarse point on exact ties
        best_signed = sense * best_val
        for _ in range(2):
            lo = max(spec.f_range[0], best_f - spec.f_step)
            hi = min(spec.f_range[1], best_f + spec.f_step)
            x, sval = golden_section_maximize(
                lambda f: sense * point_value(f, best_w), lo, hi, 1.0e3
            )
            if sval > best_signed:
                best_f = x
                best_signed = sval
            lo = max(spec.w_range[0], best_w - spec.w_step)
            hi = min(spec.w_range[1], best_w + spec.w_step)
            x, sval = golden_section_maximize(
                lambda w: sense * point_value(best_f, w), lo, hi, 0.01
            )
            if sval > best_signed:
                best_w = x
                best_signed = sval
        best_val = sense * best_signed

    pattern = evaluate_operating_point(
        design, cell, table, best_f, best_w, spec.w0, f_c, theta_grid
    )
    return SteeringSolution(
        f_b=best_f,
        w_b=best_w,
        achieved_pattern=pattern,
        objective_value=point_value(best_f, best_w),
        objective=objective,
    )


def large_angle_frequency(theta_p: float, f_c: float, n_slow: float) -> LargeAngleFrequency:
    """Biasing frequency whose half-period bias ripple steers to theta_p.

    Broadside needs no spatial variation at all, so theta_p = 0
    returns zero hertz with the degenerate flag set.
    """
    if not (f_c > 0 and n_slow >= 1):
        raise InputError("need f_c > 0 and n_slow >= 1")
    if theta_p == 0:
        return LargeAngleFrequency(0.0, True)
    return LargeAngleFrequency(f_c * abs(math.sin(theta_p)) / (4.0 * n_slow), False)


def phase_wrap_budget(theta_p: float, d_x: float, f_c: float, element_count: int) -> PhaseWrapBudget:
    """Total ideal phase span across the aperture and whether it wraps."""
    if element_count < 2:
        raise InputError("need at least 2 elements")
    lam = C0 / f_c
    span = 2.0 * math.pi * (element_count - 1) * d_x * abs(math.sin(theta_p)) / lam
    return PhaseWrapBudget(span, span < 2.0 * math.pi)


def specular_scan(design, cell, table, spec: SearchSpec, probe_angles,
                  f_c: float = 2.45e9):
    """Dense |F(theta_probe)| maps over the grid, one per probe angle."""
    probe_angles = list(probe_angles)
    if not probe_angles:
        raise InputError("at least one probe angle is required")
    f_axis = spec.f_axis()
    w_axis = spec.w_axis()
    grids = []
    clamped_any = False
    for probe in probe_angles:
        if not abs(probe) <= math.pi / 2:
            raise InputError("probe angles must lie within +-90 degrees")
        values, clamped = _objective_values(
            design, cell, table, f_axis, w_axis, spec.w0, f_c, float(probe)
        )
        clamped_any = clamped_any or clamped
        grids.append(
            ScanGrid(probe_angle=float(probe), f_axis=f_axis, w_axis=w_axis, values=values)
        )
    if clamped_any:
        warnings.warn(_unitcell._CLAMP_MESSAGE, ClampWarning, stacklevel=2)
    return tuple(grids)
