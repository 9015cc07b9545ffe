"""Far-field array factor of the linear array and derived metrics.

The scattered field is modeled as the interference sum of the
per-element reflection coefficients over a uniform line of isotropic
elements (array factor only, normalized by element count):

    F(theta) = (1/M) * sum_m R_m * exp(j*(m*k*d_x*sin(theta) + alpha_m))

Metrics derived from the sampled pattern: refined peak angle and
value, the broadside (specular) level, the highest sidelobe outside
the half-power mainlobe, and the half-power beamwidth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .constants import C0
from .errors import InputError
from .numutil import freeze_field, parabola_vertex, wrap_phase

# reported dB values are floored here; a zero of the pattern would
# otherwise serialize as -inf
DB_FLOOR = -60.0


def db_from_linear(magnitude):
    """20*log10 with the reporting floor applied."""
    mag = np.asarray(magnitude, dtype=float)
    with np.errstate(divide="ignore"):
        db = 20.0 * np.log10(np.maximum(mag, 0.0))
    return np.maximum(db, DB_FLOOR)


def default_theta_grid():
    """Observation angles from -90 to +90 degrees in 0.05 deg steps.

    Built from integer multiples so the grid contains 0 exactly.
    """
    degs = (np.arange(3601) - 1800) * 0.05
    return np.deg2rad(degs)


@dataclass(frozen=True)
class PatternRequest:
    """What to evaluate: carrier, element pitch, observation angles."""

    carrier_frequency: float
    element_spacing: float
    theta_grid: np.ndarray

    def __post_init__(self):
        if not (self.carrier_frequency > 0):
            raise InputError("carrier_frequency must be positive")
        if not (self.element_spacing > 0):
            raise InputError("element_spacing must be positive")
        if not math.isfinite(2.0 * math.pi * self.carrier_frequency / C0 * self.element_spacing):
            raise InputError(f"the phase step k*d of a {float(self.carrier_frequency)!r} Hz carrier "
                             f"over a {float(self.element_spacing)!r} m spacing is not finite")
        grid = freeze_field(self, "theta_grid", self.theta_grid)
        if grid.ndim != 1 or grid.size < 2:
            raise InputError("theta_grid must be a 1-d array with at least 2 angles")
        if not np.all(np.diff(grid) > 0):
            raise InputError("theta_grid must be strictly increasing")
        if grid[0] < -math.pi / 2 - 1e-12 or grid[-1] > math.pi / 2 + 1e-12:
            raise InputError("theta_grid must lie within [-pi/2, pi/2]")


@dataclass(frozen=True)
class PatternMetrics:
    """Scalar summaries of a sampled pattern.

    Angles are radians; magnitudes are linear.  specular_value is None
    when the grid does not contain broadside; half_power_beamwidth and
    highest_sidelobe are None when the pattern does not resolve them.
    """

    peak_angle: float
    peak_value: float
    specular_value: Optional[float]
    highest_sidelobe: Optional[float]
    half_power_beamwidth: Optional[float]
    specular_omitted: bool = False

    def to_dict(self):
        out = {
            "peak_angle_deg": math.degrees(self.peak_angle),
            "peak_value_linear": self.peak_value,
            "peak_value_db": float(db_from_linear(self.peak_value)),
            "specular_omitted": self.specular_omitted,
        }
        if self.specular_value is not None:
            out["specular_linear"] = self.specular_value
            out["specular_db"] = float(db_from_linear(self.specular_value))
        if self.highest_sidelobe is not None:
            out["highest_sidelobe_linear"] = self.highest_sidelobe
            out["highest_sidelobe_db"] = float(db_from_linear(self.highest_sidelobe))
        if self.half_power_beamwidth is not None:
            out["half_power_beamwidth_deg"] = math.degrees(self.half_power_beamwidth)
        return out


@dataclass(frozen=True)
class RadiationPattern:
    """Sampled normalized array factor plus its metrics."""

    theta: np.ndarray
    magnitude: np.ndarray
    metrics: PatternMetrics

    def __post_init__(self):
        theta = freeze_field(self, "theta", self.theta)
        mag = freeze_field(self, "magnitude", self.magnitude)
        if theta.shape != mag.shape or theta.ndim != 1:
            raise InputError("theta and magnitude must be 1-d arrays of equal length")

    def magnitude_db(self):
        return db_from_linear(self.magnitude)


def array_factor(profile, req: PatternRequest) -> RadiationPattern:
    """Normalized array factor of a reflection profile on a theta grid."""
    m_count = len(profile)
    if m_count < 1:
        raise InputError("reflection profile may not be empty")
    coeff = profile.coefficients()
    k = 2.0 * math.pi * req.carrier_frequency / C0
    psi = k * req.element_spacing * np.sin(req.theta_grid)  # per-gap phase
    orders = np.arange(m_count)
    field = (coeff[:, None] * np.exp(1j * np.outer(orders, psi))).sum(axis=0) / m_count
    magnitude = np.abs(field)
    metrics = _metrics_from_arrays(req.theta_grid, magnitude)
    return RadiationPattern(theta=req.theta_grid, magnitude=magnitude, metrics=metrics)


def ideal_phase_gradient(theta_p: float, d_x: float, f_c: float, element_count: int,
                         alpha_0: float = 0.0) -> np.ndarray:
    """Element phases that steer a beam exactly to theta_p.

    Linear progression across the aperture, wrapped to principal
    values.
    """
    if element_count < 2:
        raise InputError("need at least 2 elements for a phase gradient")
    lam = C0 / f_c
    m = np.arange(element_count)
    alpha = alpha_0 - 2.0 * math.pi * m * d_x * math.sin(theta_p) / lam
    return wrap_phase(alpha)


def _metrics_from_arrays(theta, magnitude):
    if theta.size == 0:
        raise InputError("empty pattern")

    i_peak = int(np.argmax(magnitude))
    peak_angle = float(theta[i_peak])
    peak_value = float(magnitude[i_peak])

    # three-point quadratic refinement when the peak is interior
    if 0 < i_peak < theta.size - 1:
        x = theta[i_peak - 1 : i_peak + 2]
        vertex = parabola_vertex(x, magnitude[i_peak - 1 : i_peak + 2])
        if vertex is not None and x[0] <= vertex[0] <= x[2]:
            peak_angle = float(vertex[0])
            peak_value = float(vertex[1])

    # specular level requires a grid point at broadside
    on_axis = np.nonzero(np.abs(theta) < 1e-12)[0]
    if on_axis.size:
        specular = float(magnitude[int(on_axis[0])])
        omitted = False
    else:
        specular = None
        omitted = True

    # half-power crossings around the peak, interpolated on the dB curve
    thr = peak_value * 10.0 ** (-3.0 / 20.0)
    with np.errstate(divide="ignore"):
        db = 20.0 * np.log10(np.maximum(magnitude, 1e-300))
    thr_db = 20.0 * math.log10(max(thr, 1e-300))

    def cross(direction):
        j = i_peak
        while 0 <= j + direction < theta.size:
            j2 = j + direction
            if magnitude[j2] < thr:
                # interpolate between j and j2 in the dB domain; the
                # fraction is clamped to the bracket because the
                # refined peak can sit above the on-grid sample
                denom = db[j2] - db[j]
                f = 0.5 if denom == 0.0 else (thr_db - db[j]) / denom
                f = min(max(f, 0.0), 1.0)
                return float(theta[j] + f * (theta[j2] - theta[j]))
            j = j2
        return None

    left = cross(-1)
    right = cross(+1)
    hpbw = (right - left) if (left is not None and right is not None) else None

    # highest local maximum outside the half-power mainlobe
    lobe_lo = left if left is not None else theta[0]
    lobe_hi = right if right is not None else theta[-1]
    inner = magnitude[1:-1]
    is_local = (inner >= magnitude[:-2]) & (inner >= magnitude[2:])
    cand = np.nonzero(is_local)[0] + 1
    cand = cand[(theta[cand] < lobe_lo) | (theta[cand] > lobe_hi)]
    sidelobe = float(magnitude[cand].max()) if cand.size else None

    return PatternMetrics(
        peak_angle=peak_angle,
        peak_value=peak_value,
        specular_value=specular,
        highest_sidelobe=sidelobe,
        half_power_beamwidth=hpbw,
        specular_omitted=omitted,
    )


def pattern_csv_columns(pattern: RadiationPattern):
    """Columns of the theta_deg,magnitude,magnitude_db CSV schema."""
    return np.rad2deg(pattern.theta), pattern.magnitude, pattern.magnitude_db()
