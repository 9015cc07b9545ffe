"""Far-field array factor of the linear array and derived metrics.

The scattered field is modeled as the interference sum of the
per-element complex reflection coefficients Gamma_m over a uniform line
of isotropic elements (array factor only, normalized by element count):

    F(theta) = (1/M) * sum_m Gamma_m * exp(j*m*k*d_x*sin(theta))

array_factor(coefficients, element_spacing, carrier_frequency, theta_grid)
takes the (M,) Gamma that reflection_profile returns, the pitch d_x, the
carrier that sets k and the observation angles as plain arguments and
checks each of them itself.

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
from .numutil import freeze_field, parabola_vertex

def default_theta_grid():
    """Observation angles from -90 to +90 degrees in 0.05 deg steps.

    Built from integer multiples so the grid contains 0 exactly.
    """
    degs = (np.arange(3601) - 1800) * 0.05
    return np.deg2rad(degs)


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


def _kd(f_c, spacing):
    """k*d: the phase step, in radians, between neighbouring elements."""
    return 2.0 * math.pi * f_c / C0 * spacing


def _phase_rows(element_count, spacing, f_c, thetas):
    """The (M, T) rows exp(j*m*k*d*sin(theta)) of M elements at T angles.

    InputError unless the phase (M - 1)*k*d across the array is finite:
    past float range it is inf and the pattern NaN.  The matrix is built
    row by row, so no other (M, T) temporary exists.
    """
    kd = _kd(f_c, spacing)
    if not math.isfinite((element_count - 1) * kd):
        raise InputError(f"the phase (M - 1)*k*d across {element_count} elements of a "
                         f"{float(spacing)!r} m spacing at a {float(f_c)!r} Hz carrier "
                         "is not finite")
    step = kd * np.sin(thetas)
    rows = np.empty((element_count, step.size), dtype=complex)
    for m in range(element_count):
        np.exp(1j * (m * step), out=rows[m])
    return rows


# ((k*d, theta grid bytes), rows): the steering rows of the last pattern geometry
_rows_cache = None


def _steering_rows(element_count, spacing, f_c, thetas):
    """The read-only _phase_rows of M elements at T angles, cached.

    Row m does not depend on M, so one matrix, keyed by k*d and the
    grid's bytes, serves every element count up to the one it was built
    for as its leading rows.  Another k*d, another grid or a larger M
    builds a new matrix and replaces it: the module keeps one, of
    M_max * T * 16 bytes (3.46 MB at 60 elements on the default grid),
    less than the (M, T) temporaries an unshared build would allocate on
    every call.  The matrix is published only once complete and frozen.
    A miss raises InputError as _phase_rows does before building
    anything; a hit needs no check, since the larger M that built the
    rows passed it.  Concurrent misses each build their own matrix; the
    last published stays.
    """
    global _rows_cache
    key = (_kd(f_c, spacing), thetas.tobytes())
    cached = _rows_cache
    if cached is not None and cached[0] == key and len(cached[1]) >= element_count:
        return cached[1][:element_count]
    rows = _phase_rows(element_count, spacing, f_c, thetas)
    rows.flags.writeable = False
    _rows_cache = (key, rows)
    return rows


def array_factor(coefficients, element_spacing, carrier_frequency, theta_grid) -> RadiationPattern:
    """Normalized array factor of per-element reflection coefficients on a theta grid.

    InputError unless the coefficients are a nonempty, finite 1-d array,
    the carrier and the spacing are positive, their phase step k*d is
    finite, and the grid is a 1-d, strictly increasing array of at least
    2 angles within [-pi/2, pi/2].
    """
    coefficients = np.asarray(coefficients, dtype=complex)
    if coefficients.ndim != 1 or coefficients.size < 1:
        raise InputError("coefficients must be a nonempty 1-d array, one per element")
    if not np.all(np.isfinite(coefficients)):
        raise InputError("coefficients must be finite")
    if not (carrier_frequency > 0):
        raise InputError("carrier_frequency must be positive")
    if not (element_spacing > 0):
        raise InputError("element_spacing must be positive")
    if not math.isfinite(_kd(carrier_frequency, element_spacing)):
        raise InputError(f"the phase step k*d of a {float(carrier_frequency)!r} Hz carrier "
                         f"over a {float(element_spacing)!r} m spacing is not finite")
    # float before the checks and before _steering_rows keys its cache on the bytes
    theta = np.asarray(theta_grid, dtype=float)
    if theta.ndim != 1 or theta.size < 2:
        raise InputError("theta_grid must be a 1-d array with at least 2 angles")
    if not np.all(np.diff(theta) > 0):
        raise InputError("theta_grid must be strictly increasing")
    if theta[0] < -math.pi / 2 - 1e-12 or theta[-1] > math.pi / 2 + 1e-12:
        raise InputError("theta_grid must lie within [-pi/2, pi/2]")
    m_count = len(coefficients)
    rows = _steering_rows(m_count, element_spacing, carrier_frequency, theta)
    # rows added in order: the bits of sum(axis=0) over the C-ordered (M, T)
    # product, which the tests keep as the reference
    field = coefficients[0] * rows[0]
    for m in range(1, m_count):
        field += coefficients[m] * rows[m]
    field /= m_count
    magnitude = np.abs(field)
    metrics = _metrics_from_arrays(theta, magnitude)
    return RadiationPattern(theta=theta, magnitude=magnitude, metrics=metrics)


def _metrics_from_arrays(theta, magnitude):
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
    specular = float(magnitude[int(on_axis[0])]) if on_axis.size else None

    # half-power crossings around the peak, interpolated on the dB curve
    thr = peak_value * 10.0 ** (-3.0 / 20.0)
    with np.errstate(divide="ignore"):
        db = 20.0 * np.log10(np.maximum(magnitude, 1e-300))
    thr_db = 20.0 * math.log10(max(thr, 1e-300))

    def cross(j, j2):
        # interpolate from j, above the threshold, to its neighbor j2
        # below it; the fraction is clamped to the bracket because the
        # refined peak can sit above the on-grid sample
        denom = db[j2] - db[j]
        f = 0.5 if denom == 0.0 else (thr_db - db[j]) / denom
        f = min(max(f, 0.0), 1.0)
        return float(theta[j] + f * (theta[j2] - theta[j]))

    below = np.flatnonzero(magnitude < thr)
    before = below[below < i_peak]
    after = below[below > i_peak]
    left = cross(before[-1] + 1, before[-1]) if before.size else None
    right = cross(after[0] - 1, after[0]) if after.size else None
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
    )

