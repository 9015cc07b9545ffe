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
from .errors import ClampWarning, InputError
from .numutil import golden_section_maximize


# largest (f, W) grid a search may span, 29x the default 300 x 121 grid
_MAX_GRID_POINTS = 2**20
# largest Nf x Nw x M reflection a search may evaluate: a 60-element line
# over the largest grid, where a complex tensor of it would be 1 GB
_MAX_TENSOR_POINTS = _MAX_GRID_POINTS * 60
# (f, m) envelope entries whose levels are found at once, and W rows x
# (f, m) tap reflections gathered at a time (512 kB of complex values)
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


def _grid_maps(cell, table, envelope, w_axis, w0, f_c, steer):
    """|F(theta)| over the (f, W) grid for each steering vector, and whether any bias was clamped.

    envelope holds the (Nf, M) levels e[f, m] and steer the (P, M)
    steering vectors; maps has shape (P, Nf, Nw).  A bias w0 + W * e[f, m]
    and so its reflection depend on the level e[f, m] alone, and where
    evenly spaced taps meet an evenly spaced frequency grid many (f, m)
    share one level.  So the grid is taken a super-block of at most
    _BLOCK_POINTS (f, m) entries at a time, and the cell kernel runs
    once per distinct level and W row (_level_maps).  Neither the
    (Nf, Nw, M) reflection tensor nor its biases ever exist.  Each
    reflection is the kernel's Gamma bit for bit, as reflection_profile
    hands it to array_factor in the rectified_bias -> reflection_profile
    -> array_factor pipeline for a single-tone excitation; only the order
    of the tap sum differs.
    """
    maps = np.empty((len(steer), len(envelope), w_axis.size))
    freqs = max(1, min(_BLOCK_POINTS // envelope.shape[1], len(envelope)))
    clamped = False
    for i in range(0, len(envelope), freqs):
        block = envelope[i:i + freqs]
        levels, inverse = np.unique(block, return_inverse=True)
        inverse = inverse.reshape(block.shape)  # flat before numpy 2
        block_clamped = _level_maps(cell, table, levels, inverse, w_axis, w0, f_c, steer,
                                    maps[:, i:i + freqs])
        clamped = clamped or block_clamped
    return maps, clamped


def _level_maps(cell, table, levels, inverse, w_axis, w0, f_c, steer, maps):
    """Fill the (P, F, Nw) maps of the (F, M) envelope levels[inverse]; True if a bias clamped.

    The kernel runs on W rows x the distinct levels at a time; each
    tap's reflection is then gathered back into a (W rows, F, M) block
    and contracted against every angle's steering vector.  The buffers
    live for one call only, so they never coexist with np.unique's
    temporaries for the next super-block.
    """
    rows = max(1, min(_BLOCK_POINTS // inverse.size, w_axis.size))
    volts = np.empty((rows, levels.size))
    z = np.empty(volts.shape, complex)
    # flat, so its front holds both a kernel block and the gathered taps
    tmp = np.empty(rows * inverse.size, complex)
    clamped = False
    for j in range(0, w_axis.size, rows):
        w_rows = w_axis[j:j + rows, None]
        bias = volts[:len(w_rows)]
        np.add(w0, np.multiply(w_rows, levels, out=bias), out=bias)
        buf = _unitcell._Buffers(z[:len(w_rows)], tmp[:bias.size].reshape(bias.shape))
        gamma, block_clamped = _unitcell._reflection_array(cell, table, bias, f_c, buf)
        clamped = clamped or block_clamped
        # each angle gathers the taps' reflections anew into tmp, which the
        # kernel is done with, and forms |mean over taps of gamma * s| there
        taps = tmp[:len(w_rows) * inverse.size].reshape(len(w_rows), *inverse.shape)
        for p, s in enumerate(steer):
            # indices are in range: "clip" skips take's buffered check
            np.take(gamma, inverse, axis=1, mode="clip", out=taps)
            np.abs(np.multiply(taps, s, out=taps).mean(axis=-1), out=maps[p, :, j:j + rows].T)
    return clamped


def _drive_pattern(design, cell, table, exc, f_c, theta_grid=None):
    """Full pipeline for one drive: bias, reflection, pattern."""
    bias = _btl.rectified_bias(design, exc)
    gamma = _unitcell.reflection_profile(cell, table, bias, f_c)
    grid = theta_grid if theta_grid is not None else _radiation.default_theta_grid()
    return _radiation.array_factor(gamma, design.spacing, f_c, grid)


def evaluate_operating_point(design, cell, table, f_b, w_b, w0, f_c,
                             theta_grid=None) -> _radiation.RadiationPattern:
    """Full pipeline at one single-tone (f_b, W_b) point."""
    exc = _btl.Excitation(dc_offset=w0, modes=(_btl.Mode(1, w_b),), fundamental_frequency=f_b)
    return _drive_pattern(design, cell, table, exc, f_c, theta_grid)


def _search_maps(design, cell, table, spec, thetas, f_c):
    """Check a search, then return its axes, (P, M) steering vectors and |F(theta)| maps.

    Warns the search's caller of a clamp.
    """
    if not all(abs(theta) <= math.pi / 2 for theta in thetas):
        raise InputError("target and probe angles must lie within +-90 degrees")
    _unitcell._check_carrier(cell, table, f_c)  # once, not per refinement point
    f_axis, w_axis = spec.f_axis(), spec.w_axis()
    count = design.element_count
    if f_axis.size * w_axis.size * count > _MAX_TENSOR_POINTS:
        raise InputError(f"design.element_count ({count}) times the "
                         f"f_range/f_step x w_range/w_step grid ({f_axis.size} x "
                         f"{w_axis.size}) spans more than {_MAX_TENSOR_POINTS} points")
    # built anew rather than through radiation's row cache, whose one slot
    # holds the final pattern's rows over its whole angle grid
    steer = _radiation._phase_rows(count, design.spacing, f_c, thetas).T
    maps, clamped = _grid_maps(cell, table, _btl.single_tone_envelope(design, f_axis), w_axis,
                               spec.w0, f_c, steer)
    if clamped:
        warnings.warn(_unitcell._CLAMP_MESSAGE, ClampWarning, stacklevel=3)
    return f_axis, w_axis, steer, maps


def optimize_single_beam(design, cell, table, theta_p, spec: SearchSpec,
                         f_c: float = RunConfig.carrier_frequency) -> SteeringSolution:
    """Pick (f_b, W_b) that maximize |F(theta_p)|.

    Exhaustive scan of the SearchSpec grid, then (optionally) two
    rounds of coordinate-wise golden-section refinement bounded to one
    grid step around the best coarse point.  Exact value ties resolve
    toward lower f_b, then lower W_b.
    """
    f_axis, w_axis, steer, (values,) = _search_maps(design, cell, table, spec, [theta_p], f_c)

    # flat argmax scans f-major then W-minor, which is the tie order
    flat = int(np.argmax(values))
    i_f, i_w = divmod(flat, w_axis.size)
    best_f = float(f_axis[i_f])
    best_w = float(w_axis[i_w])
    best_val = float(values[i_f, i_w])

    if spec.refine:
        each_tap = np.arange(design.element_count)[None]  # each tap its own level
        value = np.empty((1, 1, 1))

        def point_value(f_b, w_b):
            # one envelope row through the grid's own kernel
            (row,) = _btl.single_tone_envelope(design, [f_b])
            _level_maps(cell, table, row, each_tap, np.array([w_b]), spec.w0, f_c, steer, value)
            return float(value[0, 0, 0])

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
                            objective_value=best_val)


def specular_scan(design, cell, table, spec: SearchSpec, probe_angles,
                  f_c: float = RunConfig.carrier_frequency) -> np.ndarray:
    """Dense |F(theta_probe)| maps over the grid, one per probe angle.

    Shape (P, Nf, Nw), read-only: maps[p, i, j] is |F| at probe_angles[p],
    drive frequency spec.f_axis()[i] and amplitude spec.w_axis()[j].  The
    reflection of each block of the grid does not depend on the probe,
    so it is built once and contracted against every probe.
    """
    probe_angles = [float(probe) for probe in probe_angles]
    if not probe_angles:
        raise InputError("at least one probe angle is required")
    *_, maps = _search_maps(design, cell, table, spec, probe_angles, f_c)
    maps.setflags(write=False)
    return maps
