"""Array-factor synthesis and pattern metrics.

The half-power beamwidth oracle comes from bisecting the closed-form
uniform-array factor sin(M u/2)/(M sin(u/2)), derived in-test, so the
sampled-grid implementation is checked against an independent root.
"""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import wavectl as w
from wavectl.errors import InputError
from wavectl.radiation import DB_FLOOR, pattern_csv_columns

F_C = 2.45e9
D_X = 0.02


def _profile_from(coeffs):
    coeffs = np.asarray(coeffs, dtype=complex)
    return w.ReflectionProfile(magnitudes=np.abs(coeffs), phases=np.angle(coeffs))


def _request(grid=None):
    if grid is None:
        grid = w.default_theta_grid()
    return w.PatternRequest(carrier_frequency=F_C, element_spacing=D_X,
                            theta_grid=np.asarray(grid, dtype=float))


def test_default_theta_grid_shape():
    grid = w.default_theta_grid()
    assert grid.shape == (3601,)
    assert grid[0] == pytest.approx(-math.pi / 2)
    assert grid[-1] == pytest.approx(math.pi / 2)
    assert np.any(grid == 0.0)  # exact zero so specular needs no interpolation
    assert np.all(np.diff(grid) > 0)


def test_request_validation():
    with pytest.raises(InputError):
        _request(np.array([0.3, 0.2, 0.4]))
    with pytest.raises(InputError):
        _request(np.array([0.0]))
    with pytest.raises(InputError):
        _request(np.array([-2.0, 0.0, 2.0]))
    with pytest.raises(InputError):
        w.PatternRequest(carrier_frequency=0.0, element_spacing=D_X,
                         theta_grid=np.array([0.0, 0.1]))


@pytest.mark.parametrize("carrier, spacing", [(math.inf, D_X), (1e308, D_X), (2.45e9, math.inf)])
def test_request_refuses_a_phase_step_out_of_float_range(carrier, spacing):
    # k*d would be inf and every pattern value NaN
    with pytest.raises(InputError, match="phase step"):
        w.PatternRequest(carrier_frequency=carrier, element_spacing=spacing,
                         theta_grid=np.array([0.0, 0.1]))


def test_uniform_profile_peaks_at_specular():
    pattern = w.array_factor(_profile_from(np.ones(27)), _request())
    m = pattern.metrics
    assert m.peak_angle == pytest.approx(0.0, abs=1e-9)
    assert m.peak_value == pytest.approx(1.0, rel=1e-12)
    assert m.specular_value == pytest.approx(1.0, rel=1e-12)
    assert not m.specular_omitted


def _uniform_factor(u, m_count):
    # closed form of the uniform array factor at per-gap phase u
    if abs(u) < 1e-15:
        return 1.0
    return abs(math.sin(m_count * u / 2.0) / (m_count * math.sin(u / 2.0)))


def test_uniform_hpbw_matches_bisection_oracle():
    m_count = 27
    target = 1.0 / math.sqrt(2.0)
    lo, hi = 0.0, 2.0 * math.pi / m_count  # half-power sits before the first null
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if _uniform_factor(mid, m_count) > target:
            lo = mid
        else:
            hi = mid
    u_half = 0.5 * (lo + hi)
    k = 2.0 * math.pi * F_C / w.C0
    theta_half = math.asin(u_half / (k * D_X))
    expected = 2.0 * theta_half

    pattern = w.array_factor(_profile_from(np.ones(m_count)), _request())
    got = pattern.metrics.half_power_beamwidth
    assert got == pytest.approx(expected, rel=2e-3)


def test_uniform_first_sidelobe_level():
    pattern = w.array_factor(_profile_from(np.ones(27)), _request())
    sll = pattern.metrics.highest_sidelobe
    # independent scan of the closed form over the visible span
    k = 2.0 * math.pi * F_C / w.C0
    u = np.linspace(2.0 * math.pi / 27, k * D_X, 20000)
    expected = max(_uniform_factor(x, 27) for x in u)
    assert sll == pytest.approx(expected, rel=1e-3)


def test_gradient_steers_the_peak():
    theta_p = math.radians(20.0)
    alpha = w.ideal_phase_gradient(theta_p, D_X, F_C, 27)
    pattern = w.array_factor(_profile_from(np.exp(1j * alpha)), _request())
    assert pattern.metrics.peak_angle == pytest.approx(theta_p, abs=math.radians(0.05))
    assert pattern.metrics.peak_value == pytest.approx(1.0, rel=1e-9)
    assert pattern.metrics.specular_value < pattern.metrics.peak_value


def test_ideal_phase_gradient_frozen_step():
    alpha = w.ideal_phase_gradient(math.radians(12.0), D_X, F_C, 27)
    steps = np.diff(np.unwrap(alpha))
    assert np.allclose(-np.degrees(steps), 12.233670755070412, rtol=1e-12)
    span = np.degrees(np.unwrap(alpha)[0] - np.unwrap(alpha)[-1])
    assert span == pytest.approx(318.0754396318307, rel=1e-12)
    assert np.all(alpha > -math.pi) and np.all(alpha <= math.pi)


def test_ideal_phase_gradient_offset():
    a0 = w.ideal_phase_gradient(0.3, D_X, F_C, 8)
    a1 = w.ideal_phase_gradient(0.3, D_X, F_C, 8, alpha_0=0.5)
    assert np.allclose(w.wrap_phase(a1 - a0), 0.5)


def test_specular_omitted_off_grid():
    grid = np.linspace(math.radians(10.0), math.radians(30.0), 201)
    pattern = w.array_factor(_profile_from(np.ones(27)), _request(grid))
    assert pattern.metrics.specular_omitted
    assert pattern.metrics.specular_value is None
    d = pattern.metrics.to_dict()
    assert d["specular_omitted"] is True
    assert "specular_linear" not in d


def test_metrics_to_dict_keys():
    pattern = w.array_factor(_profile_from(np.ones(27)), _request())
    d = pattern.metrics.to_dict()
    for key in ("peak_angle_deg", "peak_value_linear", "peak_value_db",
                "specular_omitted", "specular_linear", "specular_db",
                "highest_sidelobe_linear", "highest_sidelobe_db",
                "half_power_beamwidth_deg"):
        assert key in d, key


def test_pattern_csv_rows_floor():
    pattern = w.array_factor(_profile_from(np.zeros(4)), _request())
    theta_deg, _, magnitude_db = pattern_csv_columns(pattern)
    assert len(theta_deg) == len(magnitude_db) == 3601
    assert np.all(magnitude_db == DB_FLOOR)
    assert theta_deg[0] == pytest.approx(-90.0)


def test_peak_refinement_beats_grid_resolution():
    # steer between grid points; the refined peak should land closer
    # than half a grid step
    theta_p = math.radians(20.013)
    alpha = w.ideal_phase_gradient(theta_p, D_X, F_C, 27)
    pattern = w.array_factor(_profile_from(np.exp(1j * alpha)), _request())
    err = abs(pattern.metrics.peak_angle - theta_p)
    assert err < math.radians(0.015)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(-math.pi, math.pi)),
                min_size=2, max_size=40))
def test_conjugate_symmetry_property(rows):
    coeffs = np.array([m * cmath.exp(1j * p) for m, p in rows])
    grid = np.linspace(-math.pi / 2, math.pi / 2, 181)
    fwd = w.array_factor(_profile_from(coeffs), _request(grid))
    rev = w.array_factor(_profile_from(np.conj(coeffs)), _request(grid))
    assert np.allclose(rev.magnitude, fwd.magnitude[::-1], atol=1e-12)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(-math.pi, math.pi)),
                min_size=2, max_size=40),
       st.floats(-math.pi, math.pi))
def test_global_phase_invariance_property(rows, phi):
    coeffs = np.array([m * cmath.exp(1j * p) for m, p in rows])
    grid = np.linspace(-math.pi / 2, math.pi / 2, 181)
    base = w.array_factor(_profile_from(coeffs), _request(grid))
    spun = w.array_factor(_profile_from(coeffs * cmath.exp(1j * phi)), _request(grid))
    assert np.allclose(spun.magnitude, base.magnitude, atol=1e-12)
