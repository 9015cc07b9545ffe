"""Array-factor synthesis and pattern metrics.

The half-power beamwidth oracle comes from bisecting the closed-form
uniform-array factor sin(M u/2)/(M sin(u/2)), derived in-test, so the
sampled-grid implementation is checked against an independent root.
"""

import cmath
import math
from operator import attrgetter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import wavectl as w
from wavectl import radiation
from wavectl.cli import _DB_FLOOR, _db_from_linear, _metrics_doc
from wavectl.errors import InputError

F_C = 2.45e9
D_X = 0.02
# a pattern's five metric fields
_metrics = attrgetter("peak_angle", "peak_value", "specular_value", "highest_sidelobe",
                      "half_power_beamwidth")


def _linear_ramp(theta_p, count):
    """Unit coefficients whose phase falls by k*d*sin(theta_p) per element."""
    step = 2.0 * math.pi * F_C / w.C0 * D_X * math.sin(theta_p)
    return np.exp(-1j * step * np.arange(count))


def _pattern(coeffs, grid=None):
    if grid is None:
        grid = w.default_theta_grid()
    return w.array_factor(coeffs, D_X, F_C, grid)


def test_default_theta_grid_shape():
    grid = w.default_theta_grid()
    assert grid.shape == (3601,)
    assert grid[0] == pytest.approx(-math.pi / 2)
    assert grid[-1] == pytest.approx(math.pi / 2)
    assert np.any(grid == 0.0)  # exact zero so specular needs no interpolation
    assert np.all(np.diff(grid) > 0)


def test_request_validation():
    with pytest.raises(InputError):
        _pattern(np.ones(2), np.array([0.3, 0.2, 0.4]))
    with pytest.raises(InputError):
        _pattern(np.ones(2), np.array([0.0]))
    with pytest.raises(InputError):
        _pattern(np.ones(2), np.array([-2.0, 0.0, 2.0]))
    with pytest.raises(InputError):
        w.array_factor(np.ones(2), D_X, 0.0, np.array([0.0, 0.1]))


@pytest.mark.parametrize("carrier, spacing", [(math.inf, D_X), (1e308, D_X), (2.45e9, math.inf)])
def test_request_refuses_a_phase_step_out_of_float_range(carrier, spacing):
    # k*d would be inf and every pattern value NaN
    with pytest.raises(InputError, match="phase step"):
        w.array_factor(np.ones(2), spacing, carrier, np.array([0.0, 0.1]))


@pytest.mark.parametrize("count, spacing, refused", [(27, 1e306, True), (27, 1e300, False),
                                                     (1, 1e306, False)])
def test_array_factor_refuses_a_phase_span_out_of_float_range(count, spacing, refused):
    # k*d is finite at both spacings; (M - 1)*k*d overflows only at 1e306 with 27 elements
    grid = np.array([0.0, 0.1])
    if refused:
        with pytest.raises(InputError, match=r"\(M - 1\)\*k\*d across 27 elements"):
            w.array_factor(np.ones(count), spacing, F_C, grid)
    else:
        pattern = w.array_factor(np.ones(count), spacing, F_C, grid)
        assert np.isfinite(pattern.magnitude).all()


def test_a_list_int_or_float32_grid_gives_the_float_grid_pattern(monkeypatch):
    coeffs = np.exp(-0.3j * np.arange(27))
    want = _pattern(coeffs, np.array([-1.0, 0.0, 1.0]))
    for grid in ([-1, 0, 1], np.array([-1, 0, 1])):
        for cached in (True, False):
            if not cached:
                monkeypatch.setattr(radiation, "_rows_cache", None)
            got = _pattern(coeffs, grid)
            assert got.theta.dtype == np.float64
            assert got.theta.tobytes() == want.theta.tobytes()
            assert got.magnitude.tobytes() == want.magnitude.tobytes()
            assert _metrics(got) == _metrics(want)
    # converted before _steering_rows keys its cache on the grid's bytes: these
    # four float32 angles have the bytes of a valid 2-angle float64 grid
    narrow = np.array([-0.5, 0.25, 0.5, 1.0], dtype=np.float32)
    want = _pattern(coeffs, narrow.astype(float))
    _pattern(coeffs, narrow.view(float))
    assert _pattern(coeffs, narrow).magnitude.tobytes() == want.magnitude.tobytes()


def test_pattern_theta_does_not_share_the_callers_grid():
    grid = w.default_theta_grid()
    pattern = _pattern(np.ones(27), grid)
    assert not np.shares_memory(pattern.theta, grid)
    grid[0] = 0.0
    assert pattern.theta[0] == -math.pi / 2


def test_uniform_profile_peaks_at_specular():
    m = _pattern(np.ones(27))
    assert m.peak_angle == pytest.approx(0.0, abs=1e-9)
    assert m.peak_value == pytest.approx(1.0, rel=1e-12)
    assert m.specular_value == pytest.approx(1.0, rel=1e-12)
    assert _metrics_doc(m)["specular_omitted"] is False


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

    pattern = _pattern(np.ones(m_count))
    got = pattern.half_power_beamwidth
    assert got == pytest.approx(expected, rel=2e-3)


def test_uniform_first_sidelobe_level():
    pattern = _pattern(np.ones(27))
    sll = pattern.highest_sidelobe
    # independent scan of the closed form over the visible span
    k = 2.0 * math.pi * F_C / w.C0
    u = np.linspace(2.0 * math.pi / 27, k * D_X, 20000)
    expected = max(_uniform_factor(x, 27) for x in u)
    assert sll == pytest.approx(expected, rel=1e-3)


def test_gradient_steers_the_peak():
    theta_p = math.radians(20.0)
    pattern = _pattern(_linear_ramp(theta_p, 27))
    assert pattern.peak_angle == pytest.approx(theta_p, abs=math.radians(0.05))
    assert pattern.peak_value == pytest.approx(1.0, rel=1e-9)
    assert pattern.specular_value < pattern.peak_value


def test_specular_omitted_off_grid():
    grid = np.linspace(math.radians(10.0), math.radians(30.0), 201)
    pattern = _pattern(np.ones(27), grid)
    assert pattern.specular_value is None
    d = _metrics_doc(pattern)
    assert d["specular_omitted"] is True
    assert "specular_linear" not in d


def test_metrics_to_dict_keys():
    pattern = _pattern(np.ones(27))
    d = _metrics_doc(pattern)
    for key in ("peak_angle_deg", "peak_value_linear", "peak_value_db",
                "specular_omitted", "specular_linear", "specular_db",
                "highest_sidelobe_linear", "highest_sidelobe_db",
                "half_power_beamwidth_deg"):
        assert key in d, key


def test_pattern_csv_rows_floor():
    pattern = _pattern(np.zeros(4))
    theta_deg, magnitude_db = np.rad2deg(pattern.theta), _db_from_linear(pattern.magnitude)
    assert len(theta_deg) == len(magnitude_db) == 3601
    assert np.all(magnitude_db == _DB_FLOOR)
    assert theta_deg[0] == pytest.approx(-90.0)


def test_peak_refinement_beats_grid_resolution():
    # steer between grid points; the refined peak should land closer
    # than half a grid step
    theta_p = math.radians(20.013)
    pattern = _pattern(_linear_ramp(theta_p, 27))
    err = abs(pattern.peak_angle - theta_p)
    assert err < math.radians(0.015)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(-math.pi, math.pi)),
                min_size=2, max_size=40))
def test_conjugate_symmetry_property(rows):
    coeffs = np.array([m * cmath.exp(1j * p) for m, p in rows])
    grid = np.linspace(-math.pi / 2, math.pi / 2, 181)
    fwd = _pattern(coeffs, grid)
    rev = _pattern(np.conj(coeffs), grid)
    assert np.allclose(rev.magnitude, fwd.magnitude[::-1], atol=1e-12)


@pytest.mark.parametrize("coeffs, fragment", [
    # a NaN or inf coefficient would make every |F| NaN, with the peak at -90 degrees
    ([math.nan, 1.0], "coefficients must be finite"),
    ([math.inf, 1.0], "coefficients must be finite"),
    ([complex(0.0, -math.inf), 1.0], "coefficients must be finite"),
    (np.zeros(0), "coefficients must be a nonempty 1-d array"),
    (1.0, "coefficients must be a nonempty 1-d array"),
], ids=["nan", "inf", "inf_imag", "empty", "scalar"])
def test_array_factor_refuses_coefficients_it_cannot_sum(coeffs, fragment):
    with pytest.raises(InputError, match=fragment):
        _pattern(coeffs)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(-math.pi, math.pi)),
                min_size=2, max_size=40),
       st.floats(-math.pi, math.pi))
def test_global_phase_invariance_property(rows, phi):
    coeffs = np.array([m * cmath.exp(1j * p) for m, p in rows])
    grid = np.linspace(-math.pi / 2, math.pi / 2, 181)
    base = _pattern(coeffs, grid)
    spun = _pattern(coeffs * cmath.exp(1j * phi), grid)
    assert np.allclose(spun.magnitude, base.magnitude, atol=1e-12)


@pytest.mark.parametrize("build, fragment", [
    (lambda: w.array_factor(np.ones(2), 0.0, F_C, w.default_theta_grid()),
     "element_spacing must be positive"),
    (lambda: w.RadiationPattern(theta=np.zeros(3), magnitude=np.zeros(2), peak_angle=0.0,
                                peak_value=1.0, specular_value=None, highest_sidelobe=None,
                                half_power_beamwidth=None),
     "theta and magnitude must be 1-d arrays of equal length"),
], ids=["zero_spacing", "unequal_pattern_shapes"])
def test_radiation_typed_errors(build, fragment):
    with pytest.raises(InputError) as info:
        build()
    assert fragment in str(info.value)


def _vectorized_factor(coeffs, carrier, grid):
    """The pattern field as one (M, T) product summed over its rows, for reference."""
    kd = 2.0 * math.pi * carrier / w.C0 * D_X
    phases = np.multiply.outer(np.arange(len(coeffs)), kd * np.sin(grid))
    return np.abs((coeffs[:, None] * np.exp(1j * phases)).sum(axis=0) / len(coeffs))


def test_reused_rows_give_the_bits_of_a_cold_build(monkeypatch):
    # (M, carrier, grid, rows the cache holds afterwards): a hit on fewer
    # rows, growth, and replacement by another k*d or another grid
    grids = {"default": w.default_theta_grid(), "2": np.array([-0.4, 0.3]),
             "777": np.linspace(-1.3, 1.1, 777), "777 shifted": np.linspace(-1.2, 1.2, 777)}
    sequence = [(27, F_C, "default", 27), (60, F_C, "default", 60), (27, F_C, "default", 60),
                (27, 2.2e9, "default", 27), (1, 2.2e9, "default", 27), (1, F_C, "default", 1),
                (60, F_C, "2", 60), (200, F_C, "default", 200), (27, F_C, "777", 27),
                (27, F_C, "777 shifted", 27),
                (60, F_C, "default", 60), (27, F_C, "default", 60), (1, F_C, "default", 60)]
    rng = np.random.default_rng(20)
    monkeypatch.setattr(radiation, "_rows_cache", None)
    for count, carrier, grid, cached_rows in sequence:
        coeffs = rng.normal(size=count) + 1j * rng.normal(size=count)
        warm = w.array_factor(coeffs, D_X, carrier, grids[grid]).magnitude
        kept = radiation._rows_cache
        assert len(kept[1]) == cached_rows
        radiation._rows_cache = None
        cold = w.array_factor(coeffs, D_X, carrier, grids[grid]).magnitude
        radiation._rows_cache = kept
        assert warm.tobytes() == cold.tobytes()
        assert cold.tobytes() == _vectorized_factor(coeffs, carrier, grids[grid]).tobytes()


def test_cached_rows_are_read_only(monkeypatch):
    monkeypatch.setattr(radiation, "_rows_cache", None)
    _pattern(np.ones(27))
    rows = radiation._rows_cache[1]
    leading = radiation._steering_rows(5, D_X, F_C, w.default_theta_grid())
    assert np.shares_memory(leading, rows)
    for view in (rows, leading):
        assert not view.flags.writeable
        with pytest.raises(ValueError):
            view[0, 0] = 0.0


def test_a_phase_span_out_of_float_range_leaves_the_rows_alone(monkeypatch):
    messages = []
    monkeypatch.setattr(radiation, "_rows_cache", None)
    for warm_up in (False, True):
        if warm_up:
            _pattern(np.ones(60))
        before = radiation._rows_cache
        with pytest.raises(InputError) as info:
            w.array_factor(np.ones(27), 1e306, F_C, w.default_theta_grid())
        assert radiation._rows_cache is before
        messages.append(str(info.value))
    assert messages[0] == messages[1]
    assert "(M - 1)*k*d across 27 elements" in messages[0]
