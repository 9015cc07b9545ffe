"""Line physics: dispersion, resonance, envelopes, amplitudes.

Expected numbers were computed independently with 30-digit arithmetic
from the closed-form expressions and frozen here before the module
was written.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import wavectl as w
from wavectl.btl import _mode_phasors
from wavectl.errors import InputError
from wavectl.numutil import is_at_infinity

F0_EXACT = 7175550.224338915  # c/(4*n_slow*L_tot) for the bundled design


def test_effective_permittivity_frozen_values(microstrip):
    generic = w.MicrostripSpec(relative_permittivity=4.4,
                               substrate_thickness=1.6e-3,
                               trace_width=3.0e-3,
                               path_length_per_cell=0.1)
    assert w.effective_permittivity(generic) == pytest.approx(
        3.3249324287797366, rel=1e-14)
    assert w.effective_permittivity(microstrip) == pytest.approx(
        8.664840086488961, rel=1e-14)


def test_slowness_factor_frozen(microstrip, design):
    n_slow = w.slowness_factor(microstrip, design.spacing)
    assert n_slow == pytest.approx(19.342461593935346, rel=1e-14)
    # the meander multiplies the effective index by path length per cell
    assert n_slow == pytest.approx(
        (microstrip.path_length_per_cell / design.spacing)
        * math.sqrt(w.effective_permittivity(microstrip)))


def test_fundamental_frequency_frozen(design):
    assert design.total_length == pytest.approx(0.54)
    assert w.fundamental_frequency(design) == pytest.approx(F0_EXACT, rel=1e-12)


def test_design_validation():
    with pytest.raises(InputError):
        w.BtlDesign(element_count=0, spacing=0.02, left_extension=0.01,
                    right_extension=0.01, slowness=19.34,
                    characteristic_impedance=19.23)
    with pytest.raises(InputError):
        w.BtlDesign(element_count=27, spacing=-1.0, left_extension=0.01,
                    right_extension=0.01, slowness=19.34,
                    characteristic_impedance=19.23)
    with pytest.raises(InputError):
        w.BtlDesign(element_count=27, spacing=0.02, left_extension=0.01,
                    right_extension=0.01, slowness=0.5,
                    characteristic_impedance=19.23)


def test_tap_positions(design):
    x = design.tap_positions()
    assert x.shape == (27,)
    assert x[0] == 0.0
    assert x[-1] == pytest.approx(0.52)


def test_mode_validation():
    with pytest.raises(InputError):
        w.Mode(0, 1.0)
    with pytest.raises(InputError):
        w.Mode(1, -1.0)
    with pytest.raises(InputError):
        w.Excitation(dc_offset=4.0, modes=(w.Mode(1, 1.0), w.Mode(1, 2.0)))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_drive_rejected(bad):
    with pytest.raises(InputError):
        w.Mode(1, bad)
    with pytest.raises(InputError):
        w.Mode(1, 1.0, bad)
    for name in ("dc_offset", "fundamental_frequency", "generator_voltage",
                 "generator_impedance"):
        fields = dict(dc_offset=4.0, modes=(w.Mode(1, 1.0),))
        fields[name] = bad
        with pytest.raises(InputError, match=name):
            w.Excitation(**fields)


def test_input_impedance_quarter_wave(design):
    # halfway to resonance the tangent is 1: Z = +j*Z0 for both reflective ends
    z_short = w.input_impedance(design, F0_EXACT / 2.0)
    assert z_short == pytest.approx(1j * 19.23, abs=1e-9)
    z_open = w.input_impedance(replace(design, termination=w.Termination.OPEN),
                               F0_EXACT / 2.0)
    assert z_open == pytest.approx(1j * 19.23, abs=1e-9)


def test_input_impedance_poles_and_zeros(design):
    assert is_at_infinity(w.input_impedance(design, F0_EXACT))
    z_open = w.input_impedance(replace(design, termination=w.Termination.OPEN), F0_EXACT)
    assert abs(z_open) < 1e-6
    matched = replace(design, termination=w.Termination.MATCHED)
    for f in (1e5, F0_EXACT, 3e7):
        assert w.input_impedance(matched, f) == pytest.approx(19.23)


def test_amplitude_odd_even_multiples(design):
    exc = w.Excitation(dc_offset=4.0, modes=(w.Mode(1, 1.0),),
                       generator_voltage=10.0, generator_impedance=50.0)
    assert w.standing_wave_amplitude(design, exc, F0_EXACT) == pytest.approx(10.0, rel=1e-12)
    assert w.standing_wave_amplitude(design, exc, 2 * F0_EXACT) == pytest.approx(
        19.23 / 50.0 * 10.0, rel=1e-12)
    # the open line mirrors the pattern: maxima at even multiples
    open_design = replace(design, termination=w.Termination.OPEN)
    assert w.standing_wave_amplitude(open_design, exc, F0_EXACT) == pytest.approx(
        19.23 / 50.0 * 10.0, rel=1e-12)
    assert w.standing_wave_amplitude(open_design, exc, 2 * F0_EXACT) == pytest.approx(
        10.0, rel=1e-12)


def test_amplitude_matched_is_flat_in_frequency(design):
    matched = replace(design, termination=w.Termination.MATCHED)
    exc = w.Excitation(dc_offset=4.0, modes=(w.Mode(1, 1.0),), generator_voltage=7.5)
    for f in (1e5, 3.3e6, F0_EXACT, 2.6e7):
        assert w.standing_wave_amplitude(matched, exc, f) == pytest.approx(7.5, rel=1e-12)


def test_standing_wave_vanishes_at_short(design):
    exc = w.Excitation(dc_offset=0.0, modes=(w.Mode(1, 5.0), w.Mode(3, 2.0)),
                       fundamental_frequency=4e6)
    for t in (0.0, 1.3e-7, 5.5e-7):
        assert w.standing_wave_voltage(design, exc, -design.left_extension, t) \
            == pytest.approx(0.0, abs=1e-12)


def test_standing_wave_position_range(design):
    exc = w.Excitation(dc_offset=0.0, modes=(w.Mode(1, 5.0),), fundamental_frequency=4e6)
    with pytest.raises(InputError):
        w.standing_wave_voltage(design, exc, -0.02, 0.0)
    with pytest.raises(InputError):
        w.standing_wave_voltage(design, exc, 0.54, 0.0)


def _brute_force_bias(design, exc, n_samples=65536):
    x = design.tap_positions()
    phasors = _mode_phasors(design, exc, x)
    phases = np.array([m.phase for m in exc.modes])
    idx = np.array([m.mode_index for m in exc.modes], dtype=float)
    coeff = phasors * np.exp(1j * phases)
    tau = np.linspace(0.0, 2.0 * math.pi, n_samples, endpoint=False)
    signal = (coeff @ np.exp(1j * np.outer(idx, tau))).real
    return exc.dc_offset + signal.max(axis=1)


def test_single_tone_bias_matches_closed_form(design):
    fb = 5.1e6
    exc = w.Excitation(dc_offset=4.0, modes=(w.Mode(1, 6.0),), fundamental_frequency=fb)
    bias = w.rectified_bias(design, exc)
    u = design.tap_positions() + design.left_extension
    expected = 4.0 + 6.0 * np.abs(np.sin(design.wavenumber(fb) * u))
    assert np.allclose(bias.voltages, expected, atol=1e-12)


def test_multi_tone_bias_against_dense_scan(design):
    exc = w.Excitation(
        dc_offset=3.0,
        modes=(w.Mode(1, 4.0, 0.3), w.Mode(2, 2.5, -1.1), w.Mode(5, 1.5, 2.0)),
        fundamental_frequency=6.2e6)
    bias = w.rectified_bias(design, exc)
    ref = _brute_force_bias(design, exc)
    # the dense scan undersamples the true peak, so it sits slightly low
    assert np.all(bias.voltages >= ref - 1e-12)
    assert np.abs(bias.voltages - ref).max() < 1e-3


def test_diode_drop_shifts_bias(design):
    fb = 5.1e6
    exc = w.Excitation(dc_offset=4.0, modes=(w.Mode(1, 6.0),), fundamental_frequency=fb)
    plain = w.rectified_bias(design, exc).voltages
    dropped = w.rectified_bias(design, exc, diode_drop=0.35).voltages
    assert np.allclose(plain - dropped, 0.35)


def test_attenuation_tilts_matched_envelope(design):
    matched = replace(design, termination=w.Termination.MATCHED)
    exc = w.Excitation(dc_offset=0.0, modes=(w.Mode(1, 5.0),), fundamental_frequency=4e6)
    flat = w.rectified_bias(matched, exc).voltages
    assert np.allclose(flat, flat[0])
    lossy = w.rectified_bias(matched, exc, attenuation=0.5).voltages
    # the wave travels right to left, so taps nearer the feed stay hotter
    assert np.all(np.diff(lossy) > 0)
    assert lossy.max() < 5.0 + 1e-12


def test_dc_current_estimate():
    assert w.dc_current_estimate(27, 4.0, 10e3) == pytest.approx(27 * 4.0 / 10e3)
    with pytest.raises(InputError):
        w.dc_current_estimate(27, 4.0, 0.0)


@settings(max_examples=100, deadline=None)
@given(
    st.integers(0, 2),
    st.lists(st.tuples(st.integers(1, 12), st.floats(0.0, 8.0), st.floats(-3.14, 3.14)),
             min_size=1, max_size=5, unique_by=lambda t: t[0]),
    st.floats(0.0, 6.0),
    st.floats(1e5, 2.5e7),
)
def test_bias_bounds_property(term_idx, mode_rows, w0, fb):
    terms = (w.Termination.SHORT, w.Termination.OPEN, w.Termination.MATCHED)
    design = w.BtlDesign(element_count=27, spacing=0.02, left_extension=0.01,
                         right_extension=0.01, slowness=19.34,
                         characteristic_impedance=19.23, termination=terms[term_idx])
    modes = tuple(w.Mode(i, a, p) for i, a, p in mode_rows)
    exc = w.Excitation(dc_offset=w0, modes=modes, fundamental_frequency=fb)
    bias = w.rectified_bias(design, exc).voltages
    total = w0 + sum(m.amplitude for m in modes)
    assert np.all(bias >= w0 - 1e-9)
    assert np.all(bias <= total + 1e-9)


@settings(max_examples=100, deadline=None)
@given(st.floats(1e5, 2.5e7), st.floats(0.0, 0.1), st.floats(0.5, 10.0))
def test_matched_flat_and_right_extension_invariant_property(fb, extra, amp):
    base = w.BtlDesign(element_count=27, spacing=0.02, left_extension=0.01,
                       right_extension=0.01, slowness=19.34,
                       characteristic_impedance=19.23,
                       termination=w.Termination.MATCHED)
    exc = w.Excitation(dc_offset=2.0, modes=(w.Mode(1, amp),), fundamental_frequency=fb)
    bias = w.rectified_bias(base, exc).voltages
    assert np.allclose(bias, 2.0 + amp, atol=1e-9)
    stretched = replace(base, right_extension=0.01 + extra)
    assert np.allclose(w.rectified_bias(stretched, exc).voltages, bias, atol=1e-9)


@settings(max_examples=100, deadline=None)
@given(st.floats(1e5, F0_EXACT))
def test_short_bias_monotone_below_resonance_property(fb):
    design = w.BtlDesign(element_count=27, spacing=0.02, left_extension=0.01,
                         right_extension=0.01, slowness=19.342461593935346,
                         characteristic_impedance=19.23)
    exc = w.Excitation(dc_offset=4.0, modes=(w.Mode(1, 5.0),), fundamental_frequency=fb)
    bias = w.rectified_bias(design, exc).voltages
    assert np.all(np.diff(bias) > -1e-12)


_TERMINATIONS = (w.Termination.SHORT, w.Termination.OPEN, w.Termination.MATCHED)


def _dense_grid_bias(design, exc, per_mode=4096):
    n_samples = per_mode * max(m.mode_index for m in exc.modes)
    return _brute_force_bias(design, exc, n_samples)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(_TERMINATIONS),
    st.sampled_from((27, 60)),
    st.lists(st.tuples(st.integers(1, 8), st.floats(0.0, 5.0), st.floats(-3.14, 3.14)),
             min_size=2, max_size=5, unique_by=lambda t: t[0]),
    st.floats(0.0, 5.0),
    st.floats(1e5, 2e7),
)
def test_multi_tone_peak_bounds_property(termination, count, mode_rows, w0, fb):
    design = w.BtlDesign(element_count=count, spacing=0.02, left_extension=0.01,
                         right_extension=0.01, slowness=19.34,
                         characteristic_impedance=19.23, termination=termination)
    exc = w.Excitation(dc_offset=w0, modes=tuple(w.Mode(*row) for row in mode_rows),
                       fundamental_frequency=fb)
    bias = w.rectified_bias(design, exc).voltages
    # the exact peak is at least every sample of the period ...
    assert np.all(bias >= _dense_grid_bias(design, exc) - 1e-12)
    # ... and at most the mode-amplitude budget, up to rounding
    assert np.all(bias <= w0 + exc.amplitude_sum + 1e-12)


@pytest.mark.parametrize("termination", _TERMINATIONS)
@pytest.mark.parametrize("left_extension", [0.0, 0.01])
def test_multi_tone_peak_degenerate_inputs(design, termination, left_extension):
    d = replace(design, termination=termination, left_extension=left_extension)

    def bias(*modes):
        exc = w.Excitation(dc_offset=1.5, modes=tuple(w.Mode(*m) for m in modes),
                           fundamental_frequency=5.3e6)
        return w.rectified_bias(d, exc).voltages

    single = bias((1, 3.0, 0.4))
    assert np.all(bias((1, 0.0), (2, 0.0)) == 1.5)  # all-zero amplitudes
    # a zero or subnormal top mode leaves the single tone's peak
    assert np.allclose(bias((1, 3.0, 0.4), (5, 0.0)), single, rtol=0, atol=1e-13)
    assert np.allclose(bias((1, 3.0, 0.4), (12, 1e-310)), single, rtol=0, atol=1e-13)
    assert np.all(bias((2, 1e-310), (7, 1e-310, 1.0)) == 1.5)  # only subnormal modes
    exc = w.Excitation(dc_offset=1.5, fundamental_frequency=5.3e6,
                       modes=(w.Mode(3, 1.0), w.Mode(6, 1.0), w.Mode(9, 1.0)))
    harmonics = w.rectified_bias(d, exc).voltages  # equal-amplitude harmonics
    dense = _dense_grid_bias(d, exc)
    assert np.all(harmonics >= dense - 1e-12)
    assert np.abs(harmonics - dense).max() < 1e-6
    if termination is w.Termination.SHORT and left_extension == 0.0:
        # the first tap sits on the short, where every coefficient is 0
        assert harmonics[0] == 1.5
