"""Line physics: dispersion, resonance, envelopes, amplitudes.

Expected numbers were computed independently with 30-digit arithmetic
from the closed-form expressions and frozen here before the module
was written.
"""

import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import wavectl as w
from wavectl.btl import _ac_coefficients, _ac_sum, _envelope_peaks, _mode_phasors
from wavectl.errors import InputError

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


def test_element_count_bound(design):
    assert len(replace(design, element_count=2**12).tap_positions()) == 2**12
    for count in (2**12 + 1, 10**9, 10**400):
        with pytest.raises(InputError, match="^element_count is too large: at most 4096 taps$"):
            replace(design, element_count=count)


def test_mode_index_bound(design):
    exc = w.Excitation(4.0, modes=(w.Mode(1, 2.0), w.Mode(2**10, 1.0)),
                       fundamental_frequency=1.0e6)
    assert np.isfinite(w.rectified_bias(design, exc)).all()
    for index in (2**10 + 1, 10**8, 10**400):
        with pytest.raises(InputError, match="^mode_index is too large: at most 1024$"):
            w.Mode(index, 1.0)


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
    phasors = _mode_phasors(design, exc, -design.left_extension)
    for t in (0.0, 1.3e-7, 5.5e-7):
        tau = 2.0 * math.pi * exc.fundamental_frequency * t
        assert (phasors * np.exp(1j * np.array([1, 3]) * tau)).sum().real \
            == pytest.approx(0.0, abs=1e-12)


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
    assert np.allclose(bias, expected, atol=1e-12)


@pytest.mark.parametrize("termination", ["short", "open", "matched"])
def test_no_modes_leave_every_tap_at_the_dc_offset(bundle, tmp_path, termination):
    # through the library, and through a loaded config that omits modes
    design = replace(bundle.design, termination=w.Termination(termination))
    bias = w.rectified_bias(design, w.Excitation(dc_offset=4.0))
    assert np.array_equal(bias, np.full(design.element_count, 4.0))
    doc = bundle.to_dict()
    doc["design"]["termination"] = termination
    del doc["excitation"]["modes"]
    path = tmp_path / "no-modes.json"
    path.write_text(json.dumps(doc))
    config = w.load_config(path)
    assert config.excitation.modes == ()
    bias = w.rectified_bias(config.design, config.excitation)
    dc_offset = doc["excitation"]["dc_offset"]
    assert np.array_equal(bias, np.full(design.element_count, dc_offset))


def test_multi_tone_bias_against_dense_scan(design):
    exc = w.Excitation(
        dc_offset=3.0,
        modes=(w.Mode(1, 4.0, 0.3), w.Mode(2, 2.5, -1.1), w.Mode(5, 1.5, 2.0)),
        fundamental_frequency=6.2e6)
    bias = w.rectified_bias(design, exc)
    ref = _brute_force_bias(design, exc)
    # the dense scan undersamples the true peak, so it sits slightly low
    assert np.all(bias >= ref - 1e-12)
    assert np.abs(bias - ref).max() < 1e-3


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
    bias = w.rectified_bias(design, exc)
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
    bias = w.rectified_bias(base, exc)
    assert np.allclose(bias, 2.0 + amp, atol=1e-9)
    stretched = replace(base, right_extension=0.01 + extra)
    assert np.allclose(w.rectified_bias(stretched, exc), bias, atol=1e-9)


@settings(max_examples=100, deadline=None)
@given(st.floats(1e5, F0_EXACT))
def test_short_bias_monotone_below_resonance_property(fb):
    design = w.BtlDesign(element_count=27, spacing=0.02, left_extension=0.01,
                         right_extension=0.01, slowness=19.342461593935346,
                         characteristic_impedance=19.23)
    exc = w.Excitation(dc_offset=4.0, modes=(w.Mode(1, 5.0),), fundamental_frequency=fb)
    bias = w.rectified_bias(design, exc)
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
    bias = w.rectified_bias(design, exc)
    # the exact peak is at least every sample of the period ...
    assert np.all(bias >= _dense_grid_bias(design, exc) - 1e-12)
    # ... and at most the mode-amplitude budget, up to rounding
    assert np.all(bias <= w0 + sum(m.amplitude for m in exc.modes) + 1e-12)


@pytest.mark.parametrize("termination", _TERMINATIONS)
@pytest.mark.parametrize("left_extension", [0.0, 0.01])
def test_multi_tone_peak_degenerate_inputs(design, termination, left_extension):
    d = replace(design, termination=termination, left_extension=left_extension)

    def bias(*modes):
        exc = w.Excitation(dc_offset=1.5, modes=tuple(w.Mode(*m) for m in modes),
                           fundamental_frequency=5.3e6)
        return w.rectified_bias(d, exc)

    single = bias((1, 3.0, 0.4))
    assert np.all(bias((1, 0.0), (2, 0.0)) == 1.5)  # all-zero amplitudes
    # a zero or subnormal top mode leaves the single tone's peak
    assert np.allclose(bias((1, 3.0, 0.4), (5, 0.0)), single, rtol=0, atol=1e-13)
    assert np.allclose(bias((1, 3.0, 0.4), (12, 1e-310)), single, rtol=0, atol=1e-13)
    assert np.all(bias((2, 1e-310), (7, 1e-310, 1.0)) == 1.5)  # only subnormal modes
    exc = w.Excitation(dc_offset=1.5, fundamental_frequency=5.3e6,
                       modes=(w.Mode(3, 1.0), w.Mode(6, 1.0), w.Mode(9, 1.0)))
    harmonics = w.rectified_bias(d, exc)  # equal-amplitude harmonics
    dense = _dense_grid_bias(d, exc)
    assert np.all(harmonics >= dense - 1e-12)
    assert np.abs(harmonics - dense).max() < 1e-6
    if termination is w.Termination.SHORT and left_extension == 0.0:
        # the first tap sits on the short, where every coefficient is 0
        assert harmonics[0] == 1.5


def _assert_exact_peaks(indices, coeff, peak):
    """_envelope_peaks of taps whose ac sums have coefficients coeff (taps, N)
    at the mode indices given is each tap's exact peak, within 1e-14 of
    its amplitude budget."""
    exc = w.Excitation(dc_offset=0.0, modes=tuple(w.Mode(n, 1.0) for n in indices))
    found = _envelope_peaks(coeff, exc)
    assert np.all(np.abs(found - peak) <= 1e-14 * np.abs(coeff).sum(axis=-1))


def _off_sample_phases(n_max):
    """Peak phases between the detector's 8*n_max samples, and near them."""
    h = 2.0 * math.pi / (8 * n_max)
    k = np.arange(8 * n_max)
    return np.concatenate((k + 0.5, k + 0.37, [1e-9, 0.999, 8 * n_max - 1e-7])) * h


def test_envelope_peak_at_flat_top_quartic_maxima():
    # s = cos(x) - cos(2x)/4 with x = tau - phi is 0.75 - x**4/8 + ..., so
    # s'' = 0 at the peak and Newton converges only linearly there
    phi = _off_sample_phases(2)
    coeff = np.stack((np.exp(-1j * phi), -0.25 * np.exp(-2j * phi)), axis=-1)
    _assert_exact_peaks((1, 2), coeff, 0.75)


def test_envelope_peak_of_the_narrow_dirichlet_spike():
    # s = sum_n cos(n*(tau - phi)) for n = 1..12 peaks at 12 in a main lobe
    # 4*pi/25 wide, under eight of the detector's samples
    indices = np.arange(1, 13)
    phi = _off_sample_phases(12)
    _assert_exact_peaks(indices, np.exp(-1j * np.multiply.outer(phi, indices)), 12.0)


def test_envelope_peak_of_twin_equal_maxima():
    # even harmonics only: s(tau + pi) = s(tau), so each peak has a twin
    phi = _off_sample_phases(6)
    sharp = np.stack((np.exp(-2j * phi), 0.5 * np.exp(-6j * phi)), axis=-1)
    _assert_exact_peaks((2, 6), sharp, 1.5)  # cos(2x) + cos(6x)/2
    phi = _off_sample_phases(4)
    flat = np.stack((np.exp(-2j * phi), -0.25 * np.exp(-4j * phi)), axis=-1)
    _assert_exact_peaks((2, 4), flat, 0.75)  # the quartic flat top, twice


def _scaled_coefficients(phasors, exc):
    """Coefficients, indices and each tap's coefficients scaled by a power
    of two with terms below 1e-15 of the largest zeroed, as the detector
    scales them."""
    coeff, indices = _ac_coefficients(phasors, exc)
    mag = np.abs(coeff)
    top = mag.max(axis=-1, initial=0.0, keepdims=True)
    scaled = np.ldexp(coeff.view(float), -np.frexp(top)[1]).view(complex)
    scaled[mag < 1e-15 * top] = 0.0
    return coeff, indices, scaled


def _roots_reference_candidates(indices, scaled):
    """Candidate phases of the detector the batched real companion solve
    replaced: one complex np.roots call per tap on z**n_max * ds/dtau,
    a polynomial in z = exp(j*tau), plus tau = 0."""
    n_max = int(indices.max(initial=0))
    poly = np.zeros((len(scaled), 2 * n_max + 1), dtype=complex)
    poly[:, n_max - indices] = 1j * indices * scaled
    poly[:, n_max + indices] = -1j * indices * np.conj(scaled)
    tau = np.zeros(poly.shape)
    for m, row in enumerate(poly):
        roots = np.roots(row)
        tau[m, :roots.size] = np.angle(roots)
    return tau


def _reference_peaks(phasors, exc, newton_steps=4):
    """Peaks of the np.roots detector, raw and Newton-polished.

    The raw peak is that detector's output bit for bit.  Its
    z-polynomial keeps terms just above the 1e-15 cut-off, so its lead
    can be near 1e-15 of the others and its roots off by 1e-5 rad.  The
    polished peak also takes Newton steps on ds/dtau = 0 from every
    candidate, kept within one period so that every mode sees the same
    phase; each step lands on a value s attains, so polishing can only
    move the peak up towards the true one.
    """
    coeff, indices, scaled = _scaled_coefficients(phasors, exc)
    tau = _roots_reference_candidates(indices, scaled)
    raw = _ac_sum(coeff, indices, tau)
    for _ in range(newton_steps):
        with np.errstate(divide="ignore", invalid="ignore"):
            step = (_ac_sum(1j * indices * scaled, indices, tau)
                    / _ac_sum(-(indices**2) * scaled, indices, tau))
        tau = np.mod(tau - np.where(np.isfinite(step), step, 0.0), 2.0 * math.pi)
    polished = np.maximum(raw, _ac_sum(coeff, indices, tau))
    return raw.max(axis=-1), polished.max(axis=-1)


_SUBNORMAL_STEP = math.ulp(0.0)  # float spacing below 2**-1022, where no relative bound holds


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(_TERMINATIONS),
    st.sampled_from((27, 60)),
    st.lists(st.tuples(st.integers(1, 12),
                       st.one_of(st.just(0.0), st.floats(5e-324, 2.2e-308), st.floats(0.0, 8.0)),
                       st.one_of(st.sampled_from((0.0, math.pi / 2, -math.pi / 2, math.pi)),
                                 st.floats(-3.14, 3.14))),
             min_size=2, max_size=5, unique_by=lambda t: t[0]),
    st.floats(1e5, 2e7),
)
@example(w.Termination.SHORT, 60, [(1, 0.0, 0.0), (4, 1.0, 2.85e-109)], 1628274.0)
# terms of 2.2e-16 V leave the np.roots reference 1.6e-14 of the budget low until polished
@example(w.Termination.SHORT, 60, [(9, 2.220446049250313e-16, -0.65), (12, 2.220446049250313e-16, -0.91),
                                   (8, 1.6256954330547733, -0.65), (4, 4.702388317007018, -0.65)],
         8290208.494322345)
def test_multi_tone_peaks_against_roots_reference_property(termination, count, mode_rows, fb):
    design = w.BtlDesign(element_count=count, spacing=0.02, left_extension=0.01,
                         right_extension=0.01, slowness=19.34,
                         characteristic_impedance=19.23, termination=termination)
    exc = w.Excitation(dc_offset=0.0, modes=tuple(w.Mode(*row) for row in mode_rows),
                       fundamental_frequency=fb)
    phasors = _mode_phasors(design, exc, design.tap_positions())
    peaks = _envelope_peaks(phasors, exc)
    raw, polished = _reference_peaks(phasors, exc)
    tol = 1e-14 * sum(m.amplitude for m in exc.modes) + 4 * _SUBNORMAL_STEP
    # never below a peak the per-tap np.roots detector found ...
    assert np.all(peaks >= raw - tol)
    # ... and equal to its peaks once each is polished onto its critical point
    assert np.all(np.abs(peaks - polished) <= tol)


def _stacked_bias_profile(design):
    """The reflection of two biases stacked as one (2, M) array."""
    config = w.load_bundled_config()
    bias = w.rectified_bias(design, config.excitation)
    return w.reflection_profile(config.cell, config.varactors, np.stack([bias, bias]),
                                config.carrier_frequency)


@pytest.mark.parametrize("build, fragment", [
    (lambda d, m: replace(d, element_count=27.0), "element_count must be an integer"),
    (lambda d, m: replace(d, termination="short"), "termination must be a Termination value"),
    (lambda d, m: replace(d, element_count=3, spacing=1e308), "overflows"),
    (lambda d, m: replace(d, element_count=1, left_extension=0.0, right_extension=0.0),
     "total line length must be strictly positive"),
    (lambda d, m: w.Mode(1.0, 1.0), "mode_index must be an integer"),
    (lambda d, m: w.Excitation(4.0, fundamental_frequency=0.0),
     "fundamental_frequency must be positive"),
    # the bias is one voltage per element, so a stack of biases is no profile
    (lambda d, m: _stacked_bias_profile(d), "bias must be a scalar or a 1-d array"),
    (lambda d, m: w.rectified_bias(d, w.Excitation(
        1.7976931348623157e308, modes=(w.Mode(1, 1e308),), fundamental_frequency=7.18e6)),
     "the bias of a 1.7976931348623157e+308 V dc offset plus modes of [1e+308] V at a "
     "7180000.0 Hz drive is not finite"),
    (lambda d, m: w.slowness_factor(m, 0.0), "d_x must be positive"),
], ids=["float_count", "str_termination", "overflowing_length", "zero_length",
        "float_mode_index", "zero_frequency", "unequal_bias_shapes", "inf_bias",
        "zero_pitch"])
def test_btl_typed_errors(design, microstrip, build, fragment):
    with pytest.raises(InputError) as info:
        build(design, microstrip)
    assert fragment in str(info.value)
