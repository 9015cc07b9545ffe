"""Acceptance checklist.

Every test here carries a ``criterion`` marker; the conftest reporter
turns them into one PASS/FAIL line per numbered item at the end of
the run.  Tolerances are asserted exactly as stated in the project
contract, so a red line means the behavior genuinely misses its
target, not that a bound needs tuning.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wavectl as w

C1 = "fundamental from the microstrip cross-section"
C2 = "effective permittivity and slowness"
C3 = "amplitude identities at resonance multiples"
C4 = "reflection span and dip"
C5 = "circuit fit round trip"
C6 = "multi-tone envelope vs dense scan"
C7 = "tabulated steering points"
C8 = "specular suppression scan"
C9 = "harmonic drive peak placement"
C10 = "ideal tapped line matches closed form"
C11 = "property suite"

# hypothesis forbids function-scoped fixtures inside @given, so the
# property tests share one module-level configuration instead
_BUNDLE = w.load_bundled_config()

F_C = 2.45e9
W0 = 4.0


@pytest.mark.criterion(1, C1)
def test_fundamental_frequency_from_cross_section(bundle):
    n_slow = w.slowness_factor(bundle.microstrip, bundle.design.spacing)
    # the bundled design resolves its slowness from the same cross-section
    assert n_slow == pytest.approx(bundle.design.slowness, rel=1e-12)
    f0 = w.fundamental_frequency(bundle.design)
    assert abs(f0 - 7.18e6) / 7.18e6 <= 0.005


@pytest.mark.criterion(2, C2)
def test_effective_permittivity_and_slowness(bundle):
    eps = w.effective_permittivity(bundle.microstrip)
    assert abs(eps - 8.66) <= 0.01
    n_slow = w.slowness_factor(bundle.microstrip, bundle.design.spacing)
    assert abs(n_slow - 19.34) <= 0.15


@pytest.mark.criterion(3, C3)
def test_amplitude_identities_at_resonance_multiples(bundle):
    design = bundle.design
    exc = bundle.excitation
    f0 = w.fundamental_frequency(design)
    vg = abs(exc.generator_voltage)
    z0 = design.characteristic_impedance
    zg = exc.generator_impedance

    # odd multiples of the quarter-wave resonance: the shorted line
    # transforms to an open at the feed and the amplitude is Vg itself
    for n in range(1, 202, 2):
        amp = w.standing_wave_amplitude(design, exc, n * f0)
        assert amp == pytest.approx(vg, rel=1e-9), f"odd multiple {n}"

    # even multiples: the short reappears at the feed and the divider
    # leaves Z0/Zg * Vg on the line
    for n in range(2, 201, 2):
        amp = w.standing_wave_amplitude(design, exc, n * f0)
        assert amp == pytest.approx(z0 / zg * vg, rel=1e-9), f"even multiple {n}"

    # a generator matched to the line sees |cos + j sin| = 1 at every
    # frequency, for either reactive termination
    matched_gen = replace(exc, generator_impedance=z0)
    open_design = replace(design, termination=w.Termination.OPEN)
    rng = np.random.default_rng(31)
    for f in rng.uniform(0.05e6, 40e6, 1000):
        for d in (design, open_design):
            amp = w.standing_wave_amplitude(d, matched_gen, float(f))
            assert amp == pytest.approx(vg, rel=1e-9), f"matched generator at {f} Hz"


@pytest.mark.criterion(4, C4)
def test_reflection_span_and_dip(bundle):
    lo, hi = bundle.varactors.bias_range
    volts = np.linspace(lo, hi, 2201)
    gamma = w.reflection_profile(bundle.cell, bundle.varactors, volts, F_C)
    phase_deg = np.degrees(np.unwrap(np.angle(gamma)))
    assert phase_deg[-1] - phase_deg[0] >= 270.0
    assert abs(phase_deg[0] - (-160.0)) <= 20.0
    assert abs(phase_deg[-1] - 140.0) <= 20.0
    mag_db = 20.0 * np.log10(np.abs(gamma))
    dip = int(np.argmin(mag_db))
    assert -3.5 <= mag_db[dip] <= -1.5
    assert 6.0 <= volts[dip] <= 8.0


@pytest.mark.criterion(5, C5)
def test_circuit_fit_round_trip():
    cell = w.CellCircuit(R_d=0.17, C_d=0.74e-12, L_d=1.64e-9, L_s=1.60e-9)
    samples = w.synthesize_samples(cell, np.linspace(1e9, 9e9, 4001))
    fitted = w.fit_circuit_model(samples, cell.L_s / w.MU0)
    assert fitted.L_s == pytest.approx(cell.L_s, rel=5e-3)
    assert fitted.R_d == pytest.approx(cell.R_d, rel=1e-2)
    assert fitted.C_d == pytest.approx(cell.C_d, rel=1e-2)
    assert fitted.L_d == pytest.approx(cell.L_d, rel=1e-2)


# cos and sin of the oracle's 1,000,000-point phase grid tau_k = 2 pi k / N;
# mode n at tau_k reads entry (n k) mod N, so no exp is evaluated per case
_DENSE_N = 1_000_000
_DENSE_TAU = 2.0 * math.pi * np.arange(_DENSE_N) / _DENSE_N
_DENSE_COS, _DENSE_SIN = np.cos(_DENSE_TAU), np.sin(_DENSE_TAU)


def _dense_scan_bias(design, exc, chunk=131072):
    """Oracle: sample one fundamental period of the line waveform.

    The spatial envelopes are written out from the closed forms (sin
    toward a shorted end, cos toward an open one, a traveling phase
    ramp from the feed for a matched one), so this shares nothing with
    the analytic peak detector it checks.
    """
    u = design.tap_positions() + design.left_extension
    d_feed = (design.length + design.right_extension) - design.tap_positions()
    coeff = np.zeros((len(u), len(exc.modes)), dtype=complex)
    indices = np.array([m.mode_index for m in exc.modes], dtype=np.int64)
    for j, mode in enumerate(exc.modes):
        k = 2.0 * math.pi * mode.mode_index * exc.fundamental_frequency * design.slowness / w.C0
        if design.termination is w.Termination.SHORT:
            envelope = mode.amplitude * np.sin(k * u)
        elif design.termination is w.Termination.OPEN:
            envelope = mode.amplitude * np.cos(k * u)
        else:
            envelope = mode.amplitude * np.exp(-1j * k * d_feed)
        coeff[:, j] = envelope * np.exp(1j * mode.phase)
    # Re(c e^{j n tau}) = Re c cos(n tau) - Im c sin(n tau)
    weights = np.hstack((coeff.real, -coeff.imag))
    best = np.full(len(u), -np.inf)
    for start in range(0, _DENSE_N, chunk):
        rows = np.multiply.outer(indices, np.arange(start, min(start + chunk, _DENSE_N))) % _DENSE_N
        basis = np.vstack((_DENSE_COS[rows], _DENSE_SIN[rows]))
        np.maximum(best, (weights @ basis).max(axis=1), out=best)
    return exc.dc_offset + best


def _random_excitation(rng, n_modes):
    indices = np.sort(rng.choice(np.arange(1, 13), size=n_modes, replace=False))
    modes = tuple(
        w.Mode(int(n), float(rng.uniform(0.5, 5.0)), float(rng.uniform(-3.1, 3.1)))
        for n in indices)
    return w.Excitation(
        dc_offset=float(rng.uniform(0.0, 5.0)),
        modes=modes,
        fundamental_frequency=float(rng.uniform(1e6, 20e6)))


@pytest.mark.criterion(6, C6)
def test_multitone_envelope_against_dense_scan(design):
    rng = np.random.default_rng(2024)
    cycle = (w.Termination.SHORT, w.Termination.OPEN, w.Termination.MATCHED)
    for case in range(100):
        exc = _random_excitation(rng, int(rng.integers(1, 9)))
        d = replace(design, termination=cycle[case % 3])
        bias = w.rectified_bias(d, exc)
        ref = _dense_scan_bias(d, exc)
        worst = np.abs(bias - ref).max()
        assert worst <= 1e-4, f"case {case}: {worst} V from the dense scan"
    for case in range(10):
        exc = _random_excitation(rng, 1)
        d = replace(design, termination=cycle[case % 3])
        bias = w.rectified_bias(d, exc)
        ref = _dense_scan_bias(d, exc)
        worst = np.abs(bias - ref).max()
        assert worst <= 1e-6, f"single-tone case {case}: {worst} V from the dense scan"


# operating points with a known beam direction: (termination, target
# angle in degrees, drive frequency, drive amplitude, element count)
_STEERING_ROWS = (
    (w.Termination.SHORT, -4.0, 1.2e6, 7.3, 27),
    (w.Termination.SHORT, -8.0, 6.0e6, 2.9, 27),
    (w.Termination.SHORT, -12.0, 2.0e6, 10.8, 27),
    (w.Termination.OPEN, 4.0, 8.1e6, 1.8, 27),
    (w.Termination.OPEN, 8.0, 7.5e6, 2.7, 27),
    (w.Termination.OPEN, 12.0, 7.5e6, 3.7, 27),
    (w.Termination.SHORT, -2.0, 0.7e6, 6.2, 60),
    (w.Termination.SHORT, -4.0, 2.5e6, 3.23, 60),
    # the one red row: under the bundled cell's phase curve this drive
    # (bias ramp 4.02-6.48 V) steers to -2.36 deg, while the -2 deg row
    # above reaches -2 deg with a ramp of 4.02-6.05 V; whether the row
    # or the cell data is wrong waits on the paper's steering table
    (w.Termination.SHORT, -6.0, 0.5e6, 10.4, 60),
    (w.Termination.OPEN, 2.0, 3.6e6, 1.9, 60),
    (w.Termination.OPEN, 4.0, 3.4e6, 2.9, 60),
    (w.Termination.OPEN, 6.0, 3.5e6, 4.0, 60),
)


def _magnitude_at(pattern, theta_deg):
    idx = int(np.argmin(np.abs(pattern.theta - math.radians(theta_deg))))
    # the targets are multiples of the 0.05 degree grid pitch
    assert abs(pattern.theta[idx] - math.radians(theta_deg)) < 1e-9
    return float(pattern.magnitude[idx])


@pytest.mark.criterion(7, C7)
def test_tabulated_rows_place_the_beam(bundle):
    failures = []
    for term, theta_p, f_b, w_b, count in _STEERING_ROWS:
        d = replace(bundle.design, termination=term, element_count=count)
        pattern = w.evaluate_operating_point(
            d, bundle.cell, bundle.varactors, f_b, w_b, W0, F_C)
        peak = math.degrees(pattern.peak_angle)
        if abs(peak - theta_p) > 1.5:
            failures.append(
                f"{term.value} M={count} target {theta_p:+.1f} deg: peak at {peak:+.2f} deg")
    assert not failures, "beam misses its tabulated angle:\n" + "\n".join(failures)


@pytest.mark.criterion(7, C7)
def test_optimizer_reaches_tabulated_objective(bundle):
    started = time.perf_counter()
    failures = []
    for term, theta_p, f_b, w_b, count in _STEERING_ROWS:
        d = replace(bundle.design, termination=term, element_count=count)
        reference = w.evaluate_operating_point(
            d, bundle.cell, bundle.varactors, f_b, w_b, W0, F_C)
        target = _magnitude_at(reference, theta_p)
        *_, value = w.optimize_single_beam(
            d, bundle.cell, bundle.varactors, math.radians(theta_p),
            w.SearchSpec(w0=W0), f_c=F_C)
        if value < 0.95 * target:
            failures.append(
                f"{term.value} M={count} {theta_p:+.1f} deg: optimizer reached "
                f"{value:.4f} vs tabulated {target:.4f}")
    elapsed = time.perf_counter() - started
    assert not failures, "optimizer falls short:\n" + "\n".join(failures)
    assert elapsed < 180.0, f"twelve searches took {elapsed:.1f} s"


@pytest.mark.criterion(8, C8)
def test_specular_suppression_scan(bundle):
    spec = w.SearchSpec(f_range=(0.25e6, 20.0e6), f_step=0.25e6,
                        w_range=(0.0, 12.0), w_step=0.25, w0=W0)
    grid = w.specular_scan(bundle.design, bundle.cell, bundle.varactors,
                           spec, [0.0], f_c=F_C)[0]
    baseline = grid[:, 0]
    # zero drive leaves a uniform surface whatever the frequency
    assert np.allclose(baseline, baseline[0], rtol=1e-12)
    threshold = baseline[0] * 10.0 ** (-10.0 / 20.0)
    region = grid[np.ix_(spec.f_axis() > 7.0e6,
                         (spec.w_axis() >= 3.5) & (spec.w_axis() <= 4.5))]
    assert np.any(region <= threshold), (
        "no drive point beyond 7 MHz at 3.5 to 4.5 V pushes the specular "
        "return 10 dB under the undriven baseline")


def _grating_pair(pattern, beyond):
    """Angles in degrees, ascending, of the two strongest local maxima of
    the pattern at |theta| > beyond (radians), with their magnitudes."""
    mag = pattern.magnitude
    inner = mag[1:-1]
    # strict on the left so a flat top counts once
    peaks = np.nonzero((inner > mag[:-2]) & (inner >= mag[2:]))[0] + 1
    peaks = peaks[np.abs(pattern.theta[peaks]) > beyond]
    top = peaks[np.argsort(-mag[peaks], kind="stable")[:2]]
    return sorted((math.degrees(pattern.theta[i]), float(mag[i])) for i in top)


@pytest.mark.criterion(9, C9)
def test_harmonic_drive_peak_placement(bundle):
    f0 = w.fundamental_frequency(bundle.design)
    failures = []
    second = w.evaluate_operating_point(
        bundle.design, bundle.cell, bundle.varactors, 2.0 * f0, 10.0, W0, F_C)
    peak2 = math.degrees(second.peak_angle)
    if abs(peak2) > 3.0:
        failures.append(
            f"second-harmonic drive: peak at {peak2:+.2f} deg, expected broadside")
    fifth = w.evaluate_operating_point(
        bundle.design, bundle.cell, bundle.varactors, 5.0 * f0, 10.0, W0, F_C)
    # f0 puts a quarter wavelength on the shorted line, so at 5*f0 the
    # wavenumber is k = 5*pi/(2*L_tot) and the rectified bias |sin(k*u)|
    # repeats every pi/k = 2*L_tot/5.  That grating's +-1 orders radiate
    # at sin(theta_g) = lambda_c/(2*L_tot/5) = 5*lambda_c/(2*L_tot).
    lambda_c = w.C0 / F_C
    theta_g = math.degrees(math.asin(5.0 * lambda_c / (2.0 * bundle.design.total_length)))
    # the specular (zeroth-order) lobe ends at the aperture's first null
    null = math.asin(lambda_c / (bundle.design.element_count * bundle.design.spacing))
    lobes = _grating_pair(fifth, null)
    found = [angle for angle, _ in lobes]
    if len(found) != 2 or abs(found[0] + theta_g) > 3.0 or abs(found[1] - theta_g) > 3.0:
        inside = np.abs(fifth.theta) <= null
        i_spec = int(np.argmax(np.where(inside, fifth.magnitude, -np.inf)))
        listed = ", ".join(f"{angle:+.2f} deg (|F| {mag:.3f})" for angle, mag in lobes)
        failures.append(
            f"fifth-harmonic drive: strongest lobes beyond the specular lobe at "
            f"{listed}, expected near -{theta_g:.2f} and +{theta_g:.2f} deg; "
            f"specular peak at {math.degrees(fifth.theta[i_spec]):+.2f} deg "
            f"(|F| {fifth.magnitude[i_spec]:.3f})")
    assert not failures, "\n".join(failures)


@pytest.mark.criterion(10, C10)
def test_ideal_tapped_line_matches_closed_form(bundle):
    rng = np.random.default_rng(7)
    exc = bundle.excitation
    for f in rng.uniform(0.5e6, 25e6, 10):
        for term in (w.Termination.SHORT, w.Termination.OPEN):
            d = replace(bundle.design, termination=term)
            amp = w.standing_wave_amplitude(d, exc, float(f))
            u = d.tap_positions() + d.left_extension
            shape = np.sin if term is w.Termination.SHORT else np.cos
            expected = exc.dc_offset + amp * np.abs(shape(d.wavenumber(float(f)) * u))
            net = w.build_network(
                d, float(f),
                z_rect=math.inf,
                coupling_capacitance=math.inf,
                decoupling_inductance=math.inf,
                generator_voltage=exc.generator_voltage,
                generator_impedance=exc.generator_impedance)
            tapped = exc.dc_offset + np.abs(w.solve_taps(net))
            worst = np.abs(tapped - expected).max()
            assert worst <= 1e-6, f"{term.value} at {f:.0f} Hz: off by {worst} V"


# --- criterion 11: the property suite ------------------------------
#
# each property runs at least 100 instances; all of them feed the same
# checklist line, so the item is green only when every law holds.

_PATTERN_GEOMETRY = (0.02, F_C, w.default_theta_grid())  # spacing, carrier, angles


@pytest.mark.criterion(11, C11)
@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_property_conjugate_profile_mirrors_the_pattern(seed):
    rng = np.random.default_rng(seed)
    count = int(rng.integers(2, 41))
    mags = rng.uniform(0.0, 1.0, count)
    phases = rng.uniform(-math.pi, math.pi, count)
    fwd = w.array_factor(mags * np.exp(1j * phases), *_PATTERN_GEOMETRY)
    rev = w.array_factor(mags * np.exp(1j * -phases), *_PATTERN_GEOMETRY)
    assert np.allclose(rev.magnitude, fwd.magnitude[::-1], rtol=0.0, atol=1e-12)


@pytest.mark.criterion(11, C11)
@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       offset=st.floats(-math.pi, math.pi, allow_nan=False))
def test_property_global_phase_leaves_the_pattern_alone(seed, offset):
    rng = np.random.default_rng(seed)
    count = int(rng.integers(2, 41))
    mags = rng.uniform(0.0, 1.0, count)
    phases = rng.uniform(-math.pi, math.pi, count)
    base = w.array_factor(mags * np.exp(1j * phases), *_PATTERN_GEOMETRY)
    rotated = np.angle(np.exp(1j * (phases + offset)))
    shifted = w.array_factor(mags * np.exp(1j * rotated), *_PATTERN_GEOMETRY)
    assert np.allclose(shifted.magnitude, base.magnitude, rtol=0.0, atol=1e-12)


@pytest.mark.criterion(11, C11)
@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_property_reflection_is_passive(seed):
    rng = np.random.default_rng(seed)
    lo, hi = _BUNDLE.varactors.bias_range
    volts = rng.uniform(lo, hi, int(rng.integers(1, 64)))
    gamma = w.reflection_profile(_BUNDLE.cell, _BUNDLE.varactors, volts, F_C)
    assert np.all(np.abs(gamma) <= 1.0 + 1e-12)


@pytest.mark.criterion(11, C11)
@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_property_bias_stays_within_the_mode_budget(seed):
    rng = np.random.default_rng(seed)
    exc = _random_excitation(rng, int(rng.integers(1, 9)))
    term = (w.Termination.SHORT, w.Termination.OPEN,
            w.Termination.MATCHED)[int(rng.integers(0, 3))]
    d = replace(_BUNDLE.design, termination=term)
    bias = w.rectified_bias(d, exc)
    budget = sum(m.amplitude for m in exc.modes)
    assert np.all(bias >= exc.dc_offset - 1e-9)
    assert np.all(bias <= exc.dc_offset + budget + 1e-9)


@pytest.mark.criterion(11, C11)
@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_property_matched_line_is_flat_and_feed_side_invariant(seed):
    rng = np.random.default_rng(seed)
    exc = _random_excitation(rng, int(rng.integers(1, 4)))
    d = replace(_BUNDLE.design, termination=w.Termination.MATCHED)
    flat = w.rectified_bias(d, exc)
    assert np.allclose(flat, flat[0], rtol=0.0, atol=1e-9)
    # lengthening the feed-side stub only delays the traveling wave
    longer = replace(d, right_extension=float(rng.uniform(0.0, 0.2)))
    assert np.allclose(w.rectified_bias(longer, exc), flat,
                       rtol=0.0, atol=1e-9)


@pytest.mark.criterion(11, C11)
@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_property_short_line_bias_is_monotone_below_resonance(seed):
    rng = np.random.default_rng(seed)
    f0 = w.fundamental_frequency(_BUNDLE.design)
    exc = w.Excitation(
        dc_offset=W0,
        modes=(w.Mode(1, float(rng.uniform(0.5, 8.0))),),
        fundamental_frequency=float(rng.uniform(0.05e6, f0)))
    bias = w.rectified_bias(_BUNDLE.design, exc)
    assert np.all(np.diff(bias) > 0.0)


@pytest.mark.criterion(11, C11)
def test_property_optimizer_is_deterministic():
    rng = np.random.default_rng(123)
    spec = w.SearchSpec(f_range=(1e6, 8e6), f_step=0.5e6,
                        w_range=(0.0, 12.0), w_step=1.0, w0=W0)
    for _ in range(100):
        theta = math.radians(float(rng.uniform(-15.0, 15.0)))
        term = w.Termination.SHORT if theta < 0 else w.Termination.OPEN
        d = replace(_BUNDLE.design, termination=term)
        f_1, w_1, value_1 = w.optimize_single_beam(
            d, _BUNDLE.cell, _BUNDLE.varactors, theta, spec, f_c=F_C)
        f_2, w_2, value_2 = w.optimize_single_beam(
            d, _BUNDLE.cell, _BUNDLE.varactors, theta, spec, f_c=F_C)
        assert f_1 == f_2
        assert w_1 == w_2
        assert value_1 == value_2
