"""Unit-cell circuit model, table lookup, fit, and file ingestion.

Frozen impedance and reflection values were computed independently
with 30-digit arithmetic from the circuit equations before this
module existed; the fit tests synthesize sweeps from known values and
demand the recovered circuit match them.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import wavectl as w
from wavectl.errors import ClampWarning, FitError, InputError, ParseError, SingularInputError
from wavectl.serialize import write_csv
from wavectl.unitcell import ImpedanceSamples, impedance_samples_csv_rows

# an earlier published value set for this cell family; used as a fit
# target because its resonances sit inside an easy sweep range
LEGACY_CELL = dict(R_d=0.17, C_d=0.74e-12, L_d=1.64e-9, L_s=1.60e-9)


def test_varactor_lookup_rows_and_interpolation(table):
    c, r = w.varactor_lookup(table, 4.0)
    assert (c, r) == (0.802e-12, 0.509)
    c, r = w.varactor_lookup(table, 7.5)
    assert c == pytest.approx(0.561e-12, rel=1e-12)
    assert r == pytest.approx(0.1165, rel=1e-12)


def test_varactor_lookup_clamps_with_warning(table):
    with pytest.warns(ClampWarning):
        c, r = w.varactor_lookup(table, 16.0)
    assert (c, r) == (0.460e-12, 0.005)
    with pytest.warns(ClampWarning):
        c, r = w.varactor_lookup(table, 3.0)
    assert (c, r) == (0.802e-12, 0.509)


def test_varactor_impedance_frozen(table):
    z = w.varactor_impedance(table, 4.0, 2.45e9)
    assert z.real == pytest.approx(0.509, rel=1e-12)
    assert z.imag == pytest.approx(-44.977502701268728, rel=1e-12)


def test_varactor_series_resonance_frozen(table):
    # L_v resonates with C_v(7 V) here; the reactance changes sign
    f_res = 4327611674.671055
    assert w.varactor_impedance(table, 7.0, f_res).imag == pytest.approx(0.0, abs=1e-6)
    assert w.varactor_impedance(table, 7.0, 0.99 * f_res).imag < 0
    assert w.varactor_impedance(table, 7.0, 1.01 * f_res).imag > 0


def test_ris_impedance_and_reflection_frozen(table):
    cell = w.CellCircuit(**LEGACY_CELL)
    z_v = w.varactor_impedance(table, 4.0, 2.45e9)
    z = w.ris_impedance(cell, z_v, 2.45e9)
    assert z.real == pytest.approx(0.5871391884261575, rel=1e-10)
    assert z.imag == pytest.approx(-5.487042731161679, rel=1e-10)
    g = w.reflection_coefficient(z)
    assert g.real == pytest.approx(-0.9964684426566407, rel=1e-10)
    assert g.imag == pytest.approx(-0.0290123961314427, rel=1e-10)
    assert abs(g) == pytest.approx(0.9968907043100756, rel=1e-10)
    assert math.degrees(math.atan2(g.imag, g.real)) == pytest.approx(
        -178.33229200782718, abs=1e-8)


def test_reflection_coefficient_singular():
    with pytest.raises(SingularInputError):
        w.reflection_coefficient(complex(-377.0, 0.0))


def test_ris_impedance_unloaded_and_degenerate(cell):
    for f in (1e9, 2.45e9, 7e9):
        assert w.ris_impedance(cell, w.AT_INFINITY, f) == w.equivalent_impedance(cell, f)
    # a varactor impedance that cancels C_d leaves no parallel combination
    omega = 2.0 * math.pi * 2.45e9
    with pytest.raises(InputError):
        w.ris_impedance(cell, 1j / (omega * cell.C_d), 2.45e9)


def test_equivalent_impedance_matches_rational_form(cell):
    # closed-form rational expression derived by hand from the ladder
    f = np.linspace(0.5e9, 8e9, 57)
    omega = 2 * math.pi * f
    num = 1j * omega * cell.L_s * (1 - omega**2 * cell.C_d * cell.L_d
                                   + 1j * omega * cell.C_d * cell.R_d)
    den = (1 - omega**2 * cell.C_d * (cell.L_d + cell.L_s)
           + 1j * omega * cell.C_d * cell.R_d)
    expected = num / den
    got = w.equivalent_impedance(cell, f)
    assert np.allclose(got, expected, rtol=1e-12, atol=0.0)


def test_reflection_profile_array_and_scalar(cell, table):
    prof = w.reflection_profile(cell, table, 7.0, 2.45e9)
    assert prof.magnitudes.shape == (1,)
    volts = np.array([5.0, 9.0, 14.0])
    prof = w.reflection_profile(cell, table, volts, 2.45e9)
    coeffs = prof.coefficients()
    assert np.allclose(np.abs(coeffs), prof.magnitudes)
    assert np.allclose(np.angle(coeffs), prof.phases)


@settings(max_examples=100, deadline=None)
@given(st.floats(4.0, 15.0), st.floats(1.5e9, 4.0e9))
def test_reflection_passive_property(bias, f_c):
    cfg = w.load_bundled_config()
    prof = w.reflection_profile(cfg.cell, cfg.varactors, bias, f_c)
    assert prof.magnitudes[0] <= 1.0 + 1e-12


def test_linear_ideal_phase_endpoints():
    assert w.linear_ideal_phase(4.0, 4.0, 15.0) == pytest.approx(0.0)
    assert w.linear_ideal_phase(9.5, 4.0, 15.0) == pytest.approx(math.pi)
    # a full turn wraps back to zero
    assert w.linear_ideal_phase(15.0, 4.0, 15.0) == pytest.approx(0.0, abs=1e-12)
    with pytest.warns(ClampWarning):
        w.linear_ideal_phase(3.0, 4.0, 15.0)


def _fit_and_compare(values, f_lo, f_hi, n=4001):
    cell = w.CellCircuit(**values)
    samples = w.synthesize_samples(cell, np.linspace(f_lo, f_hi, n))
    got = w.fit_circuit_model(samples, cell.L_s / w.MU0)
    assert got.L_s == pytest.approx(cell.L_s, rel=5e-3)
    for key in ("R_d", "C_d", "L_d"):
        assert getattr(got, key) == pytest.approx(values[key], rel=1e-2), key
    return got


def test_fit_round_trip_legacy_cell():
    _fit_and_compare(LEGACY_CELL, 1.0e9, 9.0e9)


def test_fit_round_trip_bundled_cell(cell):
    _fit_and_compare(dict(R_d=cell.R_d, C_d=cell.C_d, L_d=cell.L_d, L_s=cell.L_s),
                     2.0e9, 2.0e10)


@settings(max_examples=40, deadline=None)
@given(st.floats(0.05, 1.5), st.floats(0.3, 1.2), st.floats(0.5, 2.5), st.floats(0.8, 3.5))
def test_fit_round_trip_property(r_d, c_pf, l_d_nh, l_s_nh):
    values = dict(R_d=r_d, C_d=c_pf * 1e-12, L_d=l_d_nh * 1e-9, L_s=l_s_nh * 1e-9)
    cell = w.CellCircuit(**values)
    f_m = cell.magnetic_resonance / (2 * math.pi)
    f_e = cell.electric_resonance / (2 * math.pi)
    lo, hi = 0.3 * f_m, 3.0 * f_e
    # resolve the resonance: keep several sweep points inside its
    # half-power width, which narrows as the loss drops
    fwhm = r_d / (2 * math.pi * (values["L_d"] + values["L_s"]))
    n = max(4001, min(200001, int(8 * (hi - lo) / fwhm) | 1))
    _fit_and_compare(values, lo, hi, n=n)


def test_fit_rejects_sweep_without_pole():
    # pure capacitor: impedance magnitude falls monotonically
    f = np.linspace(1e9, 5e9, 64)
    z = 1.0 / (1j * 2 * math.pi * f * 1e-12)
    samples = ImpedanceSamples(reference_impedance=50.0, frequencies=f, impedances=z)
    with pytest.raises(FitError):
        w.fit_circuit_model(samples, 1e-3)


def test_fit_rejects_sweep_without_zero_crossing():
    # resonant peak present but reactance never swings positive above it
    f = np.linspace(1e9, 5e9, 501)
    omega = 2 * math.pi * f
    z = 1.0 / (1.0 / 1000.0 + 1j * (omega * 1e-9 - 1.0 / (omega * 4e-12)))
    z = z - 1j * 2e3  # push the upper reactance firmly negative
    samples = ImpedanceSamples(reference_impedance=50.0, frequencies=f, impedances=z)
    with pytest.raises(FitError):
        w.fit_circuit_model(samples, 1e-3)


def test_impedance_samples_validation():
    f = np.linspace(1e9, 2e9, 8)
    with pytest.raises(InputError):
        ImpedanceSamples(reference_impedance=50.0, frequencies=f,
                         impedances=np.ones(8, dtype=complex))
    f = np.array([1e9, 2e9, 2e9] + list(np.linspace(3e9, 6e9, 13)))
    with pytest.raises(InputError):
        ImpedanceSamples(reference_impedance=50.0, frequencies=f,
                         impedances=np.ones(16, dtype=complex))


def test_csv_ingest_round_trip(tmp_path, cell):
    samples = w.synthesize_samples(cell, np.linspace(1e9, 2e10, 256))
    path = tmp_path / "sweep.csv"
    write_csv(path, ("f_hz", "re_z", "im_z"), impedance_samples_csv_rows(samples))
    back = w.ingest_impedance(path)
    assert np.allclose(back.frequencies, samples.frequencies, rtol=1e-8)
    assert np.allclose(back.impedances, samples.impedances, rtol=1e-7, atol=1e-9)


def test_csv_ingest_rejects_wrong_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("freq,z\n1,2\n")
    with pytest.raises(ParseError):
        w.ingest_impedance(path, fmt="csv")


def _write_s1p(path, lines):
    path.write_text("\n".join(lines) + "\n")


def test_touchstone_ma_round_trip(tmp_path):
    z = 30.0 + 40.0j
    s = (z - 50.0) / (z + 50.0)
    lines = ["! comment line", "# GHz S MA R 50"]
    for k in range(16):
        f = 1.0 + 0.1 * k
        lines.append(f"{f:.6f} {abs(s):.12f} {math.degrees(math.atan2(s.imag, s.real)):.12f}")
    path = tmp_path / "cell.s1p"
    _write_s1p(path, lines)
    samples = w.ingest_impedance(path)
    assert samples.reference_impedance == 50.0
    assert samples.frequencies[0] == pytest.approx(1.0e9)
    assert np.allclose(samples.impedances, z, rtol=1e-9)


def test_touchstone_ri_db_and_units(tmp_path):
    # RI in MHz with a shuffled option order and a custom reference
    lines = ["# S MHz RI R 75"]
    for k in range(16):
        lines.append(f"{100 + k} 0.0 1.0")  # S = j
    path = tmp_path / "ri.s1p"
    _write_s1p(path, lines)
    samples = w.ingest_impedance(path)
    assert samples.reference_impedance == 75.0
    assert samples.frequencies[0] == pytest.approx(1.0e8)
    # Z = z_ref*(1+S)/(1-S) = 75j for S = j
    assert np.allclose(samples.impedances, 75.0j, rtol=1e-12)

    lines = ["# Hz S DB R 50"]
    for k in range(16):
        lines.append(f"{1e6 + k} -6.020599913279624 90.0")  # |S| = 0.5 at 90 deg
    path = tmp_path / "db.s1p"
    _write_s1p(path, lines)
    samples = w.ingest_impedance(path)
    expected = 50.0 * (1 + 0.5j) / (1 - 0.5j)
    assert np.allclose(samples.impedances, expected, rtol=1e-12)


def test_touchstone_default_options(tmp_path):
    # a bare "#" line means GHz, S, MA, R 50
    lines = ["#"] + [f"{1 + 0.1 * k:.3f} 0.5 0.0" for k in range(16)]
    path = tmp_path / "default.s1p"
    _write_s1p(path, lines)
    samples = w.ingest_impedance(path)
    assert samples.reference_impedance == 50.0
    assert np.allclose(samples.impedances, 150.0)


def test_touchstone_errors_carry_line_numbers(tmp_path):
    path = tmp_path / "bad.s1p"
    _write_s1p(path, ["# GHz S MA R 50", "1.0 0.5"])
    with pytest.raises(ParseError, match="line 2"):
        w.ingest_impedance(path, fmt="s1p")

    _write_s1p(path, ["# GHz Y MA R 50", "1.0 0.5 0.0"])
    with pytest.raises(ParseError, match="line 1"):
        w.ingest_impedance(path, fmt="s1p")

    lines = ["# GHz S RI R 50"] + [f"{1 + 0.1 * k:.3f} 0.0 0.1" for k in range(15)]
    lines.append("2.6 1.0 0.0")  # S = 1 has no finite impedance
    _write_s1p(path, lines)
    with pytest.raises(ParseError):
        w.ingest_impedance(path, fmt="s1p")


def test_touchstone_requires_increasing_frequency(tmp_path):
    path = tmp_path / "dec.s1p"
    lines = ["# GHz S MA R 50"] + [f"{2.0 - 0.05 * k:.3f} 0.5 0.0" for k in range(16)]
    _write_s1p(path, lines)
    with pytest.raises((ParseError, InputError)):
        w.ingest_impedance(path, fmt="s1p")


def test_ingest_format_sniffing(tmp_path, cell):
    samples = w.synthesize_samples(cell, np.linspace(1e9, 2e10, 64))
    csv_path = tmp_path / "data.txt"
    write_csv(csv_path, ("f_hz", "re_z", "im_z"), impedance_samples_csv_rows(samples))
    assert w.ingest_impedance(csv_path, fmt="auto").frequencies.size == 64

    s1p_path = tmp_path / "data.s1p"
    _write_s1p(s1p_path, ["# GHz S MA R 50"]
               + [f"{1 + 0.1 * k:.3f} 0.5 10.0" for k in range(16)])
    assert w.ingest_impedance(s1p_path, fmt="auto").frequencies.size == 16


def _with_row(table, row, column, value):
    rows = [list(r) for r in table.rows]
    rows[row][column] = value
    return w.VaractorTable(series_inductance=table.series_inductance, rows=rows)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("build", [
    *[lambda d, c, t, m, bad, f=f: replace(d, **{f: bad})
      for f in ("spacing", "left_extension", "right_extension", "slowness",
                "characteristic_impedance")],
    *[lambda d, c, t, m, bad, f=f: replace(c, **{f: bad}) for f in ("R_d", "C_d", "L_d", "L_s")],
    *[lambda d, c, t, m, bad, f=f: replace(m, **{f: bad})
      for f in ("relative_permittivity", "substrate_thickness", "trace_width",
                "path_length_per_cell")],
    lambda d, c, t, m, bad: w.VaractorTable(series_inductance=bad, rows=t.rows),
    lambda d, c, t, m, bad: _with_row(t, -1, 0, bad),
    lambda d, c, t, m, bad: _with_row(t, 0, 1, bad),
    lambda d, c, t, m, bad: _with_row(t, 1, 2, bad),
], ids=["spacing", "left_extension", "right_extension", "slowness",
        "characteristic_impedance", "R_d", "C_d", "L_d", "L_s",
        "relative_permittivity", "substrate_thickness", "trace_width",
        "path_length_per_cell", "series_inductance", "row_voltage",
        "row_capacitance", "row_resistance"])
def test_non_finite_dataclass_fields_rejected(design, cell, table, microstrip, build, bad):
    with pytest.raises(InputError):
        build(design, cell, table, microstrip, bad)
