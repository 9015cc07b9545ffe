"""Unit-cell circuit model, table lookup, fit, and file ingestion.

Frozen impedance and reflection values were computed independently
with 30-digit arithmetic from the circuit equations before this
module existed; the fit tests synthesize sweeps from known values and
demand the recovered circuit match them.
"""

import cmath
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import wavectl as w
from wavectl import unitcell
from wavectl.errors import ClampWarning, FitError, InputError, ParseError
from wavectl.serialize import write_csv
from wavectl.unitcell import (ImpedanceSamples, _Buffers, _lookup_arrays, _reflection_array,
                              _surface_array, _varactor_array)

# an earlier published value set for this cell family; used as a fit
# target because its resonances sit inside an easy sweep range
LEGACY_CELL = dict(R_d=0.17, C_d=0.74e-12, L_d=1.64e-9, L_s=1.60e-9)


def _lookup(table, volts):
    caps, res, clamped = _lookup_arrays(table, volts)
    return float(caps), float(res), clamped


def _varactor_z(table, volts, f):
    caps, res, _ = _lookup_arrays(table, volts)
    return complex(_varactor_array(table, caps, res, 2.0 * math.pi * f))


def test_varactor_lookup_rows_and_interpolation(table):
    assert _lookup(table, 4.0) == (0.802e-12, 0.509, False)
    c, r, clamped = _lookup(table, 7.5)
    assert c == pytest.approx(0.561e-12, rel=1e-12)
    assert r == pytest.approx(0.1165, rel=1e-12)
    assert not clamped


def test_varactor_lookup_clamps_with_warning(cell, table):
    assert _lookup(table, 16.0) == (0.460e-12, 0.005, True)
    assert _lookup(table, 3.0) == (0.802e-12, 0.509, True)
    with pytest.warns(ClampWarning):
        w.reflection_profile(cell, table, 16.0, 2.45e9)


def test_varactor_impedance_frozen(table):
    z = _varactor_z(table, 4.0, 2.45e9)
    assert z.real == pytest.approx(0.509, rel=1e-12)
    assert z.imag == pytest.approx(-44.977502701268728, rel=1e-12)


def test_varactor_series_resonance_frozen(table):
    # L_v resonates with C_v(7 V) here; the reactance changes sign
    f_res = 4327611674.671055
    assert _varactor_z(table, 7.0, f_res).imag == pytest.approx(0.0, abs=1e-6)
    assert _varactor_z(table, 7.0, 0.99 * f_res).imag < 0
    assert _varactor_z(table, 7.0, 1.01 * f_res).imag > 0


def test_ris_impedance_and_reflection_frozen(table):
    cell = w.CellCircuit(**LEGACY_CELL)
    z_v = _varactor_z(table, 4.0, 2.45e9)
    z = complex(_surface_array(cell, z_v, 2.0 * math.pi * 2.45e9))
    assert z.real == pytest.approx(0.5871391884261575, rel=1e-10)
    assert z.imag == pytest.approx(-5.487042731161679, rel=1e-10)
    g = complex(w.reflection_profile(cell, table, 4.0, 2.45e9)[0])
    assert g.real == pytest.approx(-0.9964684426566407, rel=1e-10)
    assert g.imag == pytest.approx(-0.0290123961314427, rel=1e-10)
    assert abs(g) == pytest.approx(0.9968907043100756, rel=1e-10)
    assert math.degrees(cmath.phase(g)) == pytest.approx(-178.33229200782718, abs=1e-8)


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
    gamma = w.reflection_profile(cell, table, 7.0, 2.45e9)
    assert gamma.shape == (1,) and gamma.dtype == complex
    volts = np.array([5.0, 9.0, 14.0])
    gamma = w.reflection_profile(cell, table, volts, 2.45e9)
    each = [w.reflection_profile(cell, table, v, 2.45e9)[0] for v in volts]
    assert gamma.tobytes() == np.array(each).tobytes()


def test_reflection_profile_is_the_kernel_gamma_bit_for_bit(bundle):
    # no |Gamma| / phase round trip between the cell kernel and the pattern
    bias = w.rectified_bias(bundle.design, bundle.excitation)
    gamma = w.reflection_profile(bundle.cell, bundle.varactors, bias, 2.45e9)
    kernel, _ = _reflection_array(bundle.cell, bundle.varactors, bias, 2.45e9)
    assert gamma.dtype == kernel.dtype and gamma.tobytes() == kernel.tobytes()


@settings(max_examples=100, deadline=None)
@given(st.floats(4.0, 15.0), st.floats(1.5e9, 4.0e9))
def test_reflection_passive_property(bias, f_c):
    cfg = w.load_bundled_config()
    gamma = w.reflection_profile(cfg.cell, cfg.varactors, bias, f_c)
    assert abs(gamma[0]) <= 1.0 + 1e-12


def test_len_is_the_element_count(bundle):
    # perfbench's tracer counts tone taps, scan probes and sweep points with len()
    bias = w.rectified_bias(bundle.design, bundle.excitation)
    profile = w.reflection_profile(bundle.cell, bundle.varactors, bias, 2.45e9)
    samples = w.synthesize_samples(bundle.cell, np.linspace(1e9, 4e9, 301))
    spec = w.SearchSpec(f_range=(1e6, 3e6), f_step=1e6, w_range=(0.0, 2.0), w_step=1.0)
    maps = w.specular_scan(bundle.design, bundle.cell, bundle.varactors, spec, [0.0, 0.1, -0.2])
    assert len(bias) == bias.size == bundle.design.element_count
    assert len(maps) == 3
    assert len(profile) == profile.size == bundle.design.element_count
    assert len(samples) == samples.frequencies.size == 301


def _lookup_reference(table, volts):
    """The lookup as it was: clip to the table, then one real np.interp per column."""
    v = np.asarray(volts, dtype=float)
    if not np.all(np.isfinite(v)):
        raise InputError("bias voltage must be finite")
    lo, hi = table.bias_range
    clamped = bool(np.any(v < lo) or np.any(v > hi))
    v = np.clip(v, lo, hi)
    return np.interp(v, table._volts, table._caps), np.interp(v, table._volts, table._res), clamped


def _probe_volts(table, rng):
    """Every row, both float neighbours of each, random points and values far outside."""
    rows = table._volts
    lo, hi = table.bias_range
    return np.concatenate([rows, np.nextafter(rows, -np.inf), np.nextafter(rows, np.inf),
                           rng.uniform(lo - 2.0, hi + 2.0, 2000), [lo - 1e300, hi + 1e300]])


def _random_table(rng, volts):
    n = volts.size
    caps = 1e-12 * np.cumprod(rng.uniform(0.5, 0.95, n))  # strictly decreasing
    res = rng.uniform(0.0, 1.0, n)
    res[rng.integers(n)] = 0.0
    return w.VaractorTable(series_inductance=2e-9, rows=list(zip(volts, caps, res)))


def _power_of_two_table(rng):
    """A table whose rows are multiples of 2**-6 V, each spacing a power of two."""
    steps = 2.0 ** rng.integers(-6, 4, int(rng.integers(1, 20)))
    volts = int(rng.integers(-320, 320)) / 64 + np.concatenate(([0.0], np.cumsum(steps)))
    assert np.all(np.frexp(np.diff(volts))[0] == 0.5)
    return _random_table(rng, volts)


def _lookups(table, volts):
    """(new, reference) for the whole array, then for each of its first values alone."""
    yield _lookup_arrays(table, volts), _lookup_reference(table, volts)
    for v in volts[:3 * table._volts.size]:  # fewer points than rows: slopes found per point
        yield _lookup_arrays(table, v), _lookup_reference(table, v)


def test_lookup_is_the_clipped_real_interp_bit_for_bit(table):
    rng = np.random.default_rng(15)
    for tab in [table] + [_power_of_two_table(rng) for _ in range(200)]:
        for (caps, res, clamped), (want_c, want_r, want_clamped) in _lookups(
                tab, _probe_volts(tab, rng)):
            assert clamped == want_clamped
            for got, want in ((caps, want_c), (res, want_r)):
                assert np.shape(got) == np.shape(want)
                assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


def test_lookup_on_irregular_tables_is_within_2_ulp():
    # the complex interp's slope is dC * (1 / dV), the real one's dC / dV
    rng = np.random.default_rng(16)
    for _ in range(300):
        tab = _random_table(rng, np.sort(rng.choice(np.linspace(-5.0, 20.0, 10**6),
                                                    int(rng.integers(2, 21)), replace=False)))
        for (caps, res, clamped), (want_c, want_r, want_clamped) in _lookups(
                tab, _probe_volts(tab, rng)):
            assert clamped == want_clamped
            for got, want, column in ((caps, want_c, tab._caps), (res, want_r, tab._res)):
                assert np.all(np.abs(got - want) <= 2 * np.spacing(np.max(column)))


def test_lookup_clamp_flag_at_the_table_ends(table):
    lo, hi = table.bias_range
    assert not _lookup_arrays(table, [lo, hi])[2]
    assert _lookup_arrays(table, [lo, np.nextafter(hi, np.inf)])[2]
    assert _lookup_arrays(table, np.nextafter(lo, -np.inf))[2]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_lookup_rejects_non_finite_bias(table, bad):
    for volts in (bad, [5.0, bad, 7.0], [[bad, 16.0]]):
        with pytest.raises(InputError, match="bias voltage must be finite"):
            _lookup_arrays(table, volts)


@pytest.mark.parametrize("volts", [[], np.empty((0, 3))])
def test_lookup_of_no_bias_is_empty_and_unclamped(table, volts):
    caps, res, clamped = _lookup_arrays(table, volts)
    assert caps.shape == res.shape == np.shape(volts)
    assert caps.dtype == res.dtype == np.float64
    assert clamped is False


def test_lookup_of_a_scalar(table):
    caps, res, clamped = _lookup_arrays(table, 7.5)
    want_c, want_r, _ = _lookup_reference(table, 7.5)
    assert (float(caps), float(res), clamped) == (float(want_c), float(want_r), False)


def _varactor_reference(table, caps, res, omega):
    """The varactor step as it was: res + 1j * x through a real-to-complex cast."""
    return res + 1j * (omega * table.series_inductance - 1.0 / (omega * caps))


def test_varactor_step_is_the_cast_expression_bit_for_bit(table):
    rng = np.random.default_rng(17)
    with_zero_resistance = _random_table(rng, table._volts)
    signs = set()
    # 4.3276 GHz is the series resonance at 7 V: reactances of both signs and near zero
    for tab, f in [(table, 2.45e9), (table, 4327611674.671055), (with_zero_resistance, 3.0e9)]:
        omega = 2.0 * math.pi * f
        caps, res, _ = _lookup_arrays(tab, rng.uniform(2.0, 17.0, (7, 11, 27)))
        want = _varactor_reference(tab, caps, res, omega)
        signs.update(np.sign(want.imag).flat)
        contiguous = (np.ascontiguousarray(caps), np.ascontiguousarray(res))
        for c, r in ((caps, res), contiguous):  # the lookup's strided views, and copies
            assert _varactor_array(tab, c, r, omega).tobytes() == want.tobytes()
            buf = _Buffers(np.full(want.shape, np.nan, complex), np.empty(want.shape, complex))
            got = _varactor_array(tab, c, r, omega, buf)
            assert got is buf.z
            assert got.tobytes() == want.tobytes()
    assert signs == {-1.0, 1.0}


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
    samples = ImpedanceSamples(frequencies=f, impedances=z)
    with pytest.raises(FitError):
        w.fit_circuit_model(samples, 1e-3)


def test_fit_rejects_sweep_without_zero_crossing():
    # resonant peak present but reactance never swings positive above it
    f = np.linspace(1e9, 5e9, 501)
    omega = 2 * math.pi * f
    z = 1.0 / (1.0 / 1000.0 + 1j * (omega * 1e-9 - 1.0 / (omega * 4e-12)))
    z = z - 1j * 2e3  # push the upper reactance firmly negative
    samples = ImpedanceSamples(frequencies=f, impedances=z)
    with pytest.raises(FitError):
        w.fit_circuit_model(samples, 1e-3)


@pytest.mark.parametrize("fitted, fragment", [
    ((1.0, 1e-30, 1e300), "C_d * L_d is out of float range"),  # C_d * L_d underflows
    ((1.0, 1e-9, 5e-324), "C_d must be strictly positive and finite"),  # 1/C_d overflows
], ids=["resonance_out_of_range", "capacitance_overflows"])
def test_fit_refuses_a_fitted_circuit_out_of_float_range(cell, monkeypatch, fitted, fragment):
    # CellCircuit's refusal becomes a FitError, as every other failed fit
    monkeypatch.setattr(unitcell, "_series_branch_fit", lambda samples, l_s: fitted)
    samples = w.synthesize_samples(cell, np.linspace(1e9, 4e9, 64))
    with pytest.raises(FitError) as info:
        w.fit_circuit_model(samples, 1e-3)
    assert fragment in str(info.value)


def _cells_around(cell, count):
    """A fixed draw of cells: each bundled value times U(0.8, 1.25)."""
    rng = np.random.default_rng(1)
    return [w.CellCircuit(R_d=cell.R_d * rng.uniform(0.8, 1.25),
                          C_d=cell.C_d * rng.uniform(0.8, 1.25),
                          L_d=cell.L_d * rng.uniform(0.8, 1.25), L_s=cell.L_s)
            for _ in range(count)]


def _sweep(cell, n):
    f_e = cell.electric_resonance / (2 * math.pi)
    return np.linspace(0.3 * f_e, 1.7 * f_e, n)


@pytest.mark.parametrize("n", [16, 501, 3001])
def test_fit_is_exact_on_noise_free_sweeps(cell, n):
    for truth in _cells_around(cell, 200):
        got = w.fit_circuit_model(w.synthesize_samples(truth, _sweep(truth, n)),
                                  truth.L_s / w.MU0)
        for key in ("R_d", "C_d", "L_d"):
            assert getattr(got, key) == pytest.approx(getattr(truth, key), rel=1e-12), key


def test_fit_under_relative_noise(cell):
    # 0.5% complex noise on Z; the |Z| / |Z_ser|**2 weights keep R_d,
    # whose signal is small beside the reactance, within 0.5%
    rng = np.random.default_rng(5)
    for truth in _cells_around(cell, 50):
        f = _sweep(truth, 3001)
        noise = 0.005 * (rng.standard_normal(f.size) + 1j * rng.standard_normal(f.size))
        z = w.synthesize_samples(truth, f).impedances * (1 + noise / math.sqrt(2))
        got = w.fit_circuit_model(ImpedanceSamples(f, z), truth.L_s / w.MU0)
        assert got.R_d == pytest.approx(truth.R_d, rel=5e-3)
        assert got.C_d == pytest.approx(truth.C_d, rel=2e-4)
        assert got.L_d == pytest.approx(truth.L_d, rel=2e-4)


@pytest.mark.parametrize("where", ["zero", "sheet_inductance"])
def test_fit_rejects_sample_where_series_branch_is_undefined(where):
    # Z = 0 (Touchstone S = -1) shorts the series branch, Z = jwL_s opens it
    f = np.linspace(1e9, 5e9, 64)
    l_s = w.MU0 * 1e-3
    z = 1j * (2.0 * math.pi * f) * l_s
    if where == "zero":
        z = z + 1.0
        z[5] = 0.0
    samples = ImpedanceSamples(frequencies=f, impedances=z)
    with pytest.raises(FitError, match="series branch"):
        w.fit_circuit_model(samples, 1e-3)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["frequencies", "impedances"])
def test_impedance_samples_reject_non_finite(field, bad):
    arrays = dict(frequencies=np.linspace(1e9, 2e9, 16), impedances=np.ones(16, dtype=complex))
    arrays[field][-1] = bad
    with pytest.raises(InputError, match="finite"):
        ImpedanceSamples(**arrays)


def test_impedance_samples_validation():
    f = np.linspace(1e9, 2e9, 8)
    with pytest.raises(InputError):
        ImpedanceSamples(frequencies=f,
                         impedances=np.ones(8, dtype=complex))
    f = np.array([1e9, 2e9, 2e9] + list(np.linspace(3e9, 6e9, 13)))
    with pytest.raises(InputError):
        ImpedanceSamples(frequencies=f,
                         impedances=np.ones(16, dtype=complex))


def test_csv_ingest_round_trip(tmp_path, cell):
    samples = w.synthesize_samples(cell, np.linspace(1e9, 2e10, 256))
    path = tmp_path / "sweep.csv"
    write_csv(path, ("f_hz", "re_z", "im_z"),
              (samples.frequencies, samples.impedances.real, samples.impedances.imag))
    back = w.ingest_impedance(path)
    assert np.allclose(back.frequencies, samples.frequencies, rtol=1e-8)
    assert np.allclose(back.impedances, samples.impedances, rtol=1e-7, atol=1e-9)


def test_csv_ingest_rejects_wrong_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("freq,z\n1,2\n")
    with pytest.raises(ParseError):
        w.ingest_impedance(path, fmt="csv")


def _sweep_lines(bad, column):
    """A 20-row f_hz,re_z,im_z CSV body with `bad` in one field of line 9."""
    rows = [[f"{1e9 + k * 1e8:.1f}", "50.0", "-10.0"] for k in range(20)]
    rows[7][column] = bad
    return ["f_hz,re_z,im_z"] + [",".join(r) for r in rows]


@pytest.mark.parametrize("bad", ["nan", "inf", "-Infinity"])
@pytest.mark.parametrize("column", [0, 1, 2])
def test_csv_ingest_rejects_non_finite(tmp_path, bad, column):
    path = tmp_path / "sweep.csv"
    path.write_text("\n".join(_sweep_lines(bad, column)) + "\n")
    with pytest.raises(ParseError, match="line 9"):
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


def _touchstone_lines(bad, column):
    """A 16-row RI Touchstone body with `bad` in one field of line 9."""
    rows = [[f"{1 + 0.1 * k:.3f}", "0.1", "0.2"] for k in range(16)]
    rows[7][column] = bad
    return ["# GHz S RI R 50"] + [" ".join(r) for r in rows]


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("column", [0, 1, 2])
def test_touchstone_rejects_non_finite(tmp_path, bad, column):
    path = tmp_path / "sweep.s1p"
    _write_s1p(path, _touchstone_lines(bad, column))
    with pytest.raises(ParseError, match="line 9"):
        w.ingest_impedance(path, fmt="s1p")


@pytest.mark.parametrize("z_ref", ["nan", "inf", "0", "-50", "x"])
def test_touchstone_rejects_bad_reference_impedance(tmp_path, z_ref):
    path = tmp_path / "sweep.s1p"
    _write_s1p(path, [f"# GHz S RI R {z_ref}"] + _touchstone_lines("0.1", 1)[1:])
    with pytest.raises(ParseError, match="line 1: reference impedance"):
        w.ingest_impedance(path, fmt="s1p")


def test_touchstone_rejects_overflowing_db_magnitude(tmp_path):
    # finite fields whose dB magnitude overflows a float
    path = tmp_path / "sweep.s1p"
    _write_s1p(path, ["# GHz S DB R 50"] + [f"{1 + 0.1 * k:.3f} 7000 0" for k in range(16)])
    with pytest.raises(ParseError, match="line 2"):
        w.ingest_impedance(path, fmt="s1p")


def test_touchstone_requires_increasing_frequency(tmp_path):
    path = tmp_path / "dec.s1p"
    lines = ["# GHz S MA R 50"] + [f"{2.0 - 0.05 * k:.3f} 0.5 0.0" for k in range(16)]
    _write_s1p(path, lines)
    with pytest.raises((ParseError, InputError)):
        w.ingest_impedance(path, fmt="s1p")


@pytest.mark.parametrize("row", [8, 19], ids=["line 10", "last line"])
def test_touchstone_frequency_overflowing_its_unit_names_its_line(tmp_path, row):
    # 1e300 GHz is finite as read and overflows once scaled to Hz
    rows = [f"{1 + 0.1 * k:.3f} 0.1 0.2" for k in range(20)]
    rows[row] = "1e300 0.1 0.2"
    path = tmp_path / "sweep.s1p"
    _write_s1p(path, ["# GHz S RI R 50"] + rows)
    with pytest.raises(ParseError) as err:
        w.ingest_impedance(path)
    assert str(err.value) == f"line {row + 2}: frequency overflows when scaled to Hz"


def test_ingest_format_sniffing(tmp_path, cell):
    samples = w.synthesize_samples(cell, np.linspace(1e9, 2e10, 64))
    csv_path = tmp_path / "data.txt"
    write_csv(csv_path, ("f_hz", "re_z", "im_z"),
              (samples.frequencies, samples.impedances.real, samples.impedances.imag))
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


def _ingest_text(path, name, text, fmt="auto"):
    path = path / name
    path.write_text(text)
    return w.ingest_impedance(path, fmt=fmt)


@pytest.mark.parametrize("build, error, fragment", [
    (lambda p, c, t: w.VaractorTable(series_inductance=2.34e-9, rows=[(4.0, 8e-13, 0.5)]),
     InputError, "varactor table needs at least two rows"),
    (lambda p, c, t: w.VaractorTable(series_inductance=2.34e-9,
                                     rows=[(4.0, 1e-13, 0.5), (5.0, -1e-13, 0.5)]),
     InputError, "varactor capacitance must be positive"),
    (lambda p, c, t: ImpedanceSamples(np.arange(1.0, 17.0), np.ones(15)),
     InputError, "frequencies and impedances must be 1-d arrays of equal length"),
    (lambda p, c, t: w.array_factor(np.ones((3, 2)), 0.02, 2.45e9, w.default_theta_grid()),
     InputError, "coefficients must be a nonempty 1-d array"),
    (lambda p, c, t: w.array_factor(np.array([0.5, np.nan]), 0.02, 2.45e9,
                                    w.default_theta_grid()),
     InputError, "coefficients must be finite"),
    (lambda p, c, t: w.reflection_profile(c, t, np.zeros(0), 2.45e9),
     InputError, "bias may not be empty"),
    # 1/sqrt(C_d * L_d) would divide by zero: the product underflows
    (lambda p, c, t: w.CellCircuit(R_d=1.0, C_d=1e-300, L_d=1e-30, L_s=1e-9),
     InputError, "C_d * L_d is out of float range"),
    (lambda p, c, t: w.CellCircuit(R_d=1.0, C_d=1e300, L_d=1e-10, L_s=1e10),
     InputError, "C_d * (L_d + L_s) is out of float range"),
    (lambda p, c, t: w.fit_circuit_model(
        w.synthesize_samples(c, np.linspace(1e9, 4e9, 64)), 0.0),
     InputError, "substrate_thickness must be positive"),
    (lambda p, c, t: _ingest_text(p, "opt.s1p", "# GHz S RI R\n1 0.1 0.2\n"),
     ParseError, "line 1: option line ends after R with no impedance"),
    (lambda p, c, t: _ingest_text(p, "empty.csv", ""), ParseError, "empty file"),
    (lambda p, c, t: _ingest_text(p, "header.csv", "f_hz,re_z,im_z\n"),
     ParseError, "no data rows found"),
    (lambda p, c, t: _ingest_text(p, "sweep.csv", "f_hz,re_z,im_z\n", fmt="xyz"),
     InputError, "unknown impedance format 'xyz'"),
    # only the last row's 1/(w C_v) overflows, at a bias the lookup never reaches
    (lambda p, c, t: w.reflection_profile(c, w.VaractorTable(
        series_inductance=2.34e-9, rows=[(4.0, 1e-12, 0.5), (5.0, 1e-310, 0.5)]), [4.0], 1.0),
     InputError, "carrier frequency 1.0 Hz is out of range for the cell model"),
], ids=["one_row_table", "negative_capacitance", "unequal_sweep_shapes",
        "unequal_profile_shapes", "negative_magnitude", "empty_profile",
        "electric_resonance_out_of_range", "magnetic_resonance_out_of_range", "zero_thickness",
        "option_line_without_impedance", "empty_csv", "header_only_csv", "unknown_format",
        "carrier_out_of_range_at_the_last_row"])
def test_unitcell_typed_errors(tmp_path, cell, table, build, error, fragment):
    with pytest.raises(error) as info:
        build(tmp_path, cell, table)
    assert fragment in str(info.value)


# the table's rules in the order they are checked, each with the (row,
# column, value) edit of a valid table that breaks it alone; the row
# count is broken by keeping only the first row
_TABLE_RULES = [
    ("varactor rows must be finite", (0, 0, math.inf)),
    ("varactor table needs at least two rows", None),
    ("varactor rows must be strictly increasing in voltage", (1, 0, 2.5)),
    ("varactor capacitance must be strictly decreasing", (2, 1, 3.5e-12)),
    ("varactor capacitance must be positive", (-1, 1, -1e-12)),
    ("varactor resistance must be nonnegative", (-1, 2, -0.1)),
]


@pytest.mark.parametrize("broken", [
    mask for mask in range(1, 64)
    # one row leaves nothing to rise or fall
    if not (mask & 2 and mask & (4 | 8))])
def test_a_table_breaking_several_rules_names_the_first(broken):
    rows = [[4.0, 4e-12, 0.4], [5.0, 3e-12, 0.3], [6.0, 2e-12, 0.2], [7.0, 1e-12, 0.1]]
    if broken & 2:
        del rows[1:]
    for bit, (_, edit) in enumerate(_TABLE_RULES):
        if broken >> bit & 1 and edit:
            row, column, value = edit
            rows[row][column] = value
    first = next(message for bit, (message, _) in enumerate(_TABLE_RULES) if broken >> bit & 1)
    with pytest.raises(InputError) as info:
        w.VaractorTable(series_inductance=2.34e-9, rows=rows)
    assert str(info.value) == first


@pytest.mark.parametrize("rows", [
    [(4, 8e-13, 0), (5, 7e-13, 1)],
    [(np.float32(4.0), np.float64(8e-13), np.int64(1)), (5.5, 7e-13, 0.25), (6.0, 1e-13, 0.5)],
])
def test_table_columns_are_read_only_float_arrays_of_the_rows(table, rows):
    for t in (table, w.VaractorTable(series_inductance=1e-9, rows=rows)):
        assert all(type(x) is float for row in t.rows for x in row)
        for k, column in enumerate((t._volts, t._caps, t._res)):
            assert column.dtype == np.float64 and not column.flags.writeable
            assert column.flags.c_contiguous
            assert column.tolist() == [row[k] for row in t.rows]
