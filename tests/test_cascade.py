"""Tapped-line network model against the unloaded closed form."""

import json
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

import wavectl as w
from wavectl.cli import main
from wavectl.errors import InputError, SolverError
from wavectl.serialize import format_float

F0 = 7175550.224338915

IDEAL = dict(z_rect=math.inf, coupling_capacitance=math.inf,
             decoupling_inductance=math.inf)


def _exc(fb):
    return w.Excitation(dc_offset=4.0, modes=(w.Mode(1, 1.0),), fundamental_frequency=fb)


def test_build_network_basics(design):
    net = w.build_network(design, 5e6)
    assert net.element_count == 27
    assert net.termination is w.Termination.SHORT
    assert np.allclose(net.tap_loads, 1000.0 + 0.0j)
    open_net = w.build_network(replace(design, termination=w.Termination.OPEN), 5e6)
    assert open_net.termination is w.Termination.OPEN
    with pytest.raises(InputError):
        w.build_network(replace(design, termination=w.Termination.MATCHED), 5e6)


def test_ideal_limit_matches_closed_form(design):
    rng = np.random.default_rng(7)
    for _ in range(10):
        f = float(rng.uniform(0.5e6, 3.0e7))
        for term in (w.Termination.SHORT, w.Termination.OPEN):
            d = replace(design, termination=term)
            wb = w.standing_wave_amplitude(d, _exc(f), f)
            net = w.build_network(d, f, **IDEAL)
            nodes = w.solve_taps(net)
            u = d.tap_positions() + d.left_extension
            k = d.wavenumber(f)
            env = np.abs(np.sin(k * u)) if term is w.Termination.SHORT \
                else np.abs(np.cos(k * u))
            assert np.allclose(np.abs(nodes), wb * env,
                               rtol=1e-9, atol=1e-12)


def test_finite_coupling_shifts_taps(design):
    f = 5e6
    ideal = w.solve_taps(w.build_network(design, f, **IDEAL))
    loaded = w.solve_taps(w.build_network(
        design, f,
        z_rect=math.inf, coupling_capacitance=1e-6, decoupling_inductance=680e-6))
    delta = np.abs(np.abs(loaded) - np.abs(ideal))
    assert delta.max() > 1e-6


def test_rectifier_loading_shifts_taps(design):
    f = 5e6
    ideal = w.solve_taps(w.build_network(design, f, **IDEAL))
    loaded = w.solve_taps(w.build_network(
        design, f, z_rect=1000.0,
        coupling_capacitance=math.inf, decoupling_inductance=math.inf))
    assert np.abs(loaded - ideal).max() > 1e-3


def test_loss_damps_the_resonant_peak(design):
    lossless = w.solve_taps(w.build_network(design, F0, **IDEAL))
    lossy = w.solve_taps(w.build_network(design, F0, total_loss_db=3.0, **IDEAL))
    assert np.abs(lossy).max() < np.abs(lossless).max()


def test_per_tap_loads_broadcast(design):
    loads = np.full(27, 1e3, dtype=complex)
    loads[13] = 50.0
    net = w.build_network(design, 5e6, z_rect=loads)
    uniform = w.build_network(design, 5e6, z_rect=1e3)
    a = w.solve_taps(net)
    b = w.solve_taps(uniform)
    assert not np.allclose(a, b)


def test_dead_short_tap_raises(design):
    net = w.build_network(design, 5e6, z_rect=0.0 + 0.0j)
    with pytest.raises(SolverError):
        w.solve_taps(net)


def test_source_cancelled_by_the_line_raises(design):
    # where the shorted, unloaded line is half a wavelength long its input
    # is a short, so a near-zero generator impedance cancels the source
    f = w.C0 / (2 * design.slowness * design.total_length)
    for z_g in (50.0, 1e-6):
        w.solve_taps(w.build_network(design, f, generator_impedance=z_g, **IDEAL))
    net = w.build_network(design, f, generator_impedance=1e-12, **IDEAL)
    with pytest.raises(SolverError, match="line input impedance cancels the source"):
        w.solve_taps(net)


def test_rectified_from_phasors_clamps(design, tmp_path):
    # the cascade command peak-detects the loaded line's phasors into its
    # tapped bias: the dc offset plus each tap's phasor magnitude
    out = tmp_path / "run"
    assert main(["cascade", "--format", "json", "--zrect", "1000", "--out", str(out)]) == 0
    tapped = json.loads((out / "cascade.json").read_text())["tapped_v"]
    exc = w.load_bundled_config().excitation
    net = w.build_network(design, exc.modes[0].mode_index * exc.fundamental_frequency,
                          z_rect=1000.0, generator_voltage=exc.generator_voltage,
                          generator_impedance=exc.generator_impedance)
    expected = exc.dc_offset + np.abs(w.solve_taps(net))
    assert tapped == [float(format_float(v)) for v in expected]  # as the artifact prints them


@pytest.mark.parametrize("loss", [math.nan, math.inf, -1.0])
def test_build_network_rejects_bad_loss(design, loss):
    with pytest.raises(InputError, match="total_loss_db"):
        w.build_network(design, 5e6, total_loss_db=loss)


@pytest.mark.parametrize("kwargs, message", [
    (dict(z_rect=complex(math.nan, 0.0)), "tap_loads"),
    (dict(z_rect=complex(1e3, math.nan)), "tap_loads"),
    (dict(z_rect=complex(math.inf, math.nan)), "tap_loads"),
    (dict(generator_voltage=math.nan), "generator_voltage"),
    (dict(generator_voltage=math.inf), "generator_voltage"),
    (dict(generator_voltage=-math.inf), "generator_voltage"),
    (dict(generator_impedance=math.inf), "generator_impedance"),
    (dict(f=math.inf), "frequency"),
    (dict(z_rect=-5.0), "tap loads must be passive"),
])
def test_no_non_finite_value_enters_the_line(design, kwargs, message):
    # refused by name before the solve, without a numpy RuntimeWarning;
    # an infinite load (an open tap) stays legal, see the ideal limit
    kwargs = {"f": 5e6, **kwargs}
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(InputError, match=message):
            w.solve_taps(w.build_network(design, **kwargs))


@pytest.mark.parametrize("f, termination", [
    (1e-300, "short"), (1e-200, "short"), (1e-100, "short"),
    # w*C underflows to 0 below about 3.9e-319 Hz
    (5e-324, "short"), (1e-320, "short"), (5e-324, "open"), (1e-320, "open"),
], ids=["1e-300", "1e-200", "1e-100", "5e-324-short", "1e-320-short", "5e-324-open",
        "1e-320-open"])
def test_overflowing_state_raises_solver_error(design, f, termination):
    # the solve refuses an overflowed state by frequency, without a numpy
    # RuntimeWarning and without handing on zeros scaled by 1/inf
    net = w.build_network(replace(design, termination=w.Termination(termination)), f)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(SolverError, match=f"overflows at {f!r} Hz"):
            w.solve_taps(net)


def test_overflowing_electrical_length_raises_input_error(design):
    exc = _exc(1e308)
    with pytest.raises(InputError, match="1e\\+308 Hz overflows the line's electrical length"):
        w.standing_wave_amplitude(design, exc, 1e308)
    with pytest.raises(InputError, match="1e\\+308 Hz overflows the wavenumber"):
        w.build_network(design, 1e308)


@pytest.mark.parametrize("build, fragment", [
    (lambda d: w.build_network(d, 7.18e6, coupling_capacitance=0.0),
     "coupling_capacitance must be positive"),
    (lambda d: replace(w.build_network(d, 7.18e6), tap_loads=np.full(d.element_count - 1, 1e3)),
     "segments and tap loads must align"),
    (lambda d: w.build_network(d, 7.18e6, z_rect=np.ones(d.element_count - 1)),
     "tap loads"),
    (lambda d: replace(w.build_network(d, 7.18e6),
                       segment_angles=np.r_[math.inf, np.ones(d.element_count - 1)]),
     "segment_angles and lead_angle must be finite"),
    # one load per segment in shape, not only in count, so one phasor per tap
    (lambda d: replace(w.build_network(d, 7.18e6),
                       tap_loads=np.full((d.element_count, 1), 1e3)),
     "segments and tap loads must align"),
], ids=["zero_coupling", "misaligned_loads", "missized_z_rect", "inf_segment",
        "unequal_node_shapes"])
def test_cascade_typed_errors(design, build, fragment):
    with pytest.raises(InputError) as info:
        build(design)
    assert fragment in str(info.value)


def _propagate_at(v, i, angle, z0):
    """The reference segment step: cos and sin of its own angle, one call each."""
    c = np.cos(angle)
    s = np.sin(angle)
    return v * c + 1j * z0 * s * i, 1j * v * s / z0 + i * c


@np.errstate(over="ignore", invalid="ignore")
def _per_tap_solve(net):
    """Reference: the tap loop that takes each segment's cos and sin at its own tap.

    Returns the scaled tap phasors, or the SolverError message.
    """
    w_ = 2.0 * math.pi * net.frequency
    z0 = net.characteristic_impedance
    if w_ * net.coupling_capacitance == 0:
        return f"the tapped-line state overflows at {net.frequency!r} Hz"
    z_c = 0.0 if math.isinf(net.coupling_capacitance) else 1.0 / (1j * w_ * net.coupling_capacitance)
    if net.termination is w.Termination.SHORT:
        v, i = z_c, 1.0 + 0.0j
    else:
        v, i = 1.0 + 0.0j, 0.0 + 0.0j
    v, i = _propagate_at(v, i, net.lead_angle, z0)
    taps = np.zeros(net.element_count, dtype=complex)
    open_taps = np.isinf(net.tap_loads).tolist()
    for m in range(net.element_count):
        taps[m] = v
        load = net.tap_loads[m]
        if not open_taps[m]:
            if load == 0:
                return f"tap {m} is a dead short; the solve is singular"
            i = i + v / load
        v, i = _propagate_at(v, i, net.segment_angles[m], z0)
    if not math.isinf(net.decoupling_inductance):
        i = i + v / (1j * w_ * net.decoupling_inductance)
    v_required = v + i * (z_c + net.generator_impedance)
    if abs(v_required) < 1e-12 * max(abs(v), abs(i) * z0, 1.0):
        return "line input impedance cancels the source; the solve is singular"
    taps = taps * (net.generator_voltage / v_required)
    if not (np.isfinite([i, v_required]).all() and np.isfinite(taps).all()):
        return f"the tapped-line state overflows at {net.frequency!r} Hz"
    return taps


def _random_network(rng, design):
    m = int(rng.integers(1, 201))
    d = replace(design, element_count=m,
                termination=rng.choice([w.Termination.SHORT, w.Termination.OPEN]),
                spacing=float(rng.uniform(5e-3, 5e-2)),
                left_extension=float(rng.uniform(0.0, 3e-2)),
                right_extension=float(rng.uniform(1e-3, 3e-2)),
                characteristic_impedance=float(rng.uniform(10.0, 120.0)))
    loads = rng.uniform(1.0, 5e3, m) + 1j * rng.uniform(-2e3, 2e3, m)
    kind = rng.integers(3)  # finite, open or mixed tap loads
    if kind == 1:
        loads[:] = math.inf
    elif kind == 2:
        loads[rng.random(m) < 0.5] = math.inf
    return w.build_network(
        d, float(10 ** rng.uniform(5.0, 8.0)), z_rect=loads,
        coupling_capacitance=math.inf if rng.random() < 0.3 else float(10 ** rng.uniform(-9, -5)),
        decoupling_inductance=math.inf if rng.random() < 0.3 else float(10 ** rng.uniform(-6, -3)),
        total_loss_db=0.0 if rng.random() < 0.5 else float(rng.uniform(0.0, 10.0)),
        generator_voltage=float(rng.uniform(-20.0, 20.0)),
        generator_impedance=float(rng.uniform(1.0, 100.0)))


def test_solve_taps_equals_the_per_tap_loop_bit_for_bit(design):
    # short and open lines of 1-200 taps, lossless and lossy, finite, open
    # and mixed tap loads, ideal and finite coupling C and decoupling L
    rng = np.random.default_rng(25)
    for _ in range(400):
        net = _random_network(rng, design)
        expected = _per_tap_solve(net)
        if isinstance(expected, str):
            with pytest.raises(SolverError) as info:
                w.solve_taps(net)
            assert str(info.value) == expected
        else:
            assert w.solve_taps(net).tobytes() == expected.tobytes()


@pytest.mark.parametrize("termination, count", [("short", 27), ("open", 60)])
def test_bundled_lines_solve_as_the_per_tap_loop(design, termination, count):
    d = replace(design, termination=w.Termination(termination), element_count=count)
    for f in (5e5, 7.18e6, 2.3e7):
        net = w.build_network(d, f)
        assert w.solve_taps(net).tobytes() == _per_tap_solve(net).tobytes()


def _nodal_solve(net):
    """Independent reference: the line as an admittance matrix over M + 2 nodes.

    Node 0 is the far end, nodes 1..M the taps and node M + 1 the feed.
    Each segment adds its two-port Y (from ABCD: Y11 = cos/(j Z0 sin),
    Y12 = -1/(j Z0 sin)); a shorted end goes to ground through the
    coupling capacitor (an ideal one grounds the node), the decoupling
    inductor shunts the feed, and the generator drives the feed as a
    Norton source through z_c + Z_g.
    """
    w_ = 2.0 * math.pi * net.frequency
    z0 = net.characteristic_impedance
    m = net.element_count
    y = np.zeros((m + 2, m + 2), dtype=complex)
    for k, theta in enumerate([net.lead_angle, *net.segment_angles]):  # node k to k + 1
        y_self = np.cos(theta) / (1j * z0 * np.sin(theta))
        y_mutual = -1.0 / (1j * z0 * np.sin(theta))
        y[k, k] += y_self
        y[k + 1, k + 1] += y_self
        y[k, k + 1] += y_mutual
        y[k + 1, k] += y_mutual
    for k, load in enumerate(net.tap_loads, start=1):
        if not np.isinf(load):
            y[k, k] += 1.0 / load
    ideal_c = math.isinf(net.coupling_capacitance)
    z_source = net.generator_impedance + (0.0 if ideal_c else
                                          1.0 / (1j * w_ * net.coupling_capacitance))
    if not math.isinf(net.decoupling_inductance):
        y[-1, -1] += 1.0 / (1j * w_ * net.decoupling_inductance)
    y[-1, -1] += 1.0 / z_source
    current = np.zeros(m + 2, dtype=complex)
    current[-1] = net.generator_voltage / z_source
    first = 0
    if net.termination is w.Termination.SHORT:
        if ideal_c:
            first = 1  # the far end is ground itself
        else:
            y[0, 0] += 1j * w_ * net.coupling_capacitance
    nodes = np.linalg.solve(y[first:, first:], current[first:])
    return nodes[1 - first:m + 1 - first]


def _bundled_geometry_network(rng, design):
    m = int(rng.integers(1, 120))
    d = replace(design, element_count=m,
                termination=rng.choice([w.Termination.SHORT, w.Termination.OPEN]))
    loads = rng.uniform(1.0, 5e3, m) + 1j * rng.uniform(-2e3, 2e3, m)
    kind = rng.integers(3)  # finite, open or mixed tap loads
    if kind == 1:
        loads[:] = math.inf
    elif kind == 2:
        loads[rng.random(m) < 0.5] = math.inf
    return w.build_network(
        d, float(10 ** rng.uniform(math.log10(5e4), math.log10(3e7))), z_rect=loads,
        coupling_capacitance=math.inf if rng.random() < 0.3 else float(10 ** rng.uniform(-9, -5)),
        decoupling_inductance=math.inf if rng.random() < 0.3 else float(10 ** rng.uniform(-6, -3)),
        total_loss_db=0.0 if rng.random() < 0.5 else float(rng.uniform(0.0, 3.0)),
        generator_voltage=float(rng.uniform(1.0, 20.0)),
        generator_impedance=float(rng.uniform(1.0, 100.0)))


def test_solve_taps_agrees_with_a_nodal_admittance_solve(design):
    # short and open lines of the bundled geometry, 1-119 taps, 0.05-30 MHz,
    # finite, open and mixed tap loads, 0-3 dB loss, finite and ideal C and L.
    # This draw's error against the largest tap: median 1.6e-13, max 3.7e-10;
    # dropping the coupling capacitor from the source path, the decoupling
    # inductor or the tap loads puts about two thirds of the draw above 1e-8
    rng = np.random.default_rng(29)
    for _ in range(1000):
        net = _bundled_geometry_network(rng, design)
        expected = _nodal_solve(net)
        got = w.solve_taps(net)
        assert np.abs(got - expected).max() <= 1e-8 * np.abs(expected).max()
