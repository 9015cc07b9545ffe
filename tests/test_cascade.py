"""Tapped-line network model against the unloaded closed form."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

import wavectl as w
from wavectl.errors import InputError, SolverError

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
            assert np.allclose(np.abs(nodes.tap_voltages), wb * env,
                               rtol=1e-9, atol=1e-12)


def test_node_count(design):
    net = w.build_network(design, 5e6, **IDEAL)
    assert len(w.solve_taps(net)) == 28


def test_finite_coupling_shifts_taps(design):
    f = 5e6
    ideal = w.solve_taps(w.build_network(design, f, **IDEAL))
    loaded = w.solve_taps(w.build_network(
        design, f,
        z_rect=math.inf, coupling_capacitance=1e-6, decoupling_inductance=680e-6))
    delta = np.abs(np.abs(loaded.tap_voltages) - np.abs(ideal.tap_voltages))
    assert delta.max() > 1e-6


def test_rectifier_loading_shifts_taps(design):
    f = 5e6
    ideal = w.solve_taps(w.build_network(design, f, **IDEAL))
    loaded = w.solve_taps(w.build_network(
        design, f, z_rect=1000.0,
        coupling_capacitance=math.inf, decoupling_inductance=math.inf))
    assert np.abs(loaded.tap_voltages - ideal.tap_voltages).max() > 1e-3


def test_loss_damps_the_resonant_peak(design):
    lossless = w.solve_taps(w.build_network(design, F0, **IDEAL))
    lossy = w.solve_taps(w.build_network(design, F0, total_loss_db=3.0, **IDEAL))
    assert np.abs(lossy.tap_voltages).max() < np.abs(lossless.tap_voltages).max()


def test_per_tap_loads_broadcast(design):
    loads = np.full(27, 1e3, dtype=complex)
    loads[13] = 50.0
    net = w.build_network(design, 5e6, z_rect=loads)
    uniform = w.build_network(design, 5e6, z_rect=1e3)
    a = w.solve_taps(net).tap_voltages
    b = w.solve_taps(uniform).tap_voltages
    assert not np.allclose(a, b)


def test_dead_short_tap_raises(design):
    net = w.build_network(design, 5e6, z_rect=0.0 + 0.0j)
    with pytest.raises(SolverError):
        w.solve_taps(net)


def test_rectified_from_phasors_clamps(design):
    net = w.build_network(design, 5e6, **IDEAL)
    nodes = w.solve_taps(net)
    bias = w.rectified_from_phasors(nodes, 4.0, diode_drop=1e6)
    assert np.allclose(bias.voltages, 4.0)
    plain = w.rectified_from_phasors(nodes, 4.0)
    assert np.allclose(plain.voltages, 4.0 + np.abs(nodes.tap_voltages))


@pytest.mark.parametrize("drop", [0.35, 1e6])
def test_diode_drop_agrees_on_ideal_and_loaded_paths(bundle, drop):
    # criterion 10's ideal cascade: the closed-form bias and the network
    # solve apply the same clamped drop to the same envelope
    exc = bundle.excitation
    for f in (0.9e6, 5.1e6, 12.3e6):
        for term in (w.Termination.SHORT, w.Termination.OPEN):
            d = replace(bundle.design, termination=term)
            tone = w.Excitation(dc_offset=exc.dc_offset, fundamental_frequency=f,
                                modes=(w.Mode(1, w.standing_wave_amplitude(d, exc, f)),))
            ideal = w.rectified_bias(d, tone, diode_drop=drop)
            net = w.build_network(d, f, **IDEAL,
                                  generator_voltage=exc.generator_voltage,
                                  generator_impedance=exc.generator_impedance)
            loaded = w.rectified_from_phasors(w.solve_taps(net), exc.dc_offset, diode_drop=drop)
            assert np.abs(ideal.voltages - loaded.voltages).max() <= 1e-6


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
