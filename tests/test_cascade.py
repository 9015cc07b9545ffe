"""Tapped-line network model against the unloaded closed form."""

import math
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


def test_build_network_basics(design, microstrip):
    net = w.build_network(design, microstrip, w.RectifierSpec(), 5e6)
    assert net.element_count == 27
    assert net.termination is w.CascadeTermination.SHORT_VIA_CF
    assert np.allclose(net.tap_loads, 1000.0 + 0.0j)
    open_net = w.build_network(replace(design, termination=w.Termination.OPEN),
                               microstrip, w.RectifierSpec(), 5e6)
    assert open_net.termination is w.CascadeTermination.OPEN_FLOATING
    with pytest.raises(InputError):
        w.build_network(replace(design, termination=w.Termination.MATCHED),
                        microstrip, w.RectifierSpec(), 5e6)


def test_microstrip_and_slowness_agree(design, microstrip):
    # the design's slowness was derived from this cross-section, so
    # both construction paths give the same electrical angles
    a = w.build_network(design, microstrip, w.RectifierSpec(), 5e6)
    b = w.build_network(design, None, w.RectifierSpec(), 5e6)
    assert np.allclose(a.segment_angles, b.segment_angles, rtol=1e-12)
    assert a.lead_angle == pytest.approx(b.lead_angle, rel=1e-12)


def test_ideal_limit_matches_closed_form(design):
    rng = np.random.default_rng(7)
    for _ in range(10):
        f = float(rng.uniform(0.5e6, 3.0e7))
        for term in (w.Termination.SHORT, w.Termination.OPEN):
            d = replace(design, termination=term)
            wb = w.standing_wave_amplitude(d, _exc(f), f)
            net = w.build_network(d, None, w.RectifierSpec(), f, **IDEAL)
            nodes = w.solve_taps(net)
            u = d.tap_positions() + d.left_extension
            k = d.wavenumber(f)
            env = np.abs(np.sin(k * u)) if term is w.Termination.SHORT \
                else np.abs(np.cos(k * u))
            assert np.allclose(np.abs(nodes.tap_voltages), wb * env,
                               rtol=1e-9, atol=1e-12)


def test_node_count(design):
    net = w.build_network(design, None, w.RectifierSpec(), 5e6, **IDEAL)
    assert len(w.solve_taps(net)) == 28


def test_finite_coupling_shifts_taps(design):
    f = 5e6
    ideal = w.solve_taps(w.build_network(design, None, w.RectifierSpec(), f, **IDEAL))
    loaded = w.solve_taps(w.build_network(
        design, None, w.RectifierSpec(), f,
        z_rect=math.inf, coupling_capacitance=1e-6, decoupling_inductance=680e-6))
    delta = np.abs(np.abs(loaded.tap_voltages) - np.abs(ideal.tap_voltages))
    assert delta.max() > 1e-6


def test_rectifier_loading_shifts_taps(design):
    f = 5e6
    ideal = w.solve_taps(w.build_network(design, None, w.RectifierSpec(), f, **IDEAL))
    loaded = w.solve_taps(w.build_network(
        design, None, w.RectifierSpec(), f, z_rect=1000.0,
        coupling_capacitance=math.inf, decoupling_inductance=math.inf))
    assert np.abs(loaded.tap_voltages - ideal.tap_voltages).max() > 1e-3


def test_loss_damps_the_resonant_peak(design):
    lossless = w.solve_taps(w.build_network(design, None, w.RectifierSpec(), F0, **IDEAL))
    lossy = w.solve_taps(w.build_network(design, None, w.RectifierSpec(), F0,
                                         total_loss_db=3.0, **IDEAL))
    assert np.abs(lossy.tap_voltages).max() < np.abs(lossless.tap_voltages).max()


def test_per_tap_loads_broadcast(design):
    loads = np.full(27, 1e3, dtype=complex)
    loads[13] = 50.0
    net = w.build_network(design, None, w.RectifierSpec(), 5e6, z_rect=loads)
    uniform = w.build_network(design, None, w.RectifierSpec(), 5e6, z_rect=1e3)
    a = w.solve_taps(net).tap_voltages
    b = w.solve_taps(uniform).tap_voltages
    assert not np.allclose(a, b)


def test_dead_short_tap_raises(design):
    net = w.build_network(design, None, w.RectifierSpec(), 5e6, z_rect=0.0 + 0.0j)
    with pytest.raises(SolverError):
        w.solve_taps(net)


def test_rectifier_spec():
    spec = w.RectifierSpec()
    assert spec.time_constant == pytest.approx(2.0e-6)
    with pytest.raises(InputError):
        w.RectifierSpec(load_resistance=-1.0)
    with pytest.raises(InputError):
        w.RectifierSpec(line_loading=-5.0 + 0.0j)


def test_rectified_from_phasors_clamps(design):
    net = w.build_network(design, None, w.RectifierSpec(), 5e6, **IDEAL)
    nodes = w.solve_taps(net)
    bias = w.rectified_from_phasors(nodes, 4.0, diode_drop=1e6)
    assert np.allclose(bias.voltages, 4.0)
    plain = w.rectified_from_phasors(nodes, 4.0)
    assert np.allclose(plain.voltages, 4.0 + np.abs(nodes.tap_voltages))


@pytest.mark.parametrize("loss", [math.nan, math.inf, -1.0])
def test_build_network_rejects_bad_loss(design, loss):
    with pytest.raises(InputError, match="total_loss_db"):
        w.build_network(design, None, w.RectifierSpec(), 5e6, total_loss_db=loss)
