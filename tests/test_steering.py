"""Operating-point search over drive frequency and amplitude."""

import math
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest

import wavectl as w
from wavectl import steering
from wavectl.errors import InputError

SMALL = w.SearchSpec(f_range=(1.0e6, 8.0e6), f_step=0.5e6,
                     w_range=(0.0, 10.0), w_step=0.5, w0=4.0)


def test_search_spec_axes_defaults():
    spec = w.SearchSpec()
    f = spec.f_axis()
    v = spec.w_axis()
    assert f.size == 300
    assert f[0] == pytest.approx(0.1e6)
    assert f[-1] == pytest.approx(30.0e6)
    assert v.size == 121
    assert v[0] == 0.0
    assert v[-1] == pytest.approx(12.0)


def test_search_spec_axis_endpoint_robustness():
    # a step that does not divide the span exactly still includes the
    # last full step below the upper bound
    spec = w.SearchSpec(f_range=(1.0e6, 2.05e6), f_step=0.3e6)
    f = spec.f_axis()
    assert np.allclose(f, [1.0e6, 1.3e6, 1.6e6, 1.9e6])


def test_search_spec_validation():
    with pytest.raises(InputError):
        w.SearchSpec(f_range=(5e6, 1e6))
    with pytest.raises(InputError):
        w.SearchSpec(f_step=0.0)
    with pytest.raises(InputError):
        w.SearchSpec(w_range=(-1.0, 5.0))


@pytest.mark.parametrize("kwargs", [
    dict(f_range=(0.1e6, 1e300)),
    dict(f_range=(1.0, 1.0 + 2**20), f_step=1.0, w_range=(0.0, 0.0), w_step=1.0),
    dict(f_range=(1.0, 1.0 + 2**10), f_step=1.0, w_range=(0.0, 1023.0), w_step=1.0),
])
def test_search_spec_bounds_the_grid(kwargs):
    # every case is refused before an axis is built; 2**20 points still pass
    with pytest.raises(InputError, match="f_range/f_step and w_range/w_step"):
        w.SearchSpec(**kwargs)
    w.SearchSpec(f_range=(1.0, float(2**20)), f_step=1.0, w_range=(0.0, 0.0), w_step=1.0)


def test_evaluate_matches_manual_pipeline(design, cell, table):
    f_b, w_b, w0, f_c = 5.5e6, 6.0, 4.0, 2.45e9
    pattern = w.evaluate_operating_point(design, cell, table, f_b, w_b, w0, f_c)
    exc = w.Excitation(dc_offset=w0, modes=(w.Mode(1, w_b),), fundamental_frequency=f_b)
    bias = w.rectified_bias(design, exc)
    profile = w.reflection_profile(cell, table, bias, f_c)
    req = w.PatternRequest(carrier_frequency=f_c, element_spacing=design.spacing,
                           theta_grid=w.default_theta_grid())
    expected = w.array_factor(profile, req)
    assert np.array_equal(pattern.magnitude, expected.magnitude)
    assert pattern.metrics.peak_angle == expected.metrics.peak_angle


def test_optimizer_deterministic(design, cell, table):
    theta = math.radians(-8.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        a = w.optimize_single_beam(design, cell, table, theta, SMALL)
        b = w.optimize_single_beam(design, cell, table, theta, SMALL)
    assert (a.f_b, a.w_b, a.objective_value) == (b.f_b, b.w_b, b.objective_value)


def test_optimizer_beats_coarse_grid(design, cell, table):
    theta = math.radians(-8.0)
    grid_best = 0.0
    for f_b in SMALL.f_axis():
        for w_b in SMALL.w_axis():
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                pat = w.evaluate_operating_point(design, cell, table, f_b, w_b,
                                                 SMALL.w0, 2.45e9,
                                                 theta_grid=np.array([theta, theta + 1e-6]))
            grid_best = max(grid_best, pat.magnitude[0])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        sol = w.optimize_single_beam(design, cell, table, theta, SMALL)
    assert sol.objective_value >= grid_best - 1e-12


def test_optimizer_refine_improves_or_keeps(design, cell, table):
    for termination in w.Termination:
        line = replace(design, termination=termination)
        for deg in (-12.5, -8.0, 0.0, 3.0, 7.0):
            theta = math.radians(deg)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                coarse = w.optimize_single_beam(line, cell, table, theta,
                                                replace(SMALL, refine=False))
                fine = w.optimize_single_beam(line, cell, table, theta, SMALL)
            assert fine.objective_value >= coarse.objective_value - 1e-15, (termination, deg)


@pytest.mark.parametrize("termination", list(w.Termination), ids=lambda t: t.value)
def test_optimizer_tie_order(design, cell, table, termination):
    # with W_b = 0 the bias is flat, so every grid point ties exactly:
    # the lowest f_b wins, and refinement keeps it
    line = replace(design, termination=termination)
    spec = w.SearchSpec(f_range=(1e6, 8e6), f_step=0.5e6, w_range=(0.0, 0.0))
    for refine in (False, True):
        for deg in (-10.0, 0.0, 7.0):
            sol = w.optimize_single_beam(line, cell, table, math.radians(deg),
                                         replace(spec, refine=refine))
            assert (sol.f_b, sol.w_b) == (1e6, 0.0), (refine, deg)


def test_optimizer_rejects_bad_target(design, cell, table):
    with pytest.raises(InputError):
        w.optimize_single_beam(design, cell, table, 2.0, SMALL)


def test_solution_to_dict_structure(design, cell, table):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        sol = w.optimize_single_beam(design, cell, table, math.radians(-4.0),
                                     replace(SMALL, refine=False))
    d = sol.to_dict()
    assert set(d) == {"f_hz", "w_volts", "objective", "objective_value", "pattern"}
    assert d["objective"]["kind"] == "maximize_at"
    assert d["objective"]["theta_deg"] == pytest.approx(-4.0)
    assert len(d["pattern"]["theta_deg"]) == len(d["pattern"]["magnitude_linear"])
    assert "metrics" in d["pattern"]


def test_specular_scan_grid(design, cell, table):
    spec = w.SearchSpec(f_range=(1e6, 4e6), f_step=1e6, w_range=(0.0, 2.0),
                        w_step=1.0, w0=4.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        grids = w.specular_scan(design, cell, table, spec, [0.0, math.radians(10.0)])
    assert len(grids) == 2
    g = grids[0]
    assert g.values.shape == (4, 3)
    # zero amplitude leaves the surface uniform: same response at every f
    assert np.allclose(g.values[:, 0], g.values[0, 0], rtol=1e-12)
    d = g.to_dict()
    assert d["probe_deg"] == pytest.approx(0.0)
    assert len(d["f_hz"]) == 4 and len(d["w_volts"]) == 3


@pytest.mark.parametrize("termination", list(w.Termination), ids=lambda t: t.value)
def test_scan_grid_matches_full_pipeline(design, cell, table, termination):
    line = replace(design, termination=termination)
    spec = w.SearchSpec(f_range=(0.5e6, 12.5e6), f_step=3e6, w_range=(0.0, 12.0),
                        w_step=4.0, w0=4.0)
    probes = [math.radians(deg) for deg in (0.0, -8.0, 5.0)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        grids = w.specular_scan(line, cell, table, spec, probes)
        for probe, grid in zip(probes, grids):
            for i, f_b in enumerate(grid.f_axis):
                for j, w_b in enumerate(grid.w_axis):
                    pattern = w.evaluate_operating_point(
                        line, cell, table, f_b, w_b, spec.w0, 2.45e9,
                        theta_grid=np.array([probe - 1e-3, probe, probe + 1e-3]))
                    assert grid.values[i, j] == pytest.approx(pattern.magnitude[1], rel=1e-12)


def test_specular_scan_probe_validation(design, cell, table):
    spec = w.SearchSpec(f_range=(1e6, 2e6), f_step=1e6, w_range=(0.0, 1.0),
                        w_step=1.0, w0=4.0)
    with pytest.raises(InputError):
        w.specular_scan(design, cell, table, spec, [2.0])
    with pytest.raises(InputError):
        w.specular_scan(design, cell, table, spec, [])


@pytest.mark.parametrize("field, value", [
    ("f_range", (1e6, math.inf)), ("f_range", (math.nan, 2e6)),
    ("w_range", (0.0, math.inf)), ("f_step", math.inf), ("w_step", math.nan),
    ("w0", math.nan),
])
def test_search_spec_rejects_non_finite(field, value):
    with pytest.raises(InputError, match="finite"):
        w.SearchSpec(**{field: value})


def test_specular_scan_rejects_nan_probe(design, cell, table):
    spec = w.SearchSpec(f_range=(1e6, 2e6), f_step=1e6, w_range=(0.0, 1.0),
                        w_step=1.0, w0=4.0)
    with pytest.raises(InputError):
        w.specular_scan(design, cell, table, spec, [math.nan])


@pytest.mark.parametrize("termination", list(w.Termination), ids=lambda t: t.value)
def test_scan_equals_one_probe_at_a_time(design, cell, table, termination):
    # one shared reflection tensor gives exactly the per-probe objective
    line = replace(design, termination=termination)
    spec = w.SearchSpec(f_range=(0.5e6, 12.5e6), f_step=1.5e6, w_range=(0.0, 12.0),
                        w_step=1.5, w0=4.0)
    probes = [math.radians(deg) for deg in (-30.0, 0.5, 12.0)]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        grids = w.specular_scan(line, cell, table, spec, probes)
    assert [c.category for c in caught] == [w.ClampWarning]
    for probe, grid in zip(probes, grids):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            (values,), clamped = steering._grid_maps(
                line, cell, table, spec.f_axis(), spec.w_axis(), spec.w0, 2.45e9, [probe])
        assert clamped
        assert np.array_equal(grid.values, values)


@pytest.mark.parametrize("elements, kwargs", [
    (2000, {}),  # the default 300 x 121 grid
    (61, dict(f_range=(1.0, float(2**20)), f_step=1.0, w_range=(0.0, 0.0), w_step=1.0)),
])
def test_search_bounds_the_reflection_tensor(design, cell, table, elements, kwargs):
    # refused before the (Nf, Nw, M) tensor is allocated
    line = replace(design, element_count=elements)
    spec = w.SearchSpec(**kwargs)
    with pytest.raises(InputError, match="design.element_count.*f_range/f_step"):
        w.optimize_single_beam(line, cell, table, math.radians(-5.0), spec)
    with pytest.raises(InputError, match="design.element_count.*f_range/f_step"):
        w.specular_scan(line, cell, table, spec, [0.0])


def test_reflection_tensor_blocks_are_exact(design, cell, table, monkeypatch):
    # evaluating the grid a few frequencies at a time changes nothing;
    # only the first frequency drives a tap past the 15 V table end
    f_axis = np.concatenate([[8.0e6], SMALL.f_axis()[:3]])
    w_axis = np.array([0.0, 6.0, 12.0])
    args = (design, cell, table, f_axis, w_axis, 4.0, 2.45e9, [-0.5, 0.0, 0.2])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        monkeypatch.setattr(steering, "_BLOCK_POINTS", 1)
        blocked, blocked_clamped = steering._grid_maps(*args)
        monkeypatch.setattr(steering, "_BLOCK_POINTS", 2**40)
        whole, whole_clamped = steering._grid_maps(*args)
    assert np.array_equal(blocked, whole)
    assert blocked_clamped and whole_clamped


# a grid of 11 frequencies that clamps on every line: with a 3.5 V dc
# offset its W = 0 column lies below the 4 V table start, and its 8 MHz
# row drives the taps of longer lines past the 15 V end; probe angles
# on both sides of broadside
CLAMPING_F = np.concatenate([SMALL.f_axis()[:10], [8.0e6]])
CLAMPING_W = np.linspace(0.0, 12.0, 7)
W0 = 3.5
PROBES = [math.radians(deg) for deg in (-40.0, -6.0, 0.0, 3.5)]


@pytest.mark.parametrize("elements", [1, 27, 60])
@pytest.mark.parametrize("termination", list(w.Termination), ids=lambda t: t.value)
def test_grid_maps_equal_the_whole_grid_contracted_at_once(design, cell, table, termination,
                                                           elements):
    # the oracle builds the whole (Nf, Nw, M) reflection tensor in one
    # call and contracts it per angle
    line = replace(design, termination=termination, element_count=elements)
    maps, clamped = steering._grid_maps(line, cell, table, CLAMPING_F, CLAMPING_W, W0,
                                        2.45e9, PROBES)
    envelope = w.btl.single_tone_envelope(line, CLAMPING_F)
    bias = W0 + CLAMPING_W[None, :, None] * envelope[:, None, :]
    gamma, whole_clamped = w.unitcell._reflection_array(cell, table, bias, 2.45e9)
    assert clamped and whole_clamped
    assert maps.shape == (len(PROBES), CLAMPING_F.size, CLAMPING_W.size)
    for probe, values in zip(PROBES, maps):
        psi = 2.0 * math.pi * 2.45e9 / w.C0 * line.spacing * math.sin(probe)
        steer = np.exp(1j * psi * np.arange(elements))
        assert np.array_equal(values, np.abs((gamma * steer).mean(axis=-1)))


def test_grid_maps_do_not_depend_on_the_block_size(design, cell, table, monkeypatch):
    # 1, 2, 3 and 11 frequencies a block: 11 frequencies leave a short
    # last block at 2 and 3, which evaluates into the front of the buffers
    runs = []
    row_points = CLAMPING_W.size * design.element_count
    for rows in (1, 2, 3, CLAMPING_F.size):
        monkeypatch.setattr(steering, "_BLOCK_POINTS", rows * row_points)
        runs.append(steering._grid_maps(design, cell, table, CLAMPING_F, CLAMPING_W, W0,
                                        2.45e9, PROBES))
    for maps, clamped in runs:
        assert clamped
        assert np.array_equal(maps, runs[0][0])


def test_non_finite_bias_in_a_later_block_raises_input_error(design, cell, table,
                                                            monkeypatch):
    # the last block of the grid carries an infinite bias
    reflection_array = w.unitcell._reflection_array
    blocks = []

    def spoiled(cell, table, volts, f_c, buf):
        blocks.append(volts.shape)
        if len(blocks) == CLAMPING_F.size:
            volts[-1, -1, -1] = math.inf
        return reflection_array(cell, table, volts, f_c, buf)

    monkeypatch.setattr(steering, "_BLOCK_POINTS", 1)
    monkeypatch.setattr(w.unitcell, "_reflection_array", spoiled)
    with pytest.raises(InputError, match="bias voltage must be finite"):
        steering._grid_maps(design, cell, table, CLAMPING_F, CLAMPING_W, W0, 2.45e9, PROBES)
    assert len(blocks) == CLAMPING_F.size


@pytest.mark.parametrize("f_c", [0.0, -1.0, math.inf, math.nan, 5e-324, 1e-150, 1e200, 1e308])
def test_carrier_outside_the_kernel_range_is_refused(design, cell, table, f_c):
    # one check at the kernel's entry names the carrier before any
    # ZeroDivisionError, NaN or RuntimeWarning
    named = re.escape(f"carrier frequency {f_c!r} Hz")
    with pytest.raises(InputError, match=named):
        w.specular_scan(design, cell, table, SMALL, [0.0], f_c=f_c)
    with pytest.raises(InputError, match=named):
        w.optimize_single_beam(design, cell, table, 0.0, SMALL, f_c=f_c)
    with pytest.raises(InputError, match=named):
        w.reflection_profile(cell, table, np.array([4.0, 8.0]), f_c)


@pytest.mark.parametrize("f_c", [1e-140, 1e30, 1e160])
def test_extreme_carriers_inside_the_kernel_range_stay_finite(design, cell, table, f_c):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", w.ClampWarning)
        (grid,) = w.specular_scan(design, cell, table, SMALL, [0.0], f_c=f_c)
    assert np.isfinite(grid.values).all()
