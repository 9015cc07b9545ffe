"""Operating-point search over drive frequency and amplitude."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

import wavectl as w
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
    theta = math.radians(-8.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        coarse = w.optimize_single_beam(design, cell, table, theta,
                                        replace(SMALL, refine=False))
        fine = w.optimize_single_beam(design, cell, table, theta, SMALL)
    assert fine.objective_value >= coarse.objective_value - 1e-15


def test_minimize_specular_objective(design, cell, table):
    spec = replace(SMALL, objective=w.MinimizeSpecular())
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        sol = w.optimize_single_beam(design, cell, table, 0.0, spec)
        baseline = w.evaluate_operating_point(design, cell, table, 2.0e6, 0.0, 4.0,
                                              2.45e9).metrics.specular_value
    assert sol.objective_value < baseline
    assert sol.to_dict()["objective"]["kind"] == "minimize_specular"


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


def test_large_angle_frequency_frozen():
    out = w.large_angle_frequency(math.radians(13.6), 2.45e9, 19.34)
    assert out.frequency == pytest.approx(7446977.470286266, rel=1e-12)
    assert not out.degenerate
    zero = w.large_angle_frequency(0.0, 2.45e9, 19.34)
    assert zero.degenerate
    assert zero.frequency == 0.0
    # sign of the angle does not matter
    neg = w.large_angle_frequency(math.radians(-13.6), 2.45e9, 19.34)
    assert neg.frequency == pytest.approx(out.frequency)


def test_phase_wrap_budget_frozen():
    ok = w.phase_wrap_budget(math.radians(12.0), 0.02, 2.45e9, 27)
    assert math.degrees(ok.total_span) == pytest.approx(318.0754396318307, rel=1e-12)
    assert ok.within_budget
    tight = w.phase_wrap_budget(math.radians(6.0), 0.02, 2.45e9, 60)
    assert math.degrees(tight.total_span) == pytest.approx(362.88118839348196, rel=1e-12)
    assert not tight.within_budget


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
