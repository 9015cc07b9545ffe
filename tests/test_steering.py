"""Operating-point search over drive frequency and amplitude."""

import math
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest

import wavectl as w
from wavectl import steering
from wavectl.cli import _cmd_steer, build_parser
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
    expected = w.array_factor(profile, design.spacing, f_c, w.default_theta_grid())
    assert np.array_equal(pattern.magnitude, expected.magnitude)
    assert pattern.peak_angle == expected.peak_angle


def test_optimizer_deterministic(design, cell, table):
    theta = math.radians(-8.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        a = w.optimize_single_beam(design, cell, table, theta, SMALL)
        b = w.optimize_single_beam(design, cell, table, theta, SMALL)
    assert a == b


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
        *_, value = w.optimize_single_beam(design, cell, table, theta, SMALL)
    assert value >= grid_best - 1e-12


def test_optimizer_refine_improves_or_keeps(design, cell, table):
    for termination in w.Termination:
        line = replace(design, termination=termination)
        for deg in (-12.5, -8.0, 0.0, 3.0, 7.0):
            theta = math.radians(deg)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                *_, coarse = w.optimize_single_beam(line, cell, table, theta,
                                                    replace(SMALL, refine=False))
                *_, fine = w.optimize_single_beam(line, cell, table, theta, SMALL)
            assert fine >= coarse - 1e-15, (termination, deg)


@pytest.mark.parametrize("termination", list(w.Termination), ids=lambda t: t.value)
def test_optimizer_tie_order(design, cell, table, termination):
    # with W_b = 0 the bias is flat, so every grid point ties exactly:
    # the lowest f_b wins, and refinement keeps it
    line = replace(design, termination=termination)
    spec = w.SearchSpec(f_range=(1e6, 8e6), f_step=0.5e6, w_range=(0.0, 0.0))
    for refine in (False, True):
        for deg in (-10.0, 0.0, 7.0):
            f_b, w_b, _ = w.optimize_single_beam(line, cell, table, math.radians(deg),
                                                 replace(spec, refine=refine))
            assert (f_b, w_b) == (1e6, 0.0), (refine, deg)


def test_optimizer_rejects_bad_target(design, cell, table):
    with pytest.raises(InputError):
        w.optimize_single_beam(design, cell, table, 2.0, SMALL)


def test_a_clamping_search_warns_once_at_its_caller(bundle):
    # the default grid clamps on the bundled short 27-tap line; the search
    # warns its caller once and draws no pattern that would warn again
    assert (bundle.design.termination, bundle.design.element_count) == (w.Termination.SHORT, 27)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        w.optimize_single_beam(bundle.design, bundle.cell, bundle.varactors, math.radians(6.0),
                               w.SearchSpec(refine=False), f_c=bundle.carrier_frequency)
    clamps = [record for record in caught if issubclass(record.category, w.ClampWarning)]
    assert [record.filename for record in clamps] == [__file__]


def test_solution_to_dict_structure(bundle):
    # steer.json's body, which cli lays out from the solution's fields
    args = build_parser().parse_args(["steer", "--theta", "-4", "--coarse-only"])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        d = _cmd_steer(args, bundle)["steer.json"]
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
    assert g.shape == (4, 3)
    # zero amplitude leaves the surface uniform: same response at every f
    assert np.allclose(g[:, 0], g[0, 0], rtol=1e-12)


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
            for i, f_b in enumerate(spec.f_axis()):
                for j, w_b in enumerate(spec.w_axis()):
                    pattern = w.evaluate_operating_point(
                        line, cell, table, f_b, w_b, spec.w0, 2.45e9,
                        theta_grid=np.array([probe - 1e-3, probe, probe + 1e-3]))
                    assert grid[i, j] == pytest.approx(pattern.magnitude[1], rel=1e-12)


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


def _grid_maps(line, cell, table, f_axis, w_axis, w0, f_c, thetas):
    """steering._grid_maps over the line's single-tone envelope, at the angles thetas."""
    steer = w.radiation._phase_rows(line.element_count, line.spacing, f_c, thetas).T
    return steering._grid_maps(cell, table, w.btl.single_tone_envelope(line, f_axis), w_axis,
                               w0, f_c, steer, w.unitcell._ladder(cell, table, f_c))


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
            (values,), clamped = _grid_maps(line, cell, table, spec.f_axis(), spec.w_axis(),
                                            spec.w0, 2.45e9, [probe])
        assert clamped
        assert np.array_equal(grid, values)


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
        blocked, blocked_clamped = _grid_maps(*args)
        monkeypatch.setattr(steering, "_BLOCK_POINTS", 2**40)
        whole, whole_clamped = _grid_maps(*args)
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


# the default grid's first 12 frequencies, (i + 1) * 0.1 MHz, where the
# tap products (i + 1) * (2m + 1) repeat along a line, then 3 of them
# again, so that a one-tap line repeats levels too
REPEATING_F = w.SearchSpec().f_axis()[np.r_[:12, 1, 4, 9]]


@pytest.mark.parametrize("elements", [1, 27, 60])
@pytest.mark.parametrize("termination", list(w.Termination), ids=lambda t: t.value)
def test_grid_maps_equal_the_whole_grid_contracted_at_once(design, cell, table, termination,
                                                           elements):
    # the oracle builds the whole (Nf, Nw, M) reflection tensor in one
    # call and contracts it per angle, on a grid that clamps and on one
    # whose envelope levels repeat, so that the kernel's levels are
    # gathered back to more than one tap
    line = replace(design, termination=termination, element_count=elements)
    repeating = w.btl.single_tone_envelope(line, REPEATING_F)
    assert np.unique(repeating).size < repeating.size
    for f_axis in (CLAMPING_F, REPEATING_F):
        maps, clamped = _grid_maps(line, cell, table, f_axis, CLAMPING_W, W0, 2.45e9, PROBES)
        envelope = w.btl.single_tone_envelope(line, f_axis)
        bias = W0 + CLAMPING_W[None, :, None] * envelope[:, None, :]
        gamma, whole_clamped = w.unitcell._reflection_array(cell, table, bias, 2.45e9)
        assert clamped and whole_clamped
        assert maps.shape == (len(PROBES), f_axis.size, CLAMPING_W.size)
        for probe, values in zip(PROBES, maps):
            psi = 2.0 * math.pi * 2.45e9 / w.C0 * line.spacing * math.sin(probe)
            steer = np.exp(1j * psi * np.arange(elements))
            assert np.array_equal(values, np.abs((gamma * steer).mean(axis=-1)))


def test_grid_maps_do_not_depend_on_the_block_size(design, cell, table, monkeypatch):
    # block sizes of 1 and M give one W row over one frequency's levels,
    # the next ones one W row over 2, 6 and all 11 frequencies' levels,
    # then 2, 3 and all 7 W rows over all 11: 11 frequencies and 7 W rows
    # leave short last blocks, which evaluate into the front of the buffers
    runs = []
    count = design.element_count
    f_points = CLAMPING_F.size * count
    for size in (1, count, 2 * count, 6 * count, f_points, 2 * f_points, 3 * f_points,
                 CLAMPING_W.size * f_points):
        monkeypatch.setattr(steering, "_BLOCK_POINTS", size)
        runs.append(_grid_maps(design, cell, table, CLAMPING_F, CLAMPING_W, W0, 2.45e9, PROBES))
    for maps, clamped in runs:
        assert clamped
        assert np.array_equal(maps, runs[0][0])


def test_a_clamp_in_the_first_of_several_kernel_blocks_is_kept(design, cell, table,
                                                                monkeypatch):
    # at one W row a block, only the first of the three blocks of the one
    # frequency drives a tap past the 15 V table end
    monkeypatch.setattr(steering, "_BLOCK_POINTS", 1)
    args = (design, cell, table, np.array([8.0e6]))
    _, clamped = _grid_maps(*args, np.array([12.0, 0.0, 6.0]), 4.0, 2.45e9, [0.0])
    _, unclamped = _grid_maps(*args, np.array([0.0, 6.0]), 4.0, 2.45e9, [0.0])
    assert clamped and not unclamped


def test_non_finite_bias_in_a_later_block_raises_input_error(design, cell, table,
                                                            monkeypatch):
    # a clean run counts the kernel blocks; then the last of them carries
    # an infinite bias, and every block before it still runs
    reflection_array = w.unitcell._reflection_array
    blocks = []
    spoil = [None]

    def spoiled(cell, table, volts, f_c, z, tmp, ladder):
        blocks.append(volts.shape)
        if len(blocks) == spoil[0]:
            volts[..., -1] = math.inf
        return reflection_array(cell, table, volts, f_c, z, tmp, ladder)

    monkeypatch.setattr(steering, "_BLOCK_POINTS", 1)
    monkeypatch.setattr(w.unitcell, "_reflection_array", spoiled)
    args = (design, cell, table, CLAMPING_F, CLAMPING_W, W0, 2.45e9, PROBES)
    _grid_maps(*args)
    spoil[0], clean = len(blocks), blocks[:]
    assert len(clean) > 1
    blocks.clear()
    with pytest.raises(InputError, match="bias voltage must be finite"):
        _grid_maps(*args)
    assert blocks == clean


@pytest.mark.parametrize("elements", [27, 60])
@pytest.mark.parametrize("termination", [w.Termination.SHORT, w.Termination.OPEN],
                         ids=lambda t: t.value)
def test_refinement_point_equals_the_one_point_grid(design, cell, table, termination,
                                                    elements):
    # the refinement's val > best_val compares a point value with a grid
    # value, so a refined objective equals the one-point grid bit for bit
    line = replace(design, termination=termination, element_count=elements)
    spec = w.SearchSpec(w0=W0)
    rng = np.random.default_rng(elements)
    for theta in rng.uniform(-0.7, 0.7, 5):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", w.ClampWarning)
            f_b, w_b, value = w.optimize_single_beam(line, cell, table, theta, spec)
        maps, _ = _grid_maps(line, cell, table, np.array([f_b]), np.array([w_b]), W0,
                             2.45e9, [theta])
        # the refinement moved the point off the coarse grid
        assert f_b not in spec.f_axis() or w_b not in spec.w_axis()
        assert value == maps[0, 0, 0]


@pytest.mark.parametrize("f_c", [0.0, -1.0, math.inf, math.nan, 5e-324, 1e-300, 1e308])
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


@pytest.mark.parametrize("f_c", [1e-200, 1e-150, 1e-140, 1e30, 1e160, 1e200, 1e300, 1e307])
def test_extreme_carriers_inside_the_kernel_range_stay_finite(design, cell, table, exact_gamma,
                                                               f_c):
    # the bilinear map stays finite where a product of the ladder's
    # steps would overflow, and within 2e-14 of the rational ladder there
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", w.ClampWarning)
        (grid,) = w.specular_scan(design, cell, table, SMALL, [0.0], f_c=f_c)
        volts = np.linspace(3.5, 16.0, 26)
        gamma = w.reflection_profile(cell, table, volts, f_c)
    assert np.isfinite(grid).all()
    res_caps, _ = w.unitcell._lookup_arrays(table, volts)
    exact = exact_gamma(cell, table, res_caps.real, res_caps.imag, 2.0 * math.pi * f_c)
    assert np.max(np.abs(gamma - exact)) <= 2e-14


@pytest.mark.parametrize("build, fragment", [
    # a probe off the angle axis refuses the whole scan, not only its own map
    (lambda d, c, t: w.specular_scan(d, c, t, SMALL, [0.0, math.radians(91.0)]),
     "target and probe angles must lie within +-90 degrees"),
], ids=["values_off_axes"])
def test_steering_typed_errors(design, cell, table, build, fragment):
    with pytest.raises(InputError) as info:
        build(design, cell, table)
    assert fragment in str(info.value)


def test_criterion_7_red_row_misses_by_its_frequency(bundle):
    # criterion 7's one red row asks -6 deg of (0.5 MHz, 10.4 V) on the shorted
    # 60-tap line; its test and rows stay as tabulated, and this one pins
    # which half of the drive the bundled cell disagrees with
    design = replace(bundle.design, termination=w.Termination.SHORT, element_count=60)

    def peak(f_b, w_b):
        pattern = w.evaluate_operating_point(design, bundle.cell, bundle.varactors,
                                             f_b, w_b, 4.0, 2.45e9)
        return math.degrees(pattern.peak_angle), pattern.peak_value

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", w.ClampWarning)
        # the row's amplitude at 0.75 to 2.15 MHz: every frequency places the beam
        by_frequency = {k * 50e3: peak(k * 50e3, 10.4) for k in range(15, 44)}
        # the row's frequency at 0 to 12 V: no amplitude does
        by_amplitude = [peak(0.5e6, k / 10)[0] for k in range(121)]
    assert all(abs(angle + 6.0) <= 1.5 for angle, _ in by_frequency.values())
    best = max(by_frequency, key=lambda f_b: by_frequency[f_b][1])
    assert best == 0.9e6
    assert by_frequency[best][1] == pytest.approx(0.839, abs=5e-4)
    assert all(abs(angle + 6.0) > 1.5 for angle in by_amplitude)
    assert min(by_amplitude) == pytest.approx(-3.14, abs=5e-3)
    assert max(by_amplitude) == pytest.approx(0.0, abs=1e-9)
    # nor can the bundled generator deliver the row's amplitude at its frequency
    delivered = w.standing_wave_amplitude(design, bundle.excitation, 0.5e6)
    assert delivered == pytest.approx(3.94, abs=5e-3)
    assert delivered < 10.4
