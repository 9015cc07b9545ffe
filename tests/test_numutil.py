import dataclasses
import itertools
import math

import numpy as np
import pytest

import wavectl as w
from wavectl.numutil import golden_section_maximize, parabola_vertex


def test_golden_section_finds_parabola_peak():
    x, val = golden_section_maximize(lambda x: -(x - 0.3) ** 2, -1.0, 1.0, 1e-10)
    assert x == pytest.approx(0.3, abs=1e-7)
    assert val == pytest.approx(0.0, abs=1e-12)


def test_golden_section_deterministic():
    fun = lambda x: math.sin(3 * x) + 0.1 * x
    a = golden_section_maximize(fun, 0.0, 2.0, 1e-9)
    b = golden_section_maximize(fun, 0.0, 2.0, 1e-9)
    assert a == b


def test_golden_section_scalar_returns_floats():
    x, val = golden_section_maximize(lambda x: -(x - 0.3) ** 2, 1.0, -1.0, 1e-6)
    assert type(x) is float and type(val) is float


def test_parabola_vertex_only_for_a_downward_parabola():
    x, y = parabola_vertex((0.0, 1.0, 3.0), (-1.0, 0.0, -4.0))  # y = -(x - 1)**2
    assert x == pytest.approx(1.0, abs=1e-12)
    assert y == pytest.approx(0.0, abs=1e-12)
    assert parabola_vertex((0.0, 1.0, 2.0), (2.0, 2.0, 2.0)) is None  # flat
    assert parabola_vertex((0.0, 1.0, 2.0), (0.0, 1.0, 2.0)) is None  # linear
    assert parabola_vertex((0.0, 1.0, 2.0), (1.0, 0.0, 1.0)) is None  # upward


def test_parabola_vertex_value_is_stable_to_an_ulp_of_the_samples():
    # three samples 0.05 deg apart around a cosine peak anywhere in the
    # visible span, as the pattern's peak refinement sees them: moving an
    # outer sample by 1 ulp moves the vertex value by a few ulp at most
    rng = np.random.default_rng(20)
    step = math.radians(0.05)
    for _ in range(500):
        x1 = math.radians(rng.uniform(-85.0, 85.0))
        x = (x1 - step, x1, x1 + step)
        peak = x1 + rng.uniform(-0.5, 0.5) * step
        width = math.radians(rng.uniform(1.0, 20.0))
        y = tuple(math.cos((xi - peak) / width) for xi in x)
        _, value = parabola_vertex(x, y)
        for up0, up2 in itertools.product((-math.inf, math.inf), repeat=2):
            moved = (math.nextafter(y[0], up0), y[1], math.nextafter(y[2], up2))
            _, moved_value = parabola_vertex(x, moved)
            assert abs(moved_value - value) <= 4 * math.ulp(value), (x, y)


def _two_biases(config):
    return tuple(w.rectified_bias(config.design, config.excitation) for _ in range(2))


def _two_profiles(config):
    bias = w.rectified_bias(config.design, config.excitation)
    return tuple(w.reflection_profile(config.cell, config.varactors, bias, f_c)
                 for f_c in (2.40e9, 2.45e9))


def _two_patterns(config):
    grid = w.default_theta_grid()
    profile = w.reflection_profile(config.cell, config.varactors,
                                   w.rectified_bias(config.design, config.excitation),
                                   config.carrier_frequency)
    return tuple(w.array_factor(profile, config.design.spacing, config.carrier_frequency, grid)
                 for _ in range(2))


def _two_sweeps(config):
    f = np.linspace(1e9, 4e9, 16)
    return w.synthesize_samples(config.cell, f), w.synthesize_samples(config.cell, f)


def _two_scan_maps(config):
    spec = w.SearchSpec(f_step=1e6, w_range=(0.0, 10.0), w_step=1.0)
    return tuple(w.specular_scan(config.design, config.cell, config.varactors, spec,
                                 [0.0, math.radians(5.0)], f_c=config.carrier_frequency)
                 for _ in range(2))


def _result_arrays(result):
    if isinstance(result, np.ndarray):  # a stage whose one output is an array
        return [result]
    return [getattr(result, field.name) for field in dataclasses.fields(result)
            if isinstance(getattr(result, field.name), np.ndarray)]


# the BiasPattern, ReflectionProfile and ScanGrid cases are the bias,
# reflection and scan-map arrays that rectified_bias, reflection_profile and
# specular_scan return in place of those types
@pytest.mark.parametrize("results", [
    _two_biases, _two_profiles, _two_patterns, _two_sweeps, _two_scan_maps,
], ids=["BiasPattern", "ReflectionProfile", "RadiationPattern", "ImpedanceSamples", "ScanGrid"])
def test_result_arrays_are_read_only_and_unshared(bundle, results):
    arrays = [array for result in results(bundle) for array in _result_arrays(result)]
    assert arrays
    assert not any(array.flags.writeable for array in arrays)
    for a, b in itertools.combinations(arrays, 2):
        assert not np.shares_memory(a, b)
