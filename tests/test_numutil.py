import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from wavectl.numutil import (
    AT_INFINITY,
    golden_section_maximize,
    is_at_infinity,
    parabola_vertex,
    wrap_phase,
)


def test_at_infinity_marker():
    assert is_at_infinity(AT_INFINITY)
    assert is_at_infinity(complex(math.inf, 0.0))
    assert is_at_infinity(complex(0.0, -math.inf))
    assert not is_at_infinity(1e300 + 1e300j)


def test_wrap_phase_halfopen_interval():
    # the branch cut maps to +pi, never -pi
    assert wrap_phase(math.pi) == pytest.approx(math.pi)
    assert wrap_phase(-math.pi) == pytest.approx(math.pi)
    assert wrap_phase(3 * math.pi) == pytest.approx(math.pi)
    assert wrap_phase(0.0) == 0.0


@given(st.floats(-1e6, 1e6))
def test_wrap_phase_congruent(angle):
    wrapped = wrap_phase(angle)
    assert -math.pi < wrapped <= math.pi
    # same angle modulo 2*pi
    assert math.remainder(wrapped - angle, 2 * math.pi) == pytest.approx(0.0, abs=1e-6)


def test_wrap_phase_array():
    out = wrap_phase(np.array([0.0, math.pi, -math.pi, 2 * math.pi]))
    assert np.allclose(out, [0.0, math.pi, math.pi, 0.0])


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
