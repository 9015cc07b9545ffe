"""Small numeric helpers: frozen array fields, a golden-section line
search and a three-point parabola vertex."""

import math

import numpy as np


def freeze_field(obj, name, values, dtype=float):
    """Store a C-contiguous, read-only copy of ``values`` as ``obj.name`` and return it.

    ``obj`` may be a frozen dataclass: the copy is stored past its
    ``__setattr__``.
    """
    array = np.array(values, dtype=dtype, order="C")
    array.setflags(write=False)
    object.__setattr__(obj, name, array)
    return array


_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def golden_section_maximize(fun, lo, hi, tol):
    """Golden-section search for the maximizer of ``fun`` on [lo, hi].

    Assumes the function is unimodal on the bracket; on multimodal
    input it still terminates and returns a local result.  Returns
    (x, fun(x)) with x a Python float.  Each step evaluates one new
    interior point.  Fully deterministic for identical inputs.
    """
    a, b = float(min(lo, hi)), float(max(lo, hi))
    if b - a > tol:
        c = b - _INVPHI * (b - a)
        d = a + _INVPHI * (b - a)
        fc = fun(c)
        fd = fun(d)
        while b - a > tol:
            # keep [a, d] when c is the better point, else [c, b]; the
            # surviving interior point is reused
            if fc >= fd:
                b, d, fd = d, c, fc
                c = b - _INVPHI * (b - a)
                fc = fun(c)
            else:
                a, c, fc = c, d, fd
                d = a + _INVPHI * (b - a)
                fd = fun(d)
    x = 0.5 * (a + b)
    return x, fun(x)


def parabola_vertex(x, y):
    """Vertex (x_v, y_v) of the parabola through three (x, y) points.

    Returns None unless the parabola opens downward, so a flat, linear
    or upward-opening fit never poses as a maximum.  The x values must
    be distinct.
    """
    # fit y = y1 + b*t + a*t**2 in t = x - x1, so each term is a difference
    # from the middle sample and none cancels against another
    x0, x1, x2 = x
    y0, y1, y2 = y
    s0 = (y0 - y1) / (x0 - x1)
    s2 = (y2 - y1) / (x2 - x1)
    a = (s2 - s0) / (x2 - x0)
    if not a < 0:
        return None
    b = s0 - a * (x0 - x1)
    return x1 - b / (2.0 * a), y1 - b * b / (4.0 * a)
