"""Small numeric helpers: open-circuit markers, phase wrapping, a
golden-section line search and a three-point parabola vertex."""

import math

import numpy as np

# Explicit marker for an impedance pole / removed branch.  Comparing
# floats against this is avoided; use is_at_infinity instead.
AT_INFINITY = complex(math.inf, math.inf)


def is_at_infinity(z):
    """True when ``z`` represents an open circuit (any infinite part)."""
    z = complex(z)
    return math.isinf(z.real) or math.isinf(z.imag)


def wrap_phase(angle):
    """Wrap an angle (radians) to the principal interval (-pi, pi]."""
    wrapped = np.mod(np.asarray(angle, dtype=float) + np.pi, 2.0 * np.pi) - np.pi
    # np.mod lands on [-pi, pi); fold the open end onto +pi
    wrapped = np.where(wrapped == -np.pi, np.pi, wrapped)
    if np.ndim(angle) == 0:
        return float(wrapped)
    return wrapped


_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def golden_section_maximize(fun, lo, hi, tol):
    """Golden-section search for the maximizer of ``fun`` on [lo, hi].

    Assumes the function is unimodal on the bracket; on multimodal
    input it still terminates and returns a local result.  Returns
    (x, fun(x)).  Fully deterministic for identical inputs.

    lo and hi may also be arrays of brackets searched side by side:
    ``fun`` then maps an array of points to an array of values
    elementwise, and each bracket stops shrinking once it is within
    tol, so every bracket ends where a scalar call on it would.  Each
    step evaluates one new interior point per bracket.
    """
    scalar = np.ndim(lo) == 0 and np.ndim(hi) == 0
    call = (lambda x: fun(float(x))) if scalar else fun
    a = np.minimum(lo, hi).astype(float)
    b = np.maximum(lo, hi).astype(float)
    active = (b - a) > tol
    if np.any(active):
        c = b - _INVPHI * (b - a)
        d = a + _INVPHI * (b - a)
        fc = call(c)
        fd = call(d)
        while np.any(active):
            # keep [a, d] where c is the better point, else [c, b]; the
            # surviving interior point is reused, so one new evaluation
            left = np.greater_equal(fc, fd)
            b = np.where(active & left, d, b)
            a = np.where(active & ~left, c, a)
            x = np.where(left, b - _INVPHI * (b - a), a + _INVPHI * (b - a))
            fx = call(x)
            c, d = np.where(left, x, d), np.where(left, c, x)
            fc, fd = np.where(left, fx, fd), np.where(left, fc, fx)
            active = (b - a) > tol
    x = 0.5 * (a + b)
    return (float(x), fun(float(x))) if scalar else (x, fun(x))


def parabola_vertex(x, y):
    """Vertex (x_v, y_v) of the parabola through three (x, y) points.

    Returns None unless the parabola opens downward, so a flat, linear
    or upward-opening fit never poses as a maximum.  The x values must
    be distinct.
    """
    # explicit Lagrange form of y = a*x**2 + b*x + c
    x0, x1, x2 = x
    y0, y1, y2 = y
    d0 = (x1 - x0) * (x2 - x0)
    d1 = (x1 - x0) * (x2 - x1)
    d2 = (x2 - x0) * (x2 - x1)
    a = y0 / d0 - y1 / d1 + y2 / d2
    if not a < 0:
        return None
    b = -y0 * (x1 + x2) / d0 + y1 * (x0 + x2) / d1 - y2 * (x0 + x1) / d2
    c = y0 * x1 * x2 / d0 - y1 * x0 * x2 / d1 + y2 * x0 * x1 / d2
    return -b / (2.0 * a), c - b * b / (4.0 * a)
