"""Shared fixtures and the acceptance checklist reporter.

Tests marked ``criterion(number, label)`` feed a summary section that
prints one PASS/FAIL line per checklist item after the run.  Several
tests may share a criterion number; the line is PASS only if all of
them passed.
"""

from fractions import Fraction

import numpy as np
import pytest

import wavectl as w
from wavectl.constants import ETA0

_RESULTS = {}


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "criterion(number, label): acceptance checklist item")


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    marker = item.get_closest_marker("criterion")
    if marker is None:
        return
    key = (marker.args[0], marker.args[1])
    if report.failed or report.skipped:
        _RESULTS[key] = False
    elif report.when == "call" and report.passed:
        _RESULTS.setdefault(key, True)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _RESULTS:
        return
    terminalreporter.section("acceptance checklist")
    for number, label in sorted(_RESULTS):
        status = "PASS" if _RESULTS[(number, label)] else "FAIL"
        terminalreporter.write_line(f"ACCEPTANCE {number:02d} {label}: {status}")


@pytest.fixture(scope="session")
def bundle():
    return w.load_bundled_config()


@pytest.fixture(scope="session")
def design(bundle):
    return bundle.design


@pytest.fixture(scope="session")
def cell(bundle):
    return bundle.cell


@pytest.fixture(scope="session")
def table(bundle):
    return bundle.varactors


@pytest.fixture(scope="session")
def microstrip(bundle):
    return bundle.microstrip


def _exact_gamma(cell, table, res, caps, w):
    """Gamma of the cell's ladder at each R_v, C_v, in exact rational arithmetic.

    res and caps are arrays of the varactor's resistance and capacitance
    and w is the angular frequency, each taken as the exact value of its
    float; only the final Gamma is rounded, to complex.
    """
    def mul(p, q):
        return p[0] * q[0] - p[1] * q[1], p[0] * q[1] + p[1] * q[0]

    def add(p, q):
        return p[0] + q[0], p[1] + q[1]

    def div(p, q):
        norm = q[0] ** 2 + q[1] ** 2
        return (p[0] * q[0] + p[1] * q[1]) / norm, (p[1] * q[0] - p[0] * q[1]) / norm

    w, zero, eta0 = Fraction(w), Fraction(0), Fraction(ETA0)
    z_cd = zero, -1 / (w * Fraction(cell.C_d))
    z_d = Fraction(cell.R_d), w * Fraction(cell.L_d)
    z_s = zero, w * Fraction(cell.L_s)
    gamma = []
    for r, c in zip(np.asarray(res).tolist(), np.asarray(caps).tolist()):
        z_v = Fraction(r), w * Fraction(table.series_inductance) - 1 / (w * Fraction(c))
        series = add(z_d, div(mul(z_v, z_cd), add(z_v, z_cd)))
        z = div(mul(series, z_s), add(series, z_s))
        re, im = div((z[0] - eta0, z[1]), (z[0] + eta0, z[1]))
        gamma.append(complex(float(re), float(im)))
    return np.array(gamma)


@pytest.fixture(scope="session")
def exact_gamma():
    """The exact ladder oracle: exact_gamma(cell, table, res, caps, w) -> complex array."""
    return _exact_gamma
