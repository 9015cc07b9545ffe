"""Tests of the benchmark itself: ``python3 -m pytest perfbench``."""

import run


def test_tail_has_ten_samples_beyond_it():
    latencies = [float(i) for i in range(30, 0, -1)]
    value, percentile = run.tail(latencies)
    assert value == 20.0
    assert sum(x > value for x in latencies) == run.TAIL_BEYOND
    assert abs(percentile - 200.0 / 3.0) < 1e-12


def test_self_check():
    assert run.main(["--self-check"]) == 0
