"""Byte-mutation fuzz of the impedance sweep readers and the circuit fit.

Valid CSV and Touchstone sweeps of the bundled cell are mutated byte by
byte: replaced, inserted and deleted bytes, ASCII and not.  Reading the
result and fitting it may fail only with a WavectlError, and through
the CLI only with exit code 2, 3 or 4 and no traceback.
"""

from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import wavectl as w
from wavectl.cli import main

# round frequencies: deleting the leading "1" of "1000000000.0" gives 0 Hz
_F = 1e9 + 0.25e9 * np.arange(24)
_THICKNESS = w.load_bundled_config().cell.L_s / w.MU0


def _base_sweeps():
    cell = w.load_bundled_config().cell
    z = w.synthesize_samples(cell, _F).impedances
    s = (z - 50.0) / (z + 50.0)
    freqs = _F.tolist()
    csv = ["f_hz,re_z,im_z"] + [f"{f!r},{v.real!r},{v.imag!r}" for f, v in zip(freqs, z.tolist())]
    s1p = ["! bundled cell", "# Hz S RI R 50"] + [f"{f!r} {v.real!r} {v.imag!r}"
                                                    for f, v in zip(freqs, s.tolist())]
    return {"csv": ("\n".join(csv) + "\n").encode(), "s1p": ("\n".join(s1p) + "\n").encode()}


BASE = _base_sweeps()


def _mutate(data, edits):
    data = bytearray(data)
    for op, where, byte in edits:
        pos = where % (len(data) + 1)
        if op == "replace" and pos < len(data):
            data[pos] = byte
        elif op == "insert":  # one byte, or a run of them
            data[pos:pos] = bytes((byte,)) if isinstance(byte, int) else byte
        elif pos < len(data):
            del data[pos]
    return bytes(data)


@pytest.fixture(scope="module")
def sweep_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("sweeps")


@pytest.mark.parametrize("kind", sorted(BASE))
def test_base_sweeps_fit(tmp_path, kind):
    path = tmp_path / f"sweep.{kind}"
    path.write_bytes(BASE[kind])
    got = w.fit_circuit_model(w.ingest_impedance(path), _THICKNESS)
    assert astuple(got) == pytest.approx(astuple(w.load_bundled_config().cell), rel=1e-9)


_BYTES = st.one_of(st.integers(0, 255), st.sampled_from(b"0123456789.-+eE,# \n\r!"))


@settings(max_examples=400, deadline=None)
@given(kind=st.sampled_from(sorted(BASE)),
       edits=st.lists(st.tuples(st.sampled_from(["replace", "insert", "delete"]),
                                st.integers(0, 2**16), _BYTES), min_size=1, max_size=6))
def test_mutated_sweeps_fail_only_with_wavectl_errors(sweep_dir, kind, edits):
    path = sweep_dir / f"sweep.{kind}"
    path.write_bytes(_mutate(BASE[kind], edits))
    try:
        w.fit_circuit_model(w.ingest_impedance(path), _THICKNESS)
    except w.WavectlError:
        pass


def _at(kind, text):
    """Offset of the first occurrence of text in a base sweep."""
    return BASE[kind].index(text.encode())


# (kind, edits, exit code): one fixed mutant per failure class
_MUTANTS = [
    ("csv", [("delete", _at("csv", "\n1000000000.0") + 1, 0)], 2),    # 0 Hz
    ("csv", [("replace", _at("csv", "1250000000.0"), 0xFF)], 2),       # not UTF-8
    ("csv", [("insert", _at("csv", "1500000000.0") + 4, ord("x"))], 2),  # not a number
    ("csv", [("delete", _at("csv", "\n1500000000.0"), 0)], 2),         # two rows joined
    ("csv", [("insert", _at("csv", "\n1250000000.0"), b"e300")], 4),  # Im Z ~ 1e301 overflows
    ("s1p", [("delete", _at("s1p", "\n1000000000.0") + 1, 0)], 2),     # 0 Hz
    ("s1p", [("replace", _at("s1p", "bundled"), 0xE9)], 2),            # not UTF-8
    ("s1p", [("replace", _at("s1p", "S RI"), ord("Z"))], 2),          # not S-parameters
    ("s1p", [("insert", _at("s1p", "\n2000000000.0") + 1, ord("9"))], 2),  # falls back
]


@pytest.mark.parametrize("kind, edits, code", _MUTANTS)
def test_mutated_sweeps_exit_cleanly_through_the_cli(tmp_path, capsys, kind, edits, code):
    path = tmp_path / f"sweep.{kind}"
    path.write_bytes(_mutate(BASE[kind], edits))
    assert main(["fit", "--input", str(path), "--thickness", str(_THICKNESS),
                 "--out", str(tmp_path / "run")]) == code
    err = capsys.readouterr().err
    assert err.startswith("wavectl: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert not (tmp_path / "run" / "cell.json").exists()
