"""Byte-identity of CLI artifacts against pinned SHA-256 digests.

The digests are the ones CHANGES.md records for the bundled config on
the shorted line.  A change to the formatters or to the numerics that
moves a single byte of these files fails here.
"""

import hashlib
import math

import numpy as np
import pytest

from wavectl import MU0, equivalent_impedance, load_bundled_config, radiation
from wavectl.cli import main

GOLDEN = {
    ("scan", "csv"): ("scan.csv",
                      "e6c1567916660c0ff5fecc4fb2948ead9cc66bfc54e00b6c66e449e07c000a7a"),
    ("scan", "json"): ("scan.json",
                       "08712cba89330281ab94c5dac70644b9bb029db74fc22d12a029dae2dd2afb1e"),
    ("bias", "csv"): ("bias.csv",
                      "5cdc3031f849035f181ea7a616460409cdccc48b5d69b0ea7cff820247f8f493"),
    ("pattern", "csv"): ("pattern.csv",
                         "4345bc65fcedd2978e0b4c7893d743be8b7cf9048768c83aab430a1c69b17879"),
    ("cascade", "csv"): ("cascade.csv",
                         "c460a4f9e266de3d64800638550645f682bf6c5d3de47d1c5a014287f02745e0"),
    ("bias", "json"): ("bias.json",
                       "07a5df1a70864443dabce76196a2cd10a60d5f7f1a35aa3ce89e6dd45ec6a25d"),
    ("pattern", "json"): ("pattern.json",
                          "21510d54327b587a2e3b5af68d82d2491e033b4a9be59e4f023ca3fcb28147bd"),
    ("cascade", "json"): ("cascade.json",
                          "3f1aa98b54f7a3f555c1290251716cf3f1733f0d3d926f488e8f24d9ba45158f"),
}

# the steering search and the loaded-line options: case id -> (argv, artifact, digest)
GOLDEN_OPTIONS = {
    "steer-8": (("steer", "--theta=-8"), "steer.json",
                "1a36151e27b13bd0371009a63244c6632d64d02936264dde90a18cb965f67cb8"),
    "steer-8-coarse": (("steer", "--theta=-8", "--coarse-only"), "steer.json",
                       "78a72791bceca6334c38b07402fcf6e1fa9b157a9ca2c06766fba0d2327f3f5f"),
    "cascade-zrect300-loss1-csv": (
        ("cascade", "--zrect", "300", "--loss-db", "1", "--format", "csv"), "cascade.csv",
        "f7efcb9fddb01eac05aac1976864fbf601e6284e981e192da9560451f0f35c81"),
    "steer3-coarse-60": (("steer", "--theta=3", "--coarse-only", "--elements", "60"),
                         "steer.json",
                         "e1e99486e8dbe6f84008b307443aaa7b49aaa66c894418e1af68fbce3a407180"),
    "steer3-open-60": (("steer", "--theta=3", "--termination", "open", "--elements", "60"),
                       "steer.json",
                       "b5cc04cc9e9a1edb08e81ebdcce6ecf12a687b91b3bd3152aee72cb5d861c38e"),
    "scan-7-0-12-json": (("scan", "--probe=-7,0,12", "--format", "json"), "scan.json",
                         "af56ecc11c8a385d252d985ffda2041d9700419132f9e19f8610f6d44f3cd054"),
    "pattern-fb1.3e6-wb6.5-json": (
        ("pattern", "--fb", "1.3e6", "--wb", "6.5", "--format", "json"), "pattern.json",
        "27eaef0794d065eb910f8205bd9f1237295dae4e37bbc3dbcaee8a30d00624f2"),
}

# fit reads a 3001-point sweep of the bundled cell: format -> (file, its digest)
FIT_SWEEPS = {
    "csv": ("sweep.csv", "5a2ee6ed528dd114643e482083a6eaeecd1efc290c0fa59f79a6a95ee3544bff"),
    "s1p": ("sweep.s1p", "22fa2a3b25b5680dc68530b7f7becf29f48a7dd4789b7c86298269a2e9a9d439"),
}
FIT_DIGEST = "4df62f6acba97fbb666baf09fc36a13d4ab7c61b80b2348e51d5b44744ef32dd"  # cell.json


def _digest(out, argv, name):
    # the shorted line unless the case's own --termination, given later, overrides it
    command, *options = argv
    assert main([command, "--termination", "short", *options, "--out", str(out)]) == 0
    return hashlib.sha256((out / name).read_bytes()).hexdigest()


@pytest.mark.parametrize("command, fmt", sorted(GOLDEN), ids="-".join)
def test_artifact_digest(tmp_path, command, fmt):
    extra = ["--probe", "0,5"] if command == "scan" else []
    name, digest = GOLDEN[command, fmt]
    assert _digest(tmp_path, [command, *extra, "--format", fmt], name) == digest


@pytest.mark.parametrize("case", sorted(GOLDEN_OPTIONS))
def test_option_artifact_digest(tmp_path, case):
    argv, name, digest = GOLDEN_OPTIONS[case]
    assert _digest(tmp_path, argv, name) == digest


def test_pattern_digests_from_the_leading_rows_of_a_60_tap_build(tmp_path, monkeypatch):
    # the 27-tap patterns after a 60-tap one read the first 27 of its steering rows
    monkeypatch.setattr(radiation, "_rows_cache", None)
    assert main(["pattern", "--elements", "60", "--out", str(tmp_path / "60")]) == 0
    cases = [(("pattern", "--format", fmt), *GOLDEN["pattern", fmt]) for fmt in ("csv", "json")]
    cases.append(GOLDEN_OPTIONS["pattern-fb1.3e6-wb6.5-json"])
    for i, (argv, name, digest) in enumerate(cases):
        assert _digest(tmp_path / str(i), argv, name) == digest
        assert len(radiation._rows_cache[1]) == 60


def _fit_sweep(fmt):
    """The bundled cell from 0.3 to 1.7 times its electric resonance, as CSV or RI Touchstone."""
    cell = load_bundled_config().cell
    f_e = cell.electric_resonance / (2 * math.pi)
    f = np.linspace(0.3 * f_e, 1.7 * f_e, 3001)
    z = equivalent_impedance(cell, f)
    if fmt == "csv":
        header, sep, columns = "f_hz,re_z,im_z", ",", (f, z.real, z.imag)
    else:
        gamma = (z - 50.0) / (z + 50.0)
        header, sep = "! synthesized one-port sweep\n# GHz S RI R 50", " "
        columns = (f / 1e9, gamma.real, gamma.imag)
    rows = (sep.join(map(repr, row)) for row in zip(*(c.tolist() for c in columns)))
    return (header + "\n" + "\n".join(rows) + "\n").encode()


@pytest.mark.parametrize("fmt", sorted(FIT_SWEEPS))
def test_fit_artifact_digest(tmp_path, fmt):
    name, sweep_digest = FIT_SWEEPS[fmt]
    sweep = _fit_sweep(fmt)
    assert hashlib.sha256(sweep).hexdigest() == sweep_digest
    (tmp_path / name).write_bytes(sweep)
    thickness = repr(load_bundled_config().cell.L_s / MU0)
    out = tmp_path / "out"
    assert main(["fit", "--input", str(tmp_path / name), "--thickness", thickness,
                 "--out", str(out)]) == 0
    assert hashlib.sha256((out / "cell.json").read_bytes()).hexdigest() == FIT_DIGEST
