"""Byte-identity of CLI artifacts against pinned SHA-256 digests.

The digests are the ones CHANGES.md records for the bundled config on
the shorted line.  A change to the formatters or to the numerics that
moves a single byte of these files fails here.
"""

import hashlib

import pytest

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
}


@pytest.mark.parametrize("command, fmt", sorted(GOLDEN), ids="-".join)
def test_artifact_digest(tmp_path, command, fmt):
    extra = ["--probe", "0,5"] if command == "scan" else []
    assert main([command, *extra, "--termination", "short", "--format", fmt,
                 "--out", str(tmp_path)]) == 0
    name, digest = GOLDEN[command, fmt]
    assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest
