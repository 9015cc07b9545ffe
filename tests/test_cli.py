"""Command-line behavior: artifacts, reports, exit codes, determinism."""

import json
import math
import subprocess
import sys

import numpy as np
import pytest

import wavectl as w
from wavectl.cli import main
from wavectl.serialize import write_csv


def _read_json(path):
    return json.loads(path.read_text())


def test_bias_artifact_and_report(tmp_path):
    out = tmp_path / "run"
    assert main(["bias", "--out", str(out)]) == 0
    csv_lines = (out / "bias.csv").read_text().splitlines()
    assert csv_lines[0] == "element,position_m,bias_v"
    assert len(csv_lines) == 28
    report = _read_json(out / "bias-report.json")
    assert report["command"] == "bias"
    assert report["outputs"] == ["bias.csv"]
    assert report["elapsed_seconds"] >= 0.0
    assert len(report["config_hash"]) == 64
    for name in report["outputs"]:
        assert (out / name).stat().st_size > 0


def test_bias_json_format_and_wb_flag(tmp_path):
    out = tmp_path / "run"
    assert main(["bias", "--out", str(out), "--format", "json",
                 "--fb", "7175550.224338915", "--wb", "6.0", "--w0", "3.0"]) == 0
    doc = _read_json(out / "bias.json")
    assert doc["dc_offset_v"] == 3.0
    bias = np.array(doc["bias_v"])
    # resonant drive: every tap rides the same |sin| envelope scaled by 6 V
    cfg = w.load_bundled_config()
    u = cfg.design.tap_positions() + cfg.design.left_extension
    expected = 3.0 + 6.0 * np.abs(np.sin(cfg.design.wavenumber(7175550.224338915) * u))
    assert np.allclose(bias, expected, atol=1e-7)


def test_bias_derives_amplitude_from_generator(tmp_path):
    # without --wb the amplitude comes from the generator chain: at an
    # even multiple of the resonance that is (Z0/Zg)*Vg = 3.846 V
    out = tmp_path / "run"
    f2 = 2 * 7175550.224338915
    assert main(["bias", "--out", str(out), "--fb", str(f2)]) == 0
    rows = (out / "bias.csv").read_text().splitlines()[1:]
    volts = np.array([float(r.split(",")[2]) for r in rows])
    assert volts.max() == pytest.approx(4.0 + 3.846, abs=1e-9)


def test_pattern_artifacts(tmp_path):
    out = tmp_path / "run"
    assert main(["pattern", "--out", str(out), "--wb", "10"]) == 0
    lines = (out / "pattern.csv").read_text().splitlines()
    assert lines[0] == "theta_deg,magnitude,magnitude_db"
    assert len(lines) == 3602
    metrics = _read_json(out / "pattern-metrics.json")
    assert "peak_angle_deg" in metrics and "peak_value_db" in metrics
    report = _read_json(out / "pattern-report.json")
    assert report["outputs"] == ["pattern.csv", "pattern-metrics.json"]


def test_pattern_json_variant(tmp_path):
    out = tmp_path / "run"
    assert main(["pattern", "--out", str(out), "--format", "json"]) == 0
    doc = _read_json(out / "pattern.json")
    assert len(doc["theta_deg"]) == 3601
    assert doc["metrics"]["specular_omitted"] is False


def test_steer_artifact_and_clamp_note(tmp_path):
    out = tmp_path / "run"
    assert main(["steer", "--theta", "-8", "--out", str(out), "--coarse-only"]) == 0
    doc = _read_json(out / "steer.json")
    assert doc["objective"]["kind"] == "maximize_at"
    assert doc["objective"]["theta_deg"] == pytest.approx(-8.0)
    assert 0 < doc["f_hz"] < 30e6
    assert 0 <= doc["w_volts"] <= 12.0
    peak = doc["pattern"]["metrics"]["peak_angle_deg"]
    assert abs(peak - (-8.0)) < 2.0
    report = _read_json(out / "steer-report.json")
    # the default amplitude grid tops out beyond the varactor table, so
    # the run must surface the clamp note
    assert any("clamped" in note for note in report["warnings"])


def test_scan_csv_and_json(tmp_path):
    out = tmp_path / "run"
    args = ["--out", str(out), "--probe", "0,10", "--fmin", "1e6", "--fmax", "3e6",
            "--fstep", "1e6", "--wmin", "0", "--wmax", "2", "--wstep", "1"]
    assert main(["scan"] + args) == 0
    lines = (out / "scan.csv").read_text().splitlines()
    assert lines[0] == "probe_deg,frequency_hz,amplitude_v,magnitude"
    assert len(lines) == 1 + 2 * 3 * 3
    out2 = tmp_path / "run2"
    assert main(["scan"] + args[2:] + ["--out", str(out2), "--probe", "0,10",
                                       "--format", "json"]) == 0
    doc = _read_json(out2 / "scan.json")
    assert len(doc) == 2
    assert len(doc[0]["magnitude"]) == 3


def test_scan_probe_list_opening_with_a_negative_angle(tmp_path):
    grid = ["--fmin", "1e6", "--fmax", "3e6", "--fstep", "1e6",
            "--wmin", "0", "--wmax", "2", "--wstep", "1"]
    joined = tmp_path / "joined"
    assert main(["scan", "--probe=-12.5,3", "--out", str(joined)] + grid) == 0
    csv = (joined / "scan.csv").read_bytes()
    assert csv.splitlines()[1].startswith(b"-1.25000000e+01,")
    for flag in ("--probe", "--prob"):
        spaced = tmp_path / flag
        assert main(["scan", flag, "-12.5,3", "--out", str(spaced)] + grid) == 0
        assert (spaced / "scan.csv").read_bytes() == csv


def test_fit_command_round_trip(tmp_path):
    cell = w.CellCircuit(R_d=0.17, C_d=0.74e-12, L_d=1.64e-9, L_s=1.60e-9)
    sweep = tmp_path / "sweep.csv"
    samples = w.synthesize_samples(cell, np.linspace(1e9, 9e9, 4001))
    write_csv(sweep, ("f_hz", "re_z", "im_z"),
              (samples.frequencies, samples.impedances.real, samples.impedances.imag))
    out = tmp_path / "run"
    thickness = cell.L_s / w.MU0
    assert main(["fit", "--input", str(sweep), "--thickness", str(thickness),
                 "--out", str(out)]) == 0
    got = _read_json(out / "cell.json")
    assert got["L_s"] == pytest.approx(cell.L_s, rel=5e-3)
    for key in ("R_d", "C_d", "L_d"):
        assert got[key] == pytest.approx(getattr(cell, key), rel=1e-2)


def test_cascade_artifact(tmp_path):
    out = tmp_path / "run"
    assert main(["cascade", "--out", str(out), "--zrect", "inf"]) == 0
    lines = (out / "cascade.csv").read_text().splitlines()
    assert lines[0] == "element,position_m,ideal_v,tapped_v,delta_v"
    assert len(lines) == 28
    out2 = tmp_path / "run2"
    assert main(["cascade", "--out", str(out2), "--zrect", "1000"]) == 0
    a = (out / "cascade.csv").read_text()
    b = (out2 / "cascade.csv").read_text()
    assert a != b


def test_artifacts_are_deterministic(tmp_path):
    runs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["bias", "--out", str(out)]) == 0
        runs.append((out / "bias.csv").read_bytes())
    assert runs[0] == runs[1]
    hashes = [
        _read_json(tmp_path / name / "bias-report.json")["config_hash"]
        for name in ("a", "b")
    ]
    assert hashes[0] == hashes[1]


def test_overrides_change_the_config_hash(tmp_path):
    base = tmp_path / "base"
    assert main(["bias", "--out", str(base)]) == 0
    other = tmp_path / "other"
    assert main(["bias", "--out", str(other), "--termination", "open",
                 "--elements", "60"]) == 0
    h0 = _read_json(base / "bias-report.json")["config_hash"]
    h1 = _read_json(other / "bias-report.json")["config_hash"]
    assert h0 != h1
    assert len((other / "bias.csv").read_text().splitlines()) == 61


def test_exit_code_config_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"design": 5}')
    assert main(["bias", "--config", str(bad), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "design" in err


def test_exit_code_missing_file(tmp_path):
    assert main(["bias", "--config", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path)]) == 3
    assert main(["fit", "--input", str(tmp_path / "nope.csv"), "--thickness", "1e-3",
                 "--out", str(tmp_path)]) == 3


def test_exit_code_fit_failure(tmp_path):
    sweep = tmp_path / "flat.csv"
    rows = "\n".join(f"{1e9 + k * 1e8:.1f},50.0,-10.0" for k in range(20))
    sweep.write_text("f_hz,re_z,im_z\n" + rows + "\n")
    assert main(["fit", "--input", str(sweep), "--thickness", "1e-3",
                 "--out", str(tmp_path)]) == 4


def test_exit_code_bad_tone(tmp_path):
    assert main(["bias", "--out", str(tmp_path), "--fb", "-5"]) == 2
    assert main(["bias", "--out", str(tmp_path), "--wb", "-1"]) == 2


def test_console_entry_point(tmp_path):
    out = tmp_path / "run"
    proc = subprocess.run(
        [sys.executable, "-m", "wavectl.cli", "bias", "--out", str(out)],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert (out / "bias.csv").exists()


def test_help_exits_cleanly():
    with pytest.raises(SystemExit) as exc_info:
        main(["--help"])
    assert exc_info.value.code == 0


def _run_cli(argv):
    try:
        return main(argv)
    except SystemExit as exc:  # argparse rejects a flag value with exit 2
        return exc.code


@pytest.mark.parametrize("argv, flag", [
    (["bias", "--fb", "inf"], "--fb"),
    (["pattern", "--fb", "inf"], "--fb"),
    (["cascade", "--fb", "inf"], "--fb"),
    (["bias", "--fb", "nan"], "--fb"),
    (["bias", "--wb", "inf"], "--wb"),
    (["pattern", "--w0", "-inf"], "--w0"),
    (["steer", "--theta", "nan"], "--theta"),
    (["scan", "--fmax", "inf"], "--fmax"),
    (["scan", "--wmax", "inf"], "--wmax"),
    (["scan", "--fstep", "nan"], "--fstep"),
    (["scan", "--probe", "nan"], "--probe"),
    (["scan", "--probe", "0,inf"], "--probe"),
    (["fit", "--input", "sweep.csv", "--thickness", "inf"], "--thickness"),
    (["cascade", "--loss-db", "nan"], "--loss-db"),
    (["cascade", "--zrect", "nan"], "--zrect"),
])
def test_non_finite_flags_exit_2_naming_the_flag(tmp_path, capsys, argv, flag):
    assert _run_cli(argv + ["--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert any(flag in line for line in err.splitlines() if "wavectl" in line)
    assert not any(p.name.endswith("-report.json") for p in tmp_path.iterdir())


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("column", [0, 1, 2])
@pytest.mark.parametrize("kind", ["csv", "s1p"])
def test_fit_non_finite_sweep_exits_2(tmp_path, capsys, kind, column, bad):
    rows = [[f"{1 + 0.1 * k:.3f}e9", "0.1", "0.2"] for k in range(20)]
    rows[7][column] = bad
    if kind == "csv":
        text = "f_hz,re_z,im_z\n" + "\n".join(",".join(r) for r in rows)
    else:
        text = "# Hz S RI R 50\n" + "\n".join(" ".join(r) for r in rows)
    sweep = tmp_path / f"sweep.{kind}"
    sweep.write_text(text + "\n")
    assert main(["fit", "--input", str(sweep), "--thickness", "1e-3",
                 "--out", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert any(line.startswith("wavectl: line 9:") for line in err.splitlines())
    assert not (tmp_path / "run" / "cell.json").exists()


def _sweep_bytes(kind, rows):
    """A sweep file with one row per [f, a, b]: CSV f_hz,re_z,im_z or Touchstone RI in Hz."""
    head = "f_hz,re_z,im_z" if kind == "csv" else "# Hz S RI R 50"
    sep = "," if kind == "csv" else " "
    return "\n".join([head] + [sep.join(r) for r in rows]).encode() + b"\n"


@pytest.mark.parametrize("kind", ["csv", "s1p"])
def test_fit_non_utf8_sweep_exits_2_naming_the_line(tmp_path, capsys, kind):
    rows = [[f"{1 + 0.1 * k:.3f}e9", "0.1", "0.2"] for k in range(20)]
    rows[7][2] = "0.X"
    sweep = tmp_path / f"sweep.{kind}"
    sweep.write_bytes(_sweep_bytes(kind, rows).replace(b"X", b"\xff"))
    assert main(["fit", "--input", str(sweep), "--thickness", "1e-3",
                 "--out", str(tmp_path / "run")]) == 2
    assert capsys.readouterr().err == "wavectl: line 9: byte 0xff is not UTF-8 text\n"
    assert not (tmp_path / "run" / "cell.json").exists()


@pytest.mark.parametrize("first", ["0.0", "0", "-1e9"])
@pytest.mark.parametrize("kind", ["csv", "s1p"])
def test_fit_non_positive_frequency_exits_2_naming_the_line(tmp_path, capsys, kind, first):
    rows = [[f"{1 + 0.1 * k:.3f}e9", "0.1", "0.2"] for k in range(20)]
    rows[0][0] = first
    sweep = tmp_path / f"sweep.{kind}"
    sweep.write_bytes(_sweep_bytes(kind, rows))
    assert main(["fit", "--input", str(sweep), "--thickness", "1e-3",
                 "--out", str(tmp_path / "run")]) == 2
    assert capsys.readouterr().err == (
        f"wavectl: line 2: frequency {float(first)!r} Hz is not positive\n")
    assert not (tmp_path / "run" / "cell.json").exists()


@pytest.mark.parametrize("argv", [["bias"], ["pattern"], ["cascade"], ["steer", "--theta", "0"],
                                  ["scan"]])
@pytest.mark.parametrize("count", ["4097", "40000", "1" + "0" * 300],
                         ids=["4097", "40000", "1e300"])
def test_absurd_element_count_flag_exits_2(tmp_path, capsys, argv, count):
    assert main([*argv, "--elements", count, "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == "wavectl: element_count is too large: at most 4096 taps\n"
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("grid", [
    ["--fmax", "1e300"],
    # one point over the 2**20 cap, refused before any axis is built
    ["--fmin", "1", "--fmax", "1048577", "--fstep", "1", "--wmin", "0", "--wmax", "0",
     "--wstep", "1"],
])
def test_oversized_scan_grid_exits_2(tmp_path, capsys, grid):
    assert _run_cli(["scan", *grid, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert any("f_range/f_step and w_range/w_step" in line
               for line in err.splitlines() if line.startswith("wavectl:"))


def test_oversized_reflection_tensor_exits_2(tmp_path, capsys):
    # 300 x 121 grid points x 2000 elements, refused before any allocation
    assert _run_cli(["steer", "--theta", "-5", "--elements", "2000",
                     "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert any("design.element_count" in line and "f_range/f_step" in line
               for line in err.splitlines() if line.startswith("wavectl:"))


@pytest.mark.parametrize("argv, message", [
    (["bias", "--fb", "1e308"], "frequency 1e+308 Hz overflows the line's electrical length"),
    (["pattern", "--fb", "1e308"], "frequency 1e+308 Hz overflows the line's electrical length"),
    (["cascade", "--fb", "1e308"], "frequency 1e+308 Hz overflows the line's electrical length"),
    (["bias", "--fb", "1e308", "--wb", "1"], "frequency 1e+308 Hz overflows the wavenumber"),
    (["pattern", "--fb", "1.7e308", "--wb", "1"], "frequency 1.7e+308 Hz overflows the wavenumber"),
])
def test_overflowing_frequency_exits_2_naming_it(tmp_path, capsys, argv, message):
    # finite flags whose electrical length overflows to inf
    assert main(argv + ["--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err == f"wavectl: {message}\n"
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("fb, flags", [
    ("1e-300", []), ("1e-100", []),
    # w*C underflows to 0: the coupling capacitor's 1/(j w C) is out of range
    ("5e-324", []), ("1e-320", ["--zrect", "inf"]), ("1e-320", ["--termination", "open"]),
], ids=["1e-300", "1e-100", "5e-324", "1e-320-zrect-inf", "1e-320-open"])
def test_overflowing_cascade_state_exits_4_naming_the_frequency(tmp_path, capsys, fb, flags):
    # the decoupling inductor's current v/(j w L) overflows near 0 Hz
    assert main(["cascade", "--fb", fb, *flags, "--out", str(tmp_path)]) == 4
    assert capsys.readouterr().err == (
        f"wavectl: the tapped-line state overflows at {float(fb)!r} Hz\n")


@pytest.mark.parametrize("argv", [["pattern"], ["steer", "--theta", "3"],
                                  ["scan", "--fmax", "1e6"]])
@pytest.mark.parametrize("carrier", [1e200, 1e300])
def test_carrier_out_of_the_cell_model_range_exits_2(tmp_path, capsys, argv, carrier):
    # the cell kernel overflows here: refused by name, not written out as NaN
    doc = w.load_bundled_config().to_dict()
    doc["carrier_frequency"] = carrier
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main([*argv, "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"wavectl: carrier frequency {carrier!r} Hz is out of range for the cell model\n")
    assert not list(out.iterdir())
