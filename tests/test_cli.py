"""Command-line behavior: artifacts, reports, exit codes, determinism."""

import builtins
import hashlib
import json
import math
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import wavectl as w
from wavectl.cli import build_parser, main
from wavectl.serialize import sha256_of, write_csv


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


@pytest.mark.parametrize("argv", [
    ["--theta", "3", "--coarse-only"],
    ["--theta=-8"],
    ["--theta", "20", "--elements", "60", "--termination", "open"],
], ids=["coarse-3", "refined-neg8", "refined-20-open-60"])
def test_steer_objective_value_is_the_pattern_at_the_target(tmp_path, argv):
    # the search's |F(theta_p)| and the achieved pattern it writes agree
    # at the grid angle equal to the target
    out = tmp_path / "run"
    assert main(["steer", *argv, "--out", str(out)]) == 0
    doc = _read_json(out / "steer.json")
    theta_deg = np.array(doc["pattern"]["theta_deg"])
    i = int(np.argmin(np.abs(theta_deg - doc["objective"]["theta_deg"])))
    assert theta_deg[i] == pytest.approx(doc["objective"]["theta_deg"], abs=1e-9)
    assert doc["objective_value"] == pytest.approx(doc["pattern"]["magnitude_linear"][i],
                                                   rel=1e-8)


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


def test_steer_angle_in_exponent_form_after_a_space(tmp_path):
    # argparse alone reads "-1e1" as an unknown option, not as --theta's value
    plain, exponent = tmp_path / "plain", tmp_path / "exponent"
    assert main(["steer", "--theta", "-10", "--coarse-only", "--out", str(plain)]) == 0
    assert main(["steer", "--theta", "-1e1", "--coarse-only", "--out", str(exponent)]) == 0
    assert (exponent / "steer.json").read_bytes() == (plain / "steer.json").read_bytes()


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


def test_fit_input_format_overrides_the_extension(tmp_path):
    # a Touchstone sweep under a .txt name and a CSV sweep under an .s1p
    # name each fit as the file with the matching extension does
    samples = w.synthesize_samples(w.load_bundled_config().cell, np.linspace(1e9, 4e9, 501))
    g = (samples.impedances - 50) / (samples.impedances + 50)
    touchstone = "# Hz S RI R 50\n" + "".join(
        f"{f!r} {x.real!r} {x.imag!r}\n" for f, x in zip(samples.frequencies.tolist(), g.tolist()))
    csv = tmp_path / "sweep.csv"
    write_csv(csv, ("f_hz", "re_z", "im_z"),
              (samples.frequencies, samples.impedances.real, samples.impedances.imag))
    files = {"sweep.s1p": touchstone, "sweep.txt": touchstone, "csv.s1p": csv.read_text()}
    for name, text in files.items():
        (tmp_path / name).write_text(text)

    def fitted(name, *fmt):
        out = tmp_path / f"{name}-{'-'.join(fmt)}"
        assert main(["fit", "--input", str(tmp_path / name), *fmt, "--thickness", "2.0292e-3",
                     "--out", str(out)]) == 0
        return (out / "cell.json").read_bytes()

    touchstone_fit = fitted("sweep.s1p")
    for fmt in ("s1p", "touchstone"):
        assert fitted("sweep.txt", "--input-format", fmt) == touchstone_fit
    assert fitted("csv.s1p", "--input-format", "csv") == fitted("sweep.csv")


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


_SMALL_GRID = ["--fmin", "1e6", "--fmax", "3e6", "--fstep", "1e6",
               "--wmin", "0", "--wmax", "2", "--wstep", "1"]


@pytest.mark.parametrize("argv", [
    ["bias"], ["bias", "--format", "json"],
    ["pattern"], ["pattern", "--format", "json"],
    ["steer", "--theta", "3", "--coarse-only"],
    ["scan", *_SMALL_GRID], ["scan", *_SMALL_GRID, "--format", "json"],
    ["fit", "--thickness", "2.0292e-3"],
    ["cascade"], ["cascade", "--format", "json"],
], ids=lambda argv: "-".join(a for a in argv if a in ("bias", "pattern", "steer", "scan",
                                                        "fit", "cascade", "json")))
def test_report_outputs_are_the_files_written(tmp_path, argv):
    if argv[0] == "fit":
        samples = w.synthesize_samples(w.load_bundled_config().cell, np.linspace(1e9, 4e9, 501))
        write_csv(tmp_path / "sweep.csv", ("f_hz", "re_z", "im_z"),
                  (samples.frequencies, samples.impedances.real, samples.impedances.imag))
        argv = [*argv, "--input", str(tmp_path / "sweep.csv")]
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 0
    report_name = f"{argv[0]}-report.json"
    outputs = _read_json(out / report_name)["outputs"]
    assert sorted(path.name for path in out.iterdir()) == sorted([*outputs, report_name])


def _single_tone_config(path, index, phase):
    doc = w.load_bundled_config().to_dict()
    doc["excitation"]["modes"] = [{"mode_index": index, "amplitude": 2.0, "phase": phase}]
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("command", ["bias", "pattern"])
def test_wb_sets_only_the_amplitude_of_the_configured_mode(tmp_path, command):
    # mode 3 at f_b drives the line at 3 f_b, as the bundled mode 1 does there,
    # and not as mode 1 does at f_b
    third = _single_tone_config(tmp_path / "third.json", 3, 0.7)

    def run(name, *argv):
        out = tmp_path / name
        assert main([command, *argv, "--wb", "5", "--out", str(out)]) == 0
        return (out / f"{command}.csv").read_bytes()

    got = run("third", "--config", third, "--fb", "2e6")
    assert got == run("first-at-3fb", "--fb", "6e6")
    assert got != run("first-at-fb", "--fb", "2e6")
    if command == "bias":
        cfg = w.load_bundled_config()
        exc = replace(cfg.excitation, fundamental_frequency=2e6, modes=(w.Mode(3, 5.0, 0.7),))
        volts = [float(row.split(",")[2]) for row in got.decode().splitlines()[1:]]
        assert np.allclose(volts, w.rectified_bias(cfg.design, exc), rtol=1e-8)


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
    (["cascade", "--zrect", "1e400"], "--zrect"),
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


@pytest.mark.parametrize("row", [8, 19], ids=["line 10", "last line"])
def test_fit_frequency_overflowing_its_unit_exits_2_naming_the_line(tmp_path, capsys, row):
    rows = [[f"{1 + 0.1 * k:.3f}", "0.1", "0.2"] for k in range(20)]
    rows[row][0] = "1e300"  # finite in GHz, beyond float range in Hz
    sweep = tmp_path / "sweep.s1p"
    sweep.write_bytes(_sweep_bytes("s1p", rows).replace(b"# Hz", b"# GHz"))
    assert main(["fit", "--input", str(sweep), "--thickness", "1.6e-3",
                 "--out", str(tmp_path / "run")]) == 2
    assert capsys.readouterr().err == (
        f"wavectl: line {row + 2}: frequency overflows when scaled to Hz\n")
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


def test_overflowing_tapped_bias_exits_2(tmp_path, capsys):
    # the loaded line's phasors are finite, but the largest dc offset plus
    # their magnitudes is not: the tapped bias refuses it before the ideal
    # one is drawn, and nothing is written
    doc = w.load_bundled_config().to_dict()
    doc["excitation"]["dc_offset"] = 1.7976931348623157e308
    doc["excitation"]["generator_voltage"] = 3e292
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main(["cascade", "--config", str(cfg), "--fb", "7.18e6", "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "wavectl: the tapped bias of a 1.7976931348623157e+308 V dc offset and a 3e+292 V "
        "generator at a 7180000.0 Hz drive is not finite\n")
    assert not list(out.iterdir())


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


@pytest.mark.parametrize("argv", [["pattern", "--wb", "1", "--fb", "1e-300"],
                                  ["pattern", "--termination", "matched", "--wb", "1"],
                                  ["scan", "--fmax", "1e6", "--probe", "30"],
                                  ["steer", "--theta", "3", "--coarse-only"]])
@pytest.mark.parametrize("spacing, code", [(1e306, 2), (1e300, 0)])
def test_spacing_whose_phase_span_overflows_exits_2(tmp_path, capsys, argv, spacing, code):
    # k*d is finite at both spacings; (M - 1)*k*d across 27 taps overflows only at 1e306
    doc = w.load_bundled_config().to_dict()
    doc["design"].update(spacing=spacing, left_extension=0.0, right_extension=0.0)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main([*argv, "--config", str(cfg), "--out", str(out)]) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if code:
        assert err == ("wavectl: the phase (M - 1)*k*d across 27 elements of a 1e+306 m "
                       "spacing at a 2450000000.0 Hz carrier is not finite\n")
        assert not out.exists() or not list(out.iterdir())


def test_cached_parser_keeps_no_state_between_calls(tmp_path):
    from test_golden_artifacts import GOLDEN, GOLDEN_OPTIONS

    assert main(["scan", "--probe", "5", "--out", str(tmp_path / "scan5")]) == 0
    assert main(["steer", "--theta=-8", "--coarse-only", "--out", str(tmp_path / "coarse")]) == 0
    assert _run_cli(["steer", "--out", str(tmp_path / "bad")]) == 2  # --theta is required
    pinned = [(["steer", "--theta=-8"], GOLDEN_OPTIONS["steer-8"][1:]),
              (["scan", "--probe", "0,5", "--format", "csv"], GOLDEN["scan", "csv"])]
    for argv, (name, digest) in pinned:
        out = tmp_path / argv[0]
        assert main([*argv, "--termination", "short", "--out", str(out)]) == 0
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest
    assert build_parser() is build_parser()


def test_multi_tone_bias_runs_no_eigenvalue_solve(tmp_path, capsys, monkeypatch):
    def no_convergence(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    # the peak detector samples and polishes; it has no solve that can fail
    monkeypatch.setattr(np.linalg, "eigvals", no_convergence)
    out = tmp_path / "out"
    assert main(["bias", "--config", _two_tone_config(tmp_path / "two.json"), "--fb", "5e6",
                 "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    assert (out / "bias.csv").is_file()


@pytest.mark.parametrize("index", [2**10 + 1, 10**8], ids=["1025", "1e8"])
def test_absurd_mode_index_exits_2_naming_the_mode(tmp_path, capsys, index):
    # refused before the multi-tone peak detector sizes its 8 * n_max samples
    doc = w.load_bundled_config().to_dict()
    doc["excitation"]["modes"].append({"mode_index": index, "amplitude": 1.0, "phase": 0.0})
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    assert main(["bias", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (
        "wavectl: excitation.modes[1]: mode_index is too large: at most 1024\n")
    assert not (tmp_path / "out").exists()


def test_spacing_beyond_float_range_exits_2_naming_it(tmp_path, capsys):
    doc = w.load_bundled_config().to_dict()
    doc["design"]["spacing"] = int("9" * 400)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    assert main(["bias", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == "wavectl: design.spacing: must be a finite number\n"
    assert not (tmp_path / "out").exists()


def _two_tone_config(path):
    doc = w.load_bundled_config().to_dict()
    doc["excitation"]["modes"] = [{"mode_index": 1, "amplitude": 4.0, "phase": 0.0},
                                  {"mode_index": 2, "amplitude": 1.5, "phase": 0.5}]
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("argv, fragment", [
    (lambda p: ["bias", "--fb", "abc"], "invalid number 'abc'"),
    (lambda p: ["cascade", "--zrect", "0"], "--zrect must be a positive number or 'inf', got '0'"),
    (lambda p: ["cascade", "--zrect", "-5"],
     "--zrect must be a positive number or 'inf', got '-5'"),
    (lambda p: ["cascade", "--config", _two_tone_config(p / "two.json")],
     "the tapped-line comparison uses a single drive tone"),
    (lambda p: ["bias", "--config", _two_tone_config(p / "two.json"), "--wb", "5"],
     "--wb sets the amplitude of a single drive tone; the configuration drives 2 modes"),
    (lambda p: ["pattern", "--config", _two_tone_config(p / "two.json"), "--wb", "5"],
     "--wb sets the amplitude of a single drive tone; the configuration drives 2 modes"),
], ids=["non_numeric_fb", "zero_zrect", "negative_zrect", "two_tone_cascade",
        "two_tone_bias_wb", "two_tone_pattern_wb"])
def test_cli_typed_errors_exit_2(tmp_path, capsys, argv, fragment):
    out = tmp_path / "out"
    assert _run_cli([*argv(tmp_path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert fragment in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["bias", "pattern"])
def test_overflowing_bias_exits_2_naming_its_inputs(tmp_path, capsys, command):
    out = tmp_path / "out"
    assert main([command, "--w0", "1e308", "--wb", "1e308", "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "wavectl: the bias of a 1e+308 V dc offset plus modes of [1e+308] V at a "
        "7180000.0 Hz drive is not finite\n")
    assert not list(out.iterdir())


def test_huge_but_finite_bias_still_runs(tmp_path):
    # the same drive at 1 MHz peaks below float range at every tap
    out = tmp_path / "out"
    assert main(["bias", "--w0", "1e308", "--wb", "1e308", "--fb", "1e6", "--format", "json",
                 "--out", str(out)]) == 0
    bias = np.array(_read_json(out / "bias.json")["bias_v"])
    assert np.all(np.isfinite(bias)) and bias.min() > 1e308


@pytest.mark.parametrize("argv", [["steer", "--theta", "95"], ["scan", "--probe", "0,95"]])
def test_angle_beyond_90_degrees_exits_2(tmp_path, capsys, argv):
    # the search checks target and probe angles in one place
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "wavectl: target and probe angles must lie within +-90 degrees\n")
    assert not list(out.iterdir())


def test_fit_report_hashes_the_sweep_it_reads_once(tmp_path, monkeypatch):
    # the report's config_hash is sha256_of the sweep file's digest and the
    # thickness, pinned for one sweep, and the sweep file is opened once
    sweep = tmp_path / "sweep.csv"
    samples = w.synthesize_samples(w.load_bundled_config().cell, np.linspace(1e9, 4e9, 501))
    write_csv(sweep, ("f_hz", "re_z", "im_z"),
              (samples.frequencies, samples.impedances.real, samples.impedances.imag))
    opened = []
    real_open = builtins.open

    def counting_open(file, *args, **kwargs):
        opened.append(str(file))
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting_open)
    out = tmp_path / "run"
    assert main(["fit", "--input", str(sweep), "--thickness", "2.0292e-3",
                 "--out", str(out)]) == 0
    assert opened.count(str(sweep)) == 1
    digest = hashlib.sha256(sweep.read_bytes()).hexdigest()
    config_hash = _read_json(out / "fit-report.json")["config_hash"]
    assert config_hash == sha256_of({"input_sha256": digest, "thickness": 2.0292e-3})
    assert digest == "3f9acc401c1b385632fc2665fd84433e556a42523cede9a6e1df6a8ac7a80e49"
    assert config_hash == "e56cea3845f690024016f62113b956e25aa313ab9d2adee278b824ed4848d61f"
