"""Command-line front end.

Six subcommands cover the toolkit's workflows: ``bias`` samples the
rectified standing-wave pattern at the taps, ``pattern`` radiates one
operating point, ``steer`` searches the (frequency, amplitude) plane
for a target angle, ``scan`` maps probe-angle magnitude over that
plane, ``fit`` recovers circuit values from an impedance sweep, and
``cascade`` solves the tapped-line network model.

Every run writes its artifacts plus a ``<command>-report.json`` with
the resolved-configuration hash, elapsed time, output manifest, and
any warnings raised during the computation.  Artifacts are emitted
through the deterministic serializers, so byte-identical inputs give
byte-identical outputs (the report's elapsed time excepted).

Exit codes: 0 success, 2 configuration or input problem, 3 filesystem
problem, 4 solver or fit failure.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import io
import math
import os
import re
import sys
import time
import warnings
from dataclasses import replace

import numpy as np

from .btl import Mode, Termination, rectified_bias, standing_wave_amplitude
from .cascade import build_network, solve_taps
from .config import RunConfig, load_bundled_config, load_config
from .errors import ConfigError, FitError, InputError, ParseError, SolverError
from .serialize import sha256_of, write_csv, write_json
from .steering import (SearchSpec, _drive_pattern, evaluate_operating_point,
                       optimize_single_beam, specular_scan)
from .unitcell import fit_circuit_model, ingest_impedance

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_SOLVER = 4


def _finite(raw):
    """argparse type of every float flag: a finite number."""
    try:
        value = float(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid number {raw!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {raw!r}")
    return value


@functools.cache  # parse_args keeps no state, so one parser serves every call
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wavectl",
        description="standing-wave bias control for varactor-tuned reflective surfaces",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    def command(name, run, help, load=_load_run_config):
        p = sub.add_parser(name, help=help)
        p.set_defaults(run=run, load=load)
        return p

    def add_common(p):
        p.add_argument("--config", metavar="PATH",
                       help="configuration JSON (default: the bundled reference design)")
        p.add_argument("--out", metavar="DIR",
                       help="output directory (default: config output_dir, else '.')")
        p.add_argument("--termination", choices=[t.value for t in Termination],
                       help="override the line termination")
        p.add_argument("--elements", type=int, metavar="M",
                       help="override the element count")
        p.add_argument("--w0", type=_finite, metavar="V",
                       help="dc offset (default: config value)")

    def add_tone(p, with_wb=True):
        p.add_argument("--fb", type=_finite, metavar="HZ",
                       help="bias frequency (default: config fundamental)")
        if with_wb:
            p.add_argument("--wb", type=_finite, metavar="V",
                           help="standing-wave amplitude (default: derived from the generator)")

    def add_format(p):
        p.add_argument("--format", choices=["csv", "json"], default="csv")

    p_bias = command("bias", _cmd_bias, "rectified bias voltage at each tap")
    add_common(p_bias)
    add_tone(p_bias)
    add_format(p_bias)

    p_pattern = command("pattern", _cmd_pattern, "far-field array factor for one operating point")
    add_common(p_pattern)
    add_tone(p_pattern)
    add_format(p_pattern)

    p_steer = command("steer", _cmd_steer, "search frequency and amplitude for a target angle")
    add_common(p_steer)
    p_steer.add_argument("--theta", type=_finite, required=True, metavar="DEG",
                         help="target beam angle in degrees")
    p_steer.add_argument("--coarse-only", action="store_true",
                         help="skip the local refinement stage")

    p_scan = command("scan", _cmd_scan, "probe-angle magnitude over the search grid")
    add_common(p_scan)
    p_scan.add_argument("--probe", default="0", metavar="DEG[,DEG...]",
                        help="comma-separated probe angles in degrees (default 0)")
    p_scan.add_argument("--fmin", type=_finite, default=SearchSpec.f_range[0], metavar="HZ")
    p_scan.add_argument("--fmax", type=_finite, default=SearchSpec.f_range[1], metavar="HZ")
    p_scan.add_argument("--fstep", type=_finite, default=SearchSpec.f_step, metavar="HZ")
    p_scan.add_argument("--wmin", type=_finite, default=SearchSpec.w_range[0], metavar="V")
    p_scan.add_argument("--wmax", type=_finite, default=SearchSpec.w_range[1], metavar="V")
    p_scan.add_argument("--wstep", type=_finite, default=SearchSpec.w_step, metavar="V")
    add_format(p_scan)

    p_fit = command("fit", _cmd_fit, "recover circuit values from an impedance sweep",
                    load=_fit_inputs)
    p_fit.add_argument("--input", required=True, metavar="PATH",
                       help="impedance data: CSV (f_hz,re_z,im_z) or one-port Touchstone")
    p_fit.add_argument("--thickness", type=_finite, required=True, metavar="M",
                       help="substrate thickness in meters")
    p_fit.add_argument("--input-format", choices=["auto", "csv", "s1p", "touchstone"],
                       default="auto")
    p_fit.add_argument("--out", metavar="DIR",
                       help="output directory (default '.')")

    p_cascade = command("cascade", _cmd_cascade, "tap voltages from the loaded-line model")
    add_common(p_cascade)
    add_tone(p_cascade, with_wb=False)
    p_cascade.add_argument("--zrect", metavar="OHM",
                           help="rectifier input impedance ('inf' for unloaded taps)")
    p_cascade.add_argument("--loss-db", type=_finite, default=0.0, metavar="DB",
                           help="total line loss in dB (default 0)")
    add_format(p_cascade)

    return parser


def _load_run_config(args):
    """The configuration under the flags' overrides, its hashed dict and its output directory."""
    config = load_config(args.config) if args.config else load_bundled_config()
    design = config.design
    if args.termination:
        design = replace(design, termination=Termination(args.termination))
    if args.elements is not None:
        design = replace(design, element_count=args.elements)
    if design is not config.design:
        config = replace(config, design=design)
    return config, config.to_dict(), config.output_dir


def _fit_inputs(args):
    """The sweep, read once, and what a fit's report hashes in place of a configuration."""
    with open(args.input, "rb") as fh:
        data = fh.read()
    sweep = io.BytesIO(data)
    sweep.name = args.input  # ingest_impedance's "auto" format reads the name
    return sweep, {"input_sha256": hashlib.sha256(data).hexdigest(),
                   "thickness": float(args.thickness)}, None  # and no output directory


def _w0(args, config: RunConfig) -> float:
    """The dc offset: --w0, else the configured one."""
    return config.excitation.dc_offset if args.w0 is None else args.w0


def _resolve_tone(args, config: RunConfig, wb=None):
    """Fold CLI tone flags into the configured excitation.

    A single-mode (or empty) excitation keeps its mode's index and phase
    and takes wb as the amplitude, or without wb derives one from the
    generator chain at the requested frequency.  A multi-tone excitation
    passes through untouched and refuses wb.
    """
    exc = config.excitation
    fb = exc.fundamental_frequency if args.fb is None else args.fb
    if len(exc.modes) > 1:
        if wb is not None:
            raise InputError(f"--wb sets the amplitude of a single drive tone; "
                             f"the configuration drives {len(exc.modes)} modes")
        modes = exc.modes
    else:
        old = exc.modes[0] if exc.modes else Mode(1, 0.0)
        if wb is None:
            wb = standing_wave_amplitude(config.design, exc, old.mode_index * fb)
        modes = (replace(old, amplitude=wb),)
    return replace(exc, dc_offset=_w0(args, config), fundamental_frequency=fb, modes=modes)


# reported dB values are floored here; a zero of the pattern would
# otherwise serialize as -inf
_DB_FLOOR = -60.0


def _db_from_linear(magnitude):
    """20*log10 with the reporting floor applied."""
    mag = np.asarray(magnitude, dtype=float)
    with np.errstate(divide="ignore"):
        db = 20.0 * np.log10(np.maximum(mag, 0.0))
    return np.maximum(db, _DB_FLOOR)


def _metrics_doc(pattern):
    """A pattern's metrics as JSON, in degrees and dB; a metric not resolved is left out."""
    doc = {
        "peak_angle_deg": math.degrees(pattern.peak_angle),
        "peak_value_linear": pattern.peak_value,
        "peak_value_db": float(_db_from_linear(pattern.peak_value)),
        "specular_omitted": pattern.specular_value is None,
    }
    if pattern.specular_value is not None:
        doc["specular_linear"] = pattern.specular_value
        doc["specular_db"] = float(_db_from_linear(pattern.specular_value))
    if pattern.highest_sidelobe is not None:
        doc["highest_sidelobe_linear"] = pattern.highest_sidelobe
        doc["highest_sidelobe_db"] = float(_db_from_linear(pattern.highest_sidelobe))
    if pattern.half_power_beamwidth is not None:
        doc["half_power_beamwidth_deg"] = math.degrees(pattern.half_power_beamwidth)
    return doc


# Each _cmd_* maps (args, config) to {artifact name: body}, which main
# writes in order: a ".csv" body is write_csv's (header, columns), any
# other body is the JSON document.  fit's config is its sweep.

def _cmd_bias(args, config):
    exc = _resolve_tone(args, config, args.wb)
    bias = rectified_bias(config.design, exc)
    positions = config.design.tap_positions()
    if args.format == "csv":
        return {"bias.csv": (("element", "position_m", "bias_v"),
                             (np.arange(bias.size), positions, bias))}
    return {"bias.json": {
        "frequency_hz": exc.fundamental_frequency,
        "dc_offset_v": exc.dc_offset,
        "positions_m": positions,
        "bias_v": bias,
    }}


def _cmd_pattern(args, config):
    pattern = _drive_pattern(config.design, config.cell, config.varactors,
                             _resolve_tone(args, config, args.wb), config.carrier_frequency)
    metrics = _metrics_doc(pattern)
    header = ("theta_deg", "magnitude", "magnitude_db")
    columns = (np.rad2deg(pattern.theta), pattern.magnitude, _db_from_linear(pattern.magnitude))
    if args.format == "csv":
        body = (header, columns)
    else:
        body = {**dict(zip(header, columns)), "metrics": metrics}
    return {f"pattern.{args.format}": body, "pattern-metrics.json": metrics}


def _cmd_steer(args, config):
    spec = SearchSpec(w0=_w0(args, config), refine=not args.coarse_only)
    theta_p = math.radians(args.theta)
    design, cell, table, f_c = (config.design, config.cell, config.varactors,
                                config.carrier_frequency)
    f_b, w_b, value = optimize_single_beam(design, cell, table, theta_p, spec, f_c=f_c)
    pattern = evaluate_operating_point(design, cell, table, f_b, w_b, spec.w0, f_c)
    return {"steer.json": {
        "f_hz": f_b,
        "w_volts": w_b,
        "objective": {"kind": "maximize_at", "theta_deg": math.degrees(theta_p)},
        "objective_value": value,
        "pattern": {
            "theta_deg": np.rad2deg(pattern.theta),
            "magnitude_linear": pattern.magnitude,
            "metrics": _metrics_doc(pattern),
        },
    }}


def _parse_probes(raw: str):
    try:
        return [math.radians(_finite(tok)) for tok in raw.split(",") if tok.strip()]
    except argparse.ArgumentTypeError as err:
        raise InputError(f"--probe: {err}") from None


def _cmd_scan(args, config):
    probes = _parse_probes(args.probe)
    spec = SearchSpec(f_range=(args.fmin, args.fmax), f_step=args.fstep,
                      w_range=(args.wmin, args.wmax), w_step=args.wstep, w0=_w0(args, config))
    maps = specular_scan(config.design, config.cell, config.varactors, spec,
                         probes, f_c=config.carrier_frequency)
    f_axis, w_axis = spec.f_axis(), spec.w_axis()
    probe_deg = [math.degrees(probe) for probe in probes]
    if args.format == "json":
        return {"scan.json": [{"probe_deg": deg, "f_hz": f_axis, "w_volts": w_axis,
                               "magnitude": values} for deg, values in zip(probe_deg, maps)]}
    # rows run probe-major, then frequency, then amplitude; the three axis
    # columns are broadcast views, whose distinct values write_csv formats once
    columns = (
        np.broadcast_to(np.array(probe_deg)[:, None, None], maps.shape),
        np.broadcast_to(f_axis[:, None], maps.shape),
        np.broadcast_to(w_axis, maps.shape),
        maps,
    )
    return {"scan.csv": (("probe_deg", "frequency_hz", "amplitude_v", "magnitude"), columns)}


def _cmd_fit(args, sweep):
    samples = ingest_impedance(sweep, fmt=args.input_format)
    cell = fit_circuit_model(samples, args.thickness)
    return {"cell.json": {
        "R_d": cell.R_d,
        "C_d": cell.C_d,
        "L_d": cell.L_d,
        "L_s": cell.L_s,
        "electric_resonance_hz": cell.electric_resonance / (2.0 * math.pi),
        "magnetic_resonance_hz": cell.magnetic_resonance / (2.0 * math.pi),
    }}


def _parse_zrect(raw):
    # +inf in any spelling float() reads, but not a number that overflows to it
    if raw.strip().lower().removeprefix("+") in ("inf", "infinity"):
        return math.inf
    try:
        value = _finite(raw)
    except argparse.ArgumentTypeError as err:
        raise InputError(f"--zrect: {err}") from None
    if not value > 0:
        raise InputError(f"--zrect must be a positive number or 'inf', got {raw!r}")
    return value


def _cmd_cascade(args, config):
    exc = _resolve_tone(args, config)
    if len(exc.modes) != 1:
        raise InputError("the tapped-line comparison uses a single drive tone")
    drive = exc.modes[0].mode_index * exc.fundamental_frequency
    # without --zrect the taps keep build_network's default loading
    loading = {} if args.zrect is None else {"z_rect": _parse_zrect(args.zrect)}
    net = build_network(config.design, drive, **loading,
                        total_loss_db=args.loss_db,
                        generator_voltage=exc.generator_voltage,
                        generator_impedance=exc.generator_impedance)
    # peak detection: the dc offset plus each tap's phasor magnitude
    with np.errstate(over="ignore"):
        tapped = exc.dc_offset + np.abs(solve_taps(net))
    if not np.isfinite(tapped).all():
        raise InputError(f"the tapped bias of a {float(exc.dc_offset)!r} V dc offset and a "
                         f"{float(exc.generator_voltage)!r} V generator at a {float(drive)!r} "
                         f"Hz drive is not finite")
    ideal = rectified_bias(config.design, exc)
    positions = config.design.tap_positions()
    if args.format == "csv":
        return {"cascade.csv": (
            ("element", "position_m", "ideal_v", "tapped_v", "delta_v"),
            (np.arange(ideal.size), positions, ideal, tapped, tapped - ideal))}
    return {"cascade.json": {
        "frequency_hz": drive,
        "positions_m": positions,
        "ideal_v": ideal,
        "tapped_v": tapped,
    }}


# opens with a negative number, which argparse takes for an option unless
# the whole token is a plain one such as -12.5
_NEGATIVE_LEAD = re.compile(r"-\.?\d")


def _bind_negative_values(argv):
    """Join ``--opt -1e1`` into ``--opt=-1e1`` for any long option.

    argparse reads only a plain negative number such as ``-12.5`` as a
    value, so one in exponent form (``--theta -1e1``) or a list that
    opens with a negative angle (``--probe -12.5,3``) would otherwise be
    taken for an unknown option.
    """
    out = []
    for token in argv:
        if (out and out[-1].startswith("--") and len(out[-1]) > 2 and "=" not in out[-1]
                and _NEGATIVE_LEAD.match(token)):
            out[-1] = f"{out[-1]}={token}"
        else:
            out.append(token)
    return out


def main(argv=None) -> int:
    args = build_parser().parse_args(_bind_negative_values(sys.argv[1:] if argv is None else argv))

    started = time.perf_counter()
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            config, hashed, out_dir = args.load(args)
            out_dir = args.out or out_dir or "."
            os.makedirs(out_dir, exist_ok=True)
            config_hash = sha256_of(hashed)
            artifacts = args.run(args, config)
            for name, body in artifacts.items():
                path = os.path.join(out_dir, name)
                if name.endswith(".csv"):
                    write_csv(path, *body)
                else:
                    write_json(path, body)
        outputs = list(artifacts)
        notes = sorted({str(w.message) for w in caught})
        report_name = f"{args.command}-report.json"
        write_json(os.path.join(out_dir, report_name), {
            "command": args.command,
            "config_hash": config_hash,
            "elapsed_seconds": time.perf_counter() - started,
            "outputs": outputs,
            "warnings": notes,
        })
    except (ConfigError, ParseError, InputError) as err:
        print(f"wavectl: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except (FitError, SolverError) as err:
        print(f"wavectl: {err}", file=sys.stderr)
        return EXIT_SOLVER
    except OSError as err:
        print(f"wavectl: {err}", file=sys.stderr)
        return EXIT_IO

    for note in notes:
        print(f"wavectl: note: {note}", file=sys.stderr)
    print(f"wavectl: wrote {', '.join(outputs + [report_name])} in {out_dir}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
