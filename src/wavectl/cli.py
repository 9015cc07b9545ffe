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
import hashlib
import math
import os
import re
import sys
import time
import warnings
from dataclasses import replace

import numpy as np

from .btl import Mode, Termination, rectified_bias, standing_wave_amplitude
from .cascade import build_network, rectified_from_phasors, solve_taps
from .config import RunConfig, load_bundled_config, load_config
from .errors import ConfigError, FitError, InputError, ParseError, SolverError
from .radiation import PatternRequest, array_factor, default_theta_grid, pattern_csv_columns
from .serialize import sha256_of, write_csv, write_json
from .steering import SearchSpec, optimize_single_beam, specular_scan
from .unitcell import fit_circuit_model, ingest_impedance, reflection_profile

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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wavectl",
        description="standing-wave bias control for varactor-tuned reflective surfaces",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    def add_common(p):
        p.add_argument("--config", metavar="PATH",
                       help="configuration JSON (default: the bundled reference design)")
        p.add_argument("--out", metavar="DIR",
                       help="output directory (default: config output_dir, else '.')")
        p.add_argument("--termination", choices=[t.value for t in Termination],
                       help="override the line termination")
        p.add_argument("--elements", type=int, metavar="M",
                       help="override the element count")

    def add_tone(p, with_wb=True):
        p.add_argument("--fb", type=_finite, metavar="HZ",
                       help="bias frequency (default: config fundamental)")
        if with_wb:
            p.add_argument("--wb", type=_finite, metavar="V",
                           help="standing-wave amplitude (default: derived from the generator)")
        p.add_argument("--w0", type=_finite, metavar="V",
                       help="dc offset (default: config value)")

    p_bias = sub.add_parser("bias", help="rectified bias voltage at each tap")
    add_common(p_bias)
    add_tone(p_bias)
    p_bias.add_argument("--format", choices=["csv", "json"], default="csv")

    p_pattern = sub.add_parser("pattern", help="far-field array factor for one operating point")
    add_common(p_pattern)
    add_tone(p_pattern)
    p_pattern.add_argument("--format", choices=["csv", "json"], default="csv")

    p_steer = sub.add_parser("steer", help="search frequency and amplitude for a target angle")
    add_common(p_steer)
    p_steer.add_argument("--theta", type=_finite, required=True, metavar="DEG",
                         help="target beam angle in degrees")
    p_steer.add_argument("--w0", type=_finite, metavar="V")
    p_steer.add_argument("--coarse-only", action="store_true",
                         help="skip the local refinement stage")

    p_scan = sub.add_parser("scan", help="probe-angle magnitude over the search grid")
    add_common(p_scan)
    p_scan.add_argument("--probe", default="0", metavar="DEG[,DEG...]",
                        help="comma-separated probe angles in degrees (default 0)")
    p_scan.add_argument("--fmin", type=_finite, default=SearchSpec.f_range[0], metavar="HZ")
    p_scan.add_argument("--fmax", type=_finite, default=SearchSpec.f_range[1], metavar="HZ")
    p_scan.add_argument("--fstep", type=_finite, default=SearchSpec.f_step, metavar="HZ")
    p_scan.add_argument("--wmin", type=_finite, default=SearchSpec.w_range[0], metavar="V")
    p_scan.add_argument("--wmax", type=_finite, default=SearchSpec.w_range[1], metavar="V")
    p_scan.add_argument("--wstep", type=_finite, default=SearchSpec.w_step, metavar="V")
    p_scan.add_argument("--w0", type=_finite, metavar="V")
    p_scan.add_argument("--format", choices=["csv", "json"], default="csv")

    p_fit = sub.add_parser("fit", help="recover circuit values from an impedance sweep")
    p_fit.add_argument("--input", required=True, metavar="PATH",
                       help="impedance data: CSV (f_hz,re_z,im_z) or one-port Touchstone")
    p_fit.add_argument("--thickness", type=_finite, required=True, metavar="M",
                       help="substrate thickness in meters")
    p_fit.add_argument("--input-format", choices=["auto", "csv", "s1p", "touchstone"],
                       default="auto")
    p_fit.add_argument("--out", metavar="DIR",
                       help="output directory (default '.')")

    p_cascade = sub.add_parser("cascade", help="tap voltages from the loaded-line model")
    add_common(p_cascade)
    add_tone(p_cascade, with_wb=False)
    p_cascade.add_argument("--zrect", metavar="OHM",
                           help="rectifier input impedance ('inf' for unloaded taps)")
    p_cascade.add_argument("--loss-db", type=_finite, default=0.0, metavar="DB",
                           help="total line loss in dB (default 0)")
    p_cascade.add_argument("--format", choices=["csv", "json"], default="csv")

    return parser


def _load_run_config(args) -> RunConfig:
    config = load_config(args.config) if args.config else load_bundled_config()
    design = config.design
    if args.termination:
        design = replace(design, termination=Termination(args.termination))
    if args.elements is not None:
        design = replace(design, element_count=args.elements)
    if design is not config.design:
        config = replace(config, design=design)
    return config


def _fit_inputs(args):
    """What a fit's report hashes in place of a configuration."""
    with open(args.input, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    return {"input_sha256": digest, "thickness": float(args.thickness)}


def _w0(args, config: RunConfig) -> float:
    """The dc offset: --w0, else the configured one."""
    return config.excitation.dc_offset if args.w0 is None else args.w0


def _resolve_tone(args, config: RunConfig, wb=None):
    """Fold CLI tone flags into the configured excitation.

    Without wb, a single-mode (or empty) excitation derives its
    amplitude from the generator chain at the requested frequency; a
    multi-tone excitation passes through untouched.
    """
    exc = config.excitation
    fb = exc.fundamental_frequency if args.fb is None else args.fb
    if wb is not None:
        modes = (Mode(1, wb),)
    elif len(exc.modes) <= 1:
        old = exc.modes[0] if exc.modes else Mode(1, 0.0)
        amp = standing_wave_amplitude(config.design, exc, old.mode_index * fb)
        modes = (replace(old, amplitude=amp),)
    else:
        modes = exc.modes
    return replace(exc, dc_offset=_w0(args, config), fundamental_frequency=fb, modes=modes)


def _cmd_bias(args, config, out_dir):
    exc = _resolve_tone(args, config, args.wb)
    bias = rectified_bias(config.design, exc)
    name = f"bias.{args.format}"
    if args.format == "csv":
        write_csv(os.path.join(out_dir, name), ("element", "position_m", "bias_v"),
                  columns=(np.arange(bias.voltages.size), bias.positions, bias.voltages))
    else:
        write_json(os.path.join(out_dir, name), {
            "frequency_hz": exc.fundamental_frequency,
            "dc_offset_v": exc.dc_offset,
            "positions_m": bias.positions,
            "bias_v": bias.voltages,
        })
    return [name]


def _cmd_pattern(args, config, out_dir):
    exc = _resolve_tone(args, config, args.wb)
    bias = rectified_bias(config.design, exc)
    profile = reflection_profile(config.cell, config.varactors, bias,
                                 config.carrier_frequency)
    req = PatternRequest(carrier_frequency=config.carrier_frequency,
                         element_spacing=config.design.spacing,
                         theta_grid=default_theta_grid())
    pattern = array_factor(profile, req)
    name = f"pattern.{args.format}"
    if args.format == "csv":
        write_csv(os.path.join(out_dir, name),
                  ("theta_deg", "magnitude", "magnitude_db"),
                  columns=pattern_csv_columns(pattern))
    else:
        write_json(os.path.join(out_dir, name), {
            "theta_deg": np.rad2deg(pattern.theta),
            "magnitude": pattern.magnitude,
            "magnitude_db": pattern.magnitude_db(),
            "metrics": pattern.metrics.to_dict(),
        })
    write_json(os.path.join(out_dir, "pattern-metrics.json"), pattern.metrics.to_dict())
    return [name, "pattern-metrics.json"]


def _cmd_steer(args, config, out_dir):
    spec = SearchSpec(w0=_w0(args, config), refine=not args.coarse_only)
    solution = optimize_single_beam(config.design, config.cell, config.varactors,
                                    math.radians(args.theta), spec,
                                    f_c=config.carrier_frequency)
    write_json(os.path.join(out_dir, "steer.json"), solution.to_dict())
    return ["steer.json"]


def _parse_probes(raw: str):
    try:
        return [math.radians(_finite(tok)) for tok in raw.split(",") if tok.strip()]
    except argparse.ArgumentTypeError as err:
        raise InputError(f"--probe: {err}") from None


def _cmd_scan(args, config, out_dir):
    probes = _parse_probes(args.probe)
    spec = SearchSpec(f_range=(args.fmin, args.fmax), f_step=args.fstep,
                      w_range=(args.wmin, args.wmax), w_step=args.wstep, w0=_w0(args, config))
    grids = specular_scan(config.design, config.cell, config.varactors, spec,
                          probes, f_c=config.carrier_frequency)
    name = f"scan.{args.format}"
    if args.format == "csv":
        # rows run probe-major, then frequency, then amplitude
        f_axis, w_axis = grids[0].f_axis, grids[0].w_axis
        cells = f_axis.size * w_axis.size
        columns = (
            np.concatenate([np.full(cells, math.degrees(g.probe_angle)) for g in grids]),
            np.tile(np.repeat(f_axis, w_axis.size), len(grids)),
            np.tile(w_axis, f_axis.size * len(grids)),
            np.concatenate([g.values.ravel() for g in grids]),
        )
        write_csv(os.path.join(out_dir, name),
                  ("probe_deg", "frequency_hz", "amplitude_v", "magnitude"), columns=columns)
    else:
        write_json(os.path.join(out_dir, name), [grid.to_dict() for grid in grids])
    return [name]


def _cmd_fit(args, config, out_dir):
    samples = ingest_impedance(args.input, fmt=args.input_format)
    cell = fit_circuit_model(samples, args.thickness)
    write_json(os.path.join(out_dir, "cell.json"), {
        "R_d": cell.R_d,
        "C_d": cell.C_d,
        "L_d": cell.L_d,
        "L_s": cell.L_s,
        "electric_resonance_hz": cell.electric_resonance / (2.0 * math.pi),
        "magnetic_resonance_hz": cell.magnetic_resonance / (2.0 * math.pi),
    })
    return ["cell.json"]


def _parse_zrect(raw):
    if raw.strip().lower() == "inf":
        return math.inf
    try:
        value = float(raw)
    except ValueError:
        raise InputError(f"cannot parse rectifier impedance {raw!r}") from None
    if not value > 0:
        raise InputError(f"--zrect must be a positive number or 'inf', got {raw!r}")
    return value


def _cmd_cascade(args, config, out_dir):
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
    nodes = solve_taps(net)
    tapped = rectified_from_phasors(nodes, exc.dc_offset)
    ideal = rectified_bias(config.design, exc)
    name = f"cascade.{args.format}"
    if args.format == "csv":
        write_csv(os.path.join(out_dir, name),
                  ("element", "position_m", "ideal_v", "tapped_v", "delta_v"),
                  columns=(np.arange(ideal.voltages.size), ideal.positions, ideal.voltages,
                           tapped.voltages, tapped.voltages - ideal.voltages))
    else:
        write_json(os.path.join(out_dir, name), {
            "frequency_hz": drive,
            "positions_m": ideal.positions,
            "ideal_v": ideal.voltages,
            "tapped_v": tapped.voltages,
        })
    return [name]


_COMMANDS = {
    "bias": _cmd_bias,
    "pattern": _cmd_pattern,
    "steer": _cmd_steer,
    "scan": _cmd_scan,
    "fit": _cmd_fit,
    "cascade": _cmd_cascade,
}


# opens with a negative number, which argparse takes for an option unless
# the whole token is one
_NEGATIVE_LEAD = re.compile(r"-\.?\d")


def _bind_probe_list(argv):
    """Join ``--probe -12.5,3`` (or ``--prob -12.5,3``) into ``--probe=-12.5,3``.

    argparse reads only a plain negative number such as ``-12.5`` as a
    value, so a probe list that opens with a negative angle would
    otherwise be taken for an unknown option.
    """
    out = []
    for token in argv:
        if (out and len(out[-1]) > 2 and "--probe".startswith(out[-1])
                and _NEGATIVE_LEAD.match(token)):
            out[-1] = f"--probe={token}"
        else:
            out.append(token)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_bind_probe_list(sys.argv[1:] if argv is None else argv))

    started = time.perf_counter()
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            # fit reads no configuration; every other command reads one
            config = None if args.command == "fit" else _load_run_config(args)
            out_dir = args.out or (config.output_dir if config else None) or "."
            os.makedirs(out_dir, exist_ok=True)
            config_hash = sha256_of(config.to_dict() if config else _fit_inputs(args))
            outputs = _COMMANDS[args.command](args, config, out_dir)
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
