"""Configuration documents: schema validation and the bundled design.

A run configuration is a single JSON object with one section per
domain type; every quantity is in SI base units (hertz, meters,
volts, ohms, farads, henries).  Validation walks the whole document
and reports every problem with its JSON path before any computation
runs.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from importlib import resources
from typing import Optional

from .btl import BtlDesign, Excitation, MicrostripSpec, Mode, Termination, slowness_factor
from .errors import ConfigError, InputError
from .unitcell import CellCircuit, VaractorTable

BUNDLED_DESIGN = "reference-design.json"


@dataclass(frozen=True)
class RunConfig:
    """Everything a command needs: line, cell, table, drive, carrier."""

    design: BtlDesign
    cell: CellCircuit
    varactors: VaractorTable
    excitation: Excitation
    microstrip: Optional[MicrostripSpec] = None
    carrier_frequency: float = 2.45e9
    output_dir: Optional[str] = None

    def __post_init__(self):
        if not (self.carrier_frequency > 0):
            raise InputError("carrier_frequency must be positive")

    def to_dict(self):
        doc = {
            "design": {
                "element_count": self.design.element_count,
                "spacing": self.design.spacing,
                "left_extension": self.design.left_extension,
                "right_extension": self.design.right_extension,
                "slowness": self.design.slowness,
                "characteristic_impedance": self.design.characteristic_impedance,
                "termination": self.design.termination.value,
            },
            "cell": {
                "R_d": self.cell.R_d,
                "C_d": self.cell.C_d,
                "L_d": self.cell.L_d,
                "L_s": self.cell.L_s,
            },
            "varactors": {
                "series_inductance": self.varactors.series_inductance,
                "rows": [
                    {"bias_voltage": v, "capacitance": c, "resistance": r}
                    for v, c, r in self.varactors.rows
                ],
            },
            "excitation": {
                "dc_offset": self.excitation.dc_offset,
                "modes": [
                    {"mode_index": m.mode_index, "amplitude": m.amplitude, "phase": m.phase}
                    for m in self.excitation.modes
                ],
                "fundamental_frequency": self.excitation.fundamental_frequency,
                "generator_voltage": self.excitation.generator_voltage,
                "generator_impedance": self.excitation.generator_impedance,
            },
            "carrier_frequency": self.carrier_frequency,
        }
        if self.microstrip is not None:
            doc["microstrip"] = {
                "relative_permittivity": self.microstrip.relative_permittivity,
                "substrate_thickness": self.microstrip.substrate_thickness,
                "trace_width": self.microstrip.trace_width,
                "path_length_per_cell": self.microstrip.path_length_per_cell,
            }
        if self.output_dir is not None:
            doc["output_dir"] = self.output_dir
        return doc


class _Problems:
    def __init__(self):
        self.items = []

    def add(self, path, message):
        self.items.append((path, message))

    def raise_if_any(self):
        if self.items:
            lines = [f"{path}: {message}" for path, message in self.items]
            raise ConfigError(None, "\n".join(lines))


def _section(doc, key, problems, required=True):
    if key not in doc:
        if required:
            problems.add(key, "missing required section")
        return None
    value = doc[key]
    if not isinstance(value, dict):
        problems.add(key, "must be a JSON object")
        return None
    return value


def _number(section, path, key, problems, required=True, default=None, allow_null=False):
    if section is None:
        return default
    if key not in section:
        if required:
            problems.add(f"{path}.{key}", "missing required field")
        return default
    value = section[key]
    if value is None and allow_null:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        problems.add(f"{path}.{key}", "must be a number")
        return default
    if not math.isfinite(value):
        problems.add(f"{path}.{key}", "must be a finite number")
        return default
    return float(value)


def _integer(section, path, key, problems, required=True, default=None):
    if section is None:
        return default
    if key not in section:
        if required:
            problems.add(f"{path}.{key}", "missing required field")
        return default
    value = section[key]
    if isinstance(value, bool) or not isinstance(value, int):
        problems.add(f"{path}.{key}", "must be an integer")
        return default
    return value


def _check_keys(section, path, known, problems):
    if section is None:
        return
    for key in section:
        if key not in known:
            problems.add(f"{path}.{key}", "unrecognized field")


def config_from_dict(doc) -> RunConfig:
    """Validate a configuration document and build a RunConfig.

    Raises ConfigError carrying one line per offending field.
    """
    if not isinstance(doc, dict):
        raise ConfigError(None, "configuration must be a JSON object")
    problems = _Problems()
    known_top = {
        "design", "microstrip", "cell", "varactors", "excitation",
        "carrier_frequency", "output_dir",
    }
    _check_keys(doc, "$", known_top, problems)

    d = _section(doc, "design", problems)
    _check_keys(d, "design", {
        "element_count", "spacing", "left_extension", "right_extension",
        "slowness", "characteristic_impedance", "termination",
    }, problems)
    element_count = _integer(d, "design", "element_count", problems)
    spacing = _number(d, "design", "spacing", problems)
    left_ext = _number(d, "design", "left_extension", problems)
    right_ext = _number(d, "design", "right_extension", problems)
    slowness = _number(d, "design", "slowness", problems, required=True, allow_null=True)
    z0 = _number(d, "design", "characteristic_impedance", problems)
    termination = None
    if d is not None:
        term_raw = d.get("termination", "short")
        try:
            termination = Termination(term_raw)
        except ValueError:
            problems.add("design.termination", "must be one of short, open, matched")

    ms = _section(doc, "microstrip", problems, required=False)
    _check_keys(ms, "microstrip", {
        "relative_permittivity", "substrate_thickness", "trace_width",
        "path_length_per_cell",
    }, problems)
    microstrip = None
    if ms is not None:
        eps_r = _number(ms, "microstrip", "relative_permittivity", problems)
        thickness = _number(ms, "microstrip", "substrate_thickness", problems)
        width = _number(ms, "microstrip", "trace_width", problems)
        path_len = _number(ms, "microstrip", "path_length_per_cell", problems)
        if None not in (eps_r, thickness, width, path_len):
            try:
                microstrip = MicrostripSpec(
                    relative_permittivity=eps_r,
                    substrate_thickness=thickness,
                    trace_width=width,
                    path_length_per_cell=path_len,
                )
            except InputError as err:
                problems.add("microstrip", str(err))

    c = _section(doc, "cell", problems)
    _check_keys(c, "cell", {"R_d", "C_d", "L_d", "L_s"}, problems)
    cell = None
    cell_vals = {key: _number(c, "cell", key, problems) for key in ("R_d", "C_d", "L_d", "L_s")}
    if None not in cell_vals.values():
        try:
            cell = CellCircuit(**cell_vals)
        except InputError as err:
            problems.add("cell", str(err))

    v = _section(doc, "varactors", problems)
    _check_keys(v, "varactors", {"series_inductance", "rows"}, problems)
    varactors = None
    if v is not None:
        l_v = _number(v, "varactors", "series_inductance", problems)
        raw_rows = v.get("rows")
        rows = []
        if not isinstance(raw_rows, list) or not raw_rows:
            problems.add("varactors.rows", "must be a nonempty array")
        else:
            for i, row in enumerate(raw_rows):
                if not isinstance(row, dict):
                    problems.add(f"varactors.rows[{i}]", "must be an object")
                    continue
                _check_keys(row, f"varactors.rows[{i}]",
                            {"bias_voltage", "capacitance", "resistance"}, problems)
                bias = _number(row, f"varactors.rows[{i}]", "bias_voltage", problems)
                cap = _number(row, f"varactors.rows[{i}]", "capacitance", problems)
                res = _number(row, f"varactors.rows[{i}]", "resistance", problems)
                if None not in (bias, cap, res):
                    rows.append((bias, cap, res))
        if l_v is not None and rows and len(rows) == len(raw_rows or []):
            try:
                varactors = VaractorTable(series_inductance=l_v, rows=tuple(rows))
            except InputError as err:
                problems.add("varactors", str(err))

    e = _section(doc, "excitation", problems)
    _check_keys(e, "excitation", {
        "dc_offset", "modes", "fundamental_frequency",
        "generator_voltage", "generator_impedance",
    }, problems)
    excitation = None
    if e is not None:
        dc = _number(e, "excitation", "dc_offset", problems)
        f_b = _number(e, "excitation", "fundamental_frequency", problems)
        v_g = _number(e, "excitation", "generator_voltage", problems, required=False, default=10.0)
        z_g = _number(e, "excitation", "generator_impedance", problems, required=False, default=50.0)
        raw_modes = e.get("modes", [])
        modes = []
        ok = True
        if not isinstance(raw_modes, list):
            problems.add("excitation.modes", "must be an array")
            ok = False
        else:
            for i, mode in enumerate(raw_modes):
                if not isinstance(mode, dict):
                    problems.add(f"excitation.modes[{i}]", "must be an object")
                    ok = False
                    continue
                _check_keys(mode, f"excitation.modes[{i}]",
                            {"mode_index", "amplitude", "phase"}, problems)
                idx = _integer(mode, f"excitation.modes[{i}]", "mode_index", problems)
                amp = _number(mode, f"excitation.modes[{i}]", "amplitude", problems)
                ph = _number(mode, f"excitation.modes[{i}]", "phase", problems,
                             required=False, default=0.0)
                if None in (idx, amp):
                    ok = False
                else:
                    try:
                        modes.append(Mode(idx, amp, ph))
                    except InputError as err:
                        problems.add(f"excitation.modes[{i}]", str(err))
                        ok = False
        if ok and None not in (dc, f_b):
            try:
                excitation = Excitation(
                    dc_offset=dc,
                    modes=tuple(modes),
                    fundamental_frequency=f_b,
                    generator_voltage=v_g,
                    generator_impedance=z_g,
                )
            except InputError as err:
                problems.add("excitation", str(err))

    carrier = _number(doc, "$", "carrier_frequency", problems, required=False, default=2.45e9)
    if carrier is not None and carrier <= 0:
        problems.add("$.carrier_frequency", "must be positive")

    output_dir = doc.get("output_dir")
    if output_dir is not None and not isinstance(output_dir, str):
        problems.add("$.output_dir", "must be a string")
        output_dir = None

    # resolve the line's slowness: explicit value, or derived from the
    # microstrip cross-section when the field is null
    design = None
    if None not in (element_count, spacing, left_ext, right_ext, z0) and termination is not None:
        if slowness is None:
            if microstrip is None:
                problems.add(
                    "design.slowness",
                    "null requires a microstrip section to derive the value from",
                )
            elif spacing > 0:
                slowness = slowness_factor(microstrip, spacing)
        if slowness is not None:
            try:
                design = BtlDesign(
                    element_count=element_count,
                    spacing=spacing,
                    left_extension=left_ext,
                    right_extension=right_ext,
                    slowness=slowness,
                    characteristic_impedance=z0,
                    termination=termination,
                )
            except InputError as err:
                problems.add("design", str(err))

    problems.raise_if_any()
    if design is None or cell is None or varactors is None or excitation is None:
        raise ConfigError(None, "configuration incomplete")  # pragma: no cover

    return RunConfig(
        design=design,
        cell=cell,
        varactors=varactors,
        excitation=excitation,
        microstrip=microstrip,
        carrier_frequency=carrier,
        output_dir=output_dir,
    )


def load_config(path) -> RunConfig:
    """Load and validate a configuration file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as err:
            raise ConfigError(None, f"not valid JSON: {err}") from None
    return config_from_dict(doc)


def load_bundled_config() -> RunConfig:
    """The reference design shipped with the package."""
    text = resources.files("wavectl").joinpath("data", BUNDLED_DESIGN).read_text("utf-8")
    return config_from_dict(json.loads(text))
