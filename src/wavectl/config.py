"""Configuration documents: schema validation and the bundled design.

A run configuration is a single JSON object with one section per
domain type; every quantity is in SI base units (hertz, meters,
volts, ohms, farads, henries).  One schema table per JSON object
(``_RUN``) reads, checks and renders it, reporting every problem with
its JSON path before any computation runs.
"""

from __future__ import annotations

import json
import math
from collections import namedtuple
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
        if not (0 < self.carrier_frequency < math.inf):
            raise InputError("carrier_frequency must be positive and finite")

    def to_dict(self):
        return _RUN.render(self)


class _Problems(list):
    """One ``path: message`` line per problem, in the order found."""

    def add(self, path, message):
        self.append(f"{path}: {message}")


_ABSENT = object()  # the value of a key the document leaves out


def _number(value, path, problems):
    """A required finite number as a float, or None once the problem is recorded."""
    if value is _ABSENT:
        problems.add(path, "missing required field")
    elif isinstance(value, bool) or not isinstance(value, (int, float)):
        problems.add(path, "must be a number")
    elif not math.isfinite(value):
        problems.add(path, "must be a finite number")
    else:
        return float(value)
    return None


def _integer(value, path, problems):
    if value is _ABSENT:
        problems.add(path, "missing required field")
    elif isinstance(value, bool) or not isinstance(value, int):
        problems.add(path, "must be an integer")
    else:
        return value
    return None


def _nullable_number(value, path, problems):
    return None if value is None else _number(value, path, problems)


def _termination(value, path, problems):
    try:
        return BtlDesign.termination if value is _ABSENT else Termination(value)
    except ValueError:
        problems.add(path, "must be one of short, open, matched")
        return None


def _text(value, path, problems):
    if value is _ABSENT or value is None or isinstance(value, str):
        return None if value is _ABSENT else value
    problems.add(path, "must be a string")
    return None


class _Leaf:
    """A scalar key: ``read`` checks its JSON value, ``render`` writes it back."""

    def __init__(self, read, render=lambda value: value):
        self.read = read
        self.render = render


def _optional_number(default, positive=False):
    """A number that is ``default`` when absent, or when bad once the problem is recorded."""

    def read(value, path, problems):
        number = default if value is _ABSENT else _number(value, path, problems)
        if number is None:
            return default
        if positive and number <= 0:
            problems.add(path, "must be positive")
        return number

    return _Leaf(read)


def _build(build, path, values, problems):
    """build(**values); None if a value is missing or the type refuses them."""
    if None in values.values():
        return None
    try:
        return build(**values)
    except InputError as err:
        problems.add(path, str(err))
        return None


class _Object:
    """A JSON object whose keys, in reading order, are the table's.

    Unknown keys are reported first, then each key is read, then the
    values build the type; with no type they are returned as a dict.
    """

    not_object = "must be an object"

    def __init__(self, table, build=None):
        self.table = table
        self.build = build

    def read(self, value, path, problems):
        if not isinstance(value, dict):
            problems.add(path, self.not_object)
            return None
        for key in value:
            if key not in self.table:
                problems.add(f"{path}.{key}", "unrecognized field")
        values = {key: field.read(value.get(key, _ABSENT), f"{path}.{key}", problems)
                  for key, field in self.table.items()}
        return values if self.build is None else _build(self.build, path, values, problems)

    def render(self, obj):
        if type(obj) is tuple:  # a varactor row, kept as a plain tuple of numbers
            return dict(zip(self.table, obj))
        doc = {}
        for key, field in self.table.items():
            value = getattr(obj, key)
            if value is not None:
                doc[key] = field.render(value)
        return doc


class _Section(_Object):
    """A top-level object, named in problems without the root; absent, a problem if required."""

    not_object = "must be a JSON object"

    def __init__(self, table, build=None, required=True):
        super().__init__(table, build)
        self.required = required

    def read(self, value, path, problems):
        path = path.removeprefix("$.")
        if value is _ABSENT:
            if self.required:
                problems.add(path, "missing required section")
            return None
        return super().read(value, path, problems)


class _Array:
    """A JSON array of objects: required and nonempty, or else empty when absent."""

    def __init__(self, item, required=True):
        self.item = item
        self.required = required

    def read(self, value, path, problems):
        if value is _ABSENT and not self.required:
            return ()
        if not isinstance(value, list) or (self.required and not value):
            problems.add(path, "must be a nonempty array" if self.required else "must be an array")
            return None
        items = [self.item.read(item, f"{path}[{i}]", problems) for i, item in enumerate(value)]
        return None if None in items else tuple(items)

    def render(self, items):
        return [self.item.render(item) for item in items]


_NUMBER = _Leaf(_number)
_INTEGER = _Leaf(_integer)
_Row = namedtuple("_Row", ("bias_voltage", "capacitance", "resistance"))

# One table per JSON object, keyed by the attributes of the type it
# builds, in reading order, which is the order problems are reported
# in.  The design is built last: a null slowness comes from microstrip.
_RUN = _Object({
    "design": _Section({
        "element_count": _INTEGER, "spacing": _NUMBER,
        "left_extension": _NUMBER, "right_extension": _NUMBER,
        "slowness": _Leaf(_nullable_number),
        "characteristic_impedance": _NUMBER,
        "termination": _Leaf(_termination, lambda termination: termination.value),
    }),
    "microstrip": _Section({
        "relative_permittivity": _NUMBER, "substrate_thickness": _NUMBER,
        "trace_width": _NUMBER, "path_length_per_cell": _NUMBER,
    }, MicrostripSpec, required=False),
    "cell": _Section({"R_d": _NUMBER, "C_d": _NUMBER, "L_d": _NUMBER, "L_s": _NUMBER},
                     CellCircuit),
    "varactors": _Section({
        "series_inductance": _NUMBER,
        "rows": _Array(_Object(dict.fromkeys(_Row._fields, _NUMBER), _Row)),
    }, VaractorTable),
    "excitation": _Section({
        "dc_offset": _NUMBER, "fundamental_frequency": _NUMBER,
        "generator_voltage": _optional_number(Excitation.generator_voltage),
        "generator_impedance": _optional_number(Excitation.generator_impedance),
        "modes": _Array(_Object({
            "mode_index": _INTEGER, "amplitude": _NUMBER, "phase": _optional_number(Mode.phase),
        }, Mode), required=False),
    }, Excitation),
    "carrier_frequency": _optional_number(RunConfig.carrier_frequency, positive=True),
    "output_dir": _Leaf(_text),
})


def _design(values, microstrip, problems):
    """Build the line, deriving a null slowness from the microstrip section."""
    if values is None or any(v is None for k, v in values.items() if k != "slowness"):
        return None
    if values["slowness"] is None:
        if microstrip is None:
            problems.add("design.slowness",
                         "null requires a microstrip section to derive the value from")
            return None
        if not values["spacing"] > 0:
            problems.add("design.spacing", "must be positive")
            return None
        values["slowness"] = slowness_factor(microstrip, values["spacing"])
    return _build(BtlDesign, "design", values, problems)


def config_from_dict(doc) -> RunConfig:
    """Validate a configuration document and build a RunConfig.

    Raises ConfigError carrying one line per offending field.
    """
    if not isinstance(doc, dict):
        raise ConfigError(None, "configuration must be a JSON object")
    problems = _Problems()
    values = _RUN.read(doc, "$", problems)
    values["design"] = _design(values["design"], values["microstrip"], problems)
    if problems:
        raise ConfigError(None, "\n".join(problems))
    if any(values[key] is None for key in ("design", "cell", "varactors", "excitation")):
        raise ConfigError(None, "configuration incomplete")  # pragma: no cover
    return RunConfig(**values)


def load_config(path) -> RunConfig:
    """Load and validate a configuration file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as err:
            raise ConfigError(None, f"not valid JSON: {err}") from None
        except UnicodeDecodeError as err:
            raise ConfigError(None, f"not UTF-8 text: {err}") from None
    return config_from_dict(doc)


def load_bundled_config() -> RunConfig:
    """The reference design shipped with the package."""
    text = resources.files("wavectl").joinpath("data", BUNDLED_DESIGN).read_text("utf-8")
    return config_from_dict(json.loads(text))
