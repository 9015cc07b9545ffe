"""Configuration loading, validation diagnostics, bundled design."""

import json
import math
from importlib import resources

import pytest
from hypothesis import given, settings, strategies as st

import wavectl as w
from wavectl.cli import main
from wavectl.errors import ConfigError
from wavectl.serialize import sha256_of


def _valid_doc():
    return {
        "design": {
            "element_count": 8,
            "spacing": 0.02,
            "left_extension": 0.01,
            "right_extension": 0.01,
            "slowness": 19.34,
            "characteristic_impedance": 19.23,
            "termination": "short",
        },
        "cell": {"R_d": 0.47, "C_d": 4.4e-13, "L_d": 6.1e-10, "L_s": 2.55e-9},
        "varactors": {
            "series_inductance": 2.34e-9,
            "rows": [
                {"bias_voltage": 4.0, "capacitance": 8.02e-13, "resistance": 0.509},
                {"bias_voltage": 15.0, "capacitance": 4.6e-13, "resistance": 0.005},
            ],
        },
        "excitation": {
            "dc_offset": 4.0,
            "modes": [{"mode_index": 1, "amplitude": 10.0, "phase": 0.0}],
            "fundamental_frequency": 7.18e6,
            "generator_voltage": 10.0,
            "generator_impedance": 50.0,
        },
        "carrier_frequency": 2.45e9,
    }


def test_bundled_config_loads():
    cfg = w.load_bundled_config()
    assert cfg.design.element_count == 27
    assert cfg.design.termination is w.Termination.SHORT
    # null slowness resolves from the microstrip cross-section
    assert cfg.design.slowness == pytest.approx(19.342461593935346, rel=1e-12)
    assert cfg.varactors.bias_range == (4.0, 15.0)
    assert cfg.carrier_frequency == 2.45e9
    assert cfg.excitation.generator_impedance == 50.0


def test_minimal_document(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(_valid_doc()))
    cfg = w.load_config(path)
    assert cfg.design.element_count == 8
    assert cfg.microstrip is None
    assert cfg.output_dir is None


def test_error_paths_accumulate():
    doc = _valid_doc()
    doc["design"]["element_count"] = "many"
    doc["cell"]["R_d"] = None
    del doc["excitation"]["dc_offset"]
    doc["varactors"]["rows"][0]["capacitance"] = True
    with pytest.raises(ConfigError) as exc_info:
        w.config_from_dict(doc)
    message = str(exc_info.value)
    assert "design.element_count" in message
    assert "cell.R_d" in message
    assert "excitation.dc_offset" in message
    assert "varactors.rows[0].capacitance" in message


def test_unknown_keys_rejected():
    doc = _valid_doc()
    doc["design"]["slownes"] = 19.0
    doc["extra"] = {}
    with pytest.raises(ConfigError) as exc_info:
        w.config_from_dict(doc)
    assert "design.slownes" in str(exc_info.value)
    assert "$.extra" in str(exc_info.value)


def test_termination_values():
    doc = _valid_doc()
    doc["design"]["termination"] = "shorted"
    with pytest.raises(ConfigError, match="termination"):
        w.config_from_dict(doc)


def test_null_slowness_requires_microstrip():
    doc = _valid_doc()
    doc["design"]["slowness"] = None
    with pytest.raises(ConfigError, match="design.slowness"):
        w.config_from_dict(doc)
    doc["microstrip"] = {
        "relative_permittivity": 11.2,
        "substrate_thickness": 0.00064,
        "trace_width": 0.0026,
        "path_length_per_cell": 0.13142,
    }
    cfg = w.config_from_dict(doc)
    assert cfg.design.slowness == pytest.approx(19.342461593935346, rel=1e-12)


def test_semantic_validation_reported_with_path():
    doc = _valid_doc()
    doc["varactors"]["rows"] = list(reversed(doc["varactors"]["rows"]))
    with pytest.raises(ConfigError, match="varactors"):
        w.config_from_dict(doc)


def test_invalid_json_file(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="JSON"):
        w.load_config(path)


def test_invalid_bundled_json_is_a_config_error(tmp_path, monkeypatch):
    # os.path.join keeps an absolute path, so the bundled read opens this file
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    monkeypatch.setattr("wavectl.config.BUNDLED_DESIGN", str(path))
    with pytest.raises(ConfigError, match="^not valid JSON: "):
        w.load_bundled_config()


def test_to_dict_round_trip_and_hash():
    cfg = w.config_from_dict(_valid_doc())
    doc = cfg.to_dict()
    again = w.config_from_dict(doc)
    assert sha256_of(doc) == sha256_of(again.to_dict())
    assert again.design == cfg.design
    assert again.excitation == cfg.excitation


def test_defaults_for_generator_fields():
    doc = _valid_doc()
    del doc["excitation"]["generator_voltage"]
    del doc["excitation"]["generator_impedance"]
    cfg = w.config_from_dict(doc)
    assert cfg.excitation.generator_voltage == 10.0
    assert cfg.excitation.generator_impedance == 50.0


def _numeric_leaves(node, path=""):
    """(path, container, key) for every number in a document, paths as in errors."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        sub = f"{path}[{key}]" if isinstance(node, list) else f"{path}.{key}" if path else key
        if isinstance(value, (dict, list)):
            yield from _numeric_leaves(value, sub)
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            yield (sub if path else f"$.{sub}"), node, key


def test_non_finite_numbers_rejected_with_path(tmp_path, capsys):
    text = resources.files("wavectl").joinpath("data", "reference-design.json").read_text()
    leaves = list(_numeric_leaves(json.loads(text)))
    assert len(leaves) > 50
    for i, (path, _, _) in enumerate(leaves):
        for bad in (math.nan, math.inf, -math.inf):
            doc = json.loads(text)
            _, node, key = list(_numeric_leaves(doc))[i]
            node[key] = bad
            with pytest.raises(ConfigError) as err:
                w.config_from_dict(doc)
            assert path in str(err.value)
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(doc))
            capsys.readouterr()
            assert main(["bias", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
            err_text = capsys.readouterr().err
            assert err_text.startswith("wavectl: ") and path in err_text
            assert "Traceback" not in err_text


def _bundled_doc():
    text = resources.files("wavectl").joinpath("data", "reference-design.json").read_text()
    return json.loads(text)


def _nodes(node, path="$"):
    """(path, container, key) for every value in a document, paths as in errors.

    Sections are named without the root (``design``); other top-level
    keys keep it (``$.carrier_frequency``).
    """
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        if isinstance(node, list):
            sub = f"{path}[{key}]"
        elif path == "$" and isinstance(value, dict):
            sub = key
        else:
            sub = f"{path}.{key}"
        yield sub, node, key
        if isinstance(value, (dict, list)):
            yield from _nodes(value, sub)


def _paths(doc):
    """Every path a problem in this document may be reported at."""
    paths = {"$"}
    for path, _, key in _nodes(doc):
        paths.add(path)
        if not path.startswith("$") and "." not in path:
            paths.add(f"$.{key}")  # an unknown top-level key holding an object
    return paths


_BUNDLED_PATHS = [path for path, _, _ in _nodes(_bundled_doc())]
_BAD_VALUES = ["text", [], {}, True, None, -1, 0, 0.5, -1.0, 1e-300, 1e300, -1e300]


def _mutated(path, how, value=None):
    """The bundled document with the node at path set, deleted, or given a sibling."""
    doc = _bundled_doc()
    _, node, key = next(n for n in _nodes(doc) if n[0] == path)
    if how == "set":
        node[key] = value
    elif how == "delete":
        del node[key]
    else:  # an unknown key in the object at path, else in the one holding it
        target = node[key] if isinstance(node[key], dict) else node
        (target if isinstance(target, dict) else doc)["surplus"] = value
    return doc


@settings(max_examples=400, deadline=None)
@given(path=st.sampled_from(_BUNDLED_PATHS), how=st.sampled_from(["set", "delete", "add"]),
       value=st.sampled_from(_BAD_VALUES))
def test_fuzzed_documents_load_or_name_their_paths(path, how, value):
    doc = _mutated(path, how, value)
    try:
        w.config_from_dict(doc)
    except ConfigError as err:
        known = _paths(_bundled_doc()) | _paths(doc)
        for line in str(err).splitlines():
            assert line.split(": ", 1)[0] in known, line


_CLI_SAMPLE = [
    ("design.element_count", "set", "27"),
    ("design.spacing", "set", -0.02),
    ("design.termination", "set", None),
    ("design.characteristic_impedance", "delete", None),
    ("microstrip", "set", []),
    ("microstrip.relative_permittivity", "set", 0.5),
    ("cell.L_s", "set", True),
    ("cell", "add", 1.0),
    ("varactors.rows", "set", []),
    ("varactors.rows[3]", "set", "row"),
    ("varactors.rows[3].capacitance", "set", 1e-300),
    ("excitation.modes", "set", {}),
    ("excitation.modes[0].mode_index", "set", 0.5),
    ("excitation.modes[0].phase", "set", "zero"),
    ("excitation.dc_offset", "set", -1),
    ("excitation.generator_impedance", "set", 0),
    ("$.carrier_frequency", "set", -1e300),
    ("excitation", "delete", None),
]


@pytest.mark.parametrize("path, how, value", _CLI_SAMPLE)
def test_fuzzed_documents_exit_2_through_the_cli(tmp_path, capsys, path, how, value):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(_mutated(path, how, value)))
    assert main(["bias", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    err_text = capsys.readouterr().err
    assert err_text.startswith("wavectl: ")
    assert "Traceback" not in err_text


def test_several_problems_give_the_exact_message():
    doc = _bundled_doc()
    doc["notes"] = "draft"
    doc["design"]["termination"] = "shorted"
    doc["excitation"]["modes"][0].update(amplitude=-2.0, phase="quarter")
    with pytest.raises(ConfigError) as err:
        w.config_from_dict(doc)
    assert str(err.value) == (
        "$.notes: unrecognized field\n"
        "design.termination: must be one of short, open, matched\n"
        "excitation.modes[0].phase: must be a number\n"
        "excitation.modes[0]: mode amplitude must be finite and nonnegative"
    )

    doc = _bundled_doc()
    doc["design"]["element_count"] = 2.5
    doc["cell"]["C_d"] = 0
    doc["varactors"]["rows"][1] = [5.0, 6.97e-13, 0.34]
    del doc["varactors"]["rows"][2]["resistance"]
    doc["excitation"]["generator_impedance"] = -50.0
    doc["carrier_frequency"] = 0
    doc["output_dir"] = 7
    with pytest.raises(ConfigError) as err:
        w.config_from_dict(doc)
    assert str(err.value) == (
        "design.element_count: must be an integer\n"
        "cell: C_d must be strictly positive and finite\n"
        "varactors.rows[1]: must be an object\n"
        "varactors.rows[2].resistance: missing required field\n"
        "excitation: generator_impedance must be positive\n"
        "$.carrier_frequency: must be positive\n"
        "$.output_dir: must be a string"
    )

    doc = _bundled_doc()
    del doc["microstrip"]
    doc["cell"]["R_s"] = 0.1
    doc["excitation"]["generator_voltage"] = "ten"
    doc["excitation"]["modes"].append({"mode_index": 1, "amplitude": 2.0})
    doc["carrier_frequency"] = "2.45 GHz"
    with pytest.raises(ConfigError) as err:
        w.config_from_dict(doc)
    assert str(err.value) == (
        "cell.R_s: unrecognized field\n"
        "excitation.generator_voltage: must be a number\n"
        "excitation: mode indices must be unique\n"
        "$.carrier_frequency: must be a number\n"
        "design.slowness: null requires a microstrip section to derive the value from"
    )


def test_bundled_config_hash_is_pinned():
    assert sha256_of(w.load_bundled_config().to_dict()) == (
        "d27a6a2b98d1808690e1eac1b2a6cdc2d273987cd07616a1017a9abfd76ec1ab")


def test_null_slowness_needs_a_positive_spacing():
    doc = _bundled_doc()
    doc["design"]["spacing"] = 0
    with pytest.raises(ConfigError) as err:
        w.config_from_dict(doc)
    assert str(err.value) == "design.spacing: must be positive"


def test_element_count_beyond_float_range_is_a_config_error():
    doc = _bundled_doc()
    doc["design"]["element_count"] = 10**400
    with pytest.raises(ConfigError) as err:
        w.config_from_dict(doc)
    assert str(err.value).startswith("design: element_count is too large")


@pytest.mark.parametrize("count", [2**12 + 1, 10**9, 10**300],
                         ids=["4097", "1e9", "1e300"])
def test_absurd_element_count_exits_2_through_the_cli(tmp_path, capsys, count):
    doc = _bundled_doc()
    doc["design"]["element_count"] = count
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    assert main(["bias", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (
        "wavectl: design: element_count is too large: at most 4096 taps\n")


def test_number_beyond_float_range_is_not_finite():
    # math.isfinite converts the integer to a float, which overflows
    doc = _bundled_doc()
    doc["design"]["spacing"] = int("9" * 400)
    with pytest.raises(ConfigError) as err:
        w.config_from_dict(doc)
    assert str(err.value) == "design.spacing: must be a finite number"


def test_non_utf8_config_is_a_config_error(tmp_path, capsys):
    text = json.dumps(_bundled_doc()).encode()
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(text[:40] + b"\xff" + text[40:])
    with pytest.raises(ConfigError, match="not UTF-8 text"):
        w.load_config(cfg)
    assert main(["bias", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    err_text = capsys.readouterr().err
    assert err_text.startswith("wavectl: not UTF-8 text: ")
    assert "Traceback" not in err_text


def test_element_count_beyond_float_range_exits_2_through_the_cli(tmp_path, capsys):
    doc = _bundled_doc()
    doc["design"]["element_count"] = 10**400
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    assert main(["bias", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    err_text = capsys.readouterr().err
    assert err_text.startswith("wavectl: ")
    assert "design: element_count is too large" in err_text
    assert "Traceback" not in err_text


def test_run_config_needs_a_finite_carrier():
    bundle = w.load_bundled_config()
    with pytest.raises(w.InputError, match="carrier_frequency must be positive and finite"):
        w.RunConfig(bundle.design, bundle.cell, bundle.varactors, bundle.excitation,
                    carrier_frequency=math.inf)


@pytest.mark.parametrize("doc, fragment", [
    ([], "configuration must be a JSON object"),
], ids=["list"])
def test_config_typed_errors(doc, fragment):
    with pytest.raises(ConfigError) as info:
        w.config_from_dict(doc)
    assert fragment in str(info.value)
