"""Configuration loading, validation diagnostics, bundled design."""

import json
import math
from importlib import resources

import pytest

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
