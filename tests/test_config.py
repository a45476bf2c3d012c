"""Config load/dump roundtrips and strict key and value checking."""

import json
import math
import runpy
from pathlib import Path
from typing import get_type_hints

import pytest

from lidartrack.config import (
    _SECTIONS,
    PipelineConfig,
    config_from_dict,
    config_to_dict,
    dump_config,
    load_config,
)
from lidartrack.errors import ConfigError


def test_defaults_roundtrip_through_json():
    cfg = PipelineConfig()
    again = config_from_dict(json.loads(dump_config(cfg)))
    assert again == cfg


def test_empty_object_means_all_defaults():
    assert config_from_dict({}) == PipelineConfig()


def test_partial_section_overrides_one_field():
    cfg = config_from_dict({"clustering": {"eps": 0.9}})
    assert cfg.clustering.eps == 0.9
    assert cfg.clustering.min_points == PipelineConfig().clustering.min_points
    assert cfg.tracker == PipelineConfig().tracker


def test_unknown_section_rejected():
    with pytest.raises(ConfigError, match="unknown config section"):
        config_from_dict({"clusterin": {"eps": 0.9}})


def test_unknown_key_rejected_with_section_name():
    with pytest.raises(ConfigError, match="'clustering'"):
        config_from_dict({"clustering": {"epz": 0.9}})


def test_tracker_motion_model_key_rejected():
    with pytest.raises(ConfigError, match="motion_model"):
        config_from_dict({"tracker": {"motion_model": "cv"}})


def test_non_object_section_rejected():
    with pytest.raises(ConfigError, match="'tracker' must be a JSON object"):
        config_from_dict({"tracker": 5})


def test_bad_value_reported_as_config_error():
    with pytest.raises(ConfigError, match="'tracker'"):
        config_from_dict({"tracker": {"gate_distance": -1.0}})


def test_non_object_root_rejected():
    with pytest.raises(ConfigError):
        config_from_dict([1, 2])


def test_load_config_file(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"preprocess": {"rng_seed": 42}, "eval": {"match_distance": 3.0}}))
    cfg = load_config(p)
    assert cfg.preprocess.rng_seed == 42
    assert cfg.eval.match_distance == 3.0


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="file is missing"):
        load_config(tmp_path / "nope.json")


@pytest.mark.parametrize(
    "text, message",
    [
        ("[1, 2]", "top level must be a JSON object, got list"),
        ('{"tracker": {"gate_distance": -1.0}}', "invalid value in section 'tracker'"),
        ('{"tracker": {"gate": 1.0}}', "unknown key(s) in section 'tracker'"),
        ('{"trackers": {}}', "unknown config section(s)"),
    ],
    ids=["top-level", "value", "key", "section"],
)
def test_every_config_file_error_names_the_file(tmp_path, text, message):
    p = tmp_path / "cfg.json"
    p.write_text(text)
    with pytest.raises(ConfigError) as exc:
        load_config(p)
    assert str(exc.value).startswith(f"{p}: {message}")


def test_load_config_invalid_json(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    with pytest.raises(ConfigError, match="invalid JSON"):
        load_config(p)


def test_dump_covers_every_section():
    data = config_to_dict(PipelineConfig())
    assert sorted(data) == ["box_limits", "clustering", "eval", "preprocess", "tracker"]
    assert data["tracker"]["hit_confirm_threshold"] == 5
    assert data["preprocess"]["stride"] == 10


# A value each of these fields refuses for its size alone.
OUT_OF_RANGE = {
    "rng_seed": -1,
    "match_distance": 0,
    "min_plane_points": 0,
    "measurement_noise_pos": 0,
    "process_noise_accel": -2.0,
    "initial_velocity_std": -10.0,
}


def wrong_values():
    """(section, key, value) for every field of every section and each kind
    of value it must refuse: a non-finite number, a value of another JSON
    type, a fraction for an integer and, for some, a value out of range."""
    for section, cls in _SECTIONS.items():
        for key, kind in get_type_hints(cls).items():
            other = 1 if kind is bool else True
            values = [math.nan, math.inf, other, "1"]
            if kind is int:
                values.append(2.5)
            if key in OUT_OF_RANGE:
                values.append(OUT_OF_RANGE[key])
            for value in values:
                yield pytest.param(section, key, value, id=f"{section}.{key}={value!r}")


@pytest.mark.parametrize("section, key, value", wrong_values())
def test_every_field_refuses_a_value_of_the_wrong_kind(section, key, value):
    text = json.dumps({section: {key: value}})  # NaN and Infinity, as json writes them
    with pytest.raises(ConfigError) as exc:
        config_from_dict(json.loads(text))
    assert f"'{section}'" in str(exc.value) and key in str(exc.value)


def test_an_integer_is_accepted_where_a_real_is_expected():
    cfg = config_from_dict({"tracker": {"gate_distance": 3}, "eval": {"match_distance": 2}})
    assert cfg.tracker.gate_distance == 3.0 and type(cfg.tracker.gate_distance) is float
    assert cfg == config_from_dict({"tracker": {"gate_distance": 3.0}, "eval": {"match_distance": 2.0}})


def test_the_benchmark_workload_configs_load():
    workloads = runpy.run_path(str(Path(__file__).parents[1] / "perfbench" / "workloads.py"))
    for spec in workloads["WORKLOADS"].values():
        cfg = config_from_dict(json.loads(json.dumps(spec["pipeline"])))
        assert config_from_dict(json.loads(dump_config(cfg))) == cfg


def impossible_gates():
    """A min bound above its max, or below zero, for each box dimension."""
    defaults = config_to_dict(PipelineConfig())["box_limits"]
    for dim in ("length", "width", "height", "area"):
        low, high = f"min_{dim}", f"max_{dim}"
        yield pytest.param({low: defaults[high] + 1.0}, low, id=f"{low}>{high}")
        yield pytest.param({low: -0.5}, low, id=f"{low}<0")
        yield pytest.param({low: 0.0, high: -1.0}, high, id=f"{high}<0")


@pytest.mark.parametrize("limits, key", impossible_gates())
def test_box_limits_refuse_a_gate_no_box_can_pass(limits, key):
    with pytest.raises(ConfigError) as exc:
        config_from_dict({"box_limits": limits})
    assert "'box_limits'" in str(exc.value) and key in str(exc.value)


def test_box_limits_accept_a_gate_of_one_size():
    cfg = config_from_dict({"box_limits": {"min_length": 7.0, "min_area": 0.0, "max_area": 0.0}})
    assert cfg.box_limits.min_length == cfg.box_limits.max_length == 7.0
