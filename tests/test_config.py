"""Config load/dump roundtrips and strict key checking."""

import json

import pytest

from lidartrack.config import (
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
    with pytest.raises(ConfigError, match="does not exist"):
        load_config(tmp_path / "nope.json")


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
