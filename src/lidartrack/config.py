"""Pipeline configuration: one JSON file, every knob explicit.

Unknown keys are rejected rather than ignored. A typo like "epz" silently
falling back to the default has burned enough people that strictness here
is worth the occasional friction. Values are typed the same way: an int
field takes a JSON integer, a float field a finite JSON number, a bool
field a JSON boolean and a str field a string.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path

from .clustering import ClusterParams
from .dataset_io import _field_casts
from .detection import BoxLimits
from .errors import ConfigError
from .preprocess import PreprocessConfig
from .tracking import TrackerConfig


@dataclass(frozen=True)
class EvalConfig:
    match_distance: float = 2.0

    def __post_init__(self):
        if self.match_distance <= 0:
            raise ValueError("match_distance must be positive")


@dataclass(frozen=True)
class PipelineConfig:
    preprocess: PreprocessConfig = field(default_factory=PreprocessConfig)
    clustering: ClusterParams = field(default_factory=ClusterParams)
    box_limits: BoxLimits = field(default_factory=BoxLimits)
    tracker: TrackerConfig = field(default_factory=TrackerConfig)
    eval: EvalConfig = field(default_factory=EvalConfig)


# Each section's name and class, in file order, from PipelineConfig's fields.
_SECTIONS = {f.name: f.default_factory for f in dataclasses.fields(PipelineConfig)}


def build_section(name: str, cls, data: dict):
    """cls(**data) for a config dataclass, each value cast by its field's
    type first. An unknown key or a rejected value is a ConfigError naming
    the section."""
    if not isinstance(data, dict):
        raise ConfigError(f"section {name!r} must be a JSON object, got {type(data).__name__}")
    casts = _field_casts(cls)
    unknown = set(data) - set(casts)
    if unknown:
        raise ConfigError(
            f"unknown key(s) in section {name!r}: {sorted(unknown)}; "
            f"valid keys: {sorted(casts)}"
        )
    values = {}
    for key, value in data.items():
        try:
            values[key] = casts[key](value)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"invalid value for {key!r} in section {name!r}: {exc}") from exc
    try:
        return cls(**values)
    except ValueError as exc:
        raise ConfigError(f"invalid value in section {name!r}: {exc}") from exc


def config_from_dict(data: dict) -> PipelineConfig:
    if not isinstance(data, dict):
        raise ConfigError(f"config root must be a JSON object, got {type(data).__name__}")
    unknown = set(data) - set(_SECTIONS)
    if unknown:
        raise ConfigError(
            f"unknown config section(s): {sorted(unknown)}; valid sections: {sorted(_SECTIONS)}"
        )
    parts = {
        name: build_section(name, cls, data.get(name, {})) for name, cls in _SECTIONS.items()
    }
    return PipelineConfig(**parts)


def config_to_dict(cfg: PipelineConfig) -> dict:
    return {name: dataclasses.asdict(getattr(cfg, name)) for name in _SECTIONS}


def load_config(path) -> PipelineConfig:
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file does not exist: {p}")
    try:
        with open(p, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except ValueError as exc:  # not JSON, or not UTF-8 text
        raise ConfigError(f"{p}: invalid JSON: {exc}") from exc
    return config_from_dict(data)


def dump_config(cfg: PipelineConfig) -> str:
    return json.dumps(config_to_dict(cfg), indent=2)
