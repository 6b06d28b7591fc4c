"""Run configuration: one JSON document drives the whole pipeline.

Sections map 1:1 onto the library dataclasses.  Every key overrides the
shipped default, nested objects merge into the default at their level, and
each value must match its field's annotation (a JSON integer is accepted
where a float is expected); unknown keys are rejected so typos fail loudly.
An empty document is the shipped default.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import sys
import typing
from dataclasses import dataclass
from datetime import datetime
from pathlib import Path

from .airframe import AirframeConfig, reference_config
from .firmware import FirmwareConfig
from .flightsim import Environment
from .mission import MissionParams


class ConfigError(ValueError):
    """A configuration document failed validation."""


@dataclass(frozen=True)
class RunConfig:
    airframe: AirframeConfig
    environment: Environment
    firmware: FirmwareConfig
    mission: MissionParams


def default_run_config() -> RunConfig:
    """The shipped reference setup: calm standard day, 40 m sounding."""
    return RunConfig(
        airframe=reference_config(),
        environment=Environment(),
        firmware=FirmwareConfig(),
        mission=MissionParams(),
    )


_EXPECTED = {float: "a finite number", int: "an integer", str: "a string",
             datetime: "an ISO datetime string"}

_hints = functools.cache(typing.get_type_hints)  # resolved field annotations, per class


def _convert(hint, value, path: str):
    """A JSON leaf value as the annotated type; ConfigError names ``path`` otherwise."""
    if hint is float and isinstance(value, (int, float)) and not isinstance(value, bool) \
            and abs(value) <= sys.float_info.max:  # NaN and the infinities fail this
        return float(value)
    if hint in (int, str) and type(value) is hint:
        return value
    if hint is datetime and isinstance(value, str):
        try:
            return datetime.fromisoformat(value)
        except ValueError as exc:
            raise ConfigError(f"{path} must be an ISO datetime string: {exc}") from exc
    if typing.get_origin(hint) is tuple and isinstance(value, (list, tuple)):
        item_hint, _ = typing.get_args(hint)  # every tuple field is tuple[X, ...]
        return tuple(_convert(item_hint, item, f"{path}[{i}]") for i, item in enumerate(value))
    expected = _EXPECTED.get(hint, "an array")
    raise ConfigError(f"{path} must be {expected}, got {json.dumps(value, default=repr)}")


def _build(default, document, path: str):
    """``default`` with the keys of ``document`` overridden, recursing into nested dataclasses."""
    if not isinstance(document, dict):
        raise ConfigError(f"{path or 'configuration root'} must be an object")
    hints = _hints(type(default))
    changes = {}
    for key, value in document.items():
        where = f"{path}.{key}" if path else key
        if key not in hints:
            raise ConfigError(f"{where} is not a known key")
        if dataclasses.is_dataclass(hints[key]):
            changes[key] = _build(getattr(default, key), value, where)
        else:
            changes[key] = _convert(hints[key], value, where)
    try:
        return dataclasses.replace(default, **changes)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def from_dict(document: dict) -> RunConfig:
    """Build a RunConfig from a parsed JSON document, applying defaults."""
    return _build(default_run_config(), document, "")


def to_dict(cfg: RunConfig) -> dict:
    """Inverse of from_dict, suitable for json.dump."""
    doc = dataclasses.asdict(cfg)
    doc["firmware"]["rtc_start"] = cfg.firmware.rtc_start.isoformat()
    return doc


def load(path) -> RunConfig:
    """Load and validate a JSON configuration file."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read configuration file: {exc}") from exc
    try:
        document = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"configuration is not valid JSON: {exc}") from exc
    return from_dict(document)
