"""Run configuration files: loading, field checks, and hashing.

A run config is a JSON object with the sections ``paths`` and ``model``
(required), ``training``, ``augment`` and ``protocol``, and the top-level
``seed`` and ``precision``. The ``model``, ``augment`` and ``training``
sections are the fields of ``ModelConfig``, ``AugmentStrategy`` and
``TrainConfig``; ``dataclass_from_json`` checks each key's JSON type and the
dataclass checks its bounds, so no field is described twice. A malformed
field raises ``ConfigError`` naming it; ``dataio.read_json`` reads the file.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, fields

from .augment import AugmentStrategy
from .dataio import read_json
from .model import ModelConfig
from .trainer import TrainConfig


class ConfigError(ValueError):
    """The run configuration is malformed or out of bounds."""


# JSON types per field annotation; every module here postpones annotations,
# so ``dataclasses.fields`` reports them as strings
_JSON_TYPES = {
    "int": ((int,), "an integer"),
    "float": ((int, float), "a number"),
    "bool": ((bool,), "a boolean"),
    "str": ((str,), "a string"),
    "dict": ((dict,), "a JSON object"),
}
_PATH_KEYS = ("source_events", "target_events", "source_embeddings", "target_embeddings", "output_dir")


def _shown(value) -> str:
    return type(value).__name__ if isinstance(value, (list, dict)) else repr(value)


def _check_json(record, kinds: dict[str, str], error, path: str) -> None:
    """Reject a non-object, a key missing from ``kinds``, or a value of another JSON type or non-finite."""
    if not isinstance(record, dict):
        raise error(f"field {path or '<root>'}: expected a JSON object, got {_shown(record)}")
    prefix = f"{path}/" if path else ""
    for key, value in record.items():
        if key not in kinds:
            raise error(f"field {prefix}{key}: unknown key")
        types, name = _JSON_TYPES[kinds[key]]
        if type(value) not in types:  # bool is an int subclass; 6.0 is not an int
            raise error(f"field {prefix}{key}: expected {name}, got {_shown(value)}")
        if type(value) is float and not math.isfinite(value):
            raise error(f"field {prefix}{key}: expected a finite number, got {value!r}")


def dataclass_from_json(cls, record, error, path: str = "", **given):
    """``cls(**record, **given)`` for a JSON object ``record``, raising ``error`` on any fault.

    Each key of ``record`` must name an ``int``, ``float``, ``bool`` or
    ``str`` field of ``cls`` that ``given`` does not set, and hold that JSON
    type; an integer passes for a float. The dataclass checks the bounds.
    """
    kinds = {f.name: f.type for f in fields(cls) if f.type in _JSON_TYPES and f.name not in given}
    _check_json(record, kinds, error, path)
    try:
        return cls(**record, **given)
    except (TypeError, ValueError) as err:  # a missing required field, or a bound
        raise error(f"{path} config: {err}" if path else str(err)) from err


@dataclass
class RunConfig:
    raw: dict
    train: TrainConfig
    source_events: str
    target_events: str
    source_embeddings: str
    target_embeddings: str
    output_dir: str
    protocol_mode: str
    folds: int


def parse_run_config(record: dict) -> RunConfig:
    """Check every field of a run config and assemble typed configuration."""
    sections = dict.fromkeys(("paths", "model", "training", "augment", "protocol"), "dict")
    _check_json(record, {"seed": "int", "precision": "str", **sections}, ConfigError, "")
    for key in ("paths", "model"):
        if key not in record:
            raise ConfigError(f"field {key}: required")

    model = dataclass_from_json(ModelConfig, record["model"], ConfigError, "model")
    given = {key: record.get(key, getattr(TrainConfig, key)) for key in ("seed", "precision")}
    if "augment" in record:
        given["augment"] = dataclass_from_json(AugmentStrategy, record["augment"], ConfigError, "augment")
    train = dataclass_from_json(TrainConfig, record.get("training", {}), ConfigError, "training", model=model, **given)

    paths = record["paths"]
    _check_json(paths, dict.fromkeys(_PATH_KEYS, "str"), ConfigError, "paths")
    for key in _PATH_KEYS:
        if key not in paths:
            raise ConfigError(f"field paths/{key}: required")
    protocol = record.get("protocol", {})
    _check_json(protocol, {"mode": "str", "folds": "int"}, ConfigError, "protocol")
    mode, folds = protocol.get("mode", "cv"), protocol.get("folds", 5)
    if mode not in ("cv", "single"):
        raise ConfigError(f"field protocol/mode: expected 'cv' or 'single', got {mode!r}")
    if folds < 2:
        raise ConfigError(f"field protocol/folds: must be >= 2, got {folds}")
    return RunConfig(record, train, **{key: paths[key] for key in _PATH_KEYS}, protocol_mode=mode, folds=folds)


def load_run_config(path) -> RunConfig:
    """Read and parse a config file."""
    return parse_run_config(read_json(path, ConfigError))


def config_hash(record: dict) -> str:
    canonical = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()
