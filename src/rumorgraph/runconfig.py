"""Run configuration files: strict JSON schema, loading, and hashing."""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import jsonschema

from .augment import AugmentStrategy
from .model import ModelConfig
from .trainer import TrainConfig


class ConfigError(ValueError):
    """The run configuration is malformed or violates the schema."""


_POSITIVE_INT = {"type": "integer", "minimum": 1}

SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["paths", "model"],
    "properties": {
        "seed": {"type": "integer", "minimum": 0},
        "precision": {"enum": ["f32", "f64"]},
        "paths": {
            "type": "object",
            "additionalProperties": False,
            "required": ["source_events", "target_events", "source_embeddings", "target_embeddings", "output_dir"],
            "properties": {
                "source_events": {"type": "string"},
                "target_events": {"type": "string"},
                "source_embeddings": {"type": "string"},
                "target_embeddings": {"type": "string"},
                "output_dir": {"type": "string"},
            },
        },
        "model": {
            "type": "object",
            "additionalProperties": False,
            "required": ["d_in"],
            "properties": {
                "d_in": _POSITIVE_INT,
                "d_hidden": _POSITIVE_INT,
                "d_out": _POSITIVE_INT,
                "classes": _POSITIVE_INT,
                "layers": _POSITIVE_INT,
                "dropout": {"type": "number", "minimum": 0, "exclusiveMaximum": 1},
                "layer_norm_eps": {"type": "number", "exclusiveMinimum": 0},
            },
        },
        "training": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "alpha": {"type": "number", "minimum": 0, "maximum": 1},
                "tau": {"type": "number", "exclusiveMinimum": 0},
                "learning_rate": {"type": "number", "minimum": 0},
                "source_batch_size": _POSITIVE_INT,
                "target_batch_size": _POSITIVE_INT,
                "max_epochs": {"type": "integer", "minimum": 0},
                "patience": _POSITIVE_INT,
                "val_fraction": {"type": "number", "minimum": 0, "maximum": 1},
                "weight_decay": {"type": "number", "minimum": 0},
                "tcl_enabled": {"type": "boolean"},
                "tcl_include_positive": {"type": "boolean"},
            },
        },
        "augment": {
            "type": "object",
            "additionalProperties": False,
            "required": ["kind"],
            "properties": {
                "kind": {"enum": ["adversarial", "feature_dropout", "graph_dropedge"]},
                "epsilon": {"type": "number", "exclusiveMinimum": 0},
                "feature_dropout_rate": {"type": "number", "minimum": 0, "maximum": 1},
                "dropedge_rate": {"type": "number", "minimum": 0, "maximum": 1},
            },
        },
        "protocol": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "mode": {"enum": ["cv", "single"]},
                "folds": {"type": "integer", "minimum": 2},
            },
        },
    },
}


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
    """Validate against the strict schema and assemble typed configuration."""
    try:
        jsonschema.validate(record, SCHEMA)
    except jsonschema.ValidationError as err:
        path = "/".join(str(p) for p in err.absolute_path) or "<root>"
        raise ConfigError(f"config field {path}: {err.message}") from err

    try:
        model = ModelConfig(**record["model"])
        augment = AugmentStrategy(**record["augment"]) if "augment" in record else None
        training = dict(record.get("training", {}))
        if augment is None and training.get("tcl_enabled", True):
            augment = AugmentStrategy(kind="graph_dropedge")
        train = TrainConfig(
            model=model,
            augment=augment,
            seed=record.get("seed", 0),
            precision=record.get("precision", "f64"),
            **training,
        )
    except ValueError as err:
        raise ConfigError(str(err)) from err

    paths = record["paths"]
    protocol = record.get("protocol", {})
    return RunConfig(
        raw=record,
        train=train,
        source_events=paths["source_events"],
        target_events=paths["target_events"],
        source_embeddings=paths["source_embeddings"],
        target_embeddings=paths["target_embeddings"],
        output_dir=paths["output_dir"],
        protocol_mode=protocol.get("mode", "cv"),
        folds=protocol.get("folds", 5),
    )


def load_run_config(path) -> RunConfig:
    with open(path, encoding="utf-8") as fh:
        try:
            record = json.load(fh)
        except json.JSONDecodeError as err:
            raise ConfigError(f"{path}: invalid JSON ({err.msg})") from err
    if not isinstance(record, dict):
        raise ConfigError(f"{path}: configuration must be a JSON object")
    return parse_run_config(record)


def config_hash(record: dict) -> str:
    canonical = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()
