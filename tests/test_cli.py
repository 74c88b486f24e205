"""End-to-end command-line flows and exit codes."""

import csv
import json
import math
import re

import numpy as np
import pytest

from rumorgraph.cli import main
from rumorgraph.dataio import parse_events
from rumorgraph.model import ModelConfig, init_params, save_snapshot
from rumorgraph.numcore import RngStreams
from rumorgraph.runconfig import ConfigError, load_run_config, parse_run_config
from tests.conftest import write_embeddings


@pytest.fixture()
def synth_dirs(tmp_path):
    spec = {
        "source_events": 16,
        "target_events": 12,
        "mean_replies": 3.0,
        "seed": 4,
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    data_dir = tmp_path / "data"
    assert main(["synth", "--spec", str(spec_path), "--out", str(data_dir)]) == 0
    return tmp_path, data_dir


def _run_config(tmp_path, data_dir, **training):
    record = {
        "seed": 3,
        "paths": {
            "source_events": str(data_dir / "source_events.jsonl"),
            "target_events": str(data_dir / "target_events.jsonl"),
            "source_embeddings": "hashed:8",
            "target_embeddings": "hashed:8",
            "output_dir": str(tmp_path / "run"),
        },
        "model": {"d_in": 8, "d_hidden": 6, "d_out": 4},
        "training": {
            "learning_rate": 0.01,
            "max_epochs": 1,
            "source_batch_size": 8,
            "target_batch_size": 8,
            "val_fraction": 0.0,
            **training,
        },
        "augment": {"kind": "feature_dropout", "feature_dropout_rate": 0.2},
        "protocol": {"mode": "cv", "folds": 3},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(record))
    return path


def test_synth_validate_train_earlydetect_export_flow(synth_dirs, capsys):
    tmp_path, data_dir = synth_dirs
    manifest = json.loads((data_dir / "manifest.json").read_text())
    assert manifest["files"] == ["source_events.jsonl", "target_events.jsonl"]

    assert main(["validate", "--events", str(data_dir / "source_events.jsonl")]) == 0
    out = capsys.readouterr().out
    assert "events: 16" in out
    ds = parse_events(data_dir / "source_events.jsonl")
    assert f"tree_nodes: {sum(e.node_count for e in ds.events)}" in out
    assert f"rumors: {sum(1 for e in ds.events if e.label == 'rumor')}" in out

    config_path = _run_config(tmp_path, data_dir)
    assert main(["train", "--config", str(config_path)]) == 0
    run_dir = tmp_path / "run"
    metrics = json.loads((run_dir / "metrics.json").read_text())
    assert len(metrics["folds"]) == 3
    assert 0.0 <= metrics["mean"]["macro_f1"] <= 1.0
    manifest = json.loads((run_dir / "manifest.json").read_text())
    assert "metrics.json" in manifest["files"]
    assert "fold0.snapshot" in manifest["files"]
    assert len(manifest["config_hash"]) == 64

    snapshot = run_dir / "fold0.snapshot"
    curve_dir = tmp_path / "curve"
    assert (
        main(
            [
                "earlydetect",
                "--snapshot",
                str(snapshot),
                "--events",
                str(data_dir / "target_events.jsonl"),
                "--checkpoints",
                "1,2,4,inf",
                "--mode",
                "count",
                "--embeddings",
                "hashed:8",
                "--out",
                str(curve_dir),
            ]
        )
        == 0
    )
    with open(curve_dir / "early_detection.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["checkpoint"] for r in rows] == ["1", "2", "4", "inf"]

    feat_dir = tmp_path / "features"
    assert (
        main(
            [
                "export-features",
                "--snapshot",
                str(snapshot),
                "--events",
                str(data_dir / "target_events.jsonl"),
                "--embeddings",
                "hashed:8",
                "--out",
                str(feat_dir),
            ]
        )
        == 0
    )
    with open(feat_dir / "features.csv") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 13  # header + one per event
    sidecar = json.loads((feat_dir / "explained_variance.json").read_text())
    fractions = sidecar["explained_variance_fractions"]
    assert fractions[0] >= fractions[1]


def test_validate_broken_file_exit_codes(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text(
        json.dumps(
            {
                "event_id": "e",
                "label": "rumor",
                "claim": {"post_id": "c", "text": "x", "timestamp": 0},
                "posts": [{"post_id": "r", "parent_id": "ghost", "text": "y", "timestamp": 5}],
            }
        )
        + "\n"
    )
    assert main(["validate", "--events", str(bad)]) == 1
    assert "ghost" in capsys.readouterr().err


def test_train_rejects_unknown_config_keys(tmp_path, synth_dirs):
    tmp_path, data_dir = synth_dirs
    config_path = _run_config(tmp_path, data_dir)
    base = json.loads(config_path.read_text())
    # checkpoints are an earlydetect flag, not a run-config section
    for key, value in (("surprise", True), ("checkpoints", {"mode": "post_count", "values": [1, "inf"]})):
        config_path.write_text(json.dumps({**base, key: value}))
        assert main(["train", "--config", str(config_path)]) == 2
        with pytest.raises(ConfigError, match=key):
            load_run_config(config_path)


def test_train_nested_unknown_key_rejected():
    with pytest.raises(ConfigError):
        parse_run_config(
            {
                "paths": {
                    "source_events": "a",
                    "target_events": "b",
                    "source_embeddings": "hashed:4",
                    "target_embeddings": "hashed:4",
                    "output_dir": "out",
                    "extra": "nope",
                },
                "model": {"d_in": 4},
            }
        )


def test_earlydetect_missing_snapshot_exit_1(tmp_path, synth_dirs):
    _tmp, data_dir = synth_dirs
    code = main(
        [
            "earlydetect",
            "--snapshot",
            str(tmp_path / "nope.snapshot"),
            "--events",
            str(data_dir / "target_events.jsonl"),
            "--checkpoints",
            "1,inf",
            "--mode",
            "count",
            "--out",
            str(tmp_path / "c"),
        ]
    )
    assert code == 1


def test_synth_invalid_spec_exit_2(tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"source_events": 1}))
    assert main(["synth", "--spec", str(spec_path), "--out", str(tmp_path / "d")]) == 2


def test_train_determinism_byte_identical(tmp_path, synth_dirs):
    tmp_path, data_dir = synth_dirs
    config_path = _run_config(tmp_path, data_dir, max_epochs=2)

    out_a, out_b = tmp_path / "runA", tmp_path / "runB"
    assert main(["train", "--config", str(config_path), "--out", str(out_a)]) == 0
    assert main(["train", "--config", str(config_path), "--out", str(out_b)]) == 0
    assert (out_a / "metrics.json").read_bytes() == (out_b / "metrics.json").read_bytes()
    for fold in range(3):
        name = f"fold{fold}.snapshot"
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_seed_override_changes_outcome(tmp_path, synth_dirs):
    tmp_path, data_dir = synth_dirs
    config_path = _run_config(tmp_path, data_dir)
    out_a, out_b = tmp_path / "seedA", tmp_path / "seedB"
    assert main(["train", "--config", str(config_path), "--out", str(out_a), "--seed", "77"]) == 0
    assert main(["train", "--config", str(config_path), "--out", str(out_b), "--seed", "78"]) == 0
    assert (out_a / "metrics.json").read_bytes() != (out_b / "metrics.json").read_bytes()


def test_single_fit_protocol(tmp_path, synth_dirs):
    tmp_path, data_dir = synth_dirs
    config_path = _run_config(tmp_path, data_dir)
    record = json.loads(config_path.read_text())
    record["protocol"] = {"mode": "single"}
    record["training"]["val_fraction"] = 0.2
    config_path.write_text(json.dumps(record))
    out_dir = tmp_path / "single"
    assert main(["train", "--config", str(config_path), "--out", str(out_dir)]) == 0
    assert (out_dir / "model.snapshot").exists()
    metrics = json.loads((out_dir / "metrics.json").read_text())
    assert "best_score" in metrics and "history" in metrics


def _train_argv(embeddings):
    def build(tmp_path, data_dir, snapshot):
        config_path = _run_config(tmp_path, data_dir)
        record = json.loads(config_path.read_text())
        record["paths"]["source_embeddings"] = embeddings
        config_path.write_text(json.dumps(record))
        return ["train", "--config", str(config_path)]

    return build


def _inference_argv(command, *extra, truncate=False):
    def build(tmp_path, data_dir, snapshot):
        if truncate:
            damaged = tmp_path / "truncated.snapshot"
            damaged.write_bytes(snapshot.read_bytes()[:-8])
            snapshot = damaged
        argv = [command, "--snapshot", str(snapshot), "--events", str(data_dir / "target_events.jsonl")]
        if command == "earlydetect":
            argv += ["--checkpoints", "1,inf", "--mode", "count"]
        return argv + ["--out", str(tmp_path / "out"), *extra]

    return build


def _missing_embedding_argv(command):
    """``command`` on an 8-wide embedding file whose one record matches no post."""

    def build(tmp_path, data_dir, snapshot):
        path = tmp_path / "stray.jsonl"
        write_embeddings({"stray": np.ones(8)}, 8, path)
        inner = _train_argv(str(path)) if command == "train" else _inference_argv(command, "--embeddings", str(path))
        return inner(tmp_path, data_dir, snapshot)

    return build


WIDTH_MISMATCH = r"16 wide but the model expects d_in=8"
NO_EMBEDDING = r"no embedding found for post"


@pytest.mark.parametrize(
    "build, code, message",
    [
        (_train_argv("hashed:abc"), 1, "width must be a positive integer"),
        (_train_argv("hashed:16"), 1, WIDTH_MISMATCH),
        (_inference_argv("earlydetect", "--embeddings", "hashed:16"), 1, WIDTH_MISMATCH),
        (_inference_argv("export-features", "--embeddings", "hashed:16"), 1, WIDTH_MISMATCH),
        (_inference_argv("earlydetect", truncate=True), 1, "payload truncated"),
        (_inference_argv("export-features", truncate=True), 1, "payload truncated"),
        (_missing_embedding_argv("train"), 1, NO_EMBEDDING),
        (_missing_embedding_argv("earlydetect"), 1, NO_EMBEDDING),
        (_missing_embedding_argv("export-features"), 1, NO_EMBEDDING),
    ],
    ids=[
        "train-malformed-hashed-spec",
        "train-embedding-width",
        "earlydetect-embedding-width",
        "export-embedding-width",
        "earlydetect-truncated-snapshot",
        "export-truncated-snapshot",
        "train-missing-embedding",
        "earlydetect-missing-embedding",
        "export-missing-embedding",
    ],
)
def test_cli_failure_exit_codes(tmp_path, synth_dirs, capsys, build, code, message):
    _tmp, data_dir = synth_dirs
    snapshot = tmp_path / "tiny.snapshot"
    save_snapshot(init_params(ModelConfig(d_in=8, d_hidden=6, d_out=4), RngStreams(1)), seed=1, path=snapshot)
    capsys.readouterr()
    assert main(build(tmp_path, data_dir, snapshot)) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("error: ") and re.search(message, err)
