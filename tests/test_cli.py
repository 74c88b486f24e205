"""End-to-end command-line flows and exit codes."""

import csv
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from dataclasses import MISSING, fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import rumorgraph
from rumorgraph import embed, model
from rumorgraph import numcore as nc
from rumorgraph.cli import main
from rumorgraph.dataio import parse_events
from rumorgraph.embed import HashedProvider
from rumorgraph.model import ModelConfig, init_params, load_snapshot, save_snapshot
from rumorgraph.numcore import RngStreams, tensor
from rumorgraph.augment import AugmentStrategy
from rumorgraph.runconfig import ConfigError, load_run_config, parse_run_config
from rumorgraph.synth import SynthSpec
from rumorgraph.trainer import TrainConfig
from tests.conftest import JSON_VALUES, valid_or_any, write_embeddings


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


def _written_files(run_dir):
    """Every file in ``run_dir`` but the manifest, as the manifest lists them."""
    return sorted(p.name for p in run_dir.iterdir() if p.name != "manifest.json")


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
    assert manifest["files"] == _written_files(run_dir)
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


def _valid_config() -> dict:
    return {
        "seed": 3,
        "precision": "f64",
        "paths": {
            "source_events": "a",
            "target_events": "b",
            "source_embeddings": "hashed:4",
            "target_embeddings": "hashed:4",
            "output_dir": "out",
        },
        "model": {"d_in": 4, "d_hidden": 6, "dropout": 0.1, "layer_norm_eps": 1e-5},
        "training": {"alpha": 0.5, "tau": 0.5, "learning_rate": 0.01, "weight_decay": 0.0},
        "augment": {"kind": "feature_dropout"},
        "protocol": {"mode": "cv", "folds": 3},
    }


DELETE = object()


@pytest.mark.parametrize(
    "path, value",
    [
        ("model/d_hidden", True),
        ("model/d_in", 10**20),
        ("model/d_hidden", 2**63),
        ("model/d_out", 10**20),
        ("model/d_out", "4"),
        ("model/classes", 2.0),
        ("training/alpha", "0.5"),
        ("training/tcl_enabled", 1),
        ("training/learning_rate", -0.1),
        ("training/weight_decay", -1e-4),
        ("seed", -1),
        ("precision", "f16"),
        ("model/layer_norm_eps", 0.0),
        ("paths", DELETE),
        ("paths/output_dir", DELETE),
        ("training/seed", 3),
        ("protocol/folds", 1),
        ("protocol/mode", "loo"),
        ("augment", [1]),
        ("augment/kind", "mixup"),
        ("model/d_hidden", 6.0),
        ("training/tau", math.nan),
        ("training/learning_rate", math.inf),
        ("augment/epsilon", -math.inf),
        ("training/alpha", 1.5),
        ("training/tau", 0.0),
        ("augment/dropedge_rate", 1.5),
        ("augment/feature_dropout_rate", -0.1),
    ],
    ids=lambda v: "delete" if v is DELETE else repr(v),
)
def test_run_config_rejections(path, value):
    record = _valid_config()
    *sections, key = path.split("/")
    target = record
    for section in sections:
        target = target[section]
    if value is DELETE:
        del target[key]
    else:
        target[key] = value
    with pytest.raises(ConfigError) as info:
        parse_run_config(record)
    for part in path.split("/"):
        assert part in str(info.value)


# per config class: values for its required fields, then one value beside the default for every field
SETTINGS = {
    ModelConfig: (
        {"d_in": 4},
        {"d_in": 8, "d_hidden": 16, "d_out": 32, "dropout": 0.0, "layer_norm_eps": 1e-6},
    ),
    TrainConfig: (
        {"model": ModelConfig(d_in=4)},
        {
            "model": ModelConfig(d_in=8),
            "alpha": 0.0,
            "tau": 0.1,
            "learning_rate": 1e-3,
            "source_batch_size": 8,
            "target_batch_size": 4,
            "max_epochs": 0,
            "patience": 1,
            "val_fraction": 0.0,
            "weight_decay": 0.01,
            "augment": AugmentStrategy("adversarial"),
            "tcl_enabled": False,
            "tcl_include_positive": True,
            "seed": 7,
            "precision": "f32",
        },
    ),
    AugmentStrategy: (
        {"kind": "graph_dropedge"},
        {"kind": "feature_dropout", "epsilon": 1.0, "feature_dropout_rate": 0.5, "dropedge_rate": 0.0},
    ),
    SynthSpec: (
        {},
        {
            "source_events": 20,
            "target_events": 10,
            "class_balance": 0.4,
            "vocab_size": 10,
            "shift_strength": 1.0,
            "mean_replies": 2.0,
            "branching": 0.0,
            "structural_signal": 1.0,
            "seed": 3,
        },
    ),
}


@pytest.mark.parametrize("cls", list(SETTINGS), ids=lambda cls: cls.__name__)
def test_every_setting_takes_two_values(cls):
    # a field that admits a single value is a constant of the code, not a setting
    required, alternatives = SETTINGS[cls]
    assert set(alternatives) == {f.name for f in fields(cls)}
    base = cls(**required)
    for field in fields(cls):
        default = required[field.name] if field.default is MISSING else field.default
        assert getattr(base, field.name) == default
        other = alternatives[field.name]
        assert other != default, field.name
        assert getattr(cls(**{**required, field.name: other}), field.name) == other


def _section(required: dict, optional: dict):
    """A JSON object drawn from ``required`` and ``optional`` field strategies, or any JSON value."""

    def fields(spec: dict) -> dict:
        return {key: valid_or_any(strategy) for key, strategy in spec.items()}

    return valid_or_any(st.fixed_dictionaries(fields(required), optional=fields(optional)))


RATE = st.floats(0, 1)
RUN_CONFIGS = _section(
    {
        "paths": _section({key: st.text(max_size=4) for key in _valid_config()["paths"]}, {}),
        "model": _section({"d_in": st.integers(1, 4)}, {"d_hidden": st.integers(1, 4), "dropout": st.floats(0, 0.9)}),
    },
    {
        "seed": st.integers(0, 9),
        "precision": st.sampled_from(["f32", "f64"]),
        "training": _section(
            {}, {"alpha": RATE, "tau": st.floats(0.1, 1), "max_epochs": st.integers(0, 3), "tcl_enabled": st.booleans()}
        ),
        "augment": _section(
            {"kind": st.sampled_from(["adversarial", "feature_dropout"])},
            {"epsilon": st.floats(0.1, 1), "dropedge_rate": RATE},
        ),
        "protocol": _section({}, {"mode": st.sampled_from(["cv", "single"]), "folds": st.integers(2, 5)}),
    },
)


@given(RUN_CONFIGS)
def test_parse_run_config_fuzz_raises_only_config_error(record):
    try:
        run = parse_run_config(record)
    except ConfigError:
        return
    assert run.raw is record and run.folds >= 2


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
            "--embeddings",
            "hashed:8",
            "--out",
            str(tmp_path / "c"),
        ]
    )
    assert code == 1


def test_earlydetect_embeds_each_post_once(tmp_path, synth_dirs, monkeypatch):
    tmp_path, data_dir = synth_dirs
    snapshot = tmp_path / "model.snapshot"
    save_snapshot(init_params(ModelConfig(d_in=8, d_hidden=6, d_out=4), RngStreams(3)), seed=3, path=snapshot)
    embedded = []
    vector_for = HashedProvider.vector_for
    monkeypatch.setattr(HashedProvider, "vector_for", lambda self, post: embedded.append(post) or vector_for(self, post))
    events = data_dir / "target_events.jsonl"
    argv = ["earlydetect", "--snapshot", str(snapshot), "--events", str(events), "--checkpoints", "1,2,4,inf",
            "--embeddings", "hashed:8"]
    assert main([*argv, "--mode", "count", "--out", str(tmp_path / "curve")]) == 0
    assert embedded == [post for e in parse_events(events).events for post in e.posts]


@pytest.mark.parametrize("command", ["earlydetect", "export-features"])
def test_scoring_manifest_hashes_the_events_and_the_embeddings(synth_dirs, command):
    # two runs that differ only in --events, or only in --embeddings, read different inputs
    tmp_path, data_dir = synth_dirs
    snapshot = tmp_path / "model.snapshot"
    save_snapshot(init_params(ModelConfig(d_in=8, d_hidden=6, d_out=4), RngStreams(3)), seed=3, path=snapshot)
    target = data_dir / "target_events.jsonl"
    posts = [post.post_id for e in parse_events(target).events for post in e.posts]
    vectors = tmp_path / "vectors.jsonl"
    write_embeddings({post_id: np.full(8, 0.1) for post_id in posts}, 8, vectors)
    flags = ["--checkpoints", "1,inf", "--mode", "count"] if command == "earlydetect" else []
    runs = [(target, "hashed:8"), (data_dir / "source_events.jsonl", "hashed:8"), (target, str(vectors))]
    hashes = []
    for i, (events, embeddings) in enumerate(runs):
        out = tmp_path / f"run{i}"
        argv = [command, "--snapshot", str(snapshot), "--events", str(events), "--embeddings", embeddings]
        assert main([*argv, *flags, "--out", str(out)]) == 0
        hashes.append(json.loads((out / "manifest.json").read_text())["config_hash"])
    assert len(set(hashes)) == 3


def test_cli_imports_numpy_only():
    # importing scipy.sparse alone costs about 0.2-0.3 s, which every command would pay
    src = Path(rumorgraph.__file__).resolve().parents[1]
    # importing jsonschema costs about 70 ms; run configs are checked by the config dataclasses
    probe = (
        "import sys, rumorgraph.cli;"
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'jsonschema')))"
    )
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


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


def _dense_embeddings(path, event_files, width: int) -> int:
    """Write unit random ``width``-wide vectors for every post of ``event_files`` to ``path``; their bytes."""
    posts = [post.post_id for name in event_files for e in parse_events(name).events for post in e.posts]
    gen = np.random.default_rng(0)
    write_embeddings({post_id: (v := gen.normal(size=width)) / np.linalg.norm(v) for post_id in posts}, width, path)
    return 8 * width * len(posts)


def _embeddings_config(config_path, source, target, **sections):
    """Name ``source`` and ``target`` as the roles' embeddings in the config at ``config_path``, and update its
    sections with ``sections``' values."""
    record = json.loads(config_path.read_text())
    record["paths"].update(source_embeddings=str(source), target_embeddings=str(target))
    for section, values in sections.items():
        record[section].update(values)
    config_path.write_text(json.dumps(record))


def test_train_loads_an_embedding_file_both_roles_name_once(tmp_path, synth_dirs, monkeypatch):
    tmp_path, data_dir = synth_dirs
    shared, copy = tmp_path / "shared.jsonl", tmp_path / "copy.jsonl"
    _dense_embeddings(shared, [data_dir / "source_events.jsonl", data_dir / "target_events.jsonl"], 8)
    copy.write_bytes(shared.read_bytes())
    loads = []
    load_precomputed = embed.load_precomputed
    monkeypatch.setattr(embed, "load_precomputed", lambda path, *dim: loads.append(path) or load_precomputed(path, *dim))
    config_path = _run_config(tmp_path, data_dir)
    artifacts = []
    for target in (shared, copy):
        _embeddings_config(config_path, shared, target)
        out = tmp_path / target.stem
        assert main(["train", "--config", str(config_path), "--out", str(out)]) == 0
        artifacts.append({name: (out / name).read_bytes() for name in _written_files(out)})
    assert loads == [str(shared), str(shared), str(copy)]
    assert artifacts[0] == artifacts[1]


def test_train_on_one_dense_file_holds_it_once(tmp_path):
    # two roles that name one file of 768-wide vectors: the traced peak of a one-epoch train, one decoded copy,
    # the packed rows prepared from it and a step's scratch, reads about 2.8x the vectors' bytes; a decoded copy
    # per role read 4.5-4.8x
    data_dir = tmp_path / "data"
    (tmp_path / "spec.json").write_text(json.dumps({"source_events": 30, "target_events": 15, "mean_replies": 10.0}))
    assert main(["synth", "--spec", str(tmp_path / "spec.json"), "--out", str(data_dir)]) == 0
    vectors = tmp_path / "vectors.jsonl"
    vector_bytes = _dense_embeddings(vectors, [data_dir / "source_events.jsonl", data_dir / "target_events.jsonl"], 768)
    config_path = _run_config(tmp_path, data_dir)
    _embeddings_config(config_path, vectors, vectors, model={"d_in": 768, "d_hidden": 16, "d_out": 8},
                       protocol={"mode": "single"})
    tracemalloc.start()
    try:
        assert main(["train", "--config", str(config_path)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.5 * vector_bytes, peak / vector_bytes


def test_seed_override_changes_outcome(tmp_path, synth_dirs):
    tmp_path, data_dir = synth_dirs
    config_path = _run_config(tmp_path, data_dir)
    record = json.loads(config_path.read_text())
    out_a, out_b = tmp_path / "seedA", tmp_path / "seedB"
    config_path.write_text(json.dumps({**record, "seed": 77}))
    assert main(["train", "--config", str(config_path), "--out", str(out_a)]) == 0
    config_path.write_text(json.dumps({**record, "seed": 78}))
    assert main(["train", "--config", str(config_path), "--out", str(out_b)]) == 0
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
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["files"] == _written_files(out_dir) == ["metrics.json", "model.snapshot", "train_log.jsonl"]


def test_failed_train_leaves_precision_and_out_dir_alone(tmp_path, synth_dirs):
    tmp_path, data_dir = synth_dirs
    config_path = _run_config(tmp_path, data_dir)
    record = {**json.loads(config_path.read_text()), "precision": "f32"}
    missing = {**record["paths"], "target_events": str(tmp_path / "missing.jsonl")}
    config_path.write_text(json.dumps({**record, "paths": missing}))
    out_dir = tmp_path / "f32"
    assert main(["train", "--config", str(config_path), "--out", str(out_dir)]) == 1
    assert nc.active_dtype() == np.float64
    assert not out_dir.exists()
    # and so does a run that succeeds
    config_path.write_text(json.dumps(record))
    assert main(["train", "--config", str(config_path), "--out", str(out_dir)]) == 0
    assert nc.active_dtype() == np.float64


def test_scoring_after_an_f32_train_writes_what_a_fresh_process_writes(tmp_path, synth_dirs):
    tmp_path, data_dir = synth_dirs
    config_path = _run_config(tmp_path, data_dir)
    record = {**json.loads(config_path.read_text()), "precision": "f32", "protocol": {"mode": "single"}}
    config_path.write_text(json.dumps(record))
    assert main(["train", "--config", str(config_path), "--out", str(tmp_path / "run")]) == 0
    inputs = ["--snapshot", str(tmp_path / "run" / "model.snapshot"), "--events", str(data_dir / "target_events.jsonl"),
              "--embeddings", "hashed:8"]
    commands = {
        "early_detection.csv": ["earlydetect", *inputs, "--checkpoints", "1,2,4,inf", "--mode", "count"],
        "features.csv": ["export-features", *inputs],
    }
    env = {**os.environ, "PYTHONPATH": str(Path(rumorgraph.__file__).resolve().parents[1])}
    for name, argv in commands.items():
        assert main([*argv, "--out", str(tmp_path / "same")]) == 0
        fresh = [sys.executable, "-m", "rumorgraph.cli", *argv, "--out", str(tmp_path / "fresh")]
        done = subprocess.run(fresh, env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert (tmp_path / "same" / name).read_bytes() == (tmp_path / "fresh" / name).read_bytes(), name


def _strict_json(text: str):
    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(text, parse_constant=reject)


def test_zero_epoch_single_fit_writes_strict_json(tmp_path, synth_dirs):
    # no epoch runs, so there is no best score: null, not -Infinity
    tmp_path, data_dir = synth_dirs
    config_path = _run_config(tmp_path, data_dir, max_epochs=0)
    record = json.loads(config_path.read_text())
    record["protocol"] = {"mode": "single"}
    config_path.write_text(json.dumps(record))
    out_dir = tmp_path / "zero"
    assert main(["train", "--config", str(config_path), "--out", str(out_dir)]) == 0
    assert _strict_json((out_dir / "metrics.json").read_text()) == {"best_score": None, "history": []}


def test_help_lists_the_exit_codes(capsys):
    with pytest.raises(SystemExit):
        main(["--help"])
    out = " ".join(capsys.readouterr().out.split())
    assert "exit codes: 0 ok, 1 input or IO error, 2 config or spec error, 3 training failed, 4 degenerate projection" in out


def test_layer_norm_blocks_change_no_artifact(tmp_path, synth_dirs, monkeypatch):
    # layer_norm blocks of one row against the default, where every batch here fits one block
    tmp_path, data_dir = synth_dirs
    config_path = _run_config(tmp_path, data_dir, max_epochs=2, val_fraction=0.2)
    record = json.loads(config_path.read_text())
    record["protocol"] = {"mode": "single"}
    config_path.write_text(json.dumps(record))
    events = ["--events", str(data_dir / "target_events.jsonl"), "--embeddings", "hashed:8"]
    artifacts = []
    for block_bytes in (tensor._BLOCK_BYTES, 1):
        monkeypatch.setattr(tensor, "_BLOCK_BYTES", block_bytes)
        out = tmp_path / f"blocks{block_bytes}"
        snapshot = ["--snapshot", str(out / "run" / "model.snapshot")]
        assert main(["train", "--config", str(config_path), "--out", str(out / "run")]) == 0
        detect = ["earlydetect", *snapshot, *events, "--checkpoints", "1,2,4,inf", "--mode", "count"]
        assert main([*detect, "--out", str(out / "curve")]) == 0
        assert main(["export-features", *snapshot, *events, "--out", str(out / "features")]) == 0
        paths = ("run/model.snapshot", "curve/early_detection.csv", "features/features.csv")
        artifacts.append([(out / path).read_bytes() for path in paths])
    assert artifacts[0] == artifacts[1]


def test_evaluation_chunks_change_no_artifact(tmp_path, synth_dirs, monkeypatch):
    # every scorer's 12 events in one chunk (the default budget, at these widths) against one event a chunk
    tmp_path, data_dir = synth_dirs
    config_path = _run_config(tmp_path, data_dir, max_epochs=2)
    record = json.loads(config_path.read_text())
    record["protocol"] = {"mode": "single"}
    config_path.write_text(json.dumps(record))
    assert main(["train", "--config", str(config_path), "--out", str(tmp_path / "run")]) == 0
    common = ["--snapshot", str(tmp_path / "run" / "model.snapshot"), "--events", str(data_dir / "target_events.jsonl"),
              "--embeddings", "hashed:8"]
    chunks, encode = [], model.encode_batch

    def spy(batch, *args, **kwargs):
        chunks.append(len(batch.sizes))
        return encode(batch, *args, **kwargs)

    monkeypatch.setattr(model, "encode_batch", spy)
    artifacts = []
    for chunk_bytes in (model._CHUNK_BYTES, 1):
        monkeypatch.setattr(model, "_CHUNK_BYTES", chunk_bytes)
        out = tmp_path / f"chunks{chunk_bytes}"
        for checkpoints, mode in (("1,2,4,inf", "count"), ("60,300,inf", "time")):
            argv = ["earlydetect", *common, "--checkpoints", checkpoints, "--mode", mode, "--out", str(out / mode)]
            assert main(argv) == 0
        assert main(["export-features", *common, "--out", str(out / "features")]) == 0
        paths = ("count/early_detection.csv", "time/early_detection.csv", "features/features.csv")
        artifacts.append([(out / path).read_bytes() for path in paths])
    assert chunks == [12] * 8 + [1] * 96
    assert artifacts[0] == artifacts[1]


def _train_argv(embeddings):
    def build(tmp_path, data_dir, snapshot):
        config_path = _run_config(tmp_path, data_dir)
        record = json.loads(config_path.read_text())
        record["paths"]["source_embeddings"] = embeddings
        config_path.write_text(json.dumps(record))
        return ["train", "--config", str(config_path)]

    return build


def _inference_argv(command, *extra, truncate=False):
    """``command`` scoring the target events with ``hashed:8`` embeddings; a flag in ``extra`` overrides its default."""

    def build(tmp_path, data_dir, snapshot):
        if truncate:
            damaged = tmp_path / "truncated.snapshot"
            damaged.write_bytes(snapshot.read_bytes()[:-8])
            snapshot = damaged
        argv = [command, "--snapshot", str(snapshot), "--events", str(data_dir / "target_events.jsonl")]
        argv += ["--embeddings", "hashed:8"]
        if command == "earlydetect":
            argv += ["--checkpoints", "1,inf", "--mode", "count"]
        return argv + ["--out", str(tmp_path / "out"), *extra]

    return build


def _config_argv(content=None, **top_level):
    """``train`` on the test config with its ``top_level`` keys set, or on a config file holding ``content``."""

    def build(tmp_path, data_dir, snapshot):
        argv = _train_argv("hashed:8")(tmp_path, data_dir, snapshot)
        config = Path(argv[-1])
        record = json.loads(config.read_text())
        config.write_bytes(json.dumps({**record, **top_level}).encode() if content is None else content)
        return argv

    return build


def _section_argv(section: str, embeddings: str = "hashed:8", **values):
    """``train`` on ``embeddings`` with a section of the test config ("model", "training", "protocol") updated
    with ``values``."""

    def build(tmp_path, data_dir, snapshot):
        argv = _train_argv(embeddings)(tmp_path, data_dir, snapshot)
        config = Path(argv[-1])
        record = json.loads(config.read_text())
        record[section].update(values)
        config.write_text(json.dumps(record))
        return argv

    return build


def _blocked_out_argv(inner):
    """``inner``'s command with ``--out`` below a regular file, so the directory cannot be made."""

    def build(tmp_path, data_dir, snapshot):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        return inner(tmp_path, data_dir, snapshot) + ["--out", str(blocker / "out")]

    return build


def _occupied_out_argv(mode: str, name: str):
    """``train`` in protocol ``mode`` with a directory ``name`` in ``--out``, so that artifact cannot be written."""

    def build(tmp_path, data_dir, snapshot):
        argv = _train_argv("hashed:8")(tmp_path, data_dir, snapshot)
        config = Path(argv[-1])
        record = json.loads(config.read_text())
        record["protocol"]["mode"] = mode
        config.write_text(json.dumps(record))
        (tmp_path / "out" / name).mkdir(parents=True)
        return argv + ["--out", str(tmp_path / "out")]

    return build


def _single_event_argv(tmp_path, data_dir, snapshot):
    """``export-features`` on a file holding the first event only."""
    path = tmp_path / "one.jsonl"
    path.write_text((data_dir / "target_events.jsonl").read_text().splitlines()[0] + "\n")
    argv = _inference_argv("export-features")(tmp_path, data_dir, snapshot)
    argv[argv.index("--events") + 1] = str(path)
    return argv


def _synth_argv(spec: dict | bytes):
    """``synth`` on a spec file holding ``spec``."""

    def build(tmp_path, data_dir, snapshot):
        path = tmp_path / "spec_under_test.json"
        path.write_bytes(spec if isinstance(spec, bytes) else json.dumps(spec).encode())
        return ["synth", "--spec", str(path), "--out", str(tmp_path / "synth")]

    return build


def _broken_snapshot_argv(command, content: bytes):
    """``command`` loading a snapshot file that holds ``content``."""

    def build(tmp_path, data_dir, snapshot):
        damaged = tmp_path / "damaged.snapshot"
        damaged.write_bytes(content)
        return _inference_argv(command)(tmp_path, data_dir, damaged)

    return build


def _nan_eps_argv(command):
    """``command`` loading the test snapshot with its ``layer_norm_eps`` set to NaN."""

    def build(tmp_path, data_dir, snapshot):
        content = snapshot.read_bytes().replace(b'"layer_norm_eps": 1e-05', b'"layer_norm_eps": NaN')
        return _broken_snapshot_argv(command, content)(tmp_path, data_dir, snapshot)

    return build


def _edited_header_argv(command, old: bytes, new: bytes):
    """``command`` loading the test snapshot with ``old`` replaced by ``new`` in its header."""

    def build(tmp_path, data_dir, snapshot):
        content = snapshot.read_bytes().replace(old, new, 1)
        return _broken_snapshot_argv(command, content)(tmp_path, data_dir, snapshot)

    return build


def _overflow_argv(command):
    """``command`` loading the test snapshot with ``w0`` scaled to about 1e308: finite weights that overflow."""

    def build(tmp_path, data_dir, snapshot):
        params, seed = load_snapshot(snapshot)
        params.w0.data *= 1e308 / np.abs(params.w0.data).max()
        save_snapshot(params, seed, tmp_path / "overflow.snapshot")
        return _inference_argv(command)(tmp_path, data_dir, tmp_path / "overflow.snapshot")

    return build


def _broken_events_argv(command, content: bytes):
    """``command`` reading an event file that holds ``content``."""

    def build(tmp_path, data_dir, snapshot):
        path = tmp_path / "broken.jsonl"
        path.write_bytes(content)
        if command == "validate":
            return ["validate", "--events", str(path)]
        if command == "train":
            argv = _train_argv("hashed:8")(tmp_path, data_dir, snapshot)
            config = Path(argv[-1])
            record = json.loads(config.read_text())
            record["paths"]["target_events"] = str(path)
            config.write_text(json.dumps(record))
            return argv
        argv = _inference_argv(command)(tmp_path, data_dir, snapshot)
        argv[argv.index("--events") + 1] = str(path)
        return argv

    return build


def _embedding_file_argv(command, content: str):
    """``command`` reading its embeddings from a file that holds ``content``."""

    def build(tmp_path, data_dir, snapshot):
        path = tmp_path / "emb.jsonl"
        path.write_text(content)
        inner = _train_argv(str(path)) if command == "train" else _inference_argv(command, "--embeddings", str(path))
        return inner(tmp_path, data_dir, snapshot)

    return build


def _missing_embedding_argv(command):
    """``command`` on an 8-wide embedding file whose one record matches no post."""
    header, record = {"dim": 8, "count": 1}, {"post_id": "stray", "vector": [1.0] * 8}
    return _embedding_file_argv(command, f"{json.dumps(header)}\n{json.dumps(record)}\n")


def _wide_input_argv(width: int, spec: str | None = None):
    """``train`` with ``d_in`` ``width`` and both roles' embeddings ``spec``, by default ``hashed:<width>``."""
    spec = spec or f"hashed:{width}"

    def build(tmp_path, data_dir, snapshot):
        argv = _section_argv("model", spec, d_in=width)(tmp_path, data_dir, snapshot)
        config = Path(argv[-1])
        record = json.loads(config.read_text())
        record["paths"]["target_embeddings"] = spec
        config.write_text(json.dumps(record))
        return argv

    return build


NOT_D_IN = r"does not name the model's d_in: expected 'hashed:8'"
PAST_INT64 = r"must lie in \[1, 9223372036854775807\], got 100000000000000000000"
PAST_INT64_BYTES = r"would hold more than 9223372036854775807 bytes at float64"
NO_EMBEDDING = r"no embedding found for post"
NOT_AN_OBJECT = r"line 1: an event must be a JSON object"
NON_FINITE = r"non-finite class probabilities or representations"
NO_FILE = r"\[Errno 2\] No such file or directory"
NO_HEADER = r"emb.jsonl line 1: header must carry 'dim' and 'count'"
OTHER_WIDTH = r"emb.jsonl line 1: header dim must be the integer 8, the model's d_in"
# a row of 2**50 float64 entries (8 PiB) exceeds the 47- or 48-bit address space a 64-bit process maps by
# default, so the request fails at once without touching memory
CANNOT_ALLOCATE = r"Unable to allocate"
# the JSON reader recurses once per bracket and runs out of stack long before
DEEP = b"[" * 100_000 + b"\n"


@pytest.mark.parametrize(
    "build, code, message",
    [
        (_train_argv("hashed:abc"), 1, NOT_D_IN),
        # a superscript two is a digit to str.isdigit but not to int
        (_train_argv("hashed:\u00b2"), 1, NOT_D_IN),
        (_train_argv("hashed:" + "1" * 5000), 1, NOT_D_IN),
        (_train_argv(f"hashed:{10**20}"), 1, NOT_D_IN),
        (_train_argv(f"hashed:{2**63}"), 1, NOT_D_IN),
        # int() reads both as 16, but a hashed spec must spell d_in as str() does
        (_wide_input_argv(16, "hashed:016"), 1, "expected 'hashed:16'"),
        (_wide_input_argv(16, "hashed:\uff11\uff16"), 1, "expected 'hashed:16'"),
        (_section_argv("model", d_in=10**20), 2, "model config: d_in " + PAST_INT64),
        (_section_argv("model", d_hidden=10**20), 2, "model config: d_hidden " + PAST_INT64),
        (_section_argv("model", d_out=10**20), 2, "model config: d_out " + PAST_INT64),
        # widths numpy takes one by one, but not as a parameter's bytes
        (_section_argv("model", f"hashed:{2**62}", d_in=2**62), 2,
         r"model config: w0 of shape \(4611686018427387904, 6\) " + PAST_INT64_BYTES),
        (_section_argv("model", d_hidden=1, d_out=2**59), 2,
         r"model config: w1 of shape \(9, 576460752303423488\) " + PAST_INT64_BYTES),
        (_section_argv("model", d_hidden=2**50), 3, CANNOT_ALLOCATE),
        # the embedding rows are allocated before the parameters
        (_wide_input_argv(2**50), 3, CANNOT_ALLOCATE),
        (_edited_header_argv("earlydetect", b'"d_hidden": 6', b'"d_hidden": 100000000000000000000'), 1,
         r"unreadable header \(ValueError: d_hidden " + PAST_INT64),
        (_edited_header_argv("export-features", b'"d_out": 4', b'"d_out": 100000000000000000000'), 1,
         r"unreadable header \(ValueError: d_out " + PAST_INT64),
        (_edited_header_argv("earlydetect", b'"d_in": 8', b'"d_in": 4611686018427387904'), 1,
         r"unreadable header \(ValueError: w0 of shape \(4611686018427387904, 6\) " + PAST_INT64_BYTES),
        (_inference_argv("earlydetect", "--embeddings", "hashed:\u00b2"), 1, NOT_D_IN),
        (_train_argv("hashed:16"), 1, NOT_D_IN),
        (_inference_argv("earlydetect", "--embeddings", "hashed:16"), 1, NOT_D_IN),
        (_inference_argv("export-features", "--embeddings", "hashed:16"), 1, NOT_D_IN),
        # the header's width is refused before the malformed record is decoded
        (_embedding_file_argv("train", json.dumps({"dim": 16, "count": 1}) + '\n{"post_id": "x", "vector": [1.0,\n'),
         1, OTHER_WIDTH),
        (_embedding_file_argv("export-features", json.dumps({"dim": 16, "count": 1}) + '\n{"post_id": "x"\n'),
         1, OTHER_WIDTH),
        (_inference_argv("earlydetect", truncate=True), 1, "payload truncated"),
        (_inference_argv("export-features", truncate=True), 1, "payload truncated"),
        (_missing_embedding_argv("train"), 1, NO_EMBEDDING),
        (_missing_embedding_argv("earlydetect"), 1, NO_EMBEDDING),
        (_missing_embedding_argv("export-features"), 1, NO_EMBEDDING),
        (_embedding_file_argv("train", "\n" + json.dumps({"dim": 8, "count": 0}) + "\n"), 1, NO_HEADER),
        (_embedding_file_argv("earlydetect", "  \n" + json.dumps({"dim": 8, "count": 0}) + "\n"), 1, NO_HEADER),
        (_broken_events_argv("validate", b"5\n"), 1, NOT_AN_OBJECT),
        (_broken_events_argv("train", b"null\n"), 1, NOT_AN_OBJECT),
        (_broken_events_argv("earlydetect", b"5\n"), 1, NOT_AN_OBJECT),
        (_broken_events_argv("export-features", b"null\n"), 1, NOT_AN_OBJECT),
        (_broken_events_argv("validate", b'{"event_id": "\xff"}\n'), 1, "not UTF-8 text"),
        (_broken_events_argv("train", b'{"event_id": "\xff"}\n'), 1, "not UTF-8 text"),
        (_broken_events_argv("validate", DEEP), 1, "line 1: invalid JSON"),
        (_broken_events_argv("train", DEEP), 1, "line 1: invalid JSON"),
        (_broken_snapshot_argv("earlydetect", DEEP), 1, "unreadable header"),
        (_nan_eps_argv("earlydetect"), 1, "layer_norm_eps must be positive and finite, got nan"),
        (_nan_eps_argv("export-features"), 1, "layer_norm_eps must be positive and finite, got nan"),
        (_overflow_argv("earlydetect"), 1, NON_FINITE),
        (_overflow_argv("export-features"), 1, NON_FINITE),
        # one step a fold: its update overflows the weights the test fold is scored with
        (_section_argv("training", learning_rate=1e300, source_batch_size=16), 3, NON_FINITE),
        # several steps a fold: the second step's forward overflows
        (_section_argv("training", learning_rate=1e300), 3, "non-finite loss term"),
        (_config_argv(content=DEEP), 2, "invalid JSON"),
        (_config_argv(content=b'{"seed": "\xff"}'), 2, "invalid JSON"),
        (_synth_argv(DEEP), 2, "invalid JSON"),
        (_synth_argv({"seed": -1}), 2, "seed must be >= 0"),
        (_synth_argv({"source_events": 20.5}), 2, "field source_events: expected an integer"),
        (_synth_argv({"vocab_size": 2.5}), 2, "field vocab_size: expected an integer"),
        (_synth_argv({"mean_replies": True}), 2, "field mean_replies: expected a number"),
        # beyond what numpy's generator can draw
        (_synth_argv({"vocab_size": 10**20}), 2, "vocab_size must lie in"),
        (_synth_argv({"mean_replies": 1e19}), 2, "mean_replies must lie in"),
        (_section_argv("protocol", folds=7), 1, "cannot stratify"),
        # one hidden and one output unit: a pooled representation comes out all zeros
        (_section_argv("model", d_hidden=1, d_out=1), 3, "similarity of a zero vector"),
        (_section_argv("model", classes=1), 2, "field model/classes: unknown key"),
        (_section_argv("model", classes=3), 2, "field model/classes: unknown key"),
        (_blocked_out_argv(_train_argv("hashed:8")), 1, "Not a directory"),
        (_blocked_out_argv(_inference_argv("earlydetect")), 1, "Not a directory"),
        (_blocked_out_argv(_inference_argv("export-features")), 1, "Not a directory"),
        (_blocked_out_argv(_synth_argv({})), 1, "Not a directory"),
        (_occupied_out_argv("single", "train_log.jsonl"), 1, "Is a directory"),
        (_occupied_out_argv("single", "model.snapshot"), 1, "Is a directory"),
        (_occupied_out_argv("single", "metrics.json"), 1, "Is a directory"),
        (_occupied_out_argv("cv", "fold0_train_log.jsonl"), 1, "Is a directory"),
        (_occupied_out_argv("cv", "fold1.snapshot"), 1, "Is a directory"),
        (_occupied_out_argv("cv", "manifest.json"), 1, "Is a directory"),
        (_single_event_argv, 4, "at least two representation rows"),
        (_inference_argv("earlydetect", "--checkpoints", "2,nan", "--mode", "time"), 1, "checkpoint value nan"),
        (_inference_argv("earlydetect", "--checkpoints", "2,nan"), 1, "checkpoint value nan"),
        (_inference_argv("earlydetect", "--checkpoints", "1,abc"), 1, "could not convert string to float"),
        (lambda tmp_path, *_: ["train", "--config", str(tmp_path / "missing.json")], 2, NO_FILE),
        (lambda tmp_path, *_: ["train", "--config", str(tmp_path)], 2, r"\[Errno 21\] Is a directory"),
        (lambda tmp_path, *_: ["synth", "--spec", str(tmp_path / "missing.json"), "--out", str(tmp_path)], 2, NO_FILE),
        (lambda tmp_path, *_: ["validate", "--events", str(tmp_path / "missing.jsonl")], 1, NO_FILE),
    ],
    ids=[
        "train-malformed-hashed-spec",
        "train-superscript-hashed-width",
        "train-hashed-width-past-the-digit-limit",
        "train-hashed-width-beyond-int64",
        "train-hashed-width-just-beyond-int64",
        "train-zero-padded-hashed-width",
        "train-full-width-hashed-width",
        "train-d-in-beyond-int64",
        "train-d-hidden-beyond-int64",
        "train-d-out-beyond-int64",
        "train-w0-bytes-beyond-int64",
        "train-w1-bytes-beyond-int64",
        "train-d-hidden-cannot-allocate",
        "train-embedding-rows-cannot-allocate",
        "earlydetect-snapshot-d-hidden-beyond-int64",
        "export-snapshot-d-out-beyond-int64",
        "earlydetect-snapshot-w0-bytes-beyond-int64",
        "earlydetect-superscript-hashed-width",
        "train-embedding-width",
        "earlydetect-embedding-width",
        "export-embedding-width",
        "train-embedding-header-width-before-a-malformed-record",
        "export-embedding-header-width-before-a-malformed-record",
        "earlydetect-truncated-snapshot",
        "export-truncated-snapshot",
        "train-missing-embedding",
        "earlydetect-missing-embedding",
        "export-missing-embedding",
        "train-blank-embedding-header-line",
        "earlydetect-whitespace-embedding-header-line",
        "validate-non-object-event",
        "train-non-object-event",
        "earlydetect-non-object-event",
        "export-non-object-event",
        "validate-non-utf8-events",
        "train-non-utf8-events",
        "validate-deeply-nested-events",
        "train-deeply-nested-events",
        "earlydetect-deeply-nested-snapshot-header",
        "earlydetect-nan-layer-norm-eps",
        "export-nan-layer-norm-eps",
        "earlydetect-overflowing-weights",
        "export-overflowing-weights",
        "train-overflowing-weights",
        "train-overflowing-steps",
        "train-deeply-nested-config",
        "train-non-utf8-config",
        "synth-deeply-nested-spec",
        "synth-negative-seed",
        "synth-float-event-count",
        "synth-float-vocab-size",
        "synth-boolean-mean-replies",
        "synth-vocab-size-beyond-int64",
        "synth-mean-replies-beyond-poisson",
        "train-folds-exceed-smallest-class",
        "train-zero-representation",
        "train-one-class",
        "train-three-classes",
        "train-out-not-creatable",
        "earlydetect-out-not-creatable",
        "export-out-not-creatable",
        "synth-out-not-creatable",
        "train-single-log-is-a-directory",
        "train-single-snapshot-is-a-directory",
        "train-single-metrics-is-a-directory",
        "train-cv-log-is-a-directory",
        "train-cv-snapshot-is-a-directory",
        "train-cv-manifest-is-a-directory",
        "export-single-event",
        "earlydetect-nan-time-checkpoint",
        "earlydetect-nan-count-checkpoint",
        "earlydetect-non-numeric-checkpoint",
        "train-missing-config",
        "train-config-is-a-directory",
        "synth-missing-spec",
        "validate-missing-events",
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


@pytest.mark.parametrize("command", ["earlydetect", "export-features"])
def test_scorers_require_embeddings(tmp_path, synth_dirs, capsys, command):
    # nothing picks a provider for a model: without --embeddings, argparse exits 2 naming the flag
    _tmp, data_dir = synth_dirs
    argv = _inference_argv(command)(tmp_path, data_dir, tmp_path / "tiny.snapshot")
    flag = argv.index("--embeddings")
    del argv[flag : flag + 2]
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    assert "the following arguments are required: --embeddings" in capsys.readouterr().err


def test_an_error_outside_the_command_table_propagates(tmp_path, monkeypatch, capsys):
    def unexpected(path):
        raise KeyError("not in validate's table")

    monkeypatch.setattr("rumorgraph.cli.parse_events", unexpected)
    with pytest.raises(KeyError, match="not in validate's table"):
        main(["validate", "--events", str(tmp_path / "events.jsonl")])
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize(
    "build",
    [
        lambda tmp_path, data_dir, snapshot: ["validate", "--events", str(data_dir / "target_events.jsonl")],
        _synth_argv({}),
        _config_argv(),
        _config_argv(precision="f32"),
        _inference_argv("earlydetect"),
        _inference_argv("export-features"),
    ],
    ids=["validate", "synth", "train-f64", "train-f32", "earlydetect", "export-features"],
)
def test_no_command_changes_the_precision(tmp_path, synth_dirs, build):
    _tmp, data_dir = synth_dirs
    snapshot = tmp_path / "tiny.snapshot"
    save_snapshot(init_params(ModelConfig(d_in=8, d_hidden=6, d_out=4), RngStreams(1)), seed=1, path=snapshot)
    with nc.precision("f32"):
        assert main(build(tmp_path, data_dir, snapshot)) == 0
        assert nc.active_dtype() == np.float32
