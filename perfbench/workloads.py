"""The benchmark's workloads: inputs made from a seed, and one pass of commands.

Every workload runs the ``rumorgraph`` command line in process, one command
at a time (a closed loop with a single client). The program sees only the
event files that ``synth`` writes and the run configuration written here.
All workloads use f64, hashed embeddings, synthetic corpora, DropEdge views
for the target-instance term, and batches of 32 source and 32 target events.

Training workloads pass a cross-validated ``train``. Its epoch cap equals its
patience, so every pass makes the same number of steps. Each fold holds 36
target events, which leaves one batch of 32 training events after the
validation carve; more folds mean more distinct target batches per pass.
The detection workload trains its snapshot during set-up, passes
``earlydetect`` over one 300-event file, and runs ``export-features`` on that
file once after the passes.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import json
import math
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path


class CommandFailed(RuntimeError):
    """A command exited with a non-zero code or raised."""


class CheckFailed(Exception):
    """A command's output is wrong."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass
class Session:
    """Runs CLI commands in this process and counts them."""

    cli_main: object
    attempted: int = 0
    failed: int = 0

    def run(self, *argv: str) -> float:
        self.attempted += 1
        start = time.perf_counter()
        try:
            # the command's own messages go to stderr; stdout carries the report
            with contextlib.redirect_stdout(sys.stderr):
                code = self.cli_main(list(argv))
        except Exception as err:
            traceback.print_exc()
            self.failed += 1
            raise CommandFailed(f"{argv[0]} raised {type(err).__name__}: {err}") from err
        wall = time.perf_counter() - start
        if code != 0:
            self.failed += 1
            raise CommandFailed(f"{argv[0]} exited with code {code}")
        return wall


def write_json(path: Path, record: dict) -> None:
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def artifact_hashes(directory: Path, skip: tuple[str, ...] = ()) -> dict[str, str]:
    """SHA-256 of every file under ``directory``, keyed by relative path."""
    return {
        str(p.relative_to(directory)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(directory.rglob("*"))
        if p.is_file() and p.name not in skip
    }


def last_epoch_loss(path: Path) -> float:
    """Mean joint loss ``l`` over the last epoch of a training log; every
    logged loss term must be finite."""
    with open(path, encoding="utf-8") as fh:
        steps = [r for r in map(json.loads, fh) if "step" in r]
    require(bool(steps), f"{path.name} holds no steps")
    for record in steps:
        for key, value in record.items():
            require(not key.startswith("l") or math.isfinite(value), f"{path.name}: {key} = {value}")
    last = max(r["epoch"] for r in steps)
    losses = [r["l"] for r in steps if r["epoch"] == last]
    return sum(losses) / len(losses)


def event_stats(path: Path) -> dict:
    """Events, nodes and reply edges of one event file."""
    events = nodes = 0
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            record = json.loads(line)
            events += 1
            nodes += 1 + len(record["posts"])
    return {"events": events, "nodes": nodes, "edges": nodes - events}


def _train_config(seed: int, source: Path, target: Path, out: Path, model: dict, training: dict, protocol: dict) -> dict:
    spec = f"hashed:{model['d_in']}"
    return {
        "seed": seed,
        "precision": "f64",
        "paths": {
            "source_events": str(source),
            "target_events": str(target),
            "source_embeddings": spec,
            "target_embeddings": spec,
            "output_dir": str(out),
        },
        "model": model,
        "training": dict(training, source_batch_size=32, target_batch_size=32),
        "augment": {"kind": "graph_dropedge"},
        "protocol": protocol,
    }


def _synth(session: Session, directory: Path, corpus: dict, seed: int) -> Path:
    spec = directory.with_suffix(".json")
    write_json(spec, dict(corpus, seed=seed))
    session.run("synth", "--spec", str(spec), "--out", str(directory))
    return directory


@dataclass
class Inputs:
    files: dict[str, Path]  # role -> path handed to the program
    events: Path  # events the oracle samples
    loss_last: float | None = None  # from training done in set-up


@dataclass(frozen=True)
class TrainWorkload:
    name: str
    why: str
    model: dict
    corpus: dict  # SynthSpec fields other than the seed
    epochs: int
    folds: int = 2

    def setup(self, session: Session, work: Path, seed: int) -> Inputs:
        data = _synth(session, work / "data", self.corpus, seed)
        config = work / "train.json"
        training = {"max_epochs": self.epochs, "patience": self.epochs}
        protocol = {"mode": "cv", "folds": self.folds}
        source, target = data / "source_events.jsonl", data / "target_events.jsonl"
        write_json(config, _train_config(seed, source, target, work / "run", self.model, training, protocol))
        return Inputs(files={"config": config, "source": source, "target": target}, events=target)

    def oracle_snapshot(self, inputs: Inputs, out: Path) -> Path:
        return out / "fold0.snapshot"

    def run_pass(self, session: Session, inputs: Inputs, out: Path) -> dict:
        wall = session.run("train", "--config", str(inputs.files["config"]), "--out", str(out))
        metrics = json.loads((out / "metrics.json").read_text(encoding="utf-8"))
        require(len(metrics["folds"]) == self.folds, f"expected {self.folds} folds in metrics.json")
        macro_f1 = metrics["mean"]["macro_f1"]
        require(0.0 <= macro_f1 <= 1.0, f"macro_f1 {macro_f1} outside [0, 1]")
        for fold in range(self.folds):
            require((out / f"fold{fold}.snapshot").is_file(), f"fold{fold}.snapshot missing")
            loss = last_epoch_loss(out / f"fold{fold}_train_log.jsonl")
        return {"cv_s": wall, "cv_macro_f1": macro_f1, "loss_last": loss}

    def after_passes(self, session: Session, inputs: Inputs, out: Path) -> dict:
        return {}


@dataclass(frozen=True)
class DetectWorkload:
    name: str
    why: str
    model: dict
    train_corpus: dict
    eval_corpus: dict
    epochs: int
    checkpoints: tuple[str, ...] = ("2", "4", "8", "16", "inf")

    def setup(self, session: Session, work: Path, seed: int) -> Inputs:
        train = _synth(session, work / "train_data", self.train_corpus, seed)
        # the scored corpus comes from its own seed, so no scored event was trained on
        scored = _synth(session, work / "eval_data", self.eval_corpus, seed + 1)
        config = work / "snapshot.json"
        training = {"max_epochs": self.epochs, "patience": self.epochs}
        source, target = train / "source_events.jsonl", train / "target_events.jsonl"
        run = work / "snapshot"
        write_json(config, _train_config(seed, source, target, run, self.model, training, {"mode": "single"}))
        session.run("train", "--config", str(config))
        events = scored / "target_events.jsonl"
        return Inputs(
            files={"snapshot": run / "model.snapshot", "events": events, "source": source, "target": target},
            events=events,
            loss_last=last_epoch_loss(run / "train_log.jsonl"),
        )

    def oracle_snapshot(self, inputs: Inputs, out: Path) -> Path:
        return inputs.files["snapshot"]

    def _common(self, inputs: Inputs) -> list[str]:
        return ["--snapshot", str(inputs.files["snapshot"]), "--events", str(inputs.files["events"]),
                "--embeddings", f"hashed:{self.model['d_in']}"]

    def run_pass(self, session: Session, inputs: Inputs, out: Path) -> dict:
        wall = session.run(
            "earlydetect", *self._common(inputs), "--checkpoints", ",".join(self.checkpoints),
            "--mode", "count", "--out", str(out / "curve"),
        )
        with open(out / "curve" / "early_detection.csv", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        require([r["checkpoint"] for r in rows] == list(self.checkpoints), "checkpoint rows differ")
        for row in rows:
            for key in ("accuracy", "macro_f1", "f1_rumor", "f1_nonrumor"):
                require(0.0 <= float(row[key]) <= 1.0, f"{key} {row[key]} outside [0, 1]")
        return {"earlydetect_s": wall, "detect_macro_f1": float(rows[-1]["macro_f1"]), "loss_last": inputs.loss_last}

    def after_passes(self, session: Session, inputs: Inputs, out: Path) -> dict:
        """One export-features run, checked but kept out of the timed passes:
        its Jacobi PCA stalls on some seeds (see README.md)."""
        wall = session.run("export-features", *self._common(inputs), "--out", str(out))
        with open(out / "features.csv", encoding="utf-8") as fh:
            features = list(csv.reader(fh))[1:]
        expected = event_stats(inputs.files["events"])["events"]
        require(len(features) == expected, f"{len(features)} feature rows for {expected} events")
        require(all(math.isfinite(float(v)) for row in features for v in row[2:]), "non-finite coordinate")
        return {"export_s": wall}


PAPER_MODEL = {"d_in": 768, "d_hidden": 512, "d_out": 128}

WORKLOADS = {
    w.name: w
    for w in (
        TrainWorkload(
            name="desk",
            why="narrow model on small trees: Python dispatch in numcore, trainer and objectives dominates a step",
            model={"d_in": 16, "d_hidden": 16, "d_out": 8},
            corpus={"source_events": 64, "target_events": 144, "mean_replies": 6},
            epochs=12,
            folds=4,
        ),
        TrainWorkload(
            name="paper-shallow",
            why="paper model on small trees: weight matmuls, layer_norm, gather_rows and AdamW dominate",
            model=PAPER_MODEL,
            corpus={"source_events": 64, "target_events": 144, "mean_replies": 6},
            epochs=2,
            folds=4,
        ),
        TrainWorkload(
            name="paper-deep",
            why="paper model on 50-reply trees: the dense (sum n)^2 mixing matrix dominates time and memory",
            model=PAPER_MODEL,
            corpus={"source_events": 18, "target_events": 72, "mean_replies": 50},
            epochs=2,
        ),
        DetectWorkload(
            name="detect-export",
            why="forward only: earlydetect at five checkpoints over 300 events in one batch, then one export-features",
            model={"d_in": 768, "d_hidden": 64, "d_out": 64},
            train_corpus={"source_events": 64, "target_events": 72, "mean_replies": 20},
            eval_corpus={"source_events": 4, "target_events": 300, "mean_replies": 20},
            epochs=2,
        ),
    )
}
