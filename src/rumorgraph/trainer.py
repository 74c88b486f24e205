"""Joint training loop and the few-shot cross-validation harness.

One optimization step pairs a source mini-batch with a target mini-batch:
both are encoded into representations, target events get augmented views,
the classifier head runs once on each, the four loss terms are blended, and
one AdamW update is applied. A step returns the value of each term as its log
record, which ``fit`` writes to the train log. An epoch walks every target
mini-batch and, inside it, every source mini-batch. Training on a target
fold carves a small stratified validation subset and early-stops on its
macro-F1. Cross-validation trains on each fold in turn (the small portion)
and tests on everything else. Early detection scores, at each checkpoint,
the posts visible so far: a prefix of each event's rows and edges.

Every protocol takes events its caller prepared once (``prepare_events``:
embedded, with their graphs built) and scores through ``evaluate_prepared``,
which encodes a bounded chunk of events at a time (``model.encode_events``).
A prepared event keeps its rows packed (``embed.pack``), and each event's
dense rows are packed as soon as they are embedded, so preparing a corpus
holds one event's dense rows at a time; a batch unpacks only its own events.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import numcore as nc
from .augment import AugmentStrategy, augment_batch
from .dataio import CheckpointSpec, Event, split_folds, visible_posts
from .embed import PackedRows, embed_event, pack
from .evalkit import LABEL_INDEX, METRIC_NAMES, Metrics, compute_metrics
from .model import (
    GraphBatch,
    ModelConfig,
    ModelParams,
    classify,
    encode_batch,
    encode_events,
    init_params,
    save_snapshot,
)
from .numcore import AdamWState, RngStreams, Tensor, TrainingStepError, adamw_step, child_seed
from .objectives import ce_from_probs, joint, scl_cross, scl_source, tcl
from .propagation import PropagationGraph, build_graph

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class TrainConfig:
    model: ModelConfig
    alpha: float = 0.5
    tau: float = 0.5
    learning_rate: float = 1e-4
    source_batch_size: int = 32
    target_batch_size: int = 32
    max_epochs: int = 200
    patience: int = 10
    val_fraction: float = 0.1
    weight_decay: float = 0.0
    augment: AugmentStrategy = AugmentStrategy("graph_dropedge")
    tcl_enabled: bool = True
    tcl_include_positive: bool = False
    seed: int = 0
    precision: str = "f64"

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must lie in [0, 1], got {self.alpha}")
        if self.tau <= 0:
            raise ValueError(f"tau must be positive, got {self.tau}")
        for name in ("source_batch_size", "target_batch_size", "patience"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not 0.0 <= self.val_fraction <= 1.0:
            raise ValueError(f"val_fraction must lie in [0, 1], got {self.val_fraction}")
        for name in ("learning_rate", "weight_decay", "max_epochs", "seed"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        if self.precision not in ("f32", "f64"):
            raise ValueError(f"precision must be 'f32' or 'f64', got {self.precision!r}")


@dataclass
class PreparedEvent:
    """An event with its packed embedding rows and propagation graph precomputed."""

    event: Event
    label: int
    embedding: PackedRows
    graph: PropagationGraph

    def prefix(self, k: int) -> PreparedEvent:
        """The first ``k`` posts as preparing them alone would give; ``event`` stays
        whole. A reply sorts after its parent, so each edge (i, j) has it at j."""
        if k == self.graph.n:
            return self
        graph = PropagationGraph(k, tuple(e for e in self.graph.edges if e[1] < k))
        return PreparedEvent(self.event, self.label, self.embedding.prefix(k), graph)


def prepare_events(events: list[Event], provider) -> list[PreparedEvent]:
    return [
        PreparedEvent(
            event=e,
            label=LABEL_INDEX[e.label],
            embedding=pack(embed_event(e, provider).rows),
            graph=build_graph(e),
        )
        for e in events
    ]


def _batch_of(prepared: list[PreparedEvent]) -> GraphBatch:
    return GraphBatch.from_events([p.embedding for p in prepared], [p.graph for p in prepared])


def _labels_of(prepared: list[PreparedEvent]) -> np.ndarray:
    return np.asarray([p.label for p in prepared], dtype=np.intp)


@dataclass
class TrainState:
    params: ModelParams
    optimizer: AdamWState
    streams: RngStreams


# -- single optimization step -----------------------------------------------------


def train_step(
    source_batch: list[PreparedEvent],
    target_batch: list[PreparedEvent],
    state: TrainState,
    cfg: TrainConfig,
) -> dict:
    """Encode both batches and the target batch's augmented view, run the head on each,
    blend the objectives, and apply one update.

    Returns the step's log record: the value of every loss term (``l_ce_s``,
    ``l_ce_t``, ``l_scl_s``, ``l_scl_t``, ``l_tcl_t``), of the joint losses
    (``l_s``, ``l_t``, ``l``) and the ``alpha`` and ``tau`` they used.
    """
    params = state.params
    streams = state.streams

    source = encode_batch(_batch_of(source_batch), params, mode="train", streams=streams)
    stacked_target = _batch_of(target_batch)
    target = encode_batch(stacked_target, params, mode="train", streams=streams)
    src_labels = _labels_of(source_batch)
    tgt_labels = _labels_of(target_batch)

    aug = None
    if cfg.tcl_enabled:
        aug = augment_batch(cfg.augment, target, tgt_labels, stacked_target, params, streams)

    ce_s = ce_from_probs(classify(source, params.wc, params.bc), src_labels)
    target_probs = classify(target, params.wc, params.bc)
    if aug is not None:
        # augmented views also feed the target classification term
        aug_probs = classify(aug, params.wc, params.bc)
        ce_t = ce_from_probs(nc.concat_rows(target_probs, aug_probs), np.concatenate([tgt_labels, tgt_labels]))
    else:
        ce_t = ce_from_probs(target_probs, tgt_labels)

    # terms with an exactly-zero blend weight are left out of the graph
    if cfg.alpha > 0.0:
        scl_s = scl_source(source, src_labels, cfg.tau)
        scl_t = scl_cross(target, tgt_labels, source, src_labels, cfg.tau)
        tcl_t = tcl(target, aug, cfg.tau, include_positive=cfg.tcl_include_positive) if aug is not None else Tensor(0.0)
    else:
        scl_s = scl_t = tcl_t = Tensor(0.0)

    loss_s, loss_t, total = joint(ce_s, scl_s, ce_t, scl_t, tcl_t, cfg.alpha)

    terms = dict(l_ce_s=ce_s, l_ce_t=ce_t, l_scl_s=scl_s, l_scl_t=scl_t, l_tcl_t=tcl_t, l_s=loss_s, l_t=loss_t, l=total)
    record = {name: t.item() for name, t in terms.items()}
    for name, value in record.items():
        if not math.isfinite(value):
            raise TrainingStepError(f"non-finite loss term {name} = {value}")
    record.update(alpha=cfg.alpha, tau=cfg.tau)

    visited = total.backward()
    adamw_step(state.optimizer, params.tensors, {name: t.grad for name, t in params.tensors.items()})
    nc.clear_grads(visited)
    return record


# -- epochs and fitting --------------------------------------------------------------


def _batches(prepared: list[PreparedEvent], order: np.ndarray, size: int) -> list[list[PreparedEvent]]:
    shuffled = [prepared[i] for i in order]
    return [shuffled[i : i + size] for i in range(0, len(shuffled), size)]


def train_epoch(
    source: list[PreparedEvent],
    target: list[PreparedEvent],
    state: TrainState,
    cfg: TrainConfig,
    step_logger,
) -> list[dict]:
    """All (target batch, source batch) pairs: ceil(Nt/bt) * ceil(M/bs) steps, each record passed to ``step_logger``."""
    if not source or not target:
        raise ValueError("datasets must be non-empty")
    gen = state.streams.shuffle
    target_batches = _batches(target, gen.permutation(len(target)), cfg.target_batch_size)
    source_batches = _batches(source, gen.permutation(len(source)), cfg.source_batch_size)
    records = []
    step = 0
    for target_batch in target_batches:
        for source_batch in source_batches:
            record = train_step(source_batch, target_batch, state, cfg)
            step_logger(step, record)
            records.append(record)
            step += 1
    return records


def _carve_validation(
    target: list[PreparedEvent], fraction: float, gen: np.random.Generator
) -> list[PreparedEvent]:
    """Pick a stratified validation subset; empty means caller must fall back."""
    by_class: dict[int, list[PreparedEvent]] = {}
    for p in target:
        by_class.setdefault(p.label, []).append(p)
    if any(len(members) < 2 for members in by_class.values()) or fraction <= 0.0:
        return []
    val: list[PreparedEvent] = []
    for label in sorted(by_class):
        members = by_class[label]
        count = min(max(1, int(round(fraction * len(members)))), len(members) - 1)
        order = gen.permutation(len(members))
        val.extend(members[i] for i in sorted(order[:count].tolist()))
    return val


def evaluate_prepared(prepared: list[PreparedEvent], params: ModelParams) -> Metrics:
    """Metrics of ``params`` on prepared events, scored a bounded chunk at a time."""
    probs, _reps = encode_events([p.embedding for p in prepared], [p.graph for p in prepared], params)
    return compute_metrics([int(i) for i in np.argmax(probs, axis=1)], [p.label for p in prepared])


@dataclass
class FitResult:
    params: ModelParams
    history: list[dict]
    best_score: float


def fit(
    source: list[PreparedEvent],
    target_fold: list[PreparedEvent],
    cfg: TrainConfig,
    log_path,
) -> FitResult:
    """Train on a target fold, writing its train log to ``log_path``; early-stop on carved-validation macro-F1.

    Without a carve, progress is monitored on the mean training loss instead:
    when ``val_fraction`` is 0, or when a carve was asked for but a class has
    fewer than two events to spare one (logged as a warning). Returns the
    parameters of the best-scoring epoch.
    """
    # the step checks its loss terms and the scorer its outputs, so numpy's overflow warnings add nothing
    with nc.precision(cfg.precision), np.errstate(over="ignore", invalid="ignore"):
        streams = RngStreams(cfg.seed)
        state = TrainState(
            params=init_params(cfg.model, streams),
            optimizer=AdamWState(cfg.learning_rate, weight_decay=cfg.weight_decay),
            streams=streams,
        )
        val = _carve_validation(target_fold, cfg.val_fraction, streams.shuffle)
        monitor = "val_macro_f1" if val else "neg_train_loss"
        if not val and cfg.val_fraction > 0.0:
            log.warning("target fold too small for a validation carve; monitoring training loss")
        held_out = {p.event.event_id for p in val}
        train_events = [p for p in target_fold if p.event.event_id not in held_out]
        best_score = -math.inf
        best_values = state.params.copy_values()
        epochs_since_improvement = 0
        history: list[dict] = []

        with open(log_path, "w", encoding="utf-8") as log_fh:
            for epoch in range(1, cfg.max_epochs + 1):

                def step_logger(step, record, _epoch=epoch):
                    log_fh.write(json.dumps({"epoch": _epoch, "step": step, **record}, sort_keys=True) + "\n")

                records = train_epoch(source, train_events, state, cfg, step_logger)
                if val:
                    score = evaluate_prepared(val, state.params).macro_f1
                else:
                    score = -float(np.mean([r["l"] for r in records]))
                record = {"epoch": epoch, monitor: score}
                history.append(record)
                log_fh.write(json.dumps(record, sort_keys=True) + "\n")

                if score > best_score:
                    best_score = score
                    best_values = state.params.copy_values()
                    epochs_since_improvement = 0
                else:
                    epochs_since_improvement += 1
                    if epochs_since_improvement >= cfg.patience:
                        break

        best = ModelParams.from_values(cfg.model, best_values)
        return FitResult(params=best, history=history, best_score=best_score)


# -- cross-validation -------------------------------------------------------------------


@dataclass
class CVResult:
    folds: list[Metrics]
    mean: dict
    fold_assignment: dict[str, int]
    files: list[str]  # the names written under out_dir


def cross_validate(
    source: list[PreparedEvent],
    target: list[PreparedEvent],
    cfg: TrainConfig,
    k: int,
    out_dir: Path,
) -> CVResult:
    """Few-shot protocol: train on each fold (the small slice), test on the rest.

    Each fold writes ``fold{i}_train_log.jsonl`` and its best parameters as
    ``fold{i}.snapshot`` (tagged with ``cfg.seed``) under ``out_dir``, and
    ``files`` names them.
    """
    assignment = split_folds([p.event for p in target], k, cfg.seed)
    fold_metrics = []
    files = []
    for fold in range(k):
        train_fold = [p for p in target if assignment[p.event.event_id] == fold]
        test_fold = [p for p in target if assignment[p.event.event_id] != fold]
        fold_cfg = replace(cfg, seed=child_seed(cfg.seed, f"fold{fold}"))
        log_name = f"fold{fold}_train_log.jsonl"
        result = fit(source, train_fold, fold_cfg, out_dir / log_name)
        save_snapshot(result.params, cfg.seed, out_dir / f"fold{fold}.snapshot")
        files += [f"fold{fold}.snapshot", log_name]
        fold_metrics.append(evaluate_prepared(test_fold, result.params))

    mean = {name: float(np.mean([getattr(m, name) for m in fold_metrics])) for name in METRIC_NAMES}
    return CVResult(folds=fold_metrics, mean=mean, fold_assignment=assignment, files=files)


def early_detection(prepared: list[PreparedEvent], params: ModelParams, spec: CheckpointSpec) -> list[Metrics]:
    """Metrics per checkpoint, in ``spec`` order, of prepared events with only the posts visible there: a
    prefix of each event's rows and edges, so no post is embedded again; at the parameters' element type."""
    return [
        evaluate_prepared([p.prefix(visible_posts(p.event, spec.mode, value)) for p in prepared], params)
        for value in spec.values
    ]
