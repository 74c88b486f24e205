"""Joint training loop and the few-shot cross-validation harness.

One optimization step pairs a source mini-batch with a target mini-batch:
both are encoded, target events get augmented views, the four loss terms are
blended, and one AdamW update is applied. An epoch walks every target
mini-batch and, inside it, every source mini-batch. Training on a target
fold carves a small stratified validation subset and early-stops on its
macro-F1. Cross-validation trains on each fold in turn (the small portion)
and tests on everything else.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import numcore as nc
from .augment import AugmentStrategy, augment_batch
from .dataio import Dataset, Event, split_folds
from .embed import embed_event
from .evalkit import LABEL_INDEX, Metrics, compute_metrics
from .model import (
    GraphBatch,
    ModelConfig,
    ModelParams,
    _read_container,
    _write_container,
    encode_batch,
    init_params,
)
from .numcore import AdamWState, RngStreams, Tensor, TrainingStepError, adamw_step, child_seed
from .objectives import Batch, LossReport, ce_from_probs, joint, scl_cross, scl_source, tcl
from .propagation import PropagationGraph, build_graph

log = logging.getLogger(__name__)

STATE_VERSION = 1


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
    augment: AugmentStrategy | None = None
    tcl_enabled: bool = True
    tcl_include_positive: bool = False
    seed: int = 0
    precision: str = "f64"

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must lie in [0, 1], got {self.alpha}")
        if self.tau <= 0:
            raise ValueError(f"tau must be positive, got {self.tau}")
        if self.source_batch_size < 1 or self.target_batch_size < 1:
            raise ValueError("batch sizes must be >= 1")
        if self.patience < 1:
            raise ValueError(f"patience must be >= 1, got {self.patience}")
        if not 0.0 <= self.val_fraction <= 1.0:
            raise ValueError(f"val_fraction must lie in [0, 1], got {self.val_fraction}")
        if self.max_epochs < 0:
            raise ValueError(f"max_epochs must be >= 0, got {self.max_epochs}")
        if self.tcl_enabled and self.augment is None:
            raise ValueError("target-instance contrastive training requires an augmentation strategy")


@dataclass
class PreparedEvent:
    """An event with its embedding matrix and propagation graph precomputed."""

    event: Event
    label: int
    embedding: np.ndarray
    graph: PropagationGraph


def prepare_events(events: list[Event], provider) -> list[PreparedEvent]:
    return [
        PreparedEvent(
            event=e,
            label=LABEL_INDEX[e.label],
            embedding=embed_event(e, provider).rows,
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
    epoch: int = 0
    best_score: float = -math.inf
    best_values: dict = field(default_factory=dict)
    epochs_since_improvement: int = 0
    val_ids: list[str] = field(default_factory=list)
    monitor: str = "val_macro_f1"
    history: list[dict] = field(default_factory=list)


# -- single optimization step -----------------------------------------------------


def train_step(
    source_batch: list[PreparedEvent],
    target_batch: list[PreparedEvent],
    state: TrainState,
    cfg: TrainConfig,
) -> LossReport:
    """Encode both batches, blend the objectives, and apply one update."""
    if not source_batch or not target_batch:
        raise ValueError("both batches must be non-empty")
    params = state.params
    streams = state.streams

    src_result = encode_batch(_batch_of(source_batch), params, mode="train", streams=streams)
    tgt_result = encode_batch(_batch_of(target_batch), params, mode="train", streams=streams)
    src_labels = _labels_of(source_batch)
    tgt_labels = _labels_of(target_batch)

    aug_reps = aug_probs = None
    if cfg.tcl_enabled:
        aug_reps = augment_batch(
            cfg.augment,
            tgt_result,
            tgt_labels,
            [p.embedding for p in target_batch],
            [p.graph for p in target_batch],
            params,
            "train",
            streams,
        )
        aug_probs = nc.softmax_rows(nc.matmul(aug_reps, params.wc) + params.bc)

    source = Batch(reps=src_result.reps, labels=src_labels, probs=src_result.probs)
    target = Batch(reps=tgt_result.reps, labels=tgt_labels, probs=tgt_result.probs, aug_reps=aug_reps)

    ce_s = ce_from_probs(source.probs, source.labels)
    if aug_probs is not None:
        # augmented views also feed the target classification term
        ce_t = ce_from_probs(
            nc.concat_rows(target.probs, aug_probs), np.concatenate([tgt_labels, tgt_labels])
        )
    else:
        ce_t = ce_from_probs(target.probs, target.labels)

    # terms with an exactly-zero blend weight are left out of the graph
    if cfg.alpha > 0.0:
        scl_s = scl_source(source, cfg.tau)
        scl_t = scl_cross(target, source, cfg.tau)
        tcl_t = (
            tcl(target, cfg.tau, include_positive=cfg.tcl_include_positive)
            if cfg.tcl_enabled
            else Tensor(0.0)
        )
    else:
        scl_s = scl_t = tcl_t = Tensor(0.0)

    loss_s, loss_t, total = joint(ce_s, scl_s, ce_t, scl_t, tcl_t, cfg.alpha)

    report = LossReport(
        ce_source=ce_s.item(),
        ce_target=ce_t.item(),
        scl_source=scl_s.item(),
        scl_target=scl_t.item(),
        tcl_target=tcl_t.item(),
        loss_source=loss_s.item(),
        loss_target=loss_t.item(),
        loss=total.item(),
        alpha=cfg.alpha,
        tau=cfg.tau,
    )
    for name, value in report.to_dict().items():
        if isinstance(value, float) and not math.isfinite(value):
            raise TrainingStepError(f"non-finite loss term {name} = {value}")

    visited = total.backward()
    grads = {
        name: (t.grad if t.grad is not None else np.zeros_like(t.data))
        for name, t in params.tensors.items()
    }
    adamw_step(state.optimizer, params.tensors, grads)
    nc.clear_grads(visited)
    return report


# -- epochs and fitting --------------------------------------------------------------


def _batches(prepared: list[PreparedEvent], order: np.ndarray, size: int) -> list[list[PreparedEvent]]:
    shuffled = [prepared[i] for i in order]
    return [shuffled[i : i + size] for i in range(0, len(shuffled), size)]


def train_epoch(
    source: list[PreparedEvent],
    target: list[PreparedEvent],
    state: TrainState,
    cfg: TrainConfig,
    step_logger=None,
) -> list[LossReport]:
    """All (target batch, source batch) pairs: ceil(Nt/bt) * ceil(M/bs) steps."""
    if not source or not target:
        raise ValueError("datasets must be non-empty")
    gen = state.streams.shuffle
    target_batches = _batches(target, gen.permutation(len(target)), cfg.target_batch_size)
    source_batches = _batches(source, gen.permutation(len(source)), cfg.source_batch_size)
    reports = []
    step = 0
    for target_batch in target_batches:
        for source_batch in source_batches:
            report = train_step(source_batch, target_batch, state, cfg)
            if step_logger is not None:
                step_logger(step, report)
            reports.append(report)
            step += 1
    return reports


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
    with nc.no_grad():
        result = encode_batch(_batch_of(prepared), params, mode="eval")
    preds = [int(i) for i in np.argmax(result.probs.data, axis=1)]
    return compute_metrics(preds, [p.label for p in prepared])


@dataclass
class FitResult:
    params: ModelParams
    history: list[dict]
    best_score: float
    state: TrainState


def fit(
    source: list[PreparedEvent],
    target_fold: list[PreparedEvent],
    cfg: TrainConfig,
    log_path=None,
    resume_state: TrainState | None = None,
) -> FitResult:
    """Train on a target fold; early-stop on carved-validation macro-F1.

    When a class is too small to spare validation events, progress is
    monitored on the mean training loss instead (logged as a warning).
    Returns the parameters of the best-scoring epoch.
    """
    with nc.precision(cfg.precision):
        if resume_state is not None:
            state = resume_state
            by_id = {p.event.event_id: p for p in target_fold}
            val = [by_id[eid] for eid in state.val_ids]
        else:
            streams = RngStreams(cfg.seed)
            params = init_params(cfg.model, streams)
            state = TrainState(
                params=params,
                optimizer=AdamWState(cfg.learning_rate, weight_decay=cfg.weight_decay),
                streams=streams,
            )
            val = _carve_validation(target_fold, cfg.val_fraction, streams.shuffle)
            state.val_ids = [p.event.event_id for p in val]
            state.monitor = "val_macro_f1" if val else "neg_train_loss"
            state.best_values = state.params.copy_values()
            if not val:
                log.warning(
                    "target fold too small for a validation carve; monitoring training loss"
                )
        held_out = set(state.val_ids)
        train_events = [p for p in target_fold if p.event.event_id not in held_out]

        log_fh = open(log_path, "a", encoding="utf-8") if log_path else None
        try:
            while state.epoch < cfg.max_epochs:
                epoch = state.epoch + 1

                def step_logger(step, report, _epoch=epoch):
                    if log_fh:
                        record = {"epoch": _epoch, "step": step}
                        record.update(report.to_dict())
                        log_fh.write(json.dumps(record, sort_keys=True) + "\n")

                reports = train_epoch(source, train_events, state, cfg, step_logger)
                if val:
                    score = evaluate_prepared(val, state.params).macro_f1
                else:
                    score = -float(np.mean([r.loss for r in reports]))
                state.epoch = epoch
                record = {"epoch": epoch, state.monitor: score}
                state.history.append(record)
                if log_fh:
                    log_fh.write(json.dumps(record, sort_keys=True) + "\n")

                if score > state.best_score:
                    state.best_score = score
                    state.best_values = state.params.copy_values()
                    state.epochs_since_improvement = 0
                else:
                    state.epochs_since_improvement += 1
                    if state.epochs_since_improvement >= cfg.patience:
                        break
        finally:
            if log_fh:
                log_fh.close()

        best = init_params(cfg.model, RngStreams(cfg.seed))
        best.load_values(state.best_values)
        return FitResult(params=best, history=list(state.history), best_score=state.best_score, state=state)


# -- state serialization ---------------------------------------------------------------


def save_state(state: TrainState, cfg: TrainConfig, path) -> None:
    """Single-file checkpoint in the snapshot container: a JSON header line,
    then parameters, both AdamW moments and the best values as float64 blocks."""
    order = list(state.params.tensors)
    values = {name: t.data for name, t in state.params.tensors.items()}
    zeros = {name: np.zeros_like(t.data) for name, t in state.params.tensors.items()}
    blocks = (
        values,
        state.optimizer.m or zeros,
        state.optimizer.v or zeros,
        state.best_values,
    )
    header = {
        "version": STATE_VERSION,
        "model": asdict(cfg.model),
        "epoch": state.epoch,
        "best_score": state.best_score,
        "epochs_since_improvement": state.epochs_since_improvement,
        "val_ids": state.val_ids,
        "monitor": state.monitor,
        "history": state.history,
        "optimizer": {
            "learning_rate": state.optimizer.learning_rate,
            "beta1": state.optimizer.beta1,
            "beta2": state.optimizer.beta2,
            "eps": state.optimizer.eps,
            "weight_decay": state.optimizer.weight_decay,
            "step_count": state.optimizer.step_count,
        },
        "rng": state.streams.state_dict(),
        "order": order,
    }
    _write_container(path, header, (block[name] for block in blocks for name in order))


def load_state(path) -> TrainState:
    header, params, (values, m, v, best_values) = _read_container(path, "version", STATE_VERSION, "model", 4)
    params.load_values(values)
    return TrainState(
        params=params,
        optimizer=AdamWState(**header["optimizer"], m=m, v=v),
        streams=RngStreams.from_state_dict(header["rng"]),
        epoch=header["epoch"],
        best_score=header["best_score"],
        best_values=best_values,
        epochs_since_improvement=header["epochs_since_improvement"],
        val_ids=list(header["val_ids"]),
        monitor=header["monitor"],
        history=list(header["history"]),
    )


# -- cross-validation -------------------------------------------------------------------


@dataclass
class CVResult:
    fold_metrics: list[Metrics]
    mean: dict
    plan_assignment: dict[str, int]

    def to_dict(self) -> dict:
        return {
            "folds": [m.to_dict() for m in self.fold_metrics],
            "mean": self.mean,
        }


def cross_validate(
    source_ds: Dataset,
    target_ds: Dataset,
    cfg: TrainConfig,
    source_provider,
    target_provider,
    k: int = 5,
    out_dir=None,
    snapshot_writer=None,
) -> CVResult:
    """Few-shot protocol: train on each fold (the small slice), test on the rest."""
    with nc.precision(cfg.precision):
        plan = split_folds(target_ds, k, cfg.seed)
        source = prepare_events(source_ds.events, source_provider)
        target = prepare_events(target_ds.events, target_provider)
        by_id = {p.event.event_id: p for p in target}

        fold_metrics = []
        for fold in range(k):
            train_ids = set(plan.fold_ids(fold))
            train_fold = [by_id[e.event_id] for e in target_ds.events if e.event_id in train_ids]
            test_fold = [by_id[e.event_id] for e in target_ds.events if e.event_id not in train_ids]
            fold_cfg = replace(cfg, seed=child_seed(cfg.seed, f"fold{fold}"))
            log_path = None
            if out_dir is not None:
                log_path = f"{out_dir}/fold{fold}_train_log.jsonl"
                open(log_path, "w").close()
            result = fit(source, train_fold, fold_cfg, log_path=log_path)
            if snapshot_writer is not None:
                snapshot_writer(fold, result)
            fold_metrics.append(evaluate_prepared(test_fold, result.params))

        mean = {
            "accuracy": float(np.mean([m.accuracy for m in fold_metrics])),
            "macro_f1": float(np.mean([m.macro_f1 for m in fold_metrics])),
            "f1_rumor": float(np.mean([m.f1_rumor for m in fold_metrics])),
            "f1_nonrumor": float(np.mean([m.f1_nonrumor for m in fold_metrics])),
        }
        return CVResult(fold_metrics=fold_metrics, mean=mean, plan_assignment=dict(plan.assignment))
