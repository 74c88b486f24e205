"""Evaluation: classification metrics, early-detection curves, and 2-D feature
projection for inspecting the learned representation space."""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass

import numpy as np

from . import numcore as nc
from .dataio import LABELS, CheckpointSpec, Event, truncate_event
from .embed import embed_event
from .model import GraphBatch, ModelParams, encode_batch
from .propagation import build_graph


class DegenerateDataError(ValueError):
    """Input carries no variance to project."""


LABEL_INDEX = {label: i for i, label in enumerate(LABELS)}


@dataclass(frozen=True)
class Metrics:
    accuracy: float
    macro_f1: float
    f1_rumor: float
    f1_nonrumor: float
    confusion: dict  # per class name: {"tp", "fp", "fn", "tn"}

    def to_dict(self) -> dict:
        return {
            "accuracy": self.accuracy,
            "macro_f1": self.macro_f1,
            "f1_rumor": self.f1_rumor,
            "f1_nonrumor": self.f1_nonrumor,
            "confusion": self.confusion,
        }


def _f1(tp: int, fp: int, fn: int) -> float:
    denom = 2 * tp + fp + fn
    return 2 * tp / denom if denom else 0.0


def compute_metrics(predictions, labels) -> Metrics:
    """Accuracy, per-class F1 (0/0 counts as 0), and their unweighted mean.

    Predictions and labels may be class indices or label strings.
    """
    if len(predictions) != len(labels):
        raise ValueError(f"{len(predictions)} predictions for {len(labels)} labels")
    if not labels:
        raise ValueError("nothing to evaluate")
    preds = [LABEL_INDEX.get(p, p) for p in predictions]
    truth = [LABEL_INDEX.get(y, y) for y in labels]

    confusion = {}
    f1 = {}
    for name, cls in LABEL_INDEX.items():
        tp = sum(1 for p, y in zip(preds, truth) if p == cls and y == cls)
        fp = sum(1 for p, y in zip(preds, truth) if p == cls and y != cls)
        fn = sum(1 for p, y in zip(preds, truth) if p != cls and y == cls)
        tn = len(truth) - tp - fp - fn
        confusion[name] = {"tp": tp, "fp": fp, "fn": fn, "tn": tn}
        f1[name] = _f1(tp, fp, fn)

    accuracy = sum(1 for p, y in zip(preds, truth) if p == y) / len(truth)
    return Metrics(
        accuracy=accuracy,
        macro_f1=(f1["rumor"] + f1["non-rumor"]) / 2.0,
        f1_rumor=f1["rumor"],
        f1_nonrumor=f1["non-rumor"],
        confusion=confusion,
    )


# -- model evaluation ------------------------------------------------------------


def predict_events(events: list[Event], params: ModelParams, provider) -> tuple[list[int], np.ndarray]:
    """Evaluation-mode class predictions and representations for ``events``."""
    embeddings = [embed_event(e, provider).rows for e in events]
    graphs = [build_graph(e) for e in events]
    with nc.no_grad():
        result = encode_batch(GraphBatch.from_events(embeddings, graphs), params, mode="eval")
    preds = [int(i) for i in np.argmax(result.probs.data, axis=1)]
    return preds, result.reps.data


def evaluate_events(events: list[Event], params: ModelParams, provider) -> Metrics:
    preds, _ = predict_events(events, params, provider)
    return compute_metrics(preds, [LABEL_INDEX[e.label] for e in events])


@dataclass
class EarlyDetectionCurve:
    spec: CheckpointSpec
    metrics: list[Metrics]  # one per checkpoint, in spec order

    def rows(self) -> list[dict]:
        out = []
        for value, m in zip(self.spec.values, self.metrics):
            label = "inf" if math.isinf(value) else (f"{value:g}")
            out.append(
                {
                    "checkpoint": label,
                    "accuracy": m.accuracy,
                    "macro_f1": m.macro_f1,
                    "f1_rumor": m.f1_rumor,
                    "f1_nonrumor": m.f1_nonrumor,
                }
            )
        return out


def early_detection(
    events: list[Event], params: ModelParams, spec: CheckpointSpec, provider
) -> EarlyDetectionCurve:
    """Evaluate with only the content available at each checkpoint.

    Every checkpoint truncates the test events, rebuilds their topologies and
    embeddings from the surviving posts, and scores an evaluation-mode pass.
    """
    metrics = []
    for value in spec.values:
        truncated = [truncate_event(e, spec.mode, value) for e in events]
        metrics.append(evaluate_events(truncated, params, provider))
    return EarlyDetectionCurve(spec=spec, metrics=metrics)


def write_curve_csv(curve: EarlyDetectionCurve, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(
            fh, fieldnames=["checkpoint", "accuracy", "macro_f1", "f1_rumor", "f1_nonrumor"]
        )
        writer.writeheader()
        for row in curve.rows():
            writer.writerow({k: (v if isinstance(v, str) else repr(v)) for k, v in row.items()})


# -- principal component projection ------------------------------------------------


@dataclass
class ProjectedFeatures:
    event_ids: list[str]
    labels: list[str]
    coords: np.ndarray  # (n, 2), mean-centered
    explained: tuple[float, float]  # fractions of total variance, descending


def pca_project(representations: np.ndarray, event_ids=None, labels=None) -> ProjectedFeatures:
    """Project representations onto their top-2 principal axes.

    Eigenvectors come from a symmetric eigendecomposition (LAPACK) of the
    sample covariance; each axis is sign-fixed so its largest-magnitude
    component is positive, making exports reproducible.
    """
    x = np.asarray(representations, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 2:
        raise ValueError(f"need at least two representation rows, got shape {x.shape}")
    if x.shape[1] < 2:
        raise ValueError(f"representation dimension must be >= 2, got {x.shape[1]}")
    centered = x - x.mean(axis=0, keepdims=True)
    cov = centered.T @ centered / (x.shape[0] - 1)
    total = float(np.trace(cov))
    if total <= 0.0:
        raise DegenerateDataError("representations carry no variance")

    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(eigvals)[::-1][:2]
    axes = eigvecs[:, order]
    for col in range(axes.shape[1]):
        anchor = int(np.argmax(np.abs(axes[:, col])))
        if axes[anchor, col] < 0:
            axes[:, col] = -axes[:, col]
    coords = centered @ axes
    explained = (float(eigvals[order[0]] / total), float(eigvals[order[1]] / total))

    n = x.shape[0]
    return ProjectedFeatures(
        event_ids=list(event_ids) if event_ids is not None else [str(i) for i in range(n)],
        labels=list(labels) if labels is not None else [""] * n,
        coords=coords,
        explained=explained,
    )


def write_features_csv(features: ProjectedFeatures, csv_path, sidecar_path) -> None:
    with open(csv_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["event_id", "label", "x", "y"])
        for eid, label, (x, y) in zip(features.event_ids, features.labels, features.coords):
            writer.writerow([eid, label, repr(float(x)), repr(float(y))])
    with open(sidecar_path, "w", encoding="utf-8") as fh:
        json.dump({"explained_variance_fractions": list(features.explained)}, fh, sort_keys=True)
        fh.write("\n")
