"""Evaluation: classification metrics, the early-detection curve and its CSV,
and 2-D feature projection for inspecting the learned representation space.

``predict_events`` embeds raw events, packing each event's rows as soon as
they are embedded (``embed.pack``), and encodes them a bounded chunk at a
time (``model.encode_events``), for the export. The protocols, early
detection among them, take prepared events and live in ``trainer``.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass

import numpy as np

from .dataio import LABELS, Event
from .embed import embed_event, pack
from .model import ModelParams, encode_events
from .propagation import build_graph


class DegenerateDataError(ValueError):
    """Input carries no variance to project."""


LABEL_INDEX = {label: i for i, label in enumerate(LABELS)}
# the scalar fields of ``Metrics``, in the order every table of them lists them
METRIC_NAMES = ("accuracy", "macro_f1", "f1_rumor", "f1_nonrumor")


@dataclass(frozen=True)
class Metrics:
    accuracy: float
    macro_f1: float
    f1_rumor: float
    f1_nonrumor: float
    confusion: dict  # per class name: {"tp", "fp", "fn", "tn"}


def _f1(tp: int, fp: int, fn: int) -> float:
    denom = 2 * tp + fp + fn
    return 2 * tp / denom if denom else 0.0


def compute_metrics(preds, truth) -> Metrics:
    """Accuracy, per-class F1 (0/0 counts as 0), and their unweighted mean,
    from predicted and true class indices (``LABEL_INDEX``)."""
    if len(preds) != len(truth):
        raise ValueError(f"{len(preds)} predictions for {len(truth)} labels")
    if not truth:
        raise ValueError("nothing to evaluate")

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
    """Evaluation-mode class predictions and representations for ``events``, at the parameters' element type.
    Only one event's dense rows are alive at a time: each is packed as soon as it is embedded."""
    embeddings = [pack(embed_event(e, provider).rows) for e in events]
    probs, reps = encode_events(embeddings, [build_graph(e) for e in events], params)
    return [int(i) for i in np.argmax(probs, axis=1)], reps


def write_curve_csv(values: tuple[float, ...], metrics: list[Metrics], path) -> None:
    """A header, then one row per checkpoint: its value (``%g``, or ``inf``) and the ``repr`` of each metric."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["checkpoint", *METRIC_NAMES])
        for value, m in zip(values, metrics):
            label = "inf" if math.isinf(value) else f"{value:g}"
            writer.writerow([label, *(repr(getattr(m, name)) for name in METRIC_NAMES)])


# -- principal component projection ------------------------------------------------


def pca_project(representations: np.ndarray) -> tuple[np.ndarray, tuple[float, float]]:
    """Project representations onto their top-2 principal axes.

    Returns the mean-centered ``(n, 2)`` coordinates and the fraction of the
    total variance on each axis, in descending order. Eigenvectors come from a
    symmetric eigendecomposition (LAPACK) of the sample covariance; each axis
    is sign-fixed so its largest-magnitude component is positive, making
    exports reproducible.
    """
    x = np.asarray(representations, dtype=np.float64)
    if x.shape[0] < 2:
        raise DegenerateDataError(f"need at least two representation rows, got shape {x.shape}")
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
    explained = (float(eigvals[order[0]] / total), float(eigvals[order[1]] / total))
    return centered @ axes, explained


def write_features_csv(events: list[Event], coords: np.ndarray, explained, csv_path, sidecar_path) -> None:
    with open(csv_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["event_id", "label", "x", "y"])
        for event, (x, y) in zip(events, coords):
            writer.writerow([event.event_id, event.label, repr(float(x)), repr(float(y))])
    with open(sidecar_path, "w", encoding="utf-8") as fh:
        json.dump({"explained_variance_fractions": list(explained)}, fh, sort_keys=True)
        fh.write("\n")
