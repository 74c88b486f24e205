"""Augmented views of target event representations.

Three strategies produce the positive pair for the target-instance
contrastive term: a normalized-gradient adversarial shift of the
representation, random zeroing of representation coordinates, and a second
encoding pass over a topology with randomly removed reply edges.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numcore as nc
from .model import EncodeResult, GraphBatch, ModelParams, encode_batch
from .numcore import RngStreams, Tensor
from .objectives import ce_from_probs
from .propagation import PropagationGraph, dropedge

STRATEGY_KINDS = ("adversarial", "feature_dropout", "graph_dropedge")

GRAD_NORM_FLOOR = 1e-12


@dataclass(frozen=True)
class AugmentStrategy:
    kind: str
    epsilon: float = 0.5  # adversarial shift magnitude
    feature_dropout_rate: float = 0.2
    dropedge_rate: float = 0.2

    def __post_init__(self):
        if self.kind not in STRATEGY_KINDS:
            raise ValueError(f"unknown augmentation kind {self.kind!r}; expected one of {STRATEGY_KINDS}")
        if self.epsilon <= 0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")
        for name in ("feature_dropout_rate", "dropedge_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {rate}")


def _normalized_rows(grads: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(grads, axis=1, keepdims=True)
    scale = np.where(norms < GRAD_NORM_FLOOR, 0.0, 1.0 / np.maximum(norms, GRAD_NORM_FLOOR))
    return grads * scale


def adversarial(rep: Tensor, grad: np.ndarray, epsilon: float) -> Tensor:
    """Shift each representation by epsilon along its normalized loss gradient.

    The direction is a constant: gradients keep flowing through the original
    representation, not through the perturbation.
    """
    grad = np.asarray(grad, dtype=np.float64)
    if grad.ndim == 1:
        grad = grad[None, :]
    return rep + Tensor(epsilon * _normalized_rows(grad))


def feature_dropout(rep: Tensor, rate: float, gen: np.random.Generator) -> Tensor:
    """Zero each coordinate independently with probability ``rate``; no rescaling."""
    if not 0.0 <= rate <= 1.0:
        raise ValueError(f"feature dropout rate must lie in [0, 1], got {rate}")
    keep = (gen.random(rep.shape) >= rate).astype(nc.active_dtype())
    return rep * Tensor(keep)


def classification_gradients(result: EncodeResult, labels: np.ndarray) -> np.ndarray:
    """Per-event gradient of each event's own classification loss w.r.t. its
    representation, captured without disturbing accumulated state."""
    per_sample_sum = ce_from_probs(result.probs, labels) * float(len(labels))
    return nc.grad_wrt(per_sample_sum, result.reps)


def augment_batch(
    strategy: AugmentStrategy,
    result: EncodeResult,
    labels: np.ndarray,
    embeddings: list[np.ndarray],
    graphs: list[PropagationGraph],
    params: ModelParams,
    mode: str,
    streams: RngStreams,
) -> Tensor:
    """One augmented representation per event, as a differentiable tensor."""
    if strategy.kind == "adversarial":
        grads = classification_gradients(result, labels)
        return adversarial(result.reps, grads, strategy.epsilon)
    if strategy.kind == "feature_dropout":
        return feature_dropout(result.reps, strategy.feature_dropout_rate, streams.feature_dropout)
    deformed = [dropedge(g, strategy.dropedge_rate, streams.dropedge) for g in graphs]
    batch = GraphBatch.from_events(embeddings, deformed)
    return encode_batch(batch, params, mode=mode, streams=streams).reps
