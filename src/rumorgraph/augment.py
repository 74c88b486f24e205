"""Augmented views of target event representations.

Three strategies produce the positive pair for the target-instance
contrastive term: a normalized-gradient adversarial shift of the
representation, random zeroing of representation coordinates, and a second
encoding pass over a topology with randomly removed reply edges.

The adversarial direction is each event's classification-loss gradient at
its representation: the ordinary ``Tensor.backward`` through the classifier
head run again on a detached leaf of the representations, with the head's
weights as constants, so no encoder or parameter gradient is touched.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .model import EncodeResult, GraphBatch, ModelParams, classify, encode_batch, mixing_operator
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
    return rep + Tensor(epsilon * _normalized_rows(np.asarray(grad, dtype=np.float64)))


def feature_dropout(rep: Tensor, rate: float, gen: np.random.Generator) -> Tensor:
    """Zero each coordinate independently with probability ``rate``; no rescaling."""
    if not 0.0 <= rate <= 1.0:
        raise ValueError(f"feature dropout rate must lie in [0, 1], got {rate}")
    return rep * Tensor(gen.random(rep.shape) >= rate)


def classification_gradients(reps: Tensor, labels: np.ndarray, params: ModelParams) -> np.ndarray:
    """Per-event gradient of each event's own classification loss w.r.t. its
    representation; the tape that made ``reps`` is left untouched."""
    leaf = Tensor(reps.data, requires_grad=True)
    probs = classify(leaf, Tensor(params.wc.data), Tensor(params.bc.data))
    (ce_from_probs(probs, labels) * float(len(labels))).backward()
    return leaf.grad


def augment_batch(
    strategy: AugmentStrategy,
    result: EncodeResult,
    labels: np.ndarray,
    batch: GraphBatch,
    graphs: list[PropagationGraph],
    params: ModelParams,
    streams: RngStreams,
) -> Tensor:
    """One augmented representation per event of ``batch`` (stacked from ``graphs``), as a
    differentiable tensor. The DropEdge view encodes the batch's own feature rows again over
    an operator built from the deformed graphs, which keep every node."""
    if strategy.kind == "adversarial":
        grads = classification_gradients(result.reps, labels, params)
        return adversarial(result.reps, grads, strategy.epsilon)
    if strategy.kind == "feature_dropout":
        return feature_dropout(result.reps, strategy.feature_dropout_rate, streams.feature_dropout)
    deformed = [dropedge(g, strategy.dropedge_rate, streams.dropedge) for g in graphs]
    return encode_batch(replace(batch, mixing=mixing_operator(deformed)), params, mode="train", streams=streams).reps
