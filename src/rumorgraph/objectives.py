"""Training objectives over event representations.

Four terms: classification cross-entropy for each domain, a source-side
supervised contrastive term that clusters same-label source events, a
cross-domain contrastive term that pulls each target event toward same-label
source events, and a target-instance term that identifies each target event's
augmented view against all other target views. A trade-off weight combines
them into the per-domain joint losses and their average.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from . import numcore as nc
from .numcore import Tensor

log = logging.getLogger(__name__)

PROB_FLOOR = 1e-12


class SimilarityError(ValueError):
    """Cosine similarity is undefined for a zero vector."""


@dataclass
class Batch:
    """Aligned per-event quantities for one mini-batch."""

    reps: Tensor  # (n, d)
    labels: np.ndarray  # (n,) ints
    probs: Tensor  # (n, classes)
    aug_reps: Tensor | None = None  # target only; one augmented view per event

    @property
    def size(self) -> int:
        return int(self.labels.shape[0])


@dataclass
class LossReport:
    """Scalar values of every term for one optimization step."""

    ce_source: float
    ce_target: float
    scl_source: float
    scl_target: float
    tcl_target: float
    loss_source: float
    loss_target: float
    loss: float
    alpha: float
    tau: float

    def to_dict(self) -> dict:
        return {
            "l_ce_s": self.ce_source,
            "l_ce_t": self.ce_target,
            "l_scl_s": self.scl_source,
            "l_scl_t": self.scl_target,
            "l_tcl_t": self.tcl_target,
            "l_s": self.loss_source,
            "l_t": self.loss_target,
            "l": self.loss,
            "alpha": self.alpha,
            "tau": self.tau,
        }


# -- similarity ----------------------------------------------------------------


def _normalize_rows(reps: Tensor) -> Tensor:
    norms_sq = nc.sum_rows(reps * reps)
    if np.any(norms_sq.data <= 0.0):
        raise SimilarityError("similarity of a zero vector is undefined")
    return reps / nc.sqrt(norms_sq)


def similarity_matrix(a: Tensor, b: Tensor, tau: float) -> Tensor:
    """Pairwise temperature-scaled cosine similarities, rows of a vs rows of b."""
    if tau <= 0:
        raise ValueError(f"temperature must be positive, got {tau}")
    return nc.matmul(_normalize_rows(a), nc.transpose(_normalize_rows(b))) * (1.0 / tau)


# -- loss terms ------------------------------------------------------------------


def ce_from_probs(probs: Tensor, labels: np.ndarray) -> Tensor:
    """Mean negative log-probability of the true class, probabilities floored."""
    n, classes = probs.shape
    onehot = np.zeros((n, classes))
    onehot[np.arange(n), labels] = 1.0
    p_true = nc.sum_rows(probs * Tensor(onehot))
    return nc.sum_all(nc.log(nc.clamp_min(p_true, PROB_FLOOR))) * (-1.0 / n)


def scl_source(batch: Batch, tau: float) -> Tensor:
    """Cluster same-label source events against the rest of the batch.

    Per anchor, the mean over its same-label peers of the log-probability of
    identifying each peer against all other batch members; anchors without a
    positive contribute zero while the outer mean keeps dividing by the batch
    size.
    """
    n = batch.size
    if n < 2:
        log.warning("source contrastive term skipped: batch of size %d", n)
        return Tensor(0.0)
    labels = batch.labels
    same = (labels[:, None] == labels[None, :]).astype(np.float64)
    off_diag = 1.0 - np.eye(n)
    positives = same * off_diag
    pos_counts = positives.sum(axis=1)
    weights = np.where(pos_counts > 0, 1.0 / (n * np.maximum(pos_counts, 1.0)), 0.0)

    s = similarity_matrix(batch.reps, batch.reps, tau)
    denom = nc.sum_rows(nc.exp(s) * Tensor(off_diag))
    log_prob = s - nc.log(denom)
    weighted = log_prob * Tensor(positives) * Tensor(weights[:, None])
    return nc.sum_all(weighted) * -1.0


def scl_cross(target: Batch, source: Batch, tau: float) -> Tensor:
    """Pull each target event toward same-label source events.

    The denominator ranges over every source event in the batch; target
    anchors whose label is absent from the source batch contribute zero.
    """
    n_t, n_s = target.size, source.size
    matches = (target.labels[:, None] == source.labels[None, :]).astype(np.float64)
    pos_counts = matches.sum(axis=1)
    weights = np.where(pos_counts > 0, 1.0 / (n_t * np.maximum(pos_counts, 1.0)), 0.0)

    s = similarity_matrix(target.reps, source.reps, tau)
    denom = nc.sum_rows(nc.exp(s))
    log_prob = s - nc.log(denom)
    weighted = log_prob * Tensor(matches) * Tensor(weights[:, None])
    return nc.sum_all(weighted) * -1.0


def tcl(batch: Batch, tau: float, include_positive: bool = False) -> Tensor:
    """Identify each target event's augmented view among the other views.

    As printed, the denominator holds the 2(n-1) views of the *other* events
    only, so the term can go negative; ``include_positive`` adds the
    anchor's own augmented view back for the standard normalized form.
    """
    n = batch.size
    if n < 2:
        log.warning("target-instance contrastive term skipped: batch of size %d", n)
        return Tensor(0.0)
    if batch.aug_reps is None:
        raise ValueError("target batch carries no augmented representations")
    eye = np.eye(n)
    off_diag = 1.0 - eye

    s_orig = similarity_matrix(batch.reps, batch.reps, tau)
    s_aug = similarity_matrix(batch.reps, batch.aug_reps, tau)
    pos = nc.sum_rows(s_aug * Tensor(eye))
    denom = nc.sum_rows(nc.exp(s_orig) * Tensor(off_diag)) + nc.sum_rows(
        nc.exp(s_aug) * Tensor(off_diag)
    )
    if include_positive:
        denom = denom + nc.exp(pos)
    per_anchor = pos - nc.log(denom)
    return nc.sum_all(per_anchor) * (-1.0 / n)


def joint(
    ce_s: Tensor, scl_s: Tensor, ce_t: Tensor, scl_t: Tensor, tcl_t: Tensor, alpha: float
) -> tuple[Tensor, Tensor, Tensor]:
    """Blend classification and contrastive terms; returns (source, target, average)."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
    loss_s = ce_s * (1.0 - alpha) + scl_s * alpha
    loss_t = ce_t * (1.0 - alpha) + (scl_t + tcl_t) * alpha
    return loss_s, loss_t, (loss_s + loss_t) * 0.5
