"""Training objectives over event representations.

Four terms: classification cross-entropy for each domain, a source-side
supervised contrastive term that clusters same-label source events, a
cross-domain contrastive term that pulls each target event toward same-label
source events, and a target-instance term that identifies each target event's
augmented view against all other target views. A trade-off weight combines
them into the per-domain joint losses and their average.

Each term takes the representations as tensors and the labels as integer
arrays. The two supervised terms are one form (``_supervised``) over
different similarity matrices: source anchors against the other source
events, and target anchors against every source event.
"""

from __future__ import annotations

import logging

import numpy as np

from . import numcore as nc
from .numcore import Tensor

log = logging.getLogger(__name__)

PROB_FLOOR = 1e-12


class SimilarityError(ValueError):
    """Cosine similarity is undefined for a zero vector."""


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


def _supervised(s: Tensor, positives: np.ndarray, exclude: np.ndarray | None) -> Tensor:
    """Supervised contrastive loss over the similarities ``s`` of anchors (rows) to candidates.

    Per anchor, the mean over its positives (the 0/1 mask ``positives``) of
    the log-probability of identifying each positive against the row's
    candidates, less those that ``exclude`` zeroes. Anchors without a
    positive contribute zero while the outer mean keeps dividing by the
    number of anchors.
    """
    n = positives.shape[0]
    pos_counts = positives.sum(axis=1)
    weights = np.where(pos_counts > 0, 1.0 / (n * np.maximum(pos_counts, 1.0)), 0.0)
    candidates = nc.exp(s)
    if exclude is not None:
        candidates = candidates * Tensor(exclude)
    log_prob = s - nc.log(nc.sum_rows(candidates))
    weighted = log_prob * Tensor(positives) * Tensor(weights[:, None])
    return nc.sum_all(weighted) * -1.0


def scl_source(reps: Tensor, labels: np.ndarray, tau: float) -> Tensor:
    """Cluster same-label source events against the rest of the batch."""
    n = labels.shape[0]
    if n < 2:
        log.warning("source contrastive term skipped: batch of size %d", n)
        return Tensor(0.0)
    off_diag = 1.0 - np.eye(n)
    positives = (labels[:, None] == labels[None, :]).astype(np.float64) * off_diag
    return _supervised(similarity_matrix(reps, reps, tau), positives, off_diag)


def scl_cross(
    target_reps: Tensor, target_labels: np.ndarray, source_reps: Tensor, source_labels: np.ndarray, tau: float
) -> Tensor:
    """Pull each target event toward same-label source events.

    The denominator ranges over every source event in the batch; target
    anchors whose label is absent from the source batch contribute zero.
    """
    matches = (target_labels[:, None] == source_labels[None, :]).astype(np.float64)
    return _supervised(similarity_matrix(target_reps, source_reps, tau), matches, None)


def tcl(reps: Tensor, aug_reps: Tensor, tau: float, include_positive: bool = False) -> Tensor:
    """Identify each target event's augmented view (``aug_reps``) among the other views.

    As printed, the denominator holds the 2(n-1) views of the *other* events
    only, so the term can go negative; ``include_positive`` adds the
    anchor's own augmented view back for the standard normalized form.
    """
    n = reps.shape[0]
    if n < 2:
        log.warning("target-instance contrastive term skipped: batch of size %d", n)
        return Tensor(0.0)
    eye = np.eye(n)
    off_diag = 1.0 - eye

    s_orig = similarity_matrix(reps, reps, tau)
    s_aug = similarity_matrix(reps, aug_reps, tau)
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
