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

Each term is one tape node, and so is the average that ``joint`` returns. A
forward normalizes each input once. A backward does, element by element and
in the order a backward pass visits them, the arithmetic of the rules of the
same term composed of primitive tape ops (``tests/oracles.py``, which holds
those compositions and the primitives only they use), broadcasting where
those rules copied a broadcast gradient, and it hands each input one
``_accumulate`` per contribution those rules make, so values and gradients
match the composition byte for byte. Products stay in the layout the rules
gave them, since a row sum's rounding depends on it. Constants enter in the
active element type, as ``Tensor`` casts them. A node keeps only what its
backward reads:

- ``ce_from_probs``: the one-hot labels and the floored true-class
  probabilities with their floor mask;
- ``scl_source`` and ``scl_cross``: each input's unit rows and row norms,
  the exponentiated similarities and their row sums, the positive mask and
  the anchor weights (and the off-diagonal mask for ``scl_source``);
- ``tcl``: the unit rows and norms of both inputs, both exponentiated
  similarity matrices, the denominators, and the exponentiated positives
  under ``include_positive``;
- ``joint``: the blend weights.
"""

from __future__ import annotations

import logging
from typing import NamedTuple

import numpy as np

from . import numcore as nc
from .numcore import Tensor, as_tensor
from .numcore.tensor import _accumulate, _make, _unbroadcast

log = logging.getLogger(__name__)

PROB_FLOOR = 1e-12


class SimilarityError(ValueError):
    """Cosine similarity is undefined for a zero vector."""


def _constant(value) -> np.ndarray:
    """``value`` in the active element type, as ``Tensor`` casts a constant operand."""
    return np.asarray(value, dtype=nc.active_dtype())


# -- similarity ----------------------------------------------------------------


class _UnitRows(NamedTuple):
    """A tensor, its rows over their Euclidean norms, and the norms as a column."""

    x: Tensor
    rows: np.ndarray
    norms: np.ndarray


def _unit_rows(x) -> _UnitRows:
    x = as_tensor(x)
    norms_sq = (x.data * x.data).sum(axis=1, keepdims=True)
    if (norms_sq <= 0.0).any():
        raise SimilarityError("similarity of a zero vector is undefined")
    norms = np.sqrt(norms_sq)
    return _UnitRows(x, x.data / norms, norms)


def _accumulate_unit_rows(unit: _UnitRows, g: np.ndarray) -> None:
    """Pass ``g``, the gradient of ``unit.rows``, on to ``unit.x``.

    Three contributions, as the rules of the division, the square root, the
    row sum and the squaring made them.
    """
    x, norms = unit.x.data, unit.norms
    _accumulate(unit.x, g / norms)
    g_norms = _unbroadcast(-g * x / (norms * norms), norms.shape)
    g_squares = g_norms / (2.0 * norms) * x
    _accumulate(unit.x, g_squares)
    _accumulate(unit.x, g_squares)


def _accumulate_similarity(g_s: np.ndarray, scale: np.ndarray, a: _UnitRows, b: _UnitRows) -> None:
    """Pass the gradient of ``(a.rows @ b.rows.T) * scale`` on to ``b.x``, then to ``a.x``.

    The transposed right operand is the product's later parent, so a backward
    pass visits its normalization first.
    """
    g = g_s * scale
    if b.x.requires_grad:
        _accumulate_unit_rows(b, (a.rows.T @ g).T)
    if a.x.requires_grad:
        _accumulate_unit_rows(a, g @ b.rows)


# -- loss terms ------------------------------------------------------------------


def ce_from_probs(probs: Tensor, labels: np.ndarray) -> Tensor:
    """Mean negative log-probability of the true class, probabilities floored."""
    probs = as_tensor(probs)
    n, classes = probs.shape
    onehot = np.zeros((n, classes))
    onehot[np.arange(n), labels] = 1.0
    onehot, scale = _constant(onehot), _constant(-1.0 / n)
    p_true = (probs.data * onehot).sum(axis=1, keepdims=True)
    kept = p_true >= PROB_FLOOR
    floored = np.where(kept, p_true, PROB_FLOOR)
    value = np.asarray(np.log(floored).sum()) * scale

    def backward(g):
        g_true = g * scale / floored * kept
        _accumulate(probs, g_true * onehot)

    return _make(value, (probs,), backward)


def _supervised(s: np.ndarray, positives: np.ndarray, exclude: np.ndarray | None):
    """Supervised contrastive loss over the similarities ``s`` of anchors (rows) to candidates.

    Per anchor, the mean over its positives (the 0/1 mask ``positives``) of
    the log-probability of identifying each positive against the row's
    candidates, less those that ``exclude`` zeroes. Anchors without a
    positive contribute zero while the outer mean keeps dividing by the
    number of anchors. Returns the value and the rule that maps its upstream
    gradient to the gradient of ``s``.
    """
    n = positives.shape[0]
    pos_counts = positives.sum(axis=1)
    weights = np.where(pos_counts > 0, 1.0 / (n * np.maximum(pos_counts, 1.0)), 0.0)
    positives, weights, minus_one = _constant(positives), _constant(weights[:, None]), _constant(-1.0)
    if exclude is not None:
        exclude = _constant(exclude)
    candidates = np.exp(s)
    kept = candidates if exclude is None else candidates * exclude
    sums = kept.sum(axis=1, keepdims=True)
    weighted = (s + np.log(sums) * minus_one) * positives * weights
    value = np.asarray(weighted.sum()) * minus_one

    def grad_s(g):
        g_log_prob = g * minus_one * weights * positives
        g_sums = _unbroadcast(g_log_prob, sums.shape) * minus_one / sums
        g_kept = g_sums if exclude is None else g_sums * exclude
        return g_log_prob + g_kept * candidates

    return value, grad_s


def scl_source(reps: Tensor, labels: np.ndarray, tau: float) -> Tensor:
    """Cluster same-label source events against the rest of the batch."""
    n = labels.shape[0]
    if n < 2:
        log.warning("source contrastive term skipped: batch of size %d", n)
        return Tensor(0.0)
    scale = _constant(1.0 / tau)
    off_diag = 1.0 - np.eye(n)
    positives = (labels[:, None] == labels[None, :]).astype(np.float64) * off_diag
    unit = _unit_rows(reps)
    # a copy, as a product of a matrix with its own transpose would take BLAS's symmetric kernel
    value, grad_s = _supervised((unit.rows @ unit.rows.copy(order="K").T) * scale, positives, off_diag)

    def backward(g):
        _accumulate_similarity(grad_s(g), scale, unit, unit)

    return _make(value, (unit.x,), backward)


def scl_cross(
    target_reps: Tensor, target_labels: np.ndarray, source_reps: Tensor, source_labels: np.ndarray, tau: float
) -> Tensor:
    """Pull each target event toward same-label source events.

    The denominator ranges over every source event in the batch; target
    anchors whose label is absent from the source batch contribute zero.
    """
    scale = _constant(1.0 / tau)
    matches = (target_labels[:, None] == source_labels[None, :]).astype(np.float64)
    target, source = _unit_rows(target_reps), _unit_rows(source_reps)
    value, grad_s = _supervised((target.rows @ source.rows.T) * scale, matches, None)

    def backward(g):
        _accumulate_similarity(grad_s(g), scale, target, source)

    return _make(value, (target.x, source.x), backward)


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
    scale = _constant(1.0 / tau)
    eye = np.eye(n)
    eye, off_diag = _constant(eye), _constant(1.0 - eye)
    minus_one, mean = _constant(-1.0), _constant(-1.0 / n)

    orig, aug = _unit_rows(reps), _unit_rows(aug_reps)
    exp_orig = np.exp((orig.rows @ orig.rows.copy(order="K").T) * scale)
    s_aug = (orig.rows @ aug.rows.T) * scale
    exp_aug = np.exp(s_aug)
    pos = (s_aug * eye).sum(axis=1, keepdims=True)
    denom = (exp_orig * off_diag).sum(axis=1, keepdims=True) + (exp_aug * off_diag).sum(axis=1, keepdims=True)
    if include_positive:
        exp_pos = np.exp(pos)
        denom = denom + exp_pos
    per_anchor = pos + np.log(denom) * minus_one
    value = np.asarray(per_anchor.sum()) * mean

    def backward(g):
        g_pos = g * mean
        g_denom = g_pos * minus_one / denom
        if include_positive:
            g_pos = g_pos + g_denom * exp_pos
        g_aug = g_denom * off_diag * exp_aug
        # a backward pass reaches the denominator's rules, down to the inputs of
        # the target-target similarities, before the rules of the positives
        if orig.x.requires_grad:
            _accumulate_similarity(g_denom * off_diag * exp_orig, scale, orig, orig)
        g_aug = g_aug + g_pos * eye
        _accumulate_similarity(g_aug, scale, orig, aug)

    return _make(value, (orig.x, aug.x), backward)


def joint(
    ce_s: Tensor, scl_s: Tensor, ce_t: Tensor, scl_t: Tensor, tcl_t: Tensor, alpha: float
) -> tuple[Tensor, Tensor, Tensor]:
    """Blend classification and contrastive terms; returns (source, target, average).

    Only the average is taped; the per-domain losses are plain values.
    """
    terms = ce_s, scl_s, ce_t, scl_t, tcl_t = tuple(as_tensor(t) for t in (ce_s, scl_s, ce_t, scl_t, tcl_t))
    keep, weight, half = _constant(1.0 - alpha), _constant(alpha), _constant(0.5)
    loss_s = ce_s.data * keep + scl_s.data * weight
    loss_t = ce_t.data * keep + (scl_t.data + tcl_t.data) * weight

    def backward(g):
        # in the order a backward pass over the composed blend reaches the terms
        g = g * half
        g_contrastive = g * weight
        _accumulate(scl_t, g_contrastive)
        _accumulate(tcl_t, g_contrastive)
        _accumulate(ce_t, g * keep)
        _accumulate(scl_s, g * weight)
        _accumulate(ce_s, g * keep)

    return Tensor(loss_s), Tensor(loss_t), _make((loss_s + loss_t) * half, terms, backward)
