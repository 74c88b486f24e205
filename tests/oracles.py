"""Direct-evaluation oracles the tests hold the vectorized code to.

The loss-term oracles for ``rumorgraph.objectives`` are plain Python over
scalar cosine similarities; the propagation oracles build a graph's dense
adjacency and its normalization entry by entry; ``param_count`` is the
model's closed-form parameter count.
"""

import math

import numpy as np

from rumorgraph.model import ModelConfig
from rumorgraph.objectives import PROB_FLOOR, SimilarityError
from rumorgraph.propagation import PropagationGraph


def sim(u: np.ndarray, v: np.ndarray, tau: float) -> float:
    """Temperature-scaled cosine similarity of two vectors."""
    if tau <= 0:
        raise ValueError(f"temperature must be positive, got {tau}")
    u = np.asarray(u, dtype=np.float64).reshape(-1)
    v = np.asarray(v, dtype=np.float64).reshape(-1)
    nu, nv = np.linalg.norm(u), np.linalg.norm(v)
    if nu == 0.0 or nv == 0.0:
        raise SimilarityError("similarity of a zero vector is undefined")
    return float(u @ v / (nu * nv * tau))


def ce_reference(probs: np.ndarray, labels: np.ndarray) -> float:
    total = 0.0
    for p_row, label in zip(probs, labels):
        total += -math.log(max(float(p_row[label]), PROB_FLOOR))
    return total / len(labels)


def scl_source_reference(reps: np.ndarray, labels: np.ndarray, tau: float) -> float:
    n = len(labels)
    if n < 2:
        return 0.0
    total = 0.0
    for i in range(n):
        positives = [j for j in range(n) if j != i and labels[j] == labels[i]]
        if not positives:
            continue
        denom = sum(math.exp(sim(reps[i], reps[k], tau)) for k in range(n) if k != i)
        inner = 0.0
        for j in positives:
            inner += -math.log(math.exp(sim(reps[i], reps[j], tau)) / denom)
        total += inner / len(positives)
    return total / n


def scl_cross_reference(
    reps_t: np.ndarray, labels_t: np.ndarray, reps_s: np.ndarray, labels_s: np.ndarray, tau: float
) -> float:
    n_t, n_s = len(labels_t), len(labels_s)
    total = 0.0
    for i in range(n_t):
        positives = [j for j in range(n_s) if labels_s[j] == labels_t[i]]
        if not positives:
            continue
        denom = sum(math.exp(sim(reps_t[i], reps_s[k], tau)) for k in range(n_s))
        inner = 0.0
        for j in positives:
            inner += -math.log(math.exp(sim(reps_t[i], reps_s[j], tau)) / denom)
        total += inner / len(positives)
    return total / n_t


def tcl_reference(
    reps: np.ndarray, aug: np.ndarray, tau: float, include_positive: bool = False
) -> float:
    n = len(reps)
    if n < 2:
        return 0.0
    total = 0.0
    for i in range(n):
        denom = 0.0
        for k in range(n):
            if k == i:
                continue
            denom += math.exp(sim(reps[i], reps[k], tau))
            denom += math.exp(sim(reps[i], aug[k], tau))
        if include_positive:
            denom += math.exp(sim(reps[i], aug[i], tau))
        total += -math.log(math.exp(sim(reps[i], aug[i], tau)) / denom)
    return total / n


def joint_reference(
    ce_s: float, scl_s: float, ce_t: float, scl_t: float, tcl_t: float, alpha: float
) -> tuple[float, float, float]:
    loss_s = (1.0 - alpha) * ce_s + alpha * scl_s
    loss_t = (1.0 - alpha) * ce_t + alpha * (scl_t + tcl_t)
    return loss_s, loss_t, 0.5 * (loss_s + loss_t)


def dense_adjacency(graph: PropagationGraph) -> np.ndarray:
    """0/1 adjacency with unit diagonal: a self-loop plus both directions of each edge."""
    a = np.eye(graph.n)
    for i, j in graph.edges:
        a[i, j] = 1.0
        a[j, i] = 1.0
    return a


def normalized_reference(adjacency: np.ndarray) -> np.ndarray:
    # double-loop direct evaluation of A[i][j] / sqrt(d_i d_j)
    n = adjacency.shape[0]
    degrees = [sum(adjacency[i]) for i in range(n)]
    out = np.zeros_like(adjacency, dtype=np.float64)
    for i in range(n):
        for j in range(n):
            out[i, j] = adjacency[i, j] / np.sqrt(degrees[i] * degrees[j])
    return out


def param_count(cfg: ModelConfig) -> int:
    """Closed-form number of trainable scalars."""
    mid = cfg.d_hidden + cfg.d_in
    top = cfg.d_out + cfg.d_hidden
    return (
        cfg.d_in * cfg.d_hidden
        + cfg.d_hidden
        + 2 * mid
        + mid * cfg.d_out
        + cfg.d_out
        + 2 * top
        + top * cfg.classes
        + cfg.classes
    )
