"""Direct-summation oracles for the loss terms in ``rumorgraph.objectives``.

Each oracle is plain Python over scalar cosine similarities; the tests hold
the vectorized implementations to them.
"""

import math

import numpy as np

from rumorgraph.objectives import PROB_FLOOR, SimilarityError


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
