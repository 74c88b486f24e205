"""Central-difference gradient estimation, the oracle for every backward rule."""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from rumorgraph.numcore import Tensor


def finite_diff_grad(loss_fn: Callable[[], float], params: Sequence[Tensor], h: float = 1e-5) -> list[np.ndarray]:
    """Estimate d loss / d param by (L(p+h) - L(p-h)) / (2h) per coordinate.

    ``loss_fn`` must be deterministic between calls (freeze any stochastic
    masks before checking). Parameter data is perturbed in place and restored.
    """
    grads = []
    for param in params:
        flat = param.data.reshape(-1)
        grad = np.zeros_like(flat)
        for i in range(flat.size):
            original = flat[i]
            flat[i] = original + h
            plus = loss_fn()
            flat[i] = original - h
            minus = loss_fn()
            flat[i] = original
            grad[i] = (plus - minus) / (2.0 * h)
        grads.append(grad.reshape(param.data.shape))
    return grads


def relative_error(analytic: np.ndarray, numeric: np.ndarray, floor: float = 1e-12) -> float:
    """Norm-based relative disagreement between two gradient estimates."""
    diff = np.linalg.norm(analytic - numeric)
    scale = max(np.linalg.norm(numeric), np.linalg.norm(analytic), floor)
    return float(diff / scale)
