"""AdamW: bias-corrected Adam moments followed by decoupled weight decay.

The moment decay rates and the denominator's epsilon are fixed at
beta1 = 0.9, beta2 = 0.999 and eps = 1e-8; a run sets only the learning rate
and the weight decay.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .tensor import Tensor

BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


class TrainingStepError(RuntimeError):
    """A parameter update could not be applied (e.g. non-finite gradient)."""


@dataclass
class AdamWState:
    learning_rate: float
    weight_decay: float = 0.0
    step_count: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def adamw_step(state: AdamWState, params: dict[str, Tensor], grads: dict[str, np.ndarray]) -> AdamWState:
    """Apply one update in place; raises if any gradient is non-finite."""
    for name, grad in grads.items():
        if not np.all(np.isfinite(grad)):
            raise TrainingStepError(f"non-finite gradient for parameter {name!r}")
        if params[name].data.shape != grad.shape:
            raise TrainingStepError(
                f"gradient shape {grad.shape} does not match parameter {name!r} "
                f"shape {params[name].data.shape}"
            )

    state.step_count += 1
    t = state.step_count
    bias1 = 1.0 - BETA1 ** t
    bias2 = 1.0 - BETA2 ** t
    for name, param in params.items():
        grad = grads[name]
        if name not in state.m:
            state.m[name] = np.zeros_like(param.data)
            state.v[name] = np.zeros_like(param.data)
        m = state.m[name]
        v = state.v[name]
        # in place, with the operations and order of m = beta1 m + (1 - beta1) g,
        # v = beta2 v + ((1 - beta2) g) g, p -= (lr m_hat) / (sqrt(v_hat) + eps)
        # and p -= (lr wd) p; the decay runs even at wd = 0, where it turns -0.0 into +0.0
        step = (1.0 - BETA1) * grad
        m *= BETA1
        m += step
        np.multiply(1.0 - BETA2, grad, out=step)
        step *= grad
        v *= BETA2
        v += step
        denom = v / bias2
        np.sqrt(denom, out=denom)
        denom += EPS
        np.divide(m, bias1, out=step)
        step *= state.learning_rate
        step /= denom
        param.data -= step
        np.multiply(state.learning_rate * state.weight_decay, param.data, out=step)
        param.data -= step
    return state
