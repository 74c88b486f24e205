"""Direct-evaluation oracles the tests hold the vectorized code to.

The loss-term oracles for ``rumorgraph.objectives`` are plain Python over
scalar cosine similarities. ``ce_from_probs``, ``scl_source``,
``scl_cross``, ``tcl`` and ``joint`` are the same terms composed of
primitive tape ops, over ``similarity_matrix``, which normalizes each
operand on its own; each objective is one tape node and must reproduce
their values and gradients byte for byte. A composed term tapes every
intermediate: ``scl_source`` normalizes its input twice and ``tcl`` its
target input three times, and each normalization keeps its squares, row
sums, norms and unit rows, beside the similarity matrices, their
exponentials, masked copies and row sums, and one constant leaf per mask,
weight and scale.

The tape primitives that only these compositions and the gradient checks
use live here, each one node with its own backward rule: ``div``, ``exp``,
``log``, ``sqrt``, ``clamp_min``, ``transpose``, ``sum_all`` and
``sum_rows``, beside the encoder's ``relu``, ``spmm``, ``concat_cols`` and
``gather_rows``. A difference ``a - b`` is written ``add(a, mul(b, -1.0))``.

The propagation oracles build a graph's dense adjacency and its
normalization entry by entry; ``param_count`` is the model's closed-form
parameter count; ``tokenize_reference`` and ``hashed_embed_reference`` are
the character-loop tokenizer and the uncached signed-hashing embedding that
``rumorgraph.embed`` must match bit for bit; ``truncate_event`` rebuilds an
event from the posts a detection checkpoint keeps, which early detection's
prefixes of prepared events must match; ``layer_norm``, ``gather_rows``,
``segment_mean`` and ``adamw_step`` are the straightforward kernels
(``np.var``, ``np.add.at``, a mean per event, out-of-place moments at
``numcore.optim``'s fixed rates) whose bytes the in-place and
segment-summing ones in ``rumorgraph.numcore`` must reproduce;
``claim_layer_norm`` (``layer_norm`` of ``concat_cols`` and ``gather_rows``
of each segment's first row), ``graph_conv`` (``relu`` of ``add`` of
``spmm`` of ``matmul``, of ``float_mask`` with a keep mask) and ``backward``
are the encoder composition and tape walk that the fused claim residual, the
fused convolution with its boolean dropout mask and the backward pass that
frees interior gradients must match byte for byte. ``grad_wrt`` reads the
gradient at an interior node of the training tape by a full backward pass;
``augment.classification_gradients``, which runs the classifier head again
on a detached leaf, must match it byte for byte.
"""

import math
import re

import numpy as np

from rumorgraph.dataio import DatasetError, Event
from rumorgraph.model import ModelConfig
from rumorgraph.numcore import (
    AdamWState,
    NeighborOperator,
    Tensor,
    TrainingStepError,
    active_dtype,
    add,
    clear_grads,
    fnv1a64,
    matmul,
    mul,
)
from rumorgraph.numcore.optim import BETA1, BETA2, EPS
from rumorgraph.numcore.tensor import ShapeError, _accumulate, _make, _unbroadcast, as_tensor
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


def _normalize_rows(reps: Tensor) -> Tensor:
    norms_sq = sum_rows(reps * reps)
    if np.any(norms_sq.data <= 0.0):
        raise SimilarityError("similarity of a zero vector is undefined")
    return div(reps, sqrt(norms_sq))


def similarity_matrix(a: Tensor, b: Tensor, tau: float) -> Tensor:
    """Pairwise temperature-scaled cosine similarities, rows of a vs rows of b, as tape ops."""
    if tau <= 0:
        raise ValueError(f"temperature must be positive, got {tau}")
    return matmul(_normalize_rows(a), transpose(_normalize_rows(b))) * (1.0 / tau)


def ce_from_probs(probs: Tensor, labels: np.ndarray) -> Tensor:
    """``objectives.ce_from_probs`` as six tape nodes."""
    n, classes = probs.shape
    onehot = np.zeros((n, classes))
    onehot[np.arange(n), labels] = 1.0
    p_true = sum_rows(probs * Tensor(onehot))
    return sum_all(log(clamp_min(p_true, PROB_FLOOR))) * (-1.0 / n)


def scl_source(reps: Tensor, labels: np.ndarray, tau: float) -> Tensor:
    """``objectives.scl_source`` as tape ops, normalizing ``reps`` once per operand of the similarity."""
    n = len(labels)
    if n < 2:
        return Tensor(0.0)
    same = (labels[:, None] == labels[None, :]).astype(np.float64)
    off_diag = 1.0 - np.eye(n)
    positives = same * off_diag
    pos_counts = positives.sum(axis=1)
    weights = np.where(pos_counts > 0, 1.0 / (n * np.maximum(pos_counts, 1.0)), 0.0)

    s = similarity_matrix(reps, reps, tau)
    denom = sum_rows(exp(s) * Tensor(off_diag))
    log_prob = add(s, mul(log(denom), -1.0))
    weighted = log_prob * Tensor(positives) * Tensor(weights[:, None])
    return sum_all(weighted) * -1.0


def scl_cross(
    target_reps: Tensor, target_labels: np.ndarray, source_reps: Tensor, source_labels: np.ndarray, tau: float
) -> Tensor:
    """``objectives.scl_cross`` as tape ops."""
    n_t = len(target_labels)
    matches = (target_labels[:, None] == source_labels[None, :]).astype(np.float64)
    pos_counts = matches.sum(axis=1)
    weights = np.where(pos_counts > 0, 1.0 / (n_t * np.maximum(pos_counts, 1.0)), 0.0)

    s = similarity_matrix(target_reps, source_reps, tau)
    denom = sum_rows(exp(s))
    log_prob = add(s, mul(log(denom), -1.0))
    weighted = log_prob * Tensor(matches) * Tensor(weights[:, None])
    return sum_all(weighted) * -1.0


def tcl(reps: Tensor, aug_reps: Tensor, tau: float, include_positive: bool = False) -> Tensor:
    """``objectives.tcl`` as tape ops, normalizing ``reps`` three times and ``aug_reps`` once."""
    n = reps.shape[0]
    if n < 2:
        return Tensor(0.0)
    eye = np.eye(n)
    off_diag = 1.0 - eye

    s_orig = similarity_matrix(reps, reps, tau)
    s_aug = similarity_matrix(reps, aug_reps, tau)
    pos = sum_rows(s_aug * Tensor(eye))
    denom = sum_rows(exp(s_orig) * Tensor(off_diag)) + sum_rows(exp(s_aug) * Tensor(off_diag))
    if include_positive:
        denom = denom + exp(pos)
    per_anchor = add(pos, mul(log(denom), -1.0))
    return sum_all(per_anchor) * (-1.0 / n)


def joint(
    ce_s: Tensor, scl_s: Tensor, ce_t: Tensor, scl_t: Tensor, tcl_t: Tensor, alpha: float
) -> tuple[Tensor, Tensor, Tensor]:
    """``objectives.joint`` as tape ops, every returned loss taped."""
    loss_s = ce_s * (1.0 - alpha) + scl_s * alpha
    loss_t = ce_t * (1.0 - alpha) + (scl_t + tcl_t) * alpha
    return loss_s, loss_t, (loss_s + loss_t) * 0.5


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


def param_count(cfg: ModelConfig, classes: int = 2) -> int:
    """Closed-form number of trainable scalars of a head with ``classes`` outputs."""
    mid = cfg.d_hidden + cfg.d_in
    top = cfg.d_out + cfg.d_hidden
    return (
        cfg.d_in * cfg.d_hidden
        + cfg.d_hidden
        + 2 * mid
        + mid * cfg.d_out
        + cfg.d_out
        + 2 * top
        + top * classes
        + classes
    )


_CJK_RANGES = (
    (0x3400, 0x4DBF),
    (0x4E00, 0x9FFF),
    (0xF900, 0xFAFF),
)

_WORD_RE = re.compile(r"[0-9a-z]+")


def tokenize_reference(text: str) -> list[str]:
    """Lowercase, then a CJK codepoint stands alone and the text between splits into [0-9a-z] runs."""
    tokens: list[str] = []
    buffer: list[str] = []
    for ch in text.lower():
        if any(lo <= ord(ch) <= hi for lo, hi in _CJK_RANGES):
            if buffer:
                tokens.extend(_WORD_RE.findall("".join(buffer)))
                buffer.clear()
            tokens.append(ch)
        else:
            buffer.append(ch)
    if buffer:
        tokens.extend(_WORD_RE.findall("".join(buffer)))
    return tokens


def hashed_embed_reference(text: str, dim: int) -> np.ndarray:
    """Each token adds its sign (hash bit 63) to bucket fnv1a(token) mod dim; then L2-normalize."""
    vec = np.zeros(dim, dtype=np.float64)
    for token in tokenize_reference(text):
        h = fnv1a64(token.encode("utf-8"))
        sign = -1.0 if (h >> 63) & 1 else 1.0
        vec[h % dim] += sign
    norm = np.linalg.norm(vec)
    if norm > 0.0:
        vec /= norm
    return vec


def truncate_event(event: Event, mode: str, value: float) -> Event:
    """Restrict an event to the content available at a detection checkpoint.

    elapsed_time keeps replies posted no later than ``value`` seconds after
    the claim; post_count keeps the first ``value`` posts in sorted order
    (the claim counts). The claim itself always survives.
    """
    if value <= 0:
        raise DatasetError(f"checkpoint value must be positive, got {value}")
    if mode == "elapsed_time":
        kept = [event.posts[0]] + [p for p in event.posts[1:] if p.timestamp <= value]
    elif mode == "post_count":
        count = len(event.posts) if math.isinf(value) else int(value)
        kept = list(event.posts[:count])
    else:
        raise DatasetError(f"unknown checkpoint mode {mode!r}")
    if len(kept) == len(event.posts):
        return event
    return Event(event_id=event.event_id, label=event.label, posts=tuple(kept))


def layer_norm(x, gain, bias, eps: float) -> Tensor:
    """Row-wise standardization (population variance, eps under the root),
    then an affine map by ``gain`` and ``bias`` shared across rows."""
    x, gain, bias = as_tensor(x), as_tensor(gain), as_tensor(bias)
    d = x.data.shape[-1]
    if gain.data.shape != (d,) or bias.data.shape != (d,):
        raise ShapeError(f"affine shapes {gain.data.shape}/{bias.data.shape} do not match width {d}")
    mean = x.data.mean(axis=1, keepdims=True)
    var = x.data.var(axis=1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    normalized = (x.data - mean) * inv_std
    data = normalized * gain.data + bias.data

    def backward(g):
        _accumulate(gain, (g * normalized).sum(axis=0))
        _accumulate(bias, g.sum(axis=0))
        gx_hat = g * gain.data
        term = gx_hat - gx_hat.mean(axis=1, keepdims=True)
        term -= normalized * (gx_hat * normalized).mean(axis=1, keepdims=True)
        _accumulate(x, term * inv_std)

    return _make(data, (x, gain, bias), backward)


def gather_rows(x, indices: np.ndarray) -> Tensor:
    """Select rows ``x[indices]``; repeated indices accumulate gradient."""
    x = as_tensor(x)
    idx = np.asarray(indices, dtype=np.intp)
    data = x.data[idx]

    def backward(g):
        full = np.zeros_like(x.data)
        np.add.at(full, idx, g)
        _accumulate(x, full)

    return _make(data, (x,), backward)


def concat_cols(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.data.shape[0] != b.data.shape[0]:
        raise ShapeError(f"row counts differ: {a.data.shape} vs {b.data.shape}")
    split = a.data.shape[1]
    data = np.concatenate([a.data, b.data], axis=1)

    def backward(g):
        _accumulate(a, g[:, :split])
        _accumulate(b, g[:, split:])

    return _make(data, (a, b), backward)


def claim_layer_norm(h, source, sizes, gain, bias, eps: float) -> Tensor:
    """``numcore.layer_norm`` as three tape nodes: gather each segment's first row, concatenate, normalize."""
    sizes = np.asarray(sizes, dtype=np.intp)
    claims = np.repeat(np.cumsum(sizes) - sizes, sizes)
    return layer_norm(concat_cols(h, gather_rows(source, claims)), gain, bias, eps)


def segment_mean(x, sizes) -> Tensor:
    """Mean over consecutive row segments, one ``np.mean`` per segment forward and one slice each backward."""
    x = as_tensor(x)
    sizes = list(sizes)
    offsets = np.cumsum([0] + sizes)
    data = np.empty((len(sizes), x.data.shape[1]), dtype=x.data.dtype)
    for i, n in enumerate(sizes):
        data[i] = x.data[offsets[i] : offsets[i + 1]].mean(axis=0)

    def backward(g):
        full = np.empty_like(x.data)
        for i, n in enumerate(sizes):
            full[offsets[i] : offsets[i + 1]] = g[i] / n
        _accumulate(x, full)

    return _make(data, (x,), backward)


def spmm(op: NeighborOperator, y) -> Tensor:
    """Product ``op @ y`` with a constant operator; ``op`` is symmetric, so the backward applies it again.
    ``op.apply`` consumes its operand, so it gets copies of ``y``'s value and of ``g``."""
    y = as_tensor(y)
    data = op.apply(y.data.copy())

    def backward(g):
        _accumulate(y, op.apply(g.copy()))

    return _make(data, (y,), backward)


def relu(x) -> Tensor:
    x = as_tensor(x)
    mask = x.data > 0.0
    data = np.where(mask, x.data, 0.0)

    def backward(g):
        _accumulate(x, g * mask)

    return _make(data, (x,), backward)


def div(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    data = a.data / b.data

    def backward(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g / b.data, a.data.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(-g * a.data / (b.data * b.data), b.data.shape))

    return _make(data, (a, b), backward)


def exp(x) -> Tensor:
    x = as_tensor(x)
    data = np.exp(x.data)

    def backward(g):
        _accumulate(x, g * data)

    return _make(data, (x,), backward)


def log(x) -> Tensor:
    x = as_tensor(x)
    data = np.log(x.data)

    def backward(g):
        _accumulate(x, g / x.data)

    return _make(data, (x,), backward)


def sqrt(x) -> Tensor:
    x = as_tensor(x)
    data = np.sqrt(x.data)

    def backward(g):
        _accumulate(x, g / (2.0 * data))

    return _make(data, (x,), backward)


def clamp_min(x, floor: float) -> Tensor:
    x = as_tensor(x)
    mask = x.data >= floor
    data = np.where(mask, x.data, floor)

    def backward(g):
        _accumulate(x, g * mask)

    return _make(data, (x,), backward)


def transpose(x) -> Tensor:
    x = as_tensor(x)
    data = x.data.T

    def backward(g):
        _accumulate(x, g.T)

    return _make(data, (x,), backward)


def sum_all(x) -> Tensor:
    x = as_tensor(x)
    data = np.asarray(x.data.sum())

    def backward(g):
        _accumulate(x, np.broadcast_to(g, x.data.shape).copy())

    return _make(data, (x,), backward)


def sum_rows(x) -> Tensor:
    """Row sums with keepdims: (n, d) -> (n, 1)."""
    x = as_tensor(x)
    data = x.data.sum(axis=1, keepdims=True)

    def backward(g):
        _accumulate(x, np.broadcast_to(g, x.data.shape).copy())

    return _make(data, (x,), backward)


def graph_conv(op: NeighborOperator, x, w, b, keep: np.ndarray | None = None) -> Tensor:
    """``numcore.graph_conv`` as four tape nodes, ``relu(op @ (x @ w) + b)``, after a ``float_mask`` node given ``keep``."""
    x = x if keep is None else float_mask(x, keep)
    return relu(add(spmm(op, matmul(x, w)), b))


def float_mask(x, keep: np.ndarray) -> Tensor:
    """``x`` times a boolean mask cast to the active element type, as a constant tape leaf."""
    return x * Tensor(keep.astype(active_dtype()))


def backward(root: Tensor) -> list[Tensor]:
    """``Tensor.backward`` that leaves every node's gradient in place."""
    order = root._topo_order()
    root.grad = np.ones_like(root.data)
    for node in reversed(order):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)
    return order


def grad_wrt(loss: Tensor, target: Tensor) -> np.ndarray:
    """The gradient of a scalar ``loss`` at ``target`` by a full backward pass; clears what it set."""
    visited = backward(loss)
    grad = np.zeros_like(target.data) if target.grad is None else target.grad.copy()
    clear_grads(visited)
    return grad


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
        m *= BETA1
        m += (1.0 - BETA1) * grad
        v *= BETA2
        v += (1.0 - BETA2) * grad * grad
        m_hat = m / bias1
        v_hat = v / bias2
        param.data -= state.learning_rate * m_hat / (np.sqrt(v_hat) + EPS)
        param.data -= state.learning_rate * state.weight_decay * param.data
    return state
