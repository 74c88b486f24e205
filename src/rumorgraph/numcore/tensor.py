"""Dense tensors with a reverse-mode differentiation tape.

Tensors wrap numpy arrays. Operations executed while gradients are enabled
record themselves on an implicit tape (each result keeps its parents and a
local gradient rule); ``Tensor.backward`` replays the tape in reverse
topological order exactly once per node. The visit order is a pure function
of graph structure, so gradients are bitwise reproducible run to run.

Float64 is the default element type; float32 can be selected for faster
experiment runs, inside a ``precision`` block or process-wide with
``set_precision`` (gradient checks require float64).
"""

from __future__ import annotations

import contextlib
from typing import Callable, Iterable, Sequence

import numpy as np


class ShapeError(ValueError):
    """Operand shapes are incompatible with the requested operation."""


_DTYPE = np.float64
_GRAD_ENABLED = True

_PRECISION_NAMES = {"f32": np.float32, "f64": np.float64}


def set_precision(name: str) -> None:
    """Select the global element type: "f64" (default) or "f32"."""
    global _DTYPE
    if name not in _PRECISION_NAMES:
        raise ValueError(f"unknown precision {name!r}; expected one of {sorted(_PRECISION_NAMES)}")
    _DTYPE = _PRECISION_NAMES[name]


def active_dtype() -> np.dtype:
    return np.dtype(_DTYPE)


@contextlib.contextmanager
def precision(name: str):
    """Select the element type inside the block, restoring the previous one on exit."""
    global _DTYPE
    previous = _DTYPE
    set_precision(name)
    try:
        yield
    finally:
        _DTYPE = previous


@contextlib.contextmanager
def no_grad():
    """Disable tape recording inside the block (evaluation-mode forwards)."""
    global _GRAD_ENABLED
    previous = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = previous


class Tensor:
    """A numpy array plus optional tape bookkeeping."""

    __slots__ = ("data", "grad", "requires_grad", "name", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False, name: str = ""):
        self.data = np.asarray(data, dtype=_DTYPE)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self.name = name
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], None] | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        label = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad}{label})"

    # -- graph walking ------------------------------------------------------

    def _topo_order(self) -> list["Tensor"]:
        # Iterative DFS; visit order depends only on the parent structure,
        # never on object identity, so replays are bit-reproducible.
        order: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in reversed(node._parents):
                if id(parent) not in visited:
                    stack.append((parent, False))
        return order

    def backward(self) -> list["Tensor"]:
        """Accumulate gradients of ``self`` into every reachable node.

        Returns the visited nodes so callers can clear their ``grad`` fields
        afterwards (see :func:`clear_grads`).
        """
        order = self._topo_order()
        self.grad = np.ones_like(self.data)
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
        return order

    # -- operator sugar -----------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return add(self, mul(other, -1.0))

    def __rsub__(self, other):
        return add(other, mul(self, -1.0))

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __truediv__(self, other):
        return div(self, other)

    def __neg__(self):
        return mul(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)


def as_tensor(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def parameter(data, name: str) -> Tensor:
    return Tensor(data, requires_grad=True, name=name)


def clear_grads(nodes: Iterable[Tensor]) -> None:
    for node in nodes:
        node.grad = None


def grad_wrt(loss: Tensor, target: Tensor) -> np.ndarray:
    """Gradient of a scalar ``loss`` with respect to ``target``.

    Runs a private backward pass and clears every gradient it touched, so the
    surrounding training step sees pristine state afterwards.
    """
    visited = loss.backward()
    grad = np.zeros_like(target.data) if target.grad is None else target.grad.copy()
    clear_grads(visited)
    return grad


# -- primitive construction helpers ----------------------------------------


def _make(data: np.ndarray, parents: Sequence[Tensor], backward: Callable) -> Tensor:
    out = Tensor(data)
    if _GRAD_ENABLED and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to the original operand shape."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


def _accumulate(node: Tensor, grad: np.ndarray) -> None:
    if not node.requires_grad:
        return
    node.grad = grad if node.grad is None else node.grad + grad


# -- elementwise and broadcast arithmetic -----------------------------------


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    data = a.data + b.data

    def backward(g):
        _accumulate(a, _unbroadcast(g, a.data.shape))
        _accumulate(b, _unbroadcast(g, b.data.shape))

    return _make(data, (a, b), backward)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    data = a.data * b.data

    def backward(g):
        _accumulate(a, _unbroadcast(g * b.data, a.data.shape))
        _accumulate(b, _unbroadcast(g * a.data, b.data.shape))

    return _make(data, (a, b), backward)


def div(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    data = a.data / b.data

    def backward(g):
        _accumulate(a, _unbroadcast(g / b.data, a.data.shape))
        _accumulate(b, _unbroadcast(-g * a.data / (b.data * b.data), b.data.shape))

    return _make(data, (a, b), backward)


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise ShapeError(f"cannot multiply shapes {a.data.shape} and {b.data.shape}")
    data = a.data @ b.data

    def backward(g):
        _accumulate(a, g @ b.data.T)
        _accumulate(b, a.data.T @ g)

    return _make(data, (a, b), backward)


def relu(x) -> Tensor:
    x = as_tensor(x)
    mask = x.data > 0.0
    data = np.where(mask, x.data, 0.0)

    def backward(g):
        _accumulate(x, g * mask)

    return _make(data, (x,), backward)


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


# -- structural ops ----------------------------------------------------------


def transpose(x) -> Tensor:
    x = as_tensor(x)
    data = x.data.T

    def backward(g):
        _accumulate(x, g.T)

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


def concat_rows(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.data.shape[1:] != b.data.shape[1:]:
        raise ShapeError(f"column counts differ: {a.data.shape} vs {b.data.shape}")
    split = a.data.shape[0]
    data = np.concatenate([a.data, b.data], axis=0)

    def backward(g):
        _accumulate(a, g[:split])
        _accumulate(b, g[split:])

    return _make(data, (a, b), backward)


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


def segment_mean(x, sizes: Sequence[int]) -> Tensor:
    """Mean over consecutive row segments: (sum(sizes), d) -> (len(sizes), d)."""
    x = as_tensor(x)
    sizes = list(sizes)
    if sum(sizes) != x.data.shape[0]:
        raise ShapeError(f"segment sizes {sizes} do not cover {x.data.shape[0]} rows")
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


def softmax_rows(x) -> Tensor:
    x = as_tensor(x)
    shifted = x.data - x.data.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    data = e / e.sum(axis=1, keepdims=True)

    def backward(g):
        inner = (g * data).sum(axis=1, keepdims=True)
        _accumulate(x, data * (g - inner))

    return _make(data, (x,), backward)


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


# -- initialization ----------------------------------------------------------


def glorot_init(shape: tuple[int, int], gen: np.random.Generator, name: str = "") -> Tensor:
    """Uniform(-b, b) weight matrix with b = sqrt(6 / (fan_in + fan_out))."""
    if len(shape) != 2:
        raise ShapeError(f"glorot_init expects a 2-D shape, got {shape}")
    bound = np.sqrt(6.0 / (shape[0] + shape[1]))
    values = gen.uniform(-bound, bound, size=shape)
    return parameter(np.asarray(values, dtype=_DTYPE), name)
