"""Dense tensors with a reverse-mode differentiation tape.

Tensors wrap numpy arrays. Operations executed while gradients are enabled
record themselves on an implicit tape (each result keeps its parents and a
local gradient rule); ``Tensor.backward`` replays the tape in reverse
topological order exactly once per node. The visit order is a pure function
of graph structure, so gradients are bitwise reproducible run to run.
``graph_conv`` is a whole graph-convolution layer over a constant sparse
symmetric ``NeighborOperator``, taped as one node; ``keep_mask`` draws its
boolean dropout operand a block of rows at a time. ``layer_norm`` and
``segment_mean`` see their rows as consecutive segments given by the
segment sizes alone (a segment's first row is its claim), and both sum
segments with one kernel, ``_segment_sums``, which adds each segment's rows
in order, one reduce per segment.

``Tensor.backward`` drops each interior node's gradient as soon as its rule
has passed it on, and with it the rule and the rebuild (see below) and every
array their closures keep: every consumer's rule runs before its operand's,
so nothing reads them again. Only leaves (nodes without a rule, such as
parameters) hold a gradient afterwards, and a tape is replayed once. To read
the gradient at an interior value, run the ops above it again on a leaf
holding that value.

A backward rule skips the gradient product of an operand that needs no
gradient. It writes in place only into buffers it has just allocated, never
into its upstream gradient ``g``, an operand's ``.data`` or an array its
closure keeps (``layer_norm``'s normalized columns and row statistics,
``graph_conv``'s mask, ``softmax_rows``'s output): ``_unbroadcast`` can
return ``g`` itself, so a node's ``grad`` may alias its parent's. A forward
kernel may likewise overwrite a buffer it has just allocated once nothing
will read it again: ``layer_norm`` normalizes and maps its rows in place in
its output buffer, and copies out what its rule reads first, and
``graph_conv``'s relu writes +0.0 with ``np.fmax`` and ``+= 0.0``.
``NeighborOperator.apply`` consumes its operand, scaling it in place, so
``graph_conv`` hands it only buffers of its own (its product, its masked
gradient). Whether a call is taped is decided by ``_taped``, the one test
``_make`` also applies, so ``layer_norm`` keeps those copies, and
``graph_conv`` forms its mask, exactly when a rule will read them. One
forward writes into an operand's value: ``graph_conv`` masks an operand that
has a rebuild in place and drops it. That is safe: the value is its own
buffer, each rule forms it again, and a later read raises.

A taped node keeps its output's value and what its rule reads: ``graph_conv``
its relu mask, ``layer_norm`` the normalized columns of ``h``, each
segment's claim row of ``source`` and each row's mean and inverse standard
deviation, ``softmax_rows`` its output, ``segment_mean`` nothing but the
segment sizes. Neither ``graph_conv``'s nor ``layer_norm``'s rule reads its
own output, and neither ``layer_norm``'s rule nor its rebuild reads the
values of ``h`` and ``source``, so once every consumer of such a value has
run forward, the caller may ``drop`` it, as the model does. A ``graph_conv``
rule forms its input again from its rebuild: a ``layer_norm`` output from
what the ``layer_norm`` keeps, a ``recomputable`` constant by its maker.
Reading a dropped value raises ``DroppedValueError``, never a stale one.

``Tensor.__init__`` is the one place that casts to the active element type:
float64 by default, float32 inside a ``precision`` block for faster
experiment runs (gradient checks require float64). ``set_precision``
selects it process-wide; only that block and the benchmark harness call it.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Iterable, Sequence

import numpy as np


class ShapeError(ValueError):
    """Operand shapes are incompatible with the requested operation."""


class DroppedValueError(RuntimeError):
    """Something read the value of a tensor after ``drop`` let it go."""


_DTYPE = np.float64
_GRAD_ENABLED = True
# rows of one layer_norm or keep_mask block: a block and its scratch stay in a core's L2 cache
_BLOCK_BYTES = 256 * 1024
# the largest integer numpy takes as an array dimension or a Generator bound
INT64_MAX = 2**63 - 1

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

    __slots__ = ("data", "grad", "requires_grad", "name", "_parents", "_backward", "_rebuild")

    def __init__(self, data, requires_grad: bool = False, name: str = ""):
        self.data = np.asarray(data, dtype=_DTYPE)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self.name = name
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], None] | None = None
        # forms the value again in a fresh array, for a rule that reads it after ``drop``
        self._rebuild: Callable[[], np.ndarray] | None = None

    def __getattr__(self, name: str):
        # reached only for a name with no value: every slot but ``data`` is set in __init__
        if name == "data":
            raise DroppedValueError("read the value of a tensor that was dropped once its consumers had run")
        raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")

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
        """Accumulate gradients of ``self`` into every reachable leaf.

        Runs each rule once, in reverse topological order, from a unit
        gradient at ``self``. An interior node's ``grad``, rule and rebuild
        are dropped right after its rule has run, so afterwards only leaves
        (nodes without a rule, such as parameters) hold a gradient. Returns the visited nodes
        so callers can clear those fields afterwards (see :func:`clear_grads`).
        """
        order = self._topo_order()
        self.grad = np.ones_like(self.data)
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                grad, node.grad = node.grad, None
                node._backward(grad)
                # every consumer's rule ran before this one, so nothing reads the rebuild again
                node._backward = node._rebuild = None
        return order

    # -- operator sugar -----------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    def __mul__(self, other):
        return mul(self, other)


def as_tensor(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def parameter(data, name: str) -> Tensor:
    return Tensor(data, requires_grad=True, name=name)


def clear_grads(nodes: Iterable[Tensor]) -> None:
    for node in nodes:
        node.grad = None


def drop(*tensors: Tensor) -> None:
    """Let go of the value of each tensor once every op that reads it has run forward.

    Call it only for values no backward rule reads, or ones with a rebuild
    (``layer_norm``'s output, which ``graph_conv``'s backward forms again); a
    later read raises ``DroppedValueError``. One already dropped stays so.
    """
    for t in tensors:
        with contextlib.suppress(AttributeError):  # already dropped
            del t.data


def recomputable(form: Callable[[], np.ndarray]) -> Tensor:
    """A constant holding ``form()``, a fresh array on each call, that a rule forms again by calling ``form``."""
    out = Tensor(form())
    out._rebuild = form
    return out


# -- primitive construction helpers ----------------------------------------


def _taped(parents: Sequence[Tensor]) -> bool:
    """Whether an op on ``parents`` is recorded: gradients are enabled and one of them needs one."""
    return _GRAD_ENABLED and any(p.requires_grad for p in parents)


def _make(data: np.ndarray, parents: Sequence[Tensor], backward: Callable) -> Tensor:
    out = Tensor(data)
    if _taped(parents):
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
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g, a.data.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(g, b.data.shape))

    return _make(data, (a, b), backward)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    data = a.data * b.data

    def backward(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(g * a.data, b.data.shape))

    return _make(data, (a, b), backward)


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise ShapeError(f"cannot multiply shapes {a.data.shape} and {b.data.shape}")
    data = a.data @ b.data

    def backward(g):
        if a.requires_grad:
            _accumulate(a, g @ b.data.T)
        if b.requires_grad:
            _accumulate(b, a.data.T @ g)

    return _make(data, (a, b), backward)


class NeighborOperator:
    """The normalized adjacency D^{-1/2} A D^{-1/2} of its entries, A a 0/1 matrix kept as neighbor lists.

    ``rows`` and ``cols`` index A's nonzero entries among ``n`` nodes, both
    (i, j) and (j, i) for every off-diagonal pair, and every node needs one
    (the model gives each a self-loop): ``scale`` is D^{-1/2} of the row
    counts. Rows are grouped by their entry count, and each group stores its
    rows and a (count, rows) array of their neighbor columns in ascending
    order, so a product costs one gather-and-sum per distinct count and
    memory linear in the entries. Summing the gathered (count, rows, width)
    block over its leading axis adds whole slabs, keeping each group's fixed cost low.
    """

    __slots__ = ("scale", "groups")

    def __init__(self, n: int, rows: np.ndarray, cols: np.ndarray):
        counts = np.bincount(rows, minlength=n)
        starts = np.cumsum(counts) - counts
        neighbors = cols[np.lexsort((cols, rows))]
        self.scale = 1.0 / np.sqrt(counts)
        self.groups = []
        for count in np.unique(counts):
            members = np.flatnonzero(counts == count)
            self.groups.append((members, neighbors[starts[members] + np.arange(count)[:, None]]))

    @property
    def nbytes(self) -> int:
        """Bytes held by the scale and the index arrays."""
        return self.scale.nbytes + sum(members.nbytes + cols.nbytes for members, cols in self.groups)

    def apply(self, y: np.ndarray) -> np.ndarray:
        """``diag(s) A diag(s) @ y`` in the dtype of ``y``, which it consumes: ``y`` takes ``diag(s)`` in place."""
        if y.ndim != 2 or y.shape[0] != len(self.scale):
            raise ShapeError(f"cannot apply a {len(self.scale)}-row operator to shape {y.shape}")
        scale = self.scale.astype(y.dtype, copy=False)[:, None]
        y *= scale
        out = np.empty_like(y)
        for members, cols in self.groups:
            out[members] = y[cols].sum(axis=0)
        out *= scale
        return out


def keep_mask(gen: np.random.Generator, shape: tuple[int, int], rate: float) -> np.ndarray:
    """The boolean mask ``gen.random(shape) >= rate``, drawn a block of rows at a time.

    The blocks consume ``gen``'s stream in the same order as one whole draw,
    so mask and generator state match it bit for bit, without a whole
    ``shape`` array of doubles.
    """
    n, d = shape
    step = max(1, _BLOCK_BYTES // (d * 8))
    keep = np.empty(shape, dtype=bool)
    block = np.empty((min(step, n), d))
    for start in range(0, n, step):
        draws = gen.random(out=block[: min(step, n - start)])
        np.greater_equal(draws, rate, out=keep[start : start + step])
    return keep


def graph_conv(op: NeighborOperator, x, w, b, keep: np.ndarray | None = None) -> Tensor:
    """One graph-convolution layer ``relu(op @ (x @ w) + b)``; ``op`` is constant and symmetric, ``b`` one row.

    A boolean ``keep`` shaped like ``x`` convolves ``x * keep`` instead, masking ``x``'s own value
    and dropping ``x`` when ``x`` has a rebuild. One tape node keeps only the output and the relu
    mask, formed only when taped; backward forms ``x * keep`` again, from ``x``'s rebuild in one
    fresh buffer when ``x`` has one, and lets it go before it forms ``x``'s gradient, which takes the
    mask in place, so the two ``x``-shaped buffers never coexist. It runs the numpy operations of
    ``mul`` by ``keep``, ``matmul``, ``op.apply``, ``add`` and a relu (in place, the bits of
    ``np.where(pre > 0.0, pre, 0.0)``) in order, so values and gradients match those five ops' bit for bit.
    """
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    if x.data.ndim != 2 or w.data.ndim != 2 or x.data.shape[1] != w.data.shape[0] or b.data.shape != w.data.shape[1:]:
        raise ShapeError(f"cannot convolve shapes {x.data.shape} and {w.data.shape} with bias {b.data.shape}")
    rows = x.data
    if keep is not None and x._rebuild is not None:
        drop(x)  # every rule that reads x forms it again, so its own buffer takes the mask
        rows *= keep
    elif keep is not None:
        rows = rows * keep
    pre = rows @ w.data
    del rows  # masked rows go before the operator allocates
    pre = op.apply(pre)
    pre += b.data
    mask = pre > 0.0 if _taped((x, w, b)) else None
    # the bits of np.where(mask, pre, 0.0): fmax gives 0.0 for NaN and -inf, and adding +0.0 makes -0.0 +0.0
    np.fmax(pre, 0.0, out=pre)
    pre += 0.0

    def backward(g):
        g = g * mask
        if b.requires_grad:
            _accumulate(b, _unbroadcast(g, b.data.shape))
        if x.requires_grad or w.requires_grad:
            g = op.apply(g)
            # the convolved rows are let go before the input gradient is formed
            if w.requires_grad:
                _accumulate(w, _convolved_rows(x, keep).T @ g)
            if x.requires_grad:
                grad = g @ w.data.T
                if keep is not None:
                    grad *= keep
                _accumulate(x, grad)

    return _make(pre, (x, w, b), backward)


def _convolved_rows(x: Tensor, keep: np.ndarray | None) -> np.ndarray:
    """``x * keep`` as ``graph_conv``'s forward convolved it, from ``x``'s rebuild when it has one."""
    if x._rebuild is None:
        return x.data if keep is None else x.data * keep
    rows = x._rebuild()  # a fresh buffer of this rule's own, so it takes the mask in place
    if keep is not None:
        rows *= keep
    return rows


# -- structural ops ----------------------------------------------------------


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


def _segment_sums(x: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Row sums of consecutive segments: (sum(sizes), ...) -> (len(sizes), ...).

    Each segment's rows are added in order starting from +0.0, as np.add.at
    does: rows at least two columns wide as one axis-0 reduce of the
    segment's block of rows, which numpy adds row by row. numpy sums a single
    column pairwise instead, so narrower rows go through np.add.at.
    """
    sums = np.zeros((len(sizes),) + x.shape[1:], dtype=x.dtype)
    if x.ndim < 2 or x.shape[1] < 2:
        np.add.at(sums, np.repeat(np.arange(len(sizes)), sizes), x)
        return sums
    stops = np.cumsum(sizes)
    for i, (start, stop) in enumerate(zip((stops - sizes).tolist(), stops.tolist())):
        np.add.reduce(x[start:stop], axis=0, out=sums[i])
    return sums


def segment_mean(x, sizes: Sequence[int]) -> Tensor:
    """Mean over consecutive row segments: (sum(sizes), d) -> (len(sizes), d)."""
    x = as_tensor(x)
    counts = np.asarray(sizes, dtype=np.intp)
    if counts.sum() != x.data.shape[0]:
        raise ShapeError(f"segment sizes {counts.tolist()} do not cover {x.data.shape[0]} rows")
    data = _segment_sums(x.data, counts)
    # np.mean's division: by an intp count, cast back to the sums' dtype
    np.true_divide(data, counts[:, None], out=data, casting="unsafe")

    def backward(g):
        _accumulate(x, np.repeat(g / counts[:, None].astype(g.dtype), counts, axis=0))

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


def layer_norm(h, source, sizes: Sequence[int], gain, bias, eps: float) -> Tensor:
    """Row-wise standardization of each row of ``h`` joined with its segment's
    claim, the segment's first row of ``source`` (population variance, eps
    under the root), then an affine map by ``gain`` and ``bias`` shared across
    rows. ``h`` and ``source`` hold the same consecutive row segments, segment
    i ``sizes[i]`` rows long.

    Both blocks are written straight into the output buffer, where each row is
    normalized and mapped in place, so neither the gathered rows nor their
    concatenation stay alive. Forward and backward walk the rows in blocks of
    about ``_BLOCK_BYTES``, so each pass over a block reads it from cache; a
    row's statistics are its own, so blocking changes no value. Taped, the
    call keeps the normalized columns of ``h``, each segment's claim row of
    ``source`` and each row's mean and inverse standard deviation, not the
    ``(n, d)`` normalized rows. The backward and the output's rebuild form a
    block's normalized rows again, the claim columns as ``(claim - mean) *
    inv_std``: the forward's own ufuncs on the same operands, so they match
    it bit for bit. Neither reads ``h``'s or ``source``'s value, only
    ``source``'s shape and dtype, and the rebuild lets a caller ``drop`` the
    output. The backward takes the ``bias`` column sums in one ``g.sum(axis=0)``
    and carries the ``gain`` column sums, from zeros, as the leading row of
    each block's sum: numpy's axis-0 sum of a C-contiguous array at least two
    columns wide starts from +0.0 and adds its rows in order, so for a
    C-contiguous ``g`` (the encoder's are) the carried sums equal a
    whole-array sum bit for bit. It finishes each block's input gradient in a
    block scratch and keeps only the columns of ``h`` or ``source`` that need
    one; each claim's gradient is the sum of its segment's rows of the joined
    block's gradient, added in row order as ``np.add.at`` would.
    """
    h, source, gain, bias = as_tensor(h), as_tensor(source), as_tensor(gain), as_tensor(bias)
    sizes = np.asarray(sizes, dtype=np.intp)
    starts = np.cumsum(sizes) - sizes
    n = sizes.sum()
    rows_match = h.data.ndim == source.data.ndim == 2 and h.data.shape[0] == source.data.shape[0] == n
    if not rows_match or (sizes < 1).any():
        raise ShapeError(f"cannot join rows of {h.data.shape} and {source.data.shape} in segments {sizes}")
    split = h.data.shape[1]
    d = split + source.data.shape[1]
    if gain.data.shape != (d,) or bias.data.shape != (d,):
        raise ShapeError(f"affine shapes {gain.data.shape}/{bias.data.shape} do not match width {d}")
    source_shape, source_dtype = source.data.shape, source.data.dtype
    parents = (h, source, gain, bias)
    taped = _taped(parents)
    dtype = np.result_type(h.data, source.data)
    data = np.empty((n, d), dtype=dtype)
    idx = np.repeat(starts, sizes)
    step = max(1, _BLOCK_BYTES // (d * dtype.itemsize))
    squares = np.empty((min(step, n), d), dtype=dtype)
    # what the taped rules read: h's normalized columns, the claim rows and each row's mean and inverse std
    if taped:
        normalized_h, claims = np.empty((n, split), dtype=dtype), source.data[starts].astype(dtype, copy=False)
        means, inv_stds = np.empty((2, n, 1), dtype=dtype)
    for start in range(0, n, step):
        rows = slice(start, start + step)
        x = data[rows]
        x[:, :split] = h.data[rows]
        x[:, split:] = source.data.take(idx[rows], axis=0)
        # the operations of np.var and of (x - mean) * inv_std, sharing x - mean
        mean = x.mean(axis=1, keepdims=True)
        x -= mean
        block_squares = np.multiply(x, x, out=squares[: len(x)])
        inv_std = 1.0 / np.sqrt(block_squares.sum(axis=1, keepdims=True) / d + eps)
        x *= inv_std
        if taped:
            normalized_h[rows], means[rows], inv_stds[rows] = x[:, :split], mean, inv_std
        x *= gain.data
        x += bias.data

    def normalized_blocks(out=None):
        """Each block's rows and its normalized rows formed again, in ``out``'s rows or else in a
        scratch reused from block to block: h's columns copied, the claim columns as
        ``(claim - mean) * inv_std``."""
        segment = np.repeat(np.arange(len(sizes)), sizes)
        scratch = np.empty((min(step, n), d), dtype=dtype) if out is None else None
        for start in range(0, n, step):
            rows = slice(start, start + step)
            h_cols = normalized_h[rows]
            x = scratch[: len(h_cols)] if out is None else out[rows]
            x[:, :split] = h_cols
            claim_cols = claims.take(segment[rows], axis=0)
            claim_cols -= means[rows]
            np.multiply(claim_cols, inv_stds[rows], out=x[:, split:])
            yield rows, x

    def backward(g):
        needs_input = h.requires_grad or source.requires_grad
        cols = slice(None if h.requires_grad else split, None if source.requires_grad else split)
        term = np.empty((n, len(range(d)[cols])), dtype=dtype)
        scratch_rows = np.empty((min(step, n), d), dtype=dtype)
        carry = np.empty((min(step, n) + 1, d), dtype=np.result_type(g, dtype))
        gain_sum = np.zeros(d, dtype=carry.dtype)
        for rows, x in normalized_blocks():
            gb = g[rows]
            # the sum so far leads the block's rows, so it adds rows in whole-array order
            lead = carry[: len(x) + 1]
            tmp = lead[1:]
            lead[0] = gain_sum
            np.multiply(gb, x, out=tmp)
            gain_sum = lead.sum(axis=0)
            if not needs_input:
                continue
            t = scratch_rows[: len(x)]
            np.multiply(gb, gain.data, out=t)
            np.multiply(t, x, out=tmp)
            proj = tmp.mean(axis=1, keepdims=True)
            t -= t.mean(axis=1, keepdims=True)
            t, scratch = t[:, cols], tmp[:, cols]
            np.multiply(x[:, cols], proj, out=scratch)
            t -= scratch
            np.multiply(t, inv_stds[rows], out=term[rows])
        _accumulate(gain, gain_sum)
        _accumulate(bias, g.sum(axis=0))
        if h.requires_grad:
            _accumulate(h, term[:, :split])
        if source.requires_grad:
            full = np.zeros(source_shape, dtype=source_dtype)
            full[starts] = _segment_sums(term[:, split:] if h.requires_grad else term, sizes)
            _accumulate(source, full)

    def rebuild():
        y = np.empty((n, d), dtype=dtype)
        for _, x in normalized_blocks(y):
            x *= gain.data
            x += bias.data
        return y

    out = _make(data, parents, backward)
    if taped:
        out._rebuild = rebuild
    return out


# -- initialization ----------------------------------------------------------


def glorot_init(shape: tuple[int, int], gen: np.random.Generator, name: str = "") -> Tensor:
    """Uniform(-b, b) weight matrix with b = sqrt(6 / (fan_in + fan_out))."""
    if len(shape) != 2:
        raise ShapeError(f"glorot_init expects a 2-D shape, got {shape}")
    bound = np.sqrt(6.0 / (shape[0] + shape[1]))
    return parameter(gen.uniform(-bound, bound, size=shape), name)
