"""Two-layer graph convolution with claim-residual concatenation.

Each layer mixes node states through the normalized adjacency
A_hat = D^{-1/2} (A + I) D^{-1/2}, applies a learned linear map and ReLU,
then concatenates the claim's previous hidden state onto every row and
layer-normalizes the result. The event representation is the column-wise
mean of the final node states, and a single affine head plus softmax
produces class probabilities.

A batch of events is encoded in one pass by stacking their node features, so
each event is a segment of consecutive rows whose first row is its claim;
``GraphBatch.sizes`` lists the segment lengths, and it is all that the
claim lookups and the per-event pooling read. ``GraphBatch.from_events``
builds the operator once per batch (``mixing_operator``), straight from the
graphs' reply edges, as a sparse neighbor-list operator
(``numcore.NeighborOperator``) whose time and memory grow with nodes plus
edges; no event's rows reach another's, so the batched pass computes the
same function as event-at-a-time encoding.
Scoring (``encode_events``) encodes consecutive whole events in chunks under
a fixed byte budget, so its peak memory does not grow with the event count.

Each convolution is one ``numcore.graph_conv`` node, the second taking the
boolean dropout mask as an operand, and each claim residual is built inside
``numcore.layer_norm`` straight into its own buffer, a block of rows at a
time. Once the forward has run, an encode drops the outputs of both
convolutions and both normalizations (``numcore.drop``): no backward rule
reads them, and the second convolution's weight gradient forms the first
normalization's output again from its normalized rows. So per node row a
training encode keeps only what a backward reads: the two relu masks, the
dropout mask and the two normalizations' normalized rows, beside the batch's
feature rows; no conv products or pre-activations, no masked rows, no
gathered claim rows, no concatenation and no layer output. At 768/512/128
and f64 that is about 17.3 kB per encoded node beside 6.1 kB of features.
An evaluation encode under ``no_grad`` keeps one buffer per normalization,
since ``layer_norm`` writes its output over its normalized rows untaped.

Parameters read from a snapshot, and the best epoch's parameters that
``fit`` returns, are built from their shapes (``ModelParams.from_values``)
without drawing initial weights.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from . import numcore as nc
from .dataio import LABELS
from .numcore import RngStreams, Tensor
from .propagation import PropagationGraph

SNAPSHOT_VERSION = 1
# nodes of one evaluation chunk: its widest per-node buffer, (n, d_hidden + d_in), stays within this
_CHUNK_BYTES = 8 * 1024 * 1024
PARAM_ORDER = ("w0", "b0", "ln1_gain", "ln1_bias", "w1", "b1", "ln2_gain", "ln2_bias", "wc", "bc")


@dataclass(frozen=True)
class ModelConfig:
    d_in: int
    d_hidden: int = 512
    d_out: int = 128
    classes: int = 2
    layers: int = 2
    dropout: float = 0.2
    layer_norm_eps: float = 1e-5

    def __post_init__(self):
        for name in ("d_in", "d_hidden", "d_out", "classes", "layers"):
            value = getattr(self, name)
            if type(value) is not int:  # a float size cannot slice a snapshot; bool is an int subclass
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if value < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.layers != 2:
            raise ValueError(f"layers must be 2, the only supported depth, got {self.layers}")
        if self.classes != len(LABELS):
            raise ValueError(f"classes must be {len(LABELS)}, one per label, got {self.classes}")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout must lie in [0, 1), got {self.dropout}")
        if not 0 < self.layer_norm_eps < math.inf:
            raise ValueError(f"layer_norm_eps must be positive and finite, got {self.layer_norm_eps}")

    @property
    def rep_dim(self) -> int:
        """Width of the event representation (last hidden + claim residual)."""
        return self.d_out + self.d_hidden


@dataclass
class ModelParams:
    """Named trainable tensors in snapshot order."""

    tensors: dict[str, Tensor]
    config: ModelConfig

    def __getattr__(self, name: str):
        tensors = self.__dict__.get("tensors", {})
        if name in tensors:
            return tensors[name]
        raise AttributeError(name)

    def copy_values(self) -> dict[str, np.ndarray]:
        return {name: t.data.copy() for name, t in self.tensors.items()}

    @classmethod
    def from_values(cls, config: ModelConfig, values: dict[str, np.ndarray]) -> "ModelParams":
        """Parameters of ``config``'s shapes holding ``values`` in the active element type; draws nothing."""
        tensors = {
            name: nc.parameter(values[name].reshape(shape), name)
            for name, shape in _shapes(config).items()
        }
        return cls(tensors=tensors, config=config)


def _shapes(cfg: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Each parameter's shape, in snapshot order."""
    mid = cfg.d_hidden + cfg.d_in
    top = cfg.rep_dim
    return {
        "w0": (cfg.d_in, cfg.d_hidden),
        "b0": (cfg.d_hidden,),
        "ln1_gain": (mid,),
        "ln1_bias": (mid,),
        "w1": (mid, cfg.d_out),
        "b1": (cfg.d_out,),
        "ln2_gain": (top,),
        "ln2_bias": (top,),
        "wc": (top, cfg.classes),
        "bc": (cfg.classes,),
    }


def init_params(cfg: ModelConfig, streams: RngStreams) -> ModelParams:
    """Glorot-uniform weights, zero biases, unit/zero normalization affine."""
    tensors = {}
    for name, shape in _shapes(cfg).items():
        if len(shape) == 2:
            tensors[name] = nc.glorot_init(shape, streams.init, name)
        else:
            fill = np.ones if name.endswith("_gain") else np.zeros
            tensors[name] = nc.parameter(fill(shape), name)
    return ModelParams(tensors=tensors, config=cfg)


# -- batched encoding ----------------------------------------------------------


@dataclass
class GraphBatch:
    """Several events stacked for a single encoding pass."""

    sizes: list[int]
    features: np.ndarray  # (sum(sizes), d_in)
    mixing: nc.NeighborOperator  # D^{-1/2} (A + I) D^{-1/2} of every graph, built from the edges

    @classmethod
    def from_events(cls, embeddings: list[np.ndarray], graphs: list[PropagationGraph]) -> "GraphBatch":
        sizes = [g.n for g in graphs]
        if [e.shape[0] for e in embeddings] != sizes:
            raise nc.ShapeError(
                f"embedding row counts {[e.shape[0] for e in embeddings]} do not match graphs {sizes}"
            )
        return cls(sizes=sizes, features=np.concatenate(embeddings, axis=0), mixing=mixing_operator(graphs))


def mixing_operator(graphs: list[PropagationGraph]) -> nc.NeighborOperator:
    """D^{-1/2} (A + I) D^{-1/2} of the graphs stacked in order, built from their reply edges."""
    total = sum(g.n for g in graphs)
    offsets = np.cumsum([0, *(g.n for g in graphs[:-1])], dtype=np.intp)
    flat = itertools.chain.from_iterable(itertools.chain.from_iterable(g.edges for g in graphs))
    pairs = np.fromiter(flat, dtype=np.intp).reshape(-1, 2)
    pairs += np.repeat(offsets, [len(g.edges) for g in graphs])[:, None]
    # A + I: a self-loop on every node and both directions of every reply edge
    loops = np.arange(total)
    rows = np.concatenate([loops, pairs[:, 0], pairs[:, 1]])
    cols = np.concatenate([loops, pairs[:, 1], pairs[:, 0]])
    inv_sqrt = 1.0 / np.sqrt(np.bincount(rows, minlength=total))
    return nc.NeighborOperator(inv_sqrt, rows, cols)


@dataclass
class EncodeResult:
    reps: Tensor  # (events, d_out + d_hidden)
    probs: Tensor  # (events, classes)


def encode_batch(
    batch: GraphBatch,
    params: ModelParams,
    mode: str = "eval",
    streams: RngStreams | None = None,
) -> EncodeResult:
    """Run the two-scale convolution over a stacked batch of events."""
    cfg = params.config
    if batch.features.shape[1] != cfg.d_in:
        raise nc.ShapeError(f"feature width {batch.features.shape[1]} does not match d_in {cfg.d_in}")
    if mode not in ("train", "eval"):
        raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")
    if mode == "train" and cfg.dropout > 0.0 and streams is None:
        raise ValueError("train mode with dropout requires RNG streams")

    x = Tensor(batch.features)
    eps = cfg.layer_norm_eps

    h1 = nc.graph_conv(batch.mixing, x, params.w0, params.b0)
    h1_tilde = nc.layer_norm(h1, x, batch.sizes, params.ln1_gain, params.ln1_bias, eps)
    keep = None
    if mode == "train" and cfg.dropout > 0.0:
        # mask-and-zero: survivors are not rescaled
        keep = streams.dropout.random(h1_tilde.shape) >= cfg.dropout
    h2 = nc.graph_conv(batch.mixing, h1_tilde, params.w1, params.b1, keep)
    h2_tilde = nc.layer_norm(h2, h1, batch.sizes, params.ln2_gain, params.ln2_bias, eps)
    reps = nc.segment_mean(h2_tilde, batch.sizes)
    # every consumer has run forward; conv2's weight gradient forms h1_tilde again
    nc.drop(h1, h1_tilde, h2, h2_tilde)
    return EncodeResult(reps=reps, probs=classify(reps, params.wc, params.bc))


def classify(reps, wc, bc) -> Tensor:
    """The classifier head: class probabilities ``softmax_rows(reps @ wc + bc)`` of event representations."""
    return nc.softmax_rows(nc.matmul(reps, wc) + bc)


class EncodingError(ValueError):
    """An encode gave non-finite probabilities or representations: the weights overflow the forward pass."""


def encode_events(
    embeddings: list[np.ndarray], graphs: list[PropagationGraph], params: ModelParams
) -> tuple[np.ndarray, np.ndarray]:
    """Evaluation-mode probabilities and representations of events, in order: whole
    consecutive events are encoded together under ``no_grad`` while a chunk's widest
    buffer stays within ``_CHUNK_BYTES``; an event over that budget is encoded alone.
    Raises ``EncodingError`` unless every output is finite."""
    if not graphs:
        raise ValueError("nothing to score: no events were given")
    cfg = params.config
    max_nodes = _CHUNK_BYTES // ((cfg.d_hidden + cfg.d_in) * np.dtype(nc.active_dtype()).itemsize)
    probs, reps = [], []
    start = 0
    with nc.no_grad():
        while start < len(graphs):
            stop, nodes = start + 1, graphs[start].n
            while stop < len(graphs) and nodes + graphs[stop].n <= max_nodes:
                nodes += graphs[stop].n
                stop += 1
            result = encode_batch(GraphBatch.from_events(embeddings[start:stop], graphs[start:stop]), params)
            probs.append(result.probs.data)
            reps.append(result.reps.data)
            start = stop
    probs, reps = np.concatenate(probs), np.concatenate(reps)
    if not (np.isfinite(probs).all() and np.isfinite(reps).all()):
        raise EncodingError("non-finite class probabilities or representations: the weights overflow the forward")
    return probs, reps


# -- snapshots -----------------------------------------------------------------


class SnapshotError(ValueError):
    """A snapshot file is malformed, truncated or overlong."""


def save_snapshot(params: ModelParams, seed: int, path) -> None:
    """Sorted-key JSON header line, then the parameter tensors as little-endian float64."""
    header = {
        "format_version": SNAPSHOT_VERSION,
        "config": asdict(params.config),
        "seed": seed,
        "order": list(PARAM_ORDER),
    }
    with open(path, "wb") as fh:
        fh.write((json.dumps(header, sort_keys=True) + "\n").encode("utf-8"))
        for name in PARAM_ORDER:
            fh.write(np.asarray(params.tensors[name].data, dtype="<f8").tobytes())


def load_snapshot(path) -> tuple[ModelParams, int]:
    """Inverse of ``save_snapshot``: the parameters, at float64 whatever precision is active, and the seed.

    The header must hold the supported ``format_version``, the model
    configuration, the seed and an ``order`` naming each parameter once; the
    payload must hold exactly those tensors, all finite.
    """
    with open(path, "rb") as fh:
        line = fh.readline()
        payload = fh.read()
    try:
        header = json.loads(line.decode("utf-8"))
    except (ValueError, RecursionError) as err:  # malformed, not UTF-8, or nested too deep
        raise SnapshotError(f"{path}: unreadable header ({err})") from err
    found = header.get("format_version") if isinstance(header, dict) else None
    if found != SNAPSHOT_VERSION:
        raise SnapshotError(f"{path}: unsupported format_version {found!r} (expected {SNAPSHOT_VERSION})")
    try:
        config = ModelConfig(**header["config"])
        order = list(header["order"])
        shapes = [_shapes(config)[name] for name in order]
        seed = header["seed"]
    except (ValueError, KeyError, TypeError) as err:
        raise SnapshotError(f"{path}: unreadable header ({type(err).__name__}: {err})") from err
    if sorted(order) != sorted(PARAM_ORDER):
        raise SnapshotError(f"{path}: unreadable header (order {order} does not name each parameter once)")
    sizes = [math.prod(shape) for shape in shapes]
    expected = 8 * sum(sizes)
    if len(payload) != expected:
        problem = "truncated" if len(payload) < expected else "followed by trailing bytes"
        raise SnapshotError(f"{path}: payload {problem} ({len(payload)} bytes, expected {expected})")
    flat = np.frombuffer(payload, dtype="<f8").astype(np.float64)
    if not np.isfinite(flat).all():
        raise SnapshotError(f"{path}: payload holds a non-finite value")
    offsets = np.cumsum([0] + sizes)
    values = {name: flat[a:b].reshape(shape) for name, a, b, shape in zip(order, offsets, offsets[1:], shapes)}
    with nc.precision("f64"):
        return ModelParams.from_values(config, values), seed
