"""Two-layer graph convolution with claim-residual concatenation.

Each layer mixes node states through the normalized adjacency
A_hat = D^{-1/2} (A + I) D^{-1/2}, applies a learned linear map and ReLU,
then concatenates the claim's previous hidden state onto every row and
layer-normalizes the result. The event representation is the column-wise
mean of the final node states (``encode_batch`` returns it), and a single
affine head plus softmax (``classify``) turns representations into class
probabilities; each caller runs the head once per view it scores.

A batch of events is encoded in one pass over one feature matrix, into which
each encode scatters the events' packed embedding rows at the active element
type (``embed.unpack``), so each event is a segment of consecutive rows whose
first row is its claim. A ``GraphBatch`` holds the events' packed rows, stacked
once (``embed.stack``), and their graphs, and derives from the graphs, once at
construction, the segment lengths (``sizes``, all that the claim lookups and
the per-event pooling read) and the operator (``mixing_operator``), built
straight from the graphs' reply edges as a sparse neighbor-list operator
(``numcore.NeighborOperator``) whose time and memory grow with nodes plus
edges; no event's rows reach another's, so the batched pass computes the
same function as event-at-a-time encoding.
Scoring (``encode_events``) encodes consecutive whole events in chunks under
a fixed byte budget, so its peak memory does not grow with the event count.

Each convolution is one ``numcore.graph_conv`` node, the second taking the
boolean dropout mask (``numcore.keep_mask``) as an operand, and each claim
residual is built inside ``numcore.layer_norm`` straight into its own buffer.
An encode lets each dense value go right after its last consumer's forward
(``numcore.drop``), as no rule reads it: conv1's weight gradient unpacks the
feature rows again (``numcore.recomputable``), and conv2's forms ln1's
output again, which conv2's forward masks in place. So per node a training
encode keeps only the two relu masks, the dropout mask, and of each
normalization the normalized columns of its ``h`` and the row's mean and
inverse standard deviation (and one claim row per event): about 7.1 kB at
768/512/128 and f64, beside the batch's packed rows (about 0.13 kB a hashed
node). A backward lets go of each node's share as soon as its rule has run.
An evaluation encode under ``no_grad`` keeps one buffer per normalization.

Parameters read from a snapshot, and the best epoch's parameters that
``fit`` returns, are built from their shapes (``ModelParams.from_values``)
without drawing initial weights.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from . import numcore as nc
from .dataio import LABELS
from .embed import PackedRows, stack, unpack
from .numcore import RngStreams, Tensor
from .propagation import PropagationGraph

SNAPSHOT_VERSION = 1
# nodes of one evaluation chunk: its widest per-node buffer, (n, d_hidden + d_in), stays within this
_CHUNK_BYTES = 8 * 1024 * 1024
PARAM_ORDER = ("w0", "b0", "ln1_gain", "ln1_bias", "w1", "b1", "ln2_gain", "ln2_bias", "wc", "bc")
# format 1's header config records the fixed class count and depth beside the ModelConfig fields
_FORMAT_CONSTANTS = {"classes": 2, "layers": 2}


@dataclass(frozen=True)
class ModelConfig:
    d_in: int
    d_hidden: int = 512
    d_out: int = 128
    dropout: float = 0.2
    layer_norm_eps: float = 1e-5

    def __post_init__(self):
        for name in ("d_in", "d_hidden", "d_out"):
            value = getattr(self, name)
            if type(value) is not int:  # a float size cannot slice a snapshot; bool is an int subclass
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if not 1 <= value <= nc.INT64_MAX:  # numpy's largest array dimension
                raise ValueError(f"{name} must lie in [1, {nc.INT64_MAX}], got {value}")
        for name, shape in _shapes(self).items():
            if 8 * math.prod(shape) > nc.INT64_MAX:  # numpy's largest array in bytes
                raise ValueError(f"{name} of shape {shape} would hold more than {nc.INT64_MAX} bytes at float64")
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
        "wc": (top, len(LABELS)),
        "bc": (len(LABELS),),
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
    """Several events stacked for a single encoding pass: their packed rows in one stack, which each
    encode unpacks, and their graphs, from which the segment sizes and the operator are derived once."""

    rows: PackedRows  # the events' embedding rows, stacked in order
    graphs: list[PropagationGraph]
    sizes: list[int] = field(init=False)
    mixing: nc.NeighborOperator = field(init=False)  # D^{-1/2} (A + I) D^{-1/2} of every graph

    def __post_init__(self):
        self.sizes = [g.n for g in self.graphs]
        self.mixing = mixing_operator(self.graphs)

    @classmethod
    def from_events(cls, embeddings: list[PackedRows], graphs: list[PropagationGraph]) -> "GraphBatch":
        """The events' packed rows beside their graphs, which must hold as many nodes."""
        sizes = [g.n for g in graphs]
        if [e.n for e in embeddings] != sizes:
            raise nc.ShapeError(f"embedding row counts {[e.n for e in embeddings]} do not match graphs {sizes}")
        return cls(stack(embeddings), graphs)


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
    return nc.NeighborOperator(total, rows, cols)


def encode_batch(
    batch: GraphBatch,
    params: ModelParams,
    mode: str = "eval",
    streams: RngStreams | None = None,
) -> Tensor:
    """Run the two-scale convolution over a stacked batch of events: their representations,
    ``(events, d_out + d_hidden)``."""
    cfg = params.config
    dtype = nc.active_dtype()
    x = nc.recomputable(lambda: unpack(batch.rows, dtype))  # conv1's weight gradient unpacks the rows again
    if x.shape[1] != cfg.d_in:
        raise nc.ShapeError(f"feature width {x.shape[1]} does not match d_in {cfg.d_in}")

    h1 = nc.graph_conv(batch.mixing, x, params.w0, params.b0)
    h1_tilde = nc.layer_norm(h1, x, batch.sizes, params.ln1_gain, params.ln1_bias, cfg.layer_norm_eps)
    nc.drop(x)  # each value goes once its consumers have run forward; ln1 keeps x's claim rows
    keep = None
    if mode == "train" and cfg.dropout > 0.0:
        # mask-and-zero: survivors are not rescaled
        keep = nc.keep_mask(streams.dropout, h1_tilde.shape, cfg.dropout)
    h2 = nc.graph_conv(batch.mixing, h1_tilde, params.w1, params.b1, keep)
    nc.drop(h1_tilde)  # unless conv2 masked it and let it go; conv2's weight gradient forms it again
    h2_tilde = nc.layer_norm(h2, h1, batch.sizes, params.ln2_gain, params.ln2_bias, cfg.layer_norm_eps)
    nc.drop(h1, h2)
    reps = nc.segment_mean(h2_tilde, batch.sizes)
    nc.drop(h2_tilde)
    return reps


def classify(reps, wc, bc) -> Tensor:
    """The classifier head: class probabilities ``softmax_rows(reps @ wc + bc)`` of event representations."""
    return nc.softmax_rows(nc.matmul(reps, wc) + bc)


class EncodingError(ValueError):
    """An encode gave non-finite probabilities or representations: the weights overflow the forward pass."""


def encode_events(
    embeddings: list[PackedRows], graphs: list[PropagationGraph], params: ModelParams
) -> tuple[np.ndarray, np.ndarray]:
    """Evaluation-mode probabilities and representations of events, from their packed
    rows and graphs, in order: whole consecutive events are encoded together under
    ``no_grad`` while a chunk's widest buffer stays within ``_CHUNK_BYTES``; an event
    over that budget is encoded alone.
    Runs at the parameters' element type. Raises ``EncodingError`` unless every
    output is finite, which is why numpy's overflow warnings are silenced."""
    if not graphs:
        raise ValueError("nothing to score: no events were given")
    cfg = params.config
    dtype = params.w0.data.dtype
    max_nodes = _CHUNK_BYTES // ((cfg.d_hidden + cfg.d_in) * dtype.itemsize)
    probs, reps = [], []
    start = 0
    precision = "f32" if dtype == np.float32 else "f64"
    with nc.precision(precision), nc.no_grad(), np.errstate(over="ignore", invalid="ignore"):
        while start < len(graphs):
            stop, nodes = start + 1, graphs[start].n
            while stop < len(graphs) and nodes + graphs[stop].n <= max_nodes:
                nodes += graphs[stop].n
                stop += 1
            chunk = encode_batch(GraphBatch.from_events(embeddings[start:stop], graphs[start:stop]), params)
            probs.append(classify(chunk, params.wc, params.bc).data)
            reps.append(chunk.data)
            start = stop
    probs, reps = np.concatenate(probs), np.concatenate(reps)
    if not (np.isfinite(probs).all() and np.isfinite(reps).all()):
        raise EncodingError("non-finite class probabilities or representations: the weights overflow the forward")
    return probs, reps


# -- snapshots -----------------------------------------------------------------


class SnapshotError(ValueError):
    """A snapshot file is malformed, truncated or overlong."""


def save_snapshot(params: ModelParams, seed: int, path) -> None:
    """Sorted-key JSON header line, whose ``config`` adds the format-1 constants ``"classes": 2`` and
    ``"layers": 2`` to the ``ModelConfig`` fields, then the tensors as little-endian float64 in ``PARAM_ORDER``."""
    header = {
        "format_version": SNAPSHOT_VERSION,
        "config": {**asdict(params.config), **_FORMAT_CONSTANTS},
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
    configuration with its format-1 constants, the seed and an ``order`` that
    is ``PARAM_ORDER``, the only order written; the payload must hold exactly
    those tensors, all finite.
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
        fields = {**header["config"]}  # a TypeError unless the config is an object
        constants = {key: fields.pop(key, None) for key in _FORMAT_CONSTANTS}
        if constants != _FORMAT_CONSTANTS or any(type(v) is not int for v in constants.values()):  # 2.0 == 2
            raise ValueError(f"config must hold {_FORMAT_CONSTANTS}, got {constants}")
        config = ModelConfig(**fields)
        order, seed = header["order"], header["seed"]
    except (ValueError, KeyError, TypeError) as err:
        raise SnapshotError(f"{path}: unreadable header ({type(err).__name__}: {err})") from err
    if order != list(PARAM_ORDER):
        raise SnapshotError(f"{path}: unreadable header (order {order} is not {list(PARAM_ORDER)})")
    sizes = [math.prod(shape) for shape in _shapes(config).values()]
    expected = 8 * sum(sizes)
    if len(payload) != expected:
        problem = "truncated" if len(payload) < expected else "followed by trailing bytes"
        raise SnapshotError(f"{path}: payload {problem} ({len(payload)} bytes, expected {expected})")
    flat = np.frombuffer(payload, dtype="<f8").astype(np.float64)
    if not np.isfinite(flat).all():
        raise SnapshotError(f"{path}: payload holds a non-finite value")
    values = dict(zip(PARAM_ORDER, np.split(flat, np.cumsum(sizes)[:-1])))
    with nc.precision("f64"):
        return ModelParams.from_values(config, values), seed
