"""Two-layer graph convolution with claim-residual concatenation.

Each layer mixes node states through the normalized adjacency
A_hat = D^{-1/2} (A + I) D^{-1/2}, applies a learned linear map and ReLU,
then concatenates the claim's previous hidden state onto every row and
layer-normalizes the result. The event representation is the column-wise
mean of the final node states, and a single affine head plus softmax
produces class probabilities.

Several events are encoded in one pass by stacking their node features.
``GraphBatch.from_events`` builds the operator once per batch, straight from
the graphs' reply edges, as one block-diagonal matrix; per-event pooling and
claim lookups are index-based, so the batched pass computes exactly the
same function as event-at-a-time encoding.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import asdict, dataclass
from typing import Iterable

import numpy as np

from . import numcore as nc
from .numcore import RngStreams, Tensor
from .propagation import PropagationGraph

SNAPSHOT_VERSION = 1
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
        for name in ("d_in", "d_hidden", "d_out", "classes"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.layers != 2:
            raise ValueError("only a depth of 2 is supported")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout must lie in [0, 1), got {self.dropout}")

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

    def load_values(self, values: dict[str, np.ndarray]) -> None:
        for name, t in self.tensors.items():
            t.data = np.asarray(values[name], dtype=nc.active_dtype()).reshape(t.data.shape)


def init_params(cfg: ModelConfig, streams: RngStreams) -> ModelParams:
    """Glorot-uniform weights, zero biases, unit/zero normalization affine."""
    gen = streams.init
    mid = cfg.d_hidden + cfg.d_in
    top = cfg.rep_dim
    dtype = nc.active_dtype()
    tensors = {
        "w0": nc.glorot_init((cfg.d_in, cfg.d_hidden), gen, "w0"),
        "b0": nc.parameter(np.zeros(cfg.d_hidden, dtype=dtype), "b0"),
        "ln1_gain": nc.parameter(np.ones(mid, dtype=dtype), "ln1_gain"),
        "ln1_bias": nc.parameter(np.zeros(mid, dtype=dtype), "ln1_bias"),
        "w1": nc.glorot_init((mid, cfg.d_out), gen, "w1"),
        "b1": nc.parameter(np.zeros(cfg.d_out, dtype=dtype), "b1"),
        "ln2_gain": nc.parameter(np.ones(top, dtype=dtype), "ln2_gain"),
        "ln2_bias": nc.parameter(np.zeros(top, dtype=dtype), "ln2_bias"),
        "wc": nc.glorot_init((top, cfg.classes), gen, "wc"),
        "bc": nc.parameter(np.zeros(cfg.classes, dtype=dtype), "bc"),
    }
    return ModelParams(tensors=tensors, config=cfg)


# -- batched encoding ----------------------------------------------------------


@dataclass
class GraphBatch:
    """Several events stacked for a single encoding pass."""

    sizes: list[int]
    features: np.ndarray  # (sum(sizes), d_in)
    mixing: np.ndarray  # block-diagonal D^{-1/2} (A + I) D^{-1/2}, built from the edges
    claim_index: np.ndarray  # per node, the global row of its event's claim

    @classmethod
    def from_events(cls, embeddings: list[np.ndarray], graphs: list[PropagationGraph]) -> "GraphBatch":
        sizes = [g.n for g in graphs]
        total = sum(sizes)
        if [e.shape[0] for e in embeddings] != sizes:
            raise nc.ShapeError(
                f"embedding row counts {[e.shape[0] for e in embeddings]} do not match graphs {sizes}"
            )
        features = np.concatenate(embeddings, axis=0)
        offsets = np.cumsum([0, *sizes[:-1]], dtype=np.intp)
        flat = itertools.chain.from_iterable(itertools.chain.from_iterable(g.edges for g in graphs))
        pairs = np.fromiter(flat, dtype=np.intp).reshape(-1, 2)
        pairs += np.repeat(offsets, [len(g.edges) for g in graphs])[:, None]
        # A + I: a self-loop on every node and both directions of every reply edge
        loops = np.arange(total)
        rows = np.concatenate([loops, pairs[:, 0], pairs[:, 1]])
        cols = np.concatenate([loops, pairs[:, 1], pairs[:, 0]])
        inv_sqrt = 1.0 / np.sqrt(np.bincount(rows, minlength=total))
        mixing = np.zeros((total, total), dtype=np.float64)
        mixing[rows, cols] = inv_sqrt[rows] * inv_sqrt[cols]
        claim_index = np.repeat(offsets, sizes)
        return cls(sizes=sizes, features=features, mixing=mixing, claim_index=claim_index)


@dataclass
class EncodeResult:
    node_states: Tensor  # (sum(sizes), d_out + d_hidden)
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

    x = Tensor(np.asarray(batch.features, dtype=nc.active_dtype()))
    mixing = Tensor(np.asarray(batch.mixing, dtype=nc.active_dtype()))
    eps = cfg.layer_norm_eps

    h1 = nc.relu(nc.matmul(mixing, nc.matmul(x, params.w0)) + params.b0)
    h1_tilde = nc.layer_norm(
        nc.concat_cols(h1, nc.gather_rows(x, batch.claim_index)),
        params.ln1_gain,
        params.ln1_bias,
        eps,
    )
    if mode == "train" and cfg.dropout > 0.0:
        keep = streams.dropout.random(h1_tilde.shape) >= cfg.dropout
        # mask-and-zero: survivors are not rescaled
        h1_tilde = h1_tilde * Tensor(keep.astype(nc.active_dtype()))

    h2 = nc.relu(nc.matmul(mixing, nc.matmul(h1_tilde, params.w1)) + params.b1)
    h2_tilde = nc.layer_norm(
        nc.concat_cols(h2, nc.gather_rows(h1, batch.claim_index)),
        params.ln2_gain,
        params.ln2_bias,
        eps,
    )
    reps = nc.segment_mean(h2_tilde, batch.sizes)
    probs = nc.softmax_rows(nc.matmul(reps, params.wc) + params.bc)
    return EncodeResult(node_states=h2_tilde, reps=reps, probs=probs)


# -- snapshots -----------------------------------------------------------------


class SnapshotError(ValueError):
    """A snapshot or training-state file is malformed, truncated or overlong."""


def _write_container(path, header: dict, blobs: Iterable[np.ndarray]) -> None:
    """Sorted-key JSON header line, then each blob as little-endian float64."""
    with open(path, "wb") as fh:
        fh.write((json.dumps(header, sort_keys=True) + "\n").encode("utf-8"))
        for blob in blobs:
            fh.write(np.asarray(blob, dtype="<f8").tobytes())


def _read_container(
    path, version_key: str, version: int, config_key: str, blocks: int
) -> tuple[dict, ModelParams, list[dict]]:
    """Inverse of ``_write_container`` for payloads of whole parameter blocks.

    The header must hold ``version`` under ``version_key`` and the model
    configuration under ``config_key``; the payload must hold exactly
    ``blocks`` blocks of the tensors named by ``header["order"]``. Returns
    the header, freshly shaped parameters, and each block as a
    name -> float64 array dict.
    """
    with open(path, "rb") as fh:
        line = fh.readline()
        payload = fh.read()
    try:
        header = json.loads(line.decode("utf-8"))
    except ValueError as err:
        raise SnapshotError(f"{path}: unreadable header ({err})") from err
    found = header.get(version_key) if isinstance(header, dict) else None
    if found != version:
        raise SnapshotError(f"{path}: unsupported {version_key} {found!r} (expected {version})")
    try:
        params = init_params(ModelConfig(**header[config_key]), RngStreams(0))
        order = list(header["order"])
        shapes = [params.tensors[name].data.shape for name in order] * blocks
    except (ValueError, KeyError, TypeError) as err:
        raise SnapshotError(f"{path}: unreadable header ({type(err).__name__}: {err})") from err
    sizes = [math.prod(shape) for shape in shapes]
    expected = 8 * sum(sizes)
    if len(payload) != expected:
        problem = "truncated" if len(payload) < expected else "followed by trailing bytes"
        raise SnapshotError(f"{path}: payload {problem} ({len(payload)} bytes, expected {expected})")
    flat = np.frombuffer(payload, dtype="<f8").astype(np.float64)
    offsets = np.cumsum([0] + sizes)
    arrays = [flat[a:b].reshape(shape) for a, b, shape in zip(offsets, offsets[1:], shapes)]
    n = len(order)
    return header, params, [dict(zip(order, arrays[i * n : (i + 1) * n])) for i in range(blocks)]


def save_snapshot(params: ModelParams, seed: int, path) -> None:
    """Header JSON line, then the parameter tensors as little-endian float64."""
    header = {
        "format_version": SNAPSHOT_VERSION,
        "config": asdict(params.config),
        "seed": seed,
        "order": list(PARAM_ORDER),
    }
    _write_container(path, header, (params.tensors[name].data for name in PARAM_ORDER))


def load_snapshot(path) -> tuple[ModelParams, int]:
    header, params, (values,) = _read_container(path, "format_version", SNAPSHOT_VERSION, "config", 1)
    params.load_values(values)
    return params, header["seed"]
