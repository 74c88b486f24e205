"""A plain-numpy dense forward pass, written from the model's description.

Each of two layers mixes node states through the normalized adjacency
A_hat = D^-1/2 (A + I) D^-1/2 of the undirected reply tree, applies a linear
map and ReLU, concatenates the claim's previous hidden state onto every row,
and layer-normalizes. The event representation is the column-wise mean of
the final node states. The oracle reads snapshot files itself and encodes
one event at a time, so it shares no code with the program's forward pass.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

TOLERANCE = 1e-9


def read_snapshot(path: Path) -> tuple[dict, dict[str, np.ndarray]]:
    """The model configuration and the parameter arrays of a snapshot file."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline().decode("utf-8"))
        blob = fh.read()
    cfg = header["config"]
    d_in, hidden, out, classes = cfg["d_in"], cfg["d_hidden"], cfg["d_out"], cfg["classes"]
    shapes = {
        "w0": (d_in, hidden),
        "b0": (hidden,),
        "ln1_gain": (hidden + d_in,),
        "ln1_bias": (hidden + d_in,),
        "w1": (hidden + d_in, out),
        "b1": (out,),
        "ln2_gain": (out + hidden,),
        "ln2_bias": (out + hidden,),
        "wc": (out + hidden, classes),
        "bc": (classes,),
    }
    params, offset = {}, 0
    for name in header["order"]:
        size = int(np.prod(shapes[name]))
        params[name] = np.frombuffer(blob, dtype="<f8", count=size, offset=offset * 8).reshape(shapes[name])
        offset += size
    if offset * 8 != len(blob):
        raise ValueError(f"{path}: {len(blob)} parameter bytes, expected {offset * 8}")
    return cfg, params


def _layer_norm(x: np.ndarray, gain: np.ndarray, bias: np.ndarray, eps: float) -> np.ndarray:
    centered = x - x.mean(axis=1, keepdims=True)
    return centered / np.sqrt((centered**2).mean(axis=1, keepdims=True) + eps) * gain + bias


def event_representation(features: np.ndarray, parents: list[int], cfg: dict, p: dict[str, np.ndarray]) -> np.ndarray:
    """Representation of one event; ``parents[i]`` is the row of node i's parent (-1 for the claim)."""
    n = features.shape[0]
    adjacency = np.eye(n)
    for child, parent in enumerate(parents):
        if parent >= 0:
            adjacency[child, parent] = adjacency[parent, child] = 1.0
    scale = 1.0 / np.sqrt(adjacency.sum(axis=1))
    a_hat = adjacency * scale[:, None] * scale[None, :]
    eps = cfg["layer_norm_eps"]

    h1 = np.maximum(a_hat @ (features @ p["w0"]) + p["b0"], 0.0)
    t1 = _layer_norm(np.hstack([h1, np.tile(features[0], (n, 1))]), p["ln1_gain"], p["ln1_bias"], eps)
    h2 = np.maximum(a_hat @ (t1 @ p["w1"]) + p["b1"], 0.0)
    t2 = _layer_norm(np.hstack([h2, np.tile(h1[0], (n, 1))]), p["ln2_gain"], p["ln2_bias"], eps)
    return t2.mean(axis=0)


def parent_rows(post_ids: list[str], parent_ids: list[str | None]) -> list[int]:
    row = {pid: i for i, pid in enumerate(post_ids)}
    return [-1 if parent is None else row[parent] for parent in parent_ids]


def max_deviation(snapshot: Path, samples: list[tuple[np.ndarray, list[int]]], program_reps: np.ndarray) -> float:
    """Largest absolute difference between the oracle's representations and the program's."""
    cfg, params = read_snapshot(snapshot)
    expected = np.stack([event_representation(x, parents, cfg, params) for x, parents in samples])
    if expected.shape != program_reps.shape:
        raise ValueError(f"representation shapes differ: {expected.shape} vs {program_reps.shape}")
    return float(np.max(np.abs(expected - program_reps)))
