"""Named, counter-based random substreams.

Every stochastic choice in the library (initialization, shuffling, dropout
masks, edge removal, feature masking, synthetic data) draws from its own
substream so that consuming one source of randomness never perturbs another.
Substreams are Philox generators keyed by (master seed, stream name), which
makes draws reproducible across platforms.
"""

from __future__ import annotations

import numpy as np

STREAM_NAMES = ("init", "shuffle", "dropout", "dropedge", "feature_dropout", "synth")

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = 0xFFFFFFFFFFFFFFFF


def fnv1a64(data: bytes, seed: int = 0) -> int:
    """64-bit FNV-1a over ``data``, salted by hashing the seed bytes first."""
    h = _FNV_OFFSET
    for b in int(seed & _MASK64).to_bytes(8, "little") + data:
        h = ((h ^ b) * _FNV_PRIME) & _MASK64
    return h


class RngStreams:
    """A master seed fanned out into the fixed set of named substreams."""

    def __init__(self, master_seed: int):
        self.master_seed = int(master_seed)
        self._generators: dict[str, np.random.Generator] = {}
        for name in STREAM_NAMES:
            key = [self.master_seed & _MASK64, fnv1a64(name.encode("utf-8"))]
            self._generators[name] = np.random.Generator(np.random.Philox(key=key))

    def __getattr__(self, name: str) -> np.random.Generator:
        streams = self.__dict__.get("_generators", {})
        if name in streams:
            return streams[name]
        raise AttributeError(f"no substream named {name!r}; expected one of {STREAM_NAMES}")


def child_seed(master_seed: int, label: str) -> int:
    """Derive a deterministic child seed, e.g. one per cross-validation fold."""
    return fnv1a64(label.encode("utf-8"), seed=master_seed) & 0x7FFFFFFFFFFFFFFF
