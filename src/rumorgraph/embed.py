"""Per-post embedding providers.

Real runs ingest vectors exported from a frozen cross-lingual sentence
encoder (JSONL: a `{"dim", "count"}` header line, then one
`{"post_id", "vector"}` record per line). Desk-scale runs use a hashed
bag-of-tokens stand-in of configurable dimension.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass

import numpy as np

from .dataio import Event, Post
from .numcore import fnv1a64

ENCODER_DIM = 768  # output width of the frozen sentence encoder


class EmbeddingError(ValueError):
    """Embedding file malformed or a post could not be resolved."""


@dataclass
class EmbeddingMatrix:
    event_id: str
    rows: np.ndarray  # (node_count, dim); row 0 is the claim


# -- hashed fallback ----------------------------------------------------------

_CJK_RANGES = (
    (0x3400, 0x4DBF),
    (0x4E00, 0x9FFF),
    (0xF900, 0xFAFF),
)

_WORD_RE = re.compile(r"[0-9a-z]+")


def _is_cjk(ch: str) -> bool:
    code = ord(ch)
    return any(lo <= code <= hi for lo, hi in _CJK_RANGES)


def tokenize(text: str) -> list[str]:
    """Lowercase, split on whitespace/punctuation, CJK codepoints stand alone."""
    tokens: list[str] = []
    buffer: list[str] = []
    for ch in text.lower():
        if _is_cjk(ch):
            if buffer:
                tokens.extend(_WORD_RE.findall("".join(buffer)))
                buffer.clear()
            tokens.append(ch)
        else:
            buffer.append(ch)
    if buffer:
        tokens.extend(_WORD_RE.findall("".join(buffer)))
    return tokens


def hashed_embed(text: str, dim: int, seed: int = 0) -> np.ndarray:
    """Signed hashing of tokens into ``dim`` buckets, L2-normalized.

    Each token lands in bucket fnv1a(token) mod dim with sign taken from
    hash bit 63; empty text yields the zero vector.
    """
    if dim < 1:
        raise EmbeddingError(f"embedding dimension must be >= 1, got {dim}")
    vec = np.zeros(dim, dtype=np.float64)
    for token in tokenize(text):
        h = fnv1a64(token.encode("utf-8"), seed=seed)
        sign = -1.0 if (h >> 63) & 1 else 1.0
        vec[h % dim] += sign
    norm = np.linalg.norm(vec)
    if norm > 0.0:
        vec /= norm
    return vec


# -- providers ----------------------------------------------------------------


class HashedProvider:
    def __init__(self, dim: int, seed: int = 0):
        self.dim = dim
        self.seed = seed

    def vector_for(self, post: Post) -> np.ndarray:
        return hashed_embed(post.text, self.dim, self.seed)


class PrecomputedProvider:
    def __init__(self, dim: int, vectors: dict[str, np.ndarray]):
        self.dim = dim
        self._vectors = vectors

    def vector_for(self, post: Post) -> np.ndarray:
        try:
            return self._vectors[post.post_id]
        except KeyError:
            raise EmbeddingError(f"no embedding found for post {post.post_id!r}") from None


def load_precomputed(path) -> PrecomputedProvider:
    """Load an embedding file, validating the header and every record width."""
    with open(path, encoding="utf-8") as fh:
        header_line = fh.readline()
        try:
            header = json.loads(header_line)
        except json.JSONDecodeError as err:
            raise EmbeddingError(f"{path}: invalid header line ({err.msg})") from err
        if not isinstance(header, dict) or "dim" not in header or "count" not in header:
            raise EmbeddingError(f"{path}: header must carry 'dim' and 'count'")
        dim = header["dim"]
        if not isinstance(dim, int) or dim <= 0:
            raise EmbeddingError(f"{path}: header dimension must be a positive integer")
        vectors: dict[str, np.ndarray] = {}
        for line_no, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            where = f"{path} line {line_no}"
            try:
                record = json.loads(line)
            except json.JSONDecodeError as err:
                raise EmbeddingError(f"{where}: invalid JSON ({err.msg})") from err
            if not isinstance(record, dict) or not isinstance(record.get("post_id"), str) or "vector" not in record:
                raise EmbeddingError(f"{where}: record must carry a string 'post_id' and a 'vector'")
            if record["post_id"] in vectors:
                raise EmbeddingError(f"{where}: duplicate post_id {record['post_id']!r}")
            try:
                vec = np.asarray(record["vector"], dtype=np.float64)
            except (TypeError, ValueError) as err:
                raise EmbeddingError(f"{where}: vector is not numeric ({err})") from err
            if vec.shape != (dim,):
                raise EmbeddingError(
                    f"{where}: vector length {vec.shape[0] if vec.ndim == 1 else vec.shape} "
                    f"does not match header dim {dim}"
                )
            if not np.all(np.isfinite(vec)):
                raise EmbeddingError(f"{where}: non-finite vector")
            vectors[record["post_id"]] = vec
    if len(vectors) != header["count"]:
        raise EmbeddingError(f"{path}: header count {header['count']} != {len(vectors)} records")
    return PrecomputedProvider(dim=dim, vectors=vectors)


def provider_from_spec(spec: str):
    """Build a provider from a config string: a file path or "hashed:<dim>"."""
    if spec.startswith("hashed:"):
        width = spec.split(":", 1)[1]
        if not width.isdigit() or int(width) < 1:
            raise EmbeddingError(f"embedding spec {spec!r}: the width must be a positive integer")
        return HashedProvider(dim=int(width))
    return load_precomputed(spec)


def embed_event(event: Event, provider) -> EmbeddingMatrix:
    """Stack one vector per post, claim in row 0, in the event's sorted order."""
    rows = np.empty((event.node_count, provider.dim), dtype=np.float64)
    for i, post in enumerate(event.posts):
        rows[i] = provider.vector_for(post)
    return EmbeddingMatrix(event_id=event.event_id, rows=rows)
