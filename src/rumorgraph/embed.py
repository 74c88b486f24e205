"""Per-post embedding providers.

Real runs read a frozen cross-lingual sentence encoder's vectors from JSONL
(``dataio.json_lines``): a ``{"dim", "count"}`` header on line 1, then one
``{"post_id", "vector"}`` record a line. Desk-scale runs use a hashed
bag-of-tokens stand-in, ``hashed:<d_in>``. Providers are built for the
model's input width, which ``provider_from_spec`` checks once, against the spec
or a file's header line, and a command builds one per distinct spec. Each
``HashedProvider`` memoizes the bucket and sign of every token it has hashed;
the memo belongs to the instance, and the module keeps no state between calls.

Prepared events keep their rows packed (``pack``): one bit per entry saying
whether it is nonzero, the nonzero values, and a count of them per row. A
batch stacks its events' packed rows once (``stack``), and each encode
scatters that stack into one dense matrix at the active element type
(``unpack``). A hashed row holds a few nonzero entries, so at width w it
packs to w / 8 + 8 bytes plus 8 per entry (about 130 B at 768, against
6,144 dense); a dense row costs 1 + 1/64 + 1/w times its dense bytes.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .dataio import Event, Post, json_lines
from .numcore import ShapeError, fnv1a64

class EmbeddingError(ValueError):
    """Embedding file malformed or a post could not be resolved."""


@dataclass
class EmbeddingMatrix:
    rows: np.ndarray  # (node_count, dim); row 0 is the claim


# -- packed rows ----------------------------------------------------------------


@dataclass(frozen=True)
class PackedRows:
    """An event's embedding rows with only their nonzero entries stored.

    ``masks`` holds each row's nonzero pattern, eight entries a byte
    (``np.packbits``); ``values`` the nonzero entries in row-major order; and
    ``counts[i]`` how many of them row ``i`` holds, so stacking events
    concatenates each of the three arrays. An entry counts as zero only when
    all its bits are, so a ``-0.0`` is kept.
    """

    width: int
    masks: np.ndarray  # (n, ceil(width / 8)) uint8
    values: np.ndarray  # (counts.sum(),) float64
    counts: np.ndarray  # (n,) intp

    @property
    def n(self) -> int:
        return self.masks.shape[0]

    def prefix(self, k: int) -> PackedRows:
        """The first ``k`` rows, as views of these arrays."""
        return PackedRows(self.width, self.masks[:k], self.values[: self.counts[:k].sum()], self.counts[:k])


def pack(rows: np.ndarray) -> PackedRows:
    """Pack C-contiguous float64 ``(n, width)`` rows."""
    nonzero = rows.view(np.int64) != 0
    return PackedRows(rows.shape[1], np.packbits(nonzero, axis=1), rows[nonzero], np.count_nonzero(nonzero, axis=1))


def stack(parts: list[PackedRows]) -> PackedRows:
    """The rows of ``parts`` in order as one ``PackedRows``, which all must be as wide."""
    widths = {p.width for p in parts}
    if len(widths) != 1:
        raise ShapeError(f"cannot stack packed rows of widths {sorted(widths)}")
    masks, values = np.concatenate([p.masks for p in parts]), np.concatenate([p.values for p in parts])
    return PackedRows(widths.pop(), masks, values, np.concatenate([p.counts for p in parts]))


def unpack(rows: PackedRows, dtype=np.float64) -> np.ndarray:
    """The dense rows in a fresh array at ``dtype``: the values cast (the bits of a cast after the scatter) if
    no entry is zero, else scattered into zeros."""
    if rows.values.size == rows.n * rows.width:
        return rows.values.astype(dtype).reshape(rows.n, rows.width)
    out = np.zeros((rows.n, rows.width), dtype=dtype)
    out[np.unpackbits(rows.masks, axis=1, count=rows.width).view(bool)] = rows.values
    return out


# -- providers ----------------------------------------------------------------

# a CJK codepoint from the three ideograph blocks stands alone; any other
# character that is not [0-9a-z] separates tokens
_TOKEN_RE = re.compile("[\u3400-\u4dbf\u4e00-\u9fff\uf900-\ufaff]|[0-9a-z]+")


def tokenize(text: str) -> list[str]:
    """Lowercase, split on whitespace/punctuation, CJK codepoints stand alone."""
    return _TOKEN_RE.findall(text.lower())


class HashedProvider:
    """Signed hashing of a post's tokens into ``dim`` buckets, L2-normalized.

    Each token lands in bucket fnv1a(token) mod dim with sign taken from
    hash bit 63; empty text yields the zero vector. ``_slots`` memoizes
    each distinct token's (bucket, sign), so a token is hashed once per
    provider. A command builds its providers once, so the memo lives for
    that command and holds one entry per distinct token it embedded; no
    state is kept at module level.
    """

    def __init__(self, dim: int):
        self.dim = dim
        self._slots: dict[str, tuple[int, float]] = {}

    def vector_for(self, post: Post) -> np.ndarray:
        vec = np.zeros(self.dim, dtype=np.float64)
        slots = self._slots
        for token in tokenize(post.text):
            slot = slots.get(token)
            if slot is None:
                h = fnv1a64(token.encode("utf-8"))
                slot = slots[token] = (h % self.dim, -1.0 if (h >> 63) & 1 else 1.0)
            vec[slot[0]] += slot[1]
        norm = np.linalg.norm(vec)
        if norm > 0.0:
            vec /= norm
        return vec


class PrecomputedProvider:
    def __init__(self, dim: int, vectors: dict[str, np.ndarray]):
        self.dim = dim
        self._vectors = vectors

    def vector_for(self, post: Post) -> np.ndarray:
        try:
            return self._vectors[post.post_id]
        except KeyError:
            raise EmbeddingError(f"no embedding found for post {post.post_id!r}") from None


def load_precomputed(path, dim: int) -> PrecomputedProvider:
    """Load an embedding file of ``dim``-wide vectors: the header, which must be line 1 and name that width, is
    checked before any record is decoded, then every record."""
    lines = json_lines(path, EmbeddingError)
    line_no, header = next(lines, (None, None))
    if line_no != 1 or not isinstance(header, dict) or "dim" not in header or "count" not in header:
        raise EmbeddingError(f"{path} line 1: header must carry 'dim' and 'count'")
    if type(header["dim"]) is not int or header["dim"] != dim:  # bool is an int subclass, and 2.0 == 2
        raise EmbeddingError(f"{path} line 1: header dim must be the integer {dim}, the model's d_in")
    if type(header["count"]) is not int:
        raise EmbeddingError(f"{path} line 1: header count must be an integer")
    vectors: dict[str, np.ndarray] = {}
    for line_no, record in lines:
        where = f"{path} line {line_no}"
        if not isinstance(record, dict) or not isinstance(record.get("post_id"), str) or "vector" not in record:
            raise EmbeddingError(f"{where}: record must carry a string 'post_id' and a 'vector'")
        if record["post_id"] in vectors:
            raise EmbeddingError(f"{where}: duplicate post_id {record['post_id']!r}")
        # np.asarray would parse numeric strings and take booleans as 0 and 1
        if not isinstance(record["vector"], list) or not set(map(type, record["vector"])) <= {int, float}:
            raise EmbeddingError(f"{where}: vector is not numeric (expected a list of JSON numbers)")
        try:
            vec = np.asarray(record["vector"], dtype=np.float64)
        except OverflowError as err:
            raise EmbeddingError(f"{where}: vector is not numeric ({err})") from err
        if vec.shape != (dim,):
            raise EmbeddingError(f"{where}: vector length {vec.shape[0]} does not match header dim {dim}")
        if not np.all(np.isfinite(vec)):
            raise EmbeddingError(f"{where}: non-finite vector")
        vectors[record["post_id"]] = vec
    if len(vectors) != header["count"]:
        raise EmbeddingError(f"{path}: header count {header['count']} != {len(vectors)} records")
    return PrecomputedProvider(dim=dim, vectors=vectors)


def provider_from_spec(spec: str, dim: int):
    """The provider a config string names for a model whose input is ``dim`` wide: "hashed:<dim>" or the path
    of an embedding file of that width."""
    if spec.startswith("hashed:"):
        if spec != f"hashed:{dim}":
            raise EmbeddingError(f"embedding spec {spec!r} does not name the model's d_in: expected 'hashed:{dim}'")
        return HashedProvider(dim)
    return load_precomputed(spec, dim)


def embed_event(event: Event, provider) -> EmbeddingMatrix:
    """Stack one vector per post, claim in row 0, in the event's sorted order."""
    rows = np.empty((event.node_count, provider.dim), dtype=np.float64)
    for i, post in enumerate(event.posts):
        rows[i] = provider.vector_for(post)
    return EmbeddingMatrix(rows=rows)
