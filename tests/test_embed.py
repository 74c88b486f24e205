"""Embedding providers: hashed fallback and the precomputed file interface."""

import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rumorgraph.embed import (
    ENCODER_DIM,
    EmbeddingError,
    HashedProvider,
    PrecomputedProvider,
    embed_event,
    hashed_embed,
    load_precomputed,
    provider_from_spec,
    tokenize,
)
from tests.conftest import make_event, write_embeddings


def test_tokenize_mixed_scripts():
    assert tokenize("Hello, World!") == ["hello", "world"]
    assert tokenize("疫苗 fake news你好") == ["疫", "苗", "fake", "news", "你", "好"]
    assert tokenize("") == []
    assert tokenize("a1-b2") == ["a1", "b2"]


def test_hashed_empty_text_is_zero():
    assert np.array_equal(hashed_embed("", 16), np.zeros(16))


def test_hashed_deterministic_and_seed_sensitive():
    a = hashed_embed("rumor spreading fast", 32, seed=4)
    b = hashed_embed("rumor spreading fast", 32, seed=4)
    c = hashed_embed("rumor spreading fast", 32, seed=5)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_hashed_repeated_token_doubles_bucket():
    vec = hashed_embed("a a b", 8, seed=0)
    magnitudes = sorted(np.abs(vec[vec != 0.0]))
    assert len(magnitudes) == 2
    assert magnitudes[1] == pytest.approx(2 * magnitudes[0])


@given(st.text(max_size=60), st.integers(min_value=1, max_value=64))
def test_hashed_norm_is_zero_or_one(text, dim):
    norm = np.linalg.norm(hashed_embed(text, dim))
    assert norm == pytest.approx(0.0, abs=1e-12) or norm == pytest.approx(1.0, abs=1e-12)


def test_disjoint_tokens_near_orthogonal():
    # with a wide table these two token sets land in disjoint buckets
    u = hashed_embed("alpha beta", 4096, seed=1)
    v = hashed_embed("gamma delta", 4096, seed=1)
    assert abs(float(u @ v)) < 1e-12


def test_precomputed_roundtrip(tmp_path):
    path = tmp_path / "emb.jsonl"
    write_embeddings({"e-p0": np.arange(4.0), "e-p1": -np.ones(4)}, 4, path)
    provider = load_precomputed(path)
    assert provider.dim == 4
    event = make_event("e", "rumor", [0], texts=["hi"])
    mat = embed_event(event, provider)
    assert mat.rows.shape == (2, 4)
    assert np.array_equal(mat.rows[0], np.arange(4.0))


def test_precomputed_missing_post_resolution_error(tmp_path):
    path = tmp_path / "emb.jsonl"
    write_embeddings({"only": np.ones(3)}, 3, path)
    provider = load_precomputed(path)
    event = make_event("e", "rumor", [])
    with pytest.raises(EmbeddingError, match="e-p0"):
        embed_event(event, provider)


def test_precomputed_dimension_mismatch(tmp_path):
    path = tmp_path / "emb.jsonl"
    with open(path, "w") as fh:
        fh.write(json.dumps({"dim": 3, "count": 1}) + "\n")
        fh.write(json.dumps({"post_id": "p", "vector": [1.0, 2.0]}) + "\n")
    with pytest.raises(EmbeddingError, match="does not match header dim"):
        load_precomputed(path)


@pytest.mark.parametrize(
    "records, message",
    [
        (['{"post_id": "a", "vector": [1.0, 2.0]}', '{"post_id": "b", "vector": [1.0,'], "invalid JSON"),
        (['{"post_id": "a", "vector": [1.0, 2.0]}', '{"vector": [1.0, 2.0]}'], "'post_id'"),
        (['{"post_id": "a", "vector": [1.0, 2.0]}', '{"post_id": "b"}'], "'vector'"),
        (['{"post_id": "a", "vector": [1.0, 2.0]}', '{"post_id": "a", "vector": [3.0, 4.0]}'], "duplicate post_id 'a'"),
        (['{"post_id": "a", "vector": [1.0, 2.0]}', '{"post_id": "b", "vector": ["x", 2.0]}'], "not numeric"),
    ],
    ids=["malformed-json", "missing-post-id", "missing-vector", "duplicate-post-id", "non-numeric-vector"],
)
def test_precomputed_malformed_record_names_file_and_line(tmp_path, records, message):
    path = tmp_path / "emb.jsonl"
    path.write_text("\n".join([json.dumps({"dim": 2, "count": 2})] + records) + "\n")
    with pytest.raises(EmbeddingError, match=message) as info:
        load_precomputed(path)
    assert f"{path} line 3" in str(info.value)


def test_encoder_width_constant():
    assert ENCODER_DIM == 768


def test_embed_event_row_order_and_purity():
    event = make_event("e", "rumor", [0, 0], texts=["first", "second"])
    provider = HashedProvider(dim=16, seed=2)
    a = embed_event(event, provider)
    b = embed_event(event, provider)
    assert np.array_equal(a.rows, b.rows)
    assert a.rows.shape == (3, 16)
    assert np.array_equal(a.rows[0], hashed_embed(event.claim.text, 16, seed=2))
    for i, post in enumerate(event.posts):
        assert np.array_equal(a.rows[i], hashed_embed(post.text, 16, seed=2))


def test_provider_from_spec(tmp_path):
    hashed = provider_from_spec("hashed:24")
    assert isinstance(hashed, HashedProvider) and hashed.dim == 24
    path = tmp_path / "emb.jsonl"
    write_embeddings({"x": np.zeros(2)}, 2, path)
    assert isinstance(provider_from_spec(str(path)), PrecomputedProvider)
    for bad in ("hashed:abc", "hashed:0", "hashed:-3", "hashed:"):
        with pytest.raises(EmbeddingError, match="positive integer"):
            provider_from_spec(bad)


def test_claim_only_event_single_row():
    event = make_event("solo", "non-rumor", [])
    mat = embed_event(event, HashedProvider(dim=8))
    assert mat.rows.shape == (1, 8)
