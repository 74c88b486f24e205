"""Embedding providers: hashed fallback and the precomputed file interface."""

import hashlib
import json

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from rumorgraph.dataio import Post
from rumorgraph.numcore import ShapeError
from rumorgraph.embed import (
    EmbeddingError,
    HashedProvider,
    PrecomputedProvider,
    embed_event,
    load_precomputed,
    pack,
    provider_from_spec,
    stack,
    tokenize,
    unpack,
)
from rumorgraph.synth import SynthSpec, generate
from tests.conftest import jsonl_files, make_event, valid_or_any, write_embeddings
from tests.oracles import hashed_embed_reference, tokenize_reference


def hashed_embed(text, dim):
    """One text through a fresh provider, whose token memo starts empty."""
    return HashedProvider(dim).vector_for(Post("p", None, text, 0))


# the edges of the three CJK blocks and their neighbours outside them, dotted
# capital I (lowercases to two characters), sharp s, the Kelvin sign
# (lowercases to ASCII k) and astral letters and digits
TRICKY = "\u33ff\u3400\u4dbf\u4dc0\u4dff\u4e00\u9fff\ua000\uf8ff\uf900\ufaff\ufb00\u0130\u00df\u212a\U0001d518\U0001d7d8\U00020000"
TEXT = st.text(
    alphabet=st.one_of(
        st.sampled_from(TRICKY),
        st.characters(max_codepoint=0x7F),
        st.characters(min_codepoint=0x10000),
        st.characters(),
    ),
    max_size=40,
)
# every edge character between two letters, then all of them in a row
EDGES = "a" + "a".join(TRICKY) + "a " + TRICKY


def test_tokenize_mixed_scripts():
    assert tokenize("Hello, World!") == ["hello", "world"]
    assert tokenize("疫苗 fake news你好") == ["疫", "苗", "fake", "news", "你", "好"]
    assert tokenize("") == []
    assert tokenize("a1-b2") == ["a1", "b2"]


@given(TEXT)
@example(EDGES)
def test_tokenize_matches_character_loop_reference(text):
    assert tokenize(text) == tokenize_reference(text)


@given(
    st.lists(TEXT, min_size=1, max_size=6),
    st.sampled_from([1, 2, 7, 64, 768]),
)
@example([EDGES, EDGES.upper()], 768)
def test_hashed_provider_matches_uncached_reference_cold_and_warm(texts, dim):
    provider = HashedProvider(dim)
    posts = [Post(f"p{i}", None, text, 0) for i, text in enumerate(texts)]
    expected = [hashed_embed_reference(text, dim).tobytes() for text in texts]
    assert [provider.vector_for(post).tobytes() for post in posts] == expected
    # every token is now in the memo
    assert [provider.vector_for(post).tobytes() for post in posts] == expected


def test_hashed_embedding_bits_are_pinned():
    # every snapshot and metric depends on these bits; the digests were
    # computed with the uncached character-loop form kept in tests/oracles.py
    mixed = [
        "Hello, World! a1-b2 \u75ab\u82d7 fake news\u4f60\u597d",
        "\u0130stanbul STRASSE stra\u00dfe \U0001d518 \U0001d7d8",
        "\u3400\u4dbf\u4e00\u9fff\uf900\ufaff x\u3400\u33ff\u4dc0 \u212aK",
        "",
        "!!! \u00c0\u00c9\u00ce \u0152\u0178",
    ]
    source, target = generate(SynthSpec(source_events=6, target_events=6, mean_replies=4.0, seed=11))
    events = source.events + target.events + [make_event("mixed", "rumor", [0, 1, 0, 2, 0], texts=mixed)]
    provider = HashedProvider(dim=768)
    rows = b"".join(embed_event(event, provider).rows.tobytes() for event in events)
    assert hashlib.sha256(rows).hexdigest() == "7f5d108686b16a76840e4bfbce05111b65c33aa11910a4325920754f497a8cea"


def test_hashed_empty_text_is_zero():
    assert np.array_equal(hashed_embed("", 16), np.zeros(16))


def test_hashed_repeated_token_doubles_bucket():
    vec = hashed_embed("a a b", 8)
    magnitudes = sorted(np.abs(vec[vec != 0.0]))
    assert len(magnitudes) == 2
    assert magnitudes[1] == pytest.approx(2 * magnitudes[0])


@given(st.text(max_size=60), st.integers(min_value=1, max_value=64))
def test_hashed_norm_is_zero_or_one(text, dim):
    norm = np.linalg.norm(hashed_embed(text, dim))
    assert norm == pytest.approx(0.0, abs=1e-12) or norm == pytest.approx(1.0, abs=1e-12)


def test_disjoint_tokens_near_orthogonal():
    # with a wide table these two token sets land in disjoint buckets
    u = hashed_embed("alpha beta", 4096)
    v = hashed_embed("gamma delta", 4096)
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


HEADER = json.dumps({"dim": 2, "count": 2})
GOOD = '{"post_id": "a", "vector": [1.0, 2.0]}'


@pytest.mark.parametrize(
    "header, record, message, line",
    [
        (HEADER, '{"post_id": "b", "vector": [1.0,', "invalid JSON", 3),
        (HEADER, '{"vector": [1.0, 2.0]}', "'post_id'", 3),
        (HEADER, '{"post_id": "b"}', "'vector'", 3),
        (HEADER, '{"post_id": "a", "vector": [3.0, 4.0]}', "duplicate post_id 'a'", 3),
        (HEADER, '{"post_id": "b", "vector": ["x", 2.0]}', "not numeric", 3),
        (HEADER, '{"post_id": "b", "vector": [1' + "0" * 400 + ', 2.0]}', "too large to convert to float", 3),
        (HEADER, '{"post_id": "b", "vector": [1' + "0" * 5000 + ', 2.0]}', "invalid JSON .*digits", 3),
        ('{"dim": true, "count": 2}', '{"post_id": "b", "vector": [1.0]}', "dimension must be a positive integer", 1),
        ("5", GOOD, "must carry 'dim' and 'count'", 1),
        (HEADER, '{"post_id": "b", "vector": ["1.5", " 2 "]}', "not numeric", 3),
        (HEADER, '{"post_id": "b", "vector": [true, 2.0]}', "not numeric", 3),
        ('{"dim": 2, "count": true}', "", "header count must be an integer", 1),
        ("[" * 100_000, GOOD, "invalid header", 1),
        (HEADER, "[" * 100_000, "invalid JSON", 3),
    ],
    ids=[
        "malformed-json",
        "missing-post-id",
        "missing-vector",
        "duplicate-post-id",
        "non-numeric-vector",
        "float-overflow",
        "integer-past-digit-limit",
        "boolean-dim",
        "non-object-header",
        "numeric-string-vector",
        "boolean-vector-component",
        "boolean-count",
        "deeply-nested-header",
        "deeply-nested-record",
    ],
)
def test_precomputed_malformed_record_names_file_and_line(tmp_path, header, record, message, line):
    path = tmp_path / "emb.jsonl"
    path.write_text("\n".join([header, GOOD, record]) + "\n")
    with pytest.raises(EmbeddingError, match=message) as info:
        load_precomputed(path)
    assert f"{path} line {line}: " in str(info.value)


# a component too large for a float64 sits among the vector entries
COMPONENT = st.floats() | st.integers() | st.sampled_from([10**400, -(10**400)])


@given(
    jsonl_files(
        st.fixed_dictionaries(
            {"dim": valid_or_any(st.integers(0, 3)), "count": valid_or_any(st.integers(0, 3))}
        ),
        st.fixed_dictionaries(
            {
                "post_id": valid_or_any(st.sampled_from(["a", "b"])),
                "vector": valid_or_any(st.lists(COMPONENT, max_size=3)),
            }
        ),
    )
)
def test_load_precomputed_fuzz_raises_only_embedding_error(tmp_path_factory, content):
    path = tmp_path_factory.mktemp("fuzz") / "emb.jsonl"
    path.write_bytes(content)
    try:
        load_precomputed(path)
    except EmbeddingError:
        pass


def test_embed_event_row_order_and_purity():
    event = make_event("e", "rumor", [0, 0], texts=["first", "second"])
    provider = HashedProvider(dim=16)
    a = embed_event(event, provider)
    b = embed_event(event, provider)
    assert np.array_equal(a.rows, b.rows)
    assert a.rows.shape == (3, 16)
    assert np.array_equal(a.rows[0], hashed_embed(event.claim.text, 16))
    for i, post in enumerate(event.posts):
        assert np.array_equal(a.rows[i], hashed_embed(post.text, 16))


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


def _hashed_rows(width, tmp_path):
    # an empty reply gives an all-zero row; widths that are no multiple of 8 end their masks in a partial byte
    texts = ["alpha beta", "", "gamma gamma delta", "Hello, World! a1-b2 \u75ab\u82d7", "epsilon"]
    return embed_event(make_event("e", "rumor", [0, 0, 1, 2, 0], texts=texts), HashedProvider(width)).rows


def _precomputed_rows(width, tmp_path):
    # the claim row holds a -0.0 beside zeros, reply 1 is fully dense and reply 2 is all zero
    claim = np.zeros(width)
    claim[[0, 5]] = -0.0, 1.5
    dense = np.random.default_rng(3).normal(size=width)
    vectors = {"e-p0": claim, "e-p1": dense, "e-p2": np.zeros(width), "e-p3": -dense}
    write_embeddings(vectors, width, tmp_path / "emb.jsonl")
    rows = embed_event(make_event("e", "rumor", [0, 0, 1]), load_precomputed(tmp_path / "emb.jsonl")).rows
    assert np.signbit(rows[0, 0]) and np.all(rows[1] != 0.0)
    return rows


def _dense_rows(width, tmp_path):
    # no entry is zero, as with encoder vectors; a -0.0 is stored like any other entry
    event = make_event("e", "rumor", [0, 0, 1, 2])
    gen = np.random.default_rng(width)
    vectors = {post.post_id: gen.normal(size=width) for post in event.posts}
    vectors["e-p1"][0] = -0.0
    return embed_event(event, PrecomputedProvider(width, vectors)).rows


@pytest.mark.parametrize(
    "rows_of, width",
    [(_hashed_rows, w) for w in (1, 5, 8, 13, 16, 768)]
    + [(_precomputed_rows, 13), (_dense_rows, 13), (_dense_rows, 768)],
    ids=[f"hashed-{w}" for w in (1, 5, 8, 13, 16, 768)] + ["precomputed-13", "dense-13", "dense-768"],
)
def test_packing_then_unpacking_returns_the_dense_rows_bitwise(tmp_path, rows_of, width):
    rows = rows_of(width, tmp_path)
    dense = rows_of is _dense_rows
    # an all-zero row is among the other rows; of dense rows every entry is stored
    assert rows.any(axis=1).all() == dense
    packed = pack(rows)
    assert (packed.values.size == rows.size) == dense
    assert (packed.n, packed.width) == rows.shape
    out = unpack(packed)
    assert out.dtype == rows.dtype and out.shape == rows.shape and out.tobytes() == rows.tobytes()
    # a fresh array on every call, also where it is the stored values reshaped
    assert not np.shares_memory(out, packed.values) and not np.shares_memory(out, unpack(packed))
    single = unpack(packed, np.float32)
    assert single.dtype == np.float32 and single.tobytes() == rows.astype(np.float32).tobytes()
    for k in range(1, rows.shape[0] + 1):
        prefix, expected = packed.prefix(k), pack(rows[:k])
        assert (prefix.n, prefix.width) == (expected.n, expected.width) == (k, width)
        for name in ("masks", "values", "counts"):
            assert getattr(prefix, name).tobytes() == getattr(expected, name).tobytes(), (k, name)
        # stacked with another event, as a batch stacks them: the packing of the joined rows
        stacked, joined = stack([prefix, packed]), np.concatenate([rows[:k], rows])
        for name in ("masks", "values", "counts"):
            assert getattr(stacked, name).tobytes() == getattr(pack(joined), name).tobytes(), (k, name)
        assert unpack(stacked).tobytes() == joined.tobytes()
    # after an event of dense rows: a batch that stores all its entries, or only some
    other = _dense_rows(width, tmp_path)
    assert unpack(stack([pack(other), packed])).tobytes() == np.concatenate([other, rows]).tobytes()


@given(
    hnp.arrays(
        np.float64,
        st.tuples(st.integers(1, 4), st.integers(1, 12)),
        # within float32's range, so the cast does not overflow; tiny values round to a signed zero
        elements=st.one_of(st.sampled_from([0.0, -0.0, 1e-320, -1e-50]), st.floats(-1e38, 1e38)),
    ),
    st.integers(1, 3),
)
def test_unpacking_at_f32_gives_the_bits_of_casting_the_f64_rows(rows, split):
    # casting the values before the scatter, as unpack does, and the dense rows after it agree;
    # with every +0.0 made -0.0 each entry is stored, so the dense branch is taken
    for case in (rows, np.where(rows.view(np.int64) == 0, -0.0, rows)):
        parts = [pack(case[:split]), pack(case[split:])] if split < len(case) else [pack(case)]
        want = unpack(stack(parts)).astype(np.float32)
        got = unpack(stack(parts), np.float32)
        assert got.dtype == np.float32 and got.tobytes() == want.tobytes()


def test_unpacking_refuses_rows_of_different_widths():
    with pytest.raises(ShapeError, match="widths"):
        stack([pack(np.ones((2, 9))), pack(np.ones((1, 16)))])


def test_a_dense_precomputed_event_packs_to_at_most_1_02_times_its_dense_bytes():
    width = 768
    event = make_event("e", "rumor", [0, 0, 1, 2, 2, 0])
    gen = np.random.default_rng(4)
    provider = PrecomputedProvider(width, {post.post_id: gen.normal(size=width) for post in event.posts})
    rows = embed_event(event, provider).rows
    packed = pack(rows)
    assert packed.values.size == rows.size
    assert packed.masks.nbytes + packed.values.nbytes + packed.counts.nbytes <= 1.02 * rows.nbytes
