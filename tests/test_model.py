"""Model contract: parameter count, forward semantics, invariances, snapshots."""

import hashlib

import numpy as np
import pytest

from rumorgraph import numcore as nc
from rumorgraph.embed import HashedProvider, embed_event
from rumorgraph.model import (
    GraphBatch,
    ModelConfig,
    SnapshotError,
    encode_batch,
    init_params,
    load_snapshot,
    save_snapshot,
)
from rumorgraph.numcore import RngStreams
from rumorgraph.propagation import build_graph
from tests.conftest import make_event, mixing_of, permute_graph, random_tree_event
from tests.oracles import dense_adjacency, normalized_reference, param_count

TINY = ModelConfig(d_in=6, d_hidden=5, d_out=4)


def _prepared(event, dim=6, seed=0):
    return embed_event(event, HashedProvider(dim=dim, seed=seed)).rows, build_graph(event)


def _encode_one(x, graph, params, mode="eval", streams=None):
    """Encode a single event; returns (node states, representation, probabilities)."""
    result = encode_batch(GraphBatch.from_events([x], [graph]), params, mode=mode, streams=streams)
    return result.node_states, result.reps, result.probs


def test_param_count_matches_published_total():
    assert param_count(ModelConfig(d_in=768, d_hidden=512, d_out=128)) == 562_818


def test_param_count_minimal_config_by_formula():
    # d_in=d_hidden=d_out=1, classes=2: 1+1 + 2*2 + 2*1+1 + 2*2 + 2*2+2 = 19
    assert param_count(ModelConfig(d_in=1, d_hidden=1, d_out=1)) == 19


def test_param_count_class_growth_is_linear():
    base = ModelConfig(d_in=16, d_hidden=8, d_out=4, classes=2)
    grown = ModelConfig(d_in=16, d_hidden=8, d_out=4, classes=4)
    assert param_count(grown) - param_count(base) == (4 + 8) * 2 + 2


def test_init_matches_count_and_conventions():
    params = init_params(TINY, RngStreams(0))
    assert sum(t.data.size for t in params.tensors.values()) == param_count(TINY)
    assert np.array_equal(params.ln1_gain.data, np.ones(11))
    assert np.array_equal(params.ln2_bias.data, np.zeros(9))
    assert np.array_equal(params.b0.data, np.zeros(5))


def test_config_validation():
    with pytest.raises(ValueError, match="depth"):
        ModelConfig(d_in=4, layers=3)
    with pytest.raises(ValueError):
        ModelConfig(d_in=0)


def test_forward_manual_recomputation():
    # hand-built forward of the layer rule on a small event
    event = make_event("e", "rumor", [0, 0])
    x, graph = _prepared(event)
    params = init_params(TINY, RngStreams(4))
    _, rep, probs = _encode_one(x, graph, params, mode="eval")

    a_hat = normalized_reference(dense_adjacency(graph))
    assert np.allclose(mixing_of(graph), a_hat, atol=1e-15)

    def ln(m, gain, bias, eps=1e-5):
        mu = m.mean(axis=1, keepdims=True)
        var = m.var(axis=1, keepdims=True)
        return (m - mu) / np.sqrt(var + eps) * gain + bias

    h1 = np.maximum(a_hat @ x @ params.w0.data + params.b0.data, 0.0)
    h1t = ln(np.concatenate([h1, np.tile(x[0], (3, 1))], axis=1), params.ln1_gain.data, params.ln1_bias.data)
    h2 = np.maximum(a_hat @ h1t @ params.w1.data + params.b1.data, 0.0)
    h2t = ln(np.concatenate([h2, np.tile(h1[0], (3, 1))], axis=1), params.ln2_gain.data, params.ln2_bias.data)
    o = h2t.mean(axis=0, keepdims=True)
    logits = o @ params.wc.data + params.bc.data
    p = np.exp(logits - logits.max())
    p /= p.sum()

    assert np.allclose(rep.data, o, atol=1e-12)
    assert np.allclose(probs.data, p, atol=1e-12)


def test_single_node_event_representation_is_single_row():
    event = make_event("solo", "rumor", [])
    x, graph = _prepared(event)
    params = init_params(TINY, RngStreams(1))
    states, rep, _ = _encode_one(x, graph, params)
    assert np.allclose(rep.data, states.data, atol=1e-15)


def test_claim_fixing_permutation_leaves_representation():
    gen = np.random.default_rng(17)
    params = init_params(TINY, RngStreams(2))
    checked = 0
    for trial in range(50):
        n_replies = int(gen.integers(2, 8))
        parents = [int(gen.integers(0, i + 1)) for i in range(n_replies)]
        event = make_event(f"e{trial}", "rumor", parents)
        x, graph = _prepared(event)
        n = graph.n
        _, rep, probs = _encode_one(x, graph, params)
        perm = np.concatenate([[0], 1 + gen.permutation(n - 1)])
        _, rep_perm, _ = _encode_one(x[perm], permute_graph(graph, perm), params)
        assert np.max(np.abs(rep.data - rep_perm.data)) < 1e-10
        assert np.allclose(probs.data.sum(axis=1), 1.0, atol=1e-12)
        checked += 1
    assert checked == 50


def test_batched_encoding_matches_per_event():
    gen = np.random.default_rng(5)
    params = init_params(TINY, RngStreams(3))
    events = [random_tree_event(gen, f"e{i}", "rumor", max_nodes=6) for i in range(4)]
    prepared = [_prepared(e) for e in events]
    batch = GraphBatch.from_events([x for x, _ in prepared], [g for _, g in prepared])
    result = encode_batch(batch, params, mode="eval")
    for i, (x, graph) in enumerate(prepared):
        _, rep, probs = _encode_one(x, graph, params)
        assert np.allclose(result.reps.data[i], rep.data[0], atol=1e-12)
        assert np.allclose(result.probs.data[i], probs.data[0], atol=1e-12)


def test_eval_forward_deterministic_and_train_dropout_masks():
    event = make_event("e", "rumor", [0, 1, 1])
    x, graph = _prepared(event)
    params = init_params(TINY, RngStreams(6))
    _, rep_a, _ = _encode_one(x, graph, params, mode="eval")
    _, rep_b, _ = _encode_one(x, graph, params, mode="eval")
    assert np.array_equal(rep_a.data, rep_b.data)

    _, train_a, _ = _encode_one(x, graph, params, mode="train", streams=RngStreams(9))
    _, train_b, _ = _encode_one(x, graph, params, mode="train", streams=RngStreams(9))
    assert np.array_equal(train_a.data, train_b.data)
    assert not np.array_equal(train_a.data, rep_a.data)


def test_forward_shape_error():
    event = make_event("e", "rumor", [0])
    x, graph = _prepared(event)
    params = init_params(TINY, RngStreams(0))
    with pytest.raises(nc.ShapeError):
        _encode_one(x[:1], graph, params)
    bad_width = np.zeros((graph.n, 9))
    with pytest.raises(nc.ShapeError):
        _encode_one(bad_width, graph, params)


def test_snapshot_roundtrip_bytes_and_values(tmp_path):
    params = init_params(TINY, RngStreams(8))
    path_a, path_b = tmp_path / "a.snapshot", tmp_path / "b.snapshot"
    save_snapshot(params, seed=8, path=path_a)
    loaded, seed = load_snapshot(path_a)
    assert seed == 8
    for name, tensor in params.tensors.items():
        assert np.array_equal(tensor.data, loaded.tensors[name].data)
    save_snapshot(loaded, seed=8, path=path_b)
    assert path_a.read_bytes() == path_b.read_bytes()


def test_snapshot_format_is_pinned(tmp_path):
    # the file layout external readers parse: header keys "config" and "order",
    # then exactly the float64 parameter bytes
    path = tmp_path / "golden.snapshot"
    save_snapshot(init_params(TINY, RngStreams(8)), seed=8, path=path)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == "e79403a91ab19183624999bde3f30d92503b922867b62cdf2d2ce600b8adb374"


@pytest.mark.parametrize(
    "damage, message",
    [
        (lambda raw: raw[:-8], "truncated"),
        (lambda raw: raw[:-3], "truncated"),
        (lambda raw: raw + b"\x00", "trailing bytes"),
        (lambda raw: raw + bytes(8), "trailing bytes"),
        (lambda raw: b"{not json\n" + raw.split(b"\n", 1)[1], "unreadable header"),
        (lambda raw: raw.replace(b'"format_version": 1', b'"format_version": 9'), r"unsupported format_version 9 \(expected 1\)$"),
    ],
    ids=["short-blob", "partial-float", "trailing-byte", "trailing-float", "bad-header", "bad-version"],
)
def test_damaged_snapshot_raises_typed_error(tmp_path, damage, message):
    path = tmp_path / "model.snapshot"
    save_snapshot(init_params(TINY, RngStreams(8)), seed=8, path=path)
    path.write_bytes(damage(path.read_bytes()))
    with pytest.raises(SnapshotError, match=message):
        load_snapshot(path)
