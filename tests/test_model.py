"""Model contract: parameter count, forward semantics, invariances, snapshots."""

import hashlib
from dataclasses import asdict
from types import SimpleNamespace

import numpy as np
import pytest

from rumorgraph import model
from rumorgraph import numcore as nc
from rumorgraph.embed import HashedProvider, embed_event
from rumorgraph.model import (
    GraphBatch,
    ModelConfig,
    SnapshotError,
    encode_batch,
    encode_events,
    init_params,
    load_snapshot,
    save_snapshot,
)
from rumorgraph.numcore import RngStreams
from rumorgraph.numcore.tensor import DroppedValueError
from rumorgraph.propagation import PropagationGraph, build_graph
from tests import oracles
from tests.conftest import make_event, mixing_of, permute_graph, random_tree_event
from tests.oracles import dense_adjacency, normalized_reference, param_count

TINY = ModelConfig(d_in=6, d_hidden=5, d_out=4)


def _prepared(event, dim=6):
    return embed_event(event, HashedProvider(dim=dim)).rows, build_graph(event)


def _encode_one(x, graph, params, mode="eval", streams=None):
    """Encode a single event; returns (representation, probabilities)."""
    result = encode_batch(GraphBatch.from_events([x], [graph]), params, mode=mode, streams=streams)
    return result.reps, result.probs


def test_param_count_matches_published_total():
    assert param_count(ModelConfig(d_in=768, d_hidden=512, d_out=128)) == 562_818


def test_param_count_minimal_config_by_formula():
    # d_in=d_hidden=d_out=1, classes=2: 1+1 + 2*2 + 2*1+1 + 2*2 + 2*2+2 = 19
    assert param_count(ModelConfig(d_in=1, d_hidden=1, d_out=1)) == 19


def test_param_count_class_growth_is_linear():
    # ModelConfig takes one class per label only, so the grown head is a plain namespace
    base = ModelConfig(d_in=16, d_hidden=8, d_out=4, classes=2)
    grown = SimpleNamespace(**{**asdict(base), "classes": 4})
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
    rep, probs = _encode_one(x, graph, params, mode="eval")

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


def test_single_node_event_representation_is_single_row(monkeypatch):
    pooled = []
    segment_mean = nc.segment_mean

    def recording_segment_mean(x, sizes):
        pooled.append(x.data)  # the encoder drops this value once its consumers have run
        return segment_mean(x, sizes)

    monkeypatch.setattr(nc, "segment_mean", recording_segment_mean)
    event = make_event("solo", "rumor", [])
    x, graph = _prepared(event)
    params = init_params(TINY, RngStreams(1))
    rep, _ = _encode_one(x, graph, params)
    (states,) = pooled
    assert np.allclose(rep.data, states, atol=1e-15)


def test_a_training_encode_drops_the_values_no_backward_reads():
    # both convolutions' and both layer norms' outputs; conv2's weight gradient forms ln1's output again
    gen = np.random.default_rng(8)
    prepared = [_prepared(random_tree_event(gen, f"e{i}", "rumor", max_nodes=6)) for i in range(3)]
    batch = GraphBatch.from_events([x for x, _ in prepared], [g for _, g in prepared])
    params = init_params(TINY, RngStreams(7))
    result = encode_batch(batch, params, mode="train", streams=RngStreams(9))
    (h2_tilde,) = result.reps._parents
    h2, h1 = h2_tilde._parents[:2]
    h1_tilde = h2._parents[0]
    for dropped in (h1, h1_tilde, h2, h2_tilde):
        with pytest.raises(DroppedValueError):
            dropped.data
    oracles.sum_all(result.reps).backward()
    assert all(np.any(t.grad != 0.0) for t in (params.w0, params.w1, params.ln1_gain))


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
        rep, probs = _encode_one(x, graph, params)
        perm = np.concatenate([[0], 1 + gen.permutation(n - 1)])
        rep_perm, _ = _encode_one(x[perm], permute_graph(graph, perm), params)
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
        rep, probs = _encode_one(x, graph, params)
        assert np.allclose(result.reps.data[i], rep.data[0], atol=1e-12)
        assert np.allclose(result.probs.data[i], probs.data[0], atol=1e-12)


def test_encode_events_scores_whole_events_in_order_under_the_budget(monkeypatch):
    sizes = [3, 4, 2, 12, 1, 5, 3]
    gen = np.random.default_rng(9)
    parents = [[int(gen.integers(0, j + 1)) for j in range(n - 1)] for n in sizes]
    prepared = [_prepared(make_event(f"e{i}", "rumor", p)) for i, p in enumerate(parents)]
    params = init_params(TINY, RngStreams(3))
    chunks = []

    def spy(batch, *args, **kwargs):
        chunks.append(batch.sizes)
        return encode_batch(batch, *args, **kwargs)

    monkeypatch.setattr(model, "encode_batch", spy)
    monkeypatch.setattr(model, "_CHUNK_BYTES", 8 * (TINY.d_hidden + TINY.d_in) * 8)  # 8 rows
    probs, reps = encode_events([x for x, _ in prepared], [g for _, g in prepared], params)
    assert chunks == [[3, 4], [2], [12], [1, 5], [3]]  # the 12-node event alone
    for i, (x, graph) in enumerate(prepared):
        rep, prob = _encode_one(x, graph, params)
        assert np.allclose(reps[i], rep.data[0], atol=1e-12)
        assert np.allclose(probs[i], prob.data[0], atol=1e-12)


def test_batch_operator_memory_is_linear_in_nodes_and_edges():
    # about 6k nodes in one batch, over an evaluation chunk at paper widths;
    # a dense (sum n)^2 float64 operator would take about 290 MB
    gen = np.random.default_rng(21)
    graphs = []
    for _ in range(300):
        n = int(gen.integers(1, 40))
        graphs.append(PropagationGraph(n, tuple(sorted((int(gen.integers(0, i)), i) for i in range(1, n)))))
    nodes = sum(g.n for g in graphs)
    edges = sum(len(g.edges) for g in graphs)
    batch = GraphBatch.from_events([np.zeros((g.n, 1)) for g in graphs], graphs)
    assert nodes > 5000
    assert batch.mixing.nbytes <= 64 * (nodes + edges)


def test_eval_forward_deterministic_and_train_dropout_masks():
    event = make_event("e", "rumor", [0, 1, 1])
    x, graph = _prepared(event)
    params = init_params(TINY, RngStreams(6))
    rep_a, _ = _encode_one(x, graph, params, mode="eval")
    rep_b, _ = _encode_one(x, graph, params, mode="eval")
    assert np.array_equal(rep_a.data, rep_b.data)

    train_a, _ = _encode_one(x, graph, params, mode="train", streams=RngStreams(9))
    train_b, _ = _encode_one(x, graph, params, mode="train", streams=RngStreams(9))
    assert np.array_equal(train_a.data, train_b.data)
    assert not np.array_equal(train_a.data, rep_a.data)


def test_backward_frees_interior_gradients_and_keeps_leaf_bytes():
    events = [make_event("a", "rumor", [0, 0, 1]), make_event("b", "non-rumor", [0, 1])]
    prepared = [_prepared(e) for e in events]
    batch = GraphBatch.from_events([x for x, _ in prepared], [g for _, g in prepared])
    runs = []
    for walk in (nc.Tensor.backward, oracles.backward):
        params = init_params(TINY, RngStreams(4))
        result = encode_batch(batch, params, mode="train", streams=RngStreams(5))
        loss = oracles.sum_all(result.probs * result.probs) + oracles.sum_all(result.reps * result.reps)
        visited = walk(loss)
        runs.append((params, visited))
    (params, visited), (reference, _) = runs
    interior = [node for node in visited if node._backward is not None]
    assert interior and all(node.grad is None for node in interior)
    for name, tensor in params.tensors.items():
        assert tensor.grad.tobytes() == reference.tensors[name].grad.tobytes(), name


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
        (lambda raw: raw.replace(b'"seed"', b'"sead"'), r"unreadable header \(KeyError: 'seed'\)"),
        (lambda raw: raw.replace(b', "bc"]', b"]")[:-16], "does not name each parameter once"),
        (lambda raw: raw.replace(b'"d_in": 6', b'"d_in": 6.0'), r"d_in must be an integer, got 6\.0"),
        (lambda raw: raw.replace(b'"classes": 2', b'"classes": 2.0'), r"classes must be an integer, got 2\.0"),
        (lambda raw: raw.replace(b'"classes": 2', b'"classes": 3'), r"classes must be 2, one per label, got 3"),
        (lambda raw: raw.replace(b'"d_out": 4', b'"d_out": true'), "d_out must be an integer, got True"),
        (lambda raw: raw.replace(b'"layer_norm_eps": 1e-05', b'"layer_norm_eps": NaN'), "must be positive and finite, got nan"),
        (lambda raw: raw.replace(b'"layer_norm_eps": 1e-05', b'"layer_norm_eps": Infinity'), "finite, got inf"),
        (lambda raw: raw[:-8] + np.array(np.nan, dtype="<f8").tobytes(), "payload holds a non-finite value"),
    ],
    ids=[
        "short-blob",
        "partial-float",
        "trailing-byte",
        "trailing-float",
        "bad-header",
        "bad-version",
        "no-seed",
        "short-order",
        "float-d_in",
        "float-classes",
        "three-classes",
        "bool-d_out",
        "nan-eps",
        "infinite-eps",
        "nan-weight",
    ],
)
def test_damaged_snapshot_raises_typed_error(tmp_path, damage, message):
    path = tmp_path / "model.snapshot"
    save_snapshot(init_params(TINY, RngStreams(8)), seed=8, path=path)
    path.write_bytes(damage(path.read_bytes()))
    with pytest.raises(SnapshotError, match=message):
        load_snapshot(path)
