"""Augmented-view strategies: ascent property, masks, and deformed re-encoding."""

import numpy as np
import pytest

from rumorgraph import numcore as nc
from rumorgraph.augment import (
    AugmentStrategy,
    adversarial,
    augment_batch,
    classification_gradients,
    feature_dropout,
)
from rumorgraph.embed import HashedProvider, embed_event, pack
from rumorgraph.model import GraphBatch, ModelConfig, classify, encode_batch, init_params
from rumorgraph.numcore import RngStreams, Tensor
from rumorgraph.objectives import ce_from_probs
from rumorgraph.propagation import PropagationGraph, build_graph, dropedge
from tests import oracles
from tests.conftest import make_event, mixing_of

TINY = ModelConfig(d_in=6, d_hidden=5, d_out=4)


def _prepared(event, dim=6):
    return pack(embed_event(event, HashedProvider(dim=dim)).rows), build_graph(event)


def _rep(x, graph, params):
    return encode_batch(GraphBatch.from_events([x], [graph]), params, mode="eval")


def _dropedge_view(x, graph, params, rate, gen):
    """Evaluation-mode representation of one event on a DropEdge-deformed topology."""
    return _rep(x, dropedge(graph, rate, gen), params)


def test_strategy_validation():
    AugmentStrategy(kind="adversarial", epsilon=0.1)
    with pytest.raises(ValueError):
        AugmentStrategy(kind="mystery")
    with pytest.raises(ValueError):
        AugmentStrategy(kind="adversarial", epsilon=0.0)
    with pytest.raises(ValueError):
        AugmentStrategy(kind="feature_dropout", feature_dropout_rate=1.5)


def test_adversarial_zero_gradient_is_identity():
    rep = Tensor(np.array([[1.0, 2.0, 3.0]]))
    shifted = adversarial(rep, np.zeros((1, 3)), 0.5)
    assert np.array_equal(shifted.data, rep.data)


def test_adversarial_shift_has_magnitude_epsilon():
    rep = Tensor(np.array([[1.0, 2.0, 3.0]]))
    shifted = adversarial(rep, np.array([[0.3, -0.4, 0.0]]), 0.7)
    assert np.linalg.norm(shifted.data - rep.data) == pytest.approx(0.7, abs=1e-12)


def test_adversarial_quadratic_example():
    # L(o) = |o|^2 / 2 at o=(3,4): gradient (3,4), normalized (0.6, 0.8)
    rep = Tensor(np.array([[3.0, 4.0]]))
    shifted = adversarial(rep, np.array([[3.0, 4.0]]), 1.0)
    assert np.allclose(shifted.data, [[3.6, 4.8]])
    assert 0.5 * np.sum(shifted.data**2) > 0.5 * np.sum(rep.data**2)


def test_adversarial_direction_is_ascent_for_classification_loss():
    event_a = make_event("a", "rumor", [0, 0])
    event_b = make_event("b", "non-rumor", [0])
    params = init_params(TINY, RngStreams(0))
    prepared = [_prepared(event_a), _prepared(event_b)]
    labels = np.array([1, 0])
    batch = GraphBatch.from_events([x for x, _ in prepared], [g for _, g in prepared])
    reps = encode_batch(batch, params, mode="eval")
    grads = classification_gradients(reps, labels, params)

    from tests.oracles import ce_reference

    def loss_at(reps):
        logits = reps @ params.wc.data + params.bc.data
        exp = np.exp(logits - logits.max(axis=1, keepdims=True))
        probs = exp / exp.sum(axis=1, keepdims=True)
        return ce_reference(probs, labels) * len(labels)

    h = 1e-5
    for i in range(2):
        direction = grads[i] / np.linalg.norm(grads[i])
        plus, minus = reps.data.copy(), reps.data.copy()
        plus[i] += h * direction
        minus[i] -= h * direction
        directional = (loss_at(plus) - loss_at(minus)) / (2 * h)
        assert directional >= -1e-6


def test_adversarial_leaves_no_stale_gradients():
    event = make_event("a", "rumor", [0])
    params = init_params(TINY, RngStreams(1))
    x, graph = _prepared(event)
    batch = GraphBatch.from_events([x], [graph])
    reps = encode_batch(batch, params, mode="eval")
    classification_gradients(reps, np.array([1]), params)
    assert reps.grad is None
    assert all(t.grad is None for t in params.tensors.values())


def _two_event_result():
    events = [make_event("a", "rumor", [0, 0, 1]), make_event("b", "non-rumor", [0])]
    prepared = [_prepared(e) for e in events]
    batch = GraphBatch.from_events([x for x, _ in prepared], [g for _, g in prepared])
    params = init_params(TINY, RngStreams(2))
    return encode_batch(batch, params, mode="train", streams=RngStreams(3)), np.array([1, 0]), params


def test_classification_gradients_match_a_full_backward_bitwise():
    for precision, dtype in (("f64", np.float64), ("f32", np.float32)):
        with nc.precision(precision):
            reps, labels, params = _two_event_result()
            probs = classify(reps, params.wc, params.bc)
            want = oracles.grad_wrt(ce_from_probs(probs, labels) * float(len(labels)), reps)
            got = classification_gradients(reps, labels, params)
        assert got.dtype == want.dtype == dtype, precision
        assert got.tobytes() == want.tobytes(), precision


def test_classification_gradients_run_no_rule_below_the_representations():
    reps, labels, params = _two_event_result()
    below = reps._topo_order()
    ran = []
    for node in below:
        if node._backward is not None:
            node._backward = lambda g, node=node: ran.append(node)
    classification_gradients(reps, labels, params)
    assert len(below) > 12 and ran == []


def test_feature_dropout_edge_rates():
    rep = Tensor(np.arange(1.0, 9.0).reshape(1, 8))
    assert np.array_equal(feature_dropout(rep, 0.0, RngStreams(0).feature_dropout).data, rep.data)
    assert np.array_equal(
        feature_dropout(rep, 1.0, RngStreams(0).feature_dropout).data, np.zeros((1, 8))
    )


def test_feature_dropout_golden_mask_and_rate():
    rep = Tensor(np.ones((1, 8)))
    golden = feature_dropout(rep, 0.5, RngStreams(77).feature_dropout).data
    again = feature_dropout(rep, 0.5, RngStreams(77).feature_dropout).data
    assert np.array_equal(golden, again)
    assert set(np.unique(golden)) <= {0.0, 1.0}

    survivors = [
        feature_dropout(rep, 0.5, RngStreams(seed).feature_dropout).data.sum()
        for seed in range(300)
    ]
    assert abs(np.mean(survivors) - 4.0) < 0.25  # Binomial(8, 0.5) mean


def test_feature_dropout_no_rescaling():
    rep = Tensor(np.full((1, 64), 2.0))
    out = feature_dropout(rep, 0.25, RngStreams(3).feature_dropout).data
    assert set(np.unique(out)) <= {0.0, 2.0}


def test_dropedge_view_rate_zero_eval_matches_original():
    event = make_event("e", "rumor", [0, 0, 1])
    params = init_params(TINY, RngStreams(2))
    x, graph = _prepared(event)
    rep = _rep(x, graph, params)
    view = _dropedge_view(x, graph, params, 0.0, RngStreams(0).dropedge)
    assert np.array_equal(view.data, rep.data)


def test_dropedge_view_rate_one_is_identity_mixing():
    event = make_event("e", "rumor", [0, 0])
    params = init_params(TINY, RngStreams(2))
    x, graph = _prepared(event)
    view = _dropedge_view(x, graph, params, 1.0, RngStreams(0).dropedge)
    lonely = PropagationGraph(n=graph.n, edges=())
    assert np.array_equal(mixing_of(lonely), np.eye(graph.n))
    assert np.array_equal(view.data, _rep(x, lonely, params).data)


def test_dropedge_view_single_node_invariant():
    event = make_event("solo", "rumor", [])
    params = init_params(TINY, RngStreams(4))
    x, graph = _prepared(event)
    rep = _rep(x, graph, params)
    for rate in (0.0, 0.3, 1.0):
        view = _dropedge_view(x, graph, params, rate, RngStreams(9).dropedge)
        assert np.array_equal(view.data, rep.data)


def test_augment_batch_dimensions_and_gradient_flow():
    events = [make_event("a", "rumor", [0, 0]), make_event("b", "non-rumor", [0])]
    params = init_params(TINY, RngStreams(5))
    prepared = [_prepared(e) for e in events]
    labels = np.array([1, 0])
    embeddings = [x for x, _ in prepared]
    graphs = [g for _, g in prepared]

    for kind in ("adversarial", "feature_dropout", "graph_dropedge"):
        streams = RngStreams(11)
        batch = GraphBatch.from_events(embeddings, graphs)
        reps = encode_batch(batch, params, mode="eval")
        aug = augment_batch(AugmentStrategy(kind=kind), reps, labels, batch, params, streams)
        assert aug.shape == reps.shape
        assert np.all(np.isfinite(aug.data))
        loss = oracles.sum_all(aug * aug)
        visited = loss.backward()
        assert params.w0.grad is not None and np.any(params.w0.grad != 0.0)
        nc.clear_grads(visited)
