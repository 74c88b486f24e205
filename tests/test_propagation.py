"""Topology construction, the batch's symmetric normalization, and edge removal."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rumorgraph.numcore import RngStreams
from rumorgraph.propagation import PropagationGraph, build_graph, dropedge
from tests.conftest import make_event, mixing_of, permute_graph, random_tree_event
from tests.oracles import dense_adjacency, normalized_reference


def _block_diagonal(blocks) -> np.ndarray:
    total = sum(b.shape[0] for b in blocks)
    out = np.zeros((total, total))
    offset = 0
    for b in blocks:
        out[offset : offset + b.shape[0], offset : offset + b.shape[0]] = b
        offset += b.shape[0]
    return out


def _dense_normalization(graph) -> np.ndarray:
    a = dense_adjacency(graph)
    scale = 1.0 / np.sqrt(a.sum(axis=1))
    return a * scale[:, None] * scale[None, :]


def test_claim_only_graph():
    graph = build_graph(make_event("e", "rumor", []))
    assert graph == PropagationGraph(1, ())
    assert np.array_equal(mixing_of(graph), [[1.0]])


def test_star_graph_degrees_and_normalization():
    graph = build_graph(make_event("e", "rumor", [0, 0]))
    assert graph.edges == ((0, 1), (0, 2))
    assert list(dense_adjacency(graph).sum(axis=1)) == [3.0, 2.0, 2.0]
    a_hat = mixing_of(graph)
    assert a_hat[0, 0] == pytest.approx(1.0 / 3.0)
    assert a_hat[0, 1] == pytest.approx(1.0 / np.sqrt(6.0), abs=1e-5)
    assert a_hat[1, 1] == pytest.approx(0.5)
    assert a_hat[1, 2] == 0.0


def test_chain_graph_normalization_against_stated_values():
    graph = build_graph(make_event("e", "rumor", [0, 1]))
    assert list(dense_adjacency(graph).sum(axis=1)) == [2.0, 3.0, 2.0]
    expected = np.array(
        [[0.5, 0.40825, 0.0], [0.40825, 0.33333, 0.40825], [0.0, 0.40825, 0.5]]
    )
    assert np.allclose(mixing_of(graph), expected, atol=1e-5)


@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_normalization_properties_random_trees(seed):
    gen = np.random.default_rng(seed)
    graphs = [
        build_graph(random_tree_event(gen, f"ev{i}", "rumor", max_nodes=29))
        for i in range(int(gen.integers(1, 5)))
    ]
    a_hat = mixing_of(*graphs)
    assert a_hat.dtype == np.float64
    assert np.array_equal(a_hat, a_hat.T)
    oracle = _block_diagonal([normalized_reference(dense_adjacency(g)) for g in graphs])
    assert np.allclose(a_hat, oracle, atol=1e-12)
    eigenvalues = np.linalg.eigvalsh(a_hat)
    assert eigenvalues.min() >= -1.0 - 1e-8
    assert eigenvalues.max() <= 1.0 + 1e-8
    assert np.all(a_hat >= 0.0) and np.all(a_hat <= 1.0)


def test_batch_operator_keeps_dense_normalization_bits():
    # each block equals A * s[:, None] * s[None, :] with s = 1 / sqrt(row sums)
    # to the last bit, the formula trained snapshots were produced with
    gen = np.random.default_rng(8)
    graphs = [build_graph(random_tree_event(gen, f"e{i}", "rumor", max_nodes=29)) for i in range(30)]
    graphs += [dropedge(graphs[0], 1.0, RngStreams(0).dropedge), PropagationGraph(1, ())]
    assert np.array_equal(mixing_of(*graphs), _block_diagonal([_dense_normalization(g) for g in graphs]))


def test_row_sums_match_double_loop_oracle():
    gen = np.random.default_rng(12)
    for trial in range(50):
        graph = build_graph(random_tree_event(gen, f"e{trial}", "rumor", max_nodes=29))
        oracle = normalized_reference(dense_adjacency(graph))
        assert np.allclose(mixing_of(graph).sum(axis=1), oracle.sum(axis=1), atol=1e-12)


def test_permutation_equivariance_exact():
    gen = np.random.default_rng(3)
    event = random_tree_event(gen, "ev", "rumor", max_nodes=10)
    graph = build_graph(event)
    n = graph.n
    if n < 3:
        return
    perm = np.concatenate([[0], 1 + np.random.default_rng(0).permutation(n - 1)])
    p = np.zeros((n, n))
    p[np.arange(n), perm] = 1.0
    assert np.array_equal(mixing_of(permute_graph(graph, perm)), p @ mixing_of(graph) @ p.T)


def test_dropedge_rate_zero_identity():
    graph = build_graph(make_event("e", "rumor", [0, 0, 1]))
    assert dropedge(graph, 0.0, RngStreams(0).dropedge) is graph


def test_dropedge_rate_one_leaves_self_loops():
    graph = build_graph(make_event("e", "rumor", [0, 0, 1, 2]))
    got = dropedge(graph, 1.0, RngStreams(0).dropedge)
    assert got == PropagationGraph(graph.n, ())
    assert np.array_equal(mixing_of(got), np.eye(graph.n))


def test_dropedge_seeded_golden_subset_and_binomial_rate():
    star = build_graph(make_event("e", "rumor", [0, 0, 0, 0]))
    golden = dropedge(star, 0.5, RngStreams(2024).dropedge)
    repeat = dropedge(star, 0.5, RngStreams(2024).dropedge)
    assert golden.edges == repeat.edges  # frozen seeded outcome
    assert set(golden.edges) <= set(star.edges)

    removed = []
    for seed in range(400):
        got = dropedge(star, 0.5, RngStreams(seed).dropedge)
        removed.append(len(star.edges) - len(got.edges))
    mean = np.mean(removed)  # Binomial(4, 0.5): mean 2, sd 1; sem 0.05
    assert abs(mean - 2.0) < 0.2


@given(st.integers(min_value=0, max_value=2**32 - 1), st.floats(min_value=0.0, max_value=1.0))
def test_dropedge_invariants(seed, rate):
    gen = np.random.default_rng(seed)
    graph = build_graph(random_tree_event(gen, "ev", "rumor", max_nodes=12))
    got = dropedge(graph, rate, RngStreams(seed).dropedge)
    assert got.n == graph.n
    assert set(got.edges) <= set(graph.edges)
    assert list(got.edges) == sorted(got.edges)
    a_hat = mixing_of(got)
    assert np.array_equal(a_hat, a_hat.T)
    assert np.all(np.diag(a_hat) > 0.0)
    assert np.allclose(a_hat, normalized_reference(dense_adjacency(got)), atol=1e-12)


def test_dropedge_rejects_bad_rate():
    graph = build_graph(make_event("e", "rumor", [0]))
    with pytest.raises(ValueError):
        dropedge(graph, 1.5, RngStreams(0).dropedge)
