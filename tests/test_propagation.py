"""Topology construction, the batch's symmetric normalization, and edge removal."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rumorgraph import numcore as nc
from rumorgraph.embed import pack
from rumorgraph.model import GraphBatch
from rumorgraph.numcore import RngStreams, Tensor
from rumorgraph.propagation import PropagationGraph, build_graph, dropedge
from tests.conftest import make_event, mixing_of, permute_graph, random_tree_event
from tests.gradcheck import finite_diff_grad, relative_error
from tests.oracles import dense_adjacency, normalized_reference, sum_all


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


# -- the sparse product ----------------------------------------------------------


def _mixed_operator() -> tuple[list[PropagationGraph], nc.NeighborOperator]:
    # a star, a chain, an edgeless graph and a single node: rows with 1 to 5 entries
    graphs = [
        build_graph(make_event("star", "rumor", [0, 0, 0, 0])),
        build_graph(make_event("chain", "rumor", [0, 1, 2])),
        PropagationGraph(3, ()),
        PropagationGraph(1, ()),
    ]
    return graphs, GraphBatch.from_events([pack(np.zeros((g.n, 1))) for g in graphs], graphs).mixing


def test_spmm_matches_dense_oracle():
    graphs, op = _mixed_operator()
    y = np.random.default_rng(4).normal(size=(sum(g.n for g in graphs), 5))
    oracle = _block_diagonal([normalized_reference(dense_adjacency(g)) for g in graphs])
    assert np.max(np.abs(op.apply(y.copy()) - oracle @ y)) <= 1e-15  # apply consumes its operand


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_spmm_consumes_its_operand_and_matches_scaling_a_copy_bitwise(dtype):
    # s * (A @ (s * y)) on a copy of y: each row adds its neighbors' scaled rows in ascending order
    graphs, op = _mixed_operator()
    adjacency = _block_diagonal([dense_adjacency(g) for g in graphs])
    y = np.random.default_rng(9).normal(size=(len(adjacency), 5)).astype(dtype)
    scale = op.scale.astype(dtype)[:, None]
    scaled = scale * y
    want = np.empty_like(scaled)
    for i, row in enumerate(adjacency):
        first, *rest = np.flatnonzero(row)
        want[i] = scaled[first]
        for j in rest:
            want[i] += scaled[j]
    want *= scale
    got = op.apply(y)
    assert got.dtype == dtype and got.tobytes() == want.tobytes()
    assert y.tobytes() == scaled.tobytes() and not np.shares_memory(got, y)  # y took the scale in place


@pytest.mark.parametrize("dropout", [False, True])
def test_graph_conv_backward_matches_finite_differences(dropout):
    graphs, op = _mixed_operator()
    gen = np.random.default_rng(5)
    x = nc.parameter(gen.normal(size=(sum(g.n for g in graphs), 3)), "x")
    w = nc.parameter(gen.normal(size=(3, 4)), "w")
    b = nc.parameter(gen.normal(size=4), "b")
    weights = Tensor(gen.normal(size=(x.shape[0], 4)))
    keep = gen.random(x.shape) >= 0.3 if dropout else None

    def build():
        out = nc.graph_conv(op, x, w, b, keep)
        return sum_all(out * out * weights)

    pre = op.apply((x.data if keep is None else x.data * keep) @ w.data) + b.data
    assert (pre > 0).any() and (pre < 0).any() and np.abs(pre).min() > 1e-3  # both sides, clear of the kink
    visited = build().backward()
    analytic = [x.grad.copy(), w.grad.copy(), b.grad.copy()]
    nc.clear_grads(visited)
    numeric = finite_diff_grad(lambda: float(build().data), [x, w, b])
    for got, want in zip(analytic, numeric):
        assert relative_error(got, want) < 1e-6


def test_graph_conv_keeps_float32_and_checks_rows():
    graphs, op = _mixed_operator()
    rows = sum(g.n for g in graphs)
    gen = np.random.default_rng(6)
    with nc.precision("f32"):
        x = nc.parameter(gen.normal(size=(rows, 4)), "x")
        w, b = nc.parameter(gen.normal(size=(4, 2)), "w"), nc.parameter(gen.normal(size=2), "b")
        out = nc.graph_conv(op, x, w, b)
        sum_all(out * out).backward()
    assert out.data.dtype == np.float32
    assert x.grad.dtype == w.grad.dtype == b.grad.dtype == np.float32
    with pytest.raises(nc.ShapeError, match=f"{rows}-row operator"):
        nc.graph_conv(op, Tensor(np.zeros((rows + 1, 4))), w, b)
    # a bias is one row: the gradient of a full-shape one would be the masked gradient that apply consumes
    with pytest.raises(nc.ShapeError, match="with bias"):
        nc.graph_conv(op, x, w, nc.parameter(np.zeros((rows, 2)), "b"))


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
