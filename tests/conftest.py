import json

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st

from rumorgraph import numcore as nc
from rumorgraph.dataio import Dataset, Event, Post
from rumorgraph.embed import pack
from rumorgraph.model import GraphBatch
from rumorgraph.propagation import PropagationGraph

settings.register_profile("suite", derandomize=True, max_examples=50, deadline=None)
settings.load_profile("suite")


@pytest.fixture(autouse=True)
def _double_precision():
    """Start every test at f64, and fail one that leaves another precision or tape recording off behind."""
    nc.set_precision("f64")
    yield
    assert nc.active_dtype() == np.float64, f"the test left {nc.active_dtype()} active"
    assert nc.tensor._GRAD_ENABLED, "the test left tape recording off"


# any JSON value, for fuzzing the readers of JSONL input
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)


def valid_or_any(strategy):
    """A draw of ``strategy`` or any JSON value in its place."""
    return st.one_of(strategy, JSON_VALUES)


def jsonl_files(first, rest):
    """File bytes: a line from ``first`` then up to three from ``rest``, each
    line possibly replaced by any JSON value or any text; or any bytes."""

    def line(records):
        return st.one_of(records.map(json.dumps), JSON_VALUES.map(json.dumps), st.text(max_size=20))

    text = st.tuples(line(first), st.lists(line(rest), max_size=3)).map(lambda t: "\n".join([t[0], *t[1]]) + "\n")
    return st.one_of(text.map(lambda s: s.encode("utf-8")), st.binary(max_size=40))


def make_event(event_id: str, label: str, parents: list[int], timestamps=None, texts=None) -> Event:
    """Event from a parent-index list; parents[i] is the parent of reply i."""
    n = len(parents)
    timestamps = timestamps if timestamps is not None else [60 * (i + 1) for i in range(n)]
    texts = texts if texts is not None else [f"reply {i}" for i in range(n)]
    ids = [f"{event_id}-p{i}" for i in range(n + 1)]
    posts = [Post(ids[0], None, f"claim {event_id}", 0)]
    for i in range(n):
        posts.append(Post(ids[i + 1], ids[parents[i]], texts[i], timestamps[i]))
    posts = [posts[0]] + sorted(posts[1:], key=lambda p: (p.timestamp, p.post_id))
    return Event(event_id=event_id, label=label, posts=tuple(posts))


def random_tree_event(gen: np.random.Generator, event_id: str, label: str, max_nodes: int = 8) -> Event:
    n_replies = int(gen.integers(0, max_nodes))
    parents = [int(gen.integers(0, i + 1)) for i in range(n_replies)]
    return make_event(event_id, label, parents)


def make_dataset(events) -> Dataset:
    return Dataset(events=list(events))


def write_embeddings(vectors: dict[str, np.ndarray], dim: int, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"dim": dim, "count": len(vectors)}) + "\n")
        for post_id in vectors:
            fh.write(json.dumps({"post_id": post_id, "vector": list(map(float, vectors[post_id]))}) + "\n")


def mixing_of(*graphs: PropagationGraph) -> np.ndarray:
    """The propagation operator ``GraphBatch.from_events`` builds for a batch of graphs, as a dense matrix."""
    total = sum(g.n for g in graphs)
    return GraphBatch.from_events([pack(np.zeros((g.n, 1))) for g in graphs], list(graphs)).mixing.apply(np.eye(total))


def forest_operator(parents: list) -> nc.NeighborOperator:
    """The propagation operator of one graph whose node ``i > 0`` replies to ``parents[i - 1]``, or to none if None."""
    edges = tuple(sorted((p, i + 1) for i, p in enumerate(parents) if p is not None))
    graph = PropagationGraph(len(parents) + 1, edges)
    return GraphBatch.from_events([pack(np.zeros((graph.n, 1)))], [graph]).mixing


def permute_graph(graph: PropagationGraph, perm: np.ndarray) -> PropagationGraph:
    """The same topology with node ``i`` taken from node ``perm[i]`` of ``graph``."""
    new = np.argsort(perm)
    edges = ((int(new[i]), int(new[j])) for i, j in graph.edges)
    return PropagationGraph(graph.n, tuple(sorted((min(e), max(e)) for e in edges)))
