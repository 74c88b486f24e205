import json

import numpy as np
import pytest
from hypothesis import settings

from rumorgraph import numcore as nc
from rumorgraph.dataio import Dataset, Event, Post
from rumorgraph.model import GraphBatch
from rumorgraph.propagation import PropagationGraph

settings.register_profile("suite", derandomize=True, max_examples=50, deadline=None)
settings.load_profile("suite")


@pytest.fixture(autouse=True)
def _double_precision():
    nc.set_precision("f64")
    yield
    nc.set_precision("f64")


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


def make_dataset(events, role="target") -> Dataset:
    return Dataset(events=list(events), role=role)


def write_embeddings(vectors: dict[str, np.ndarray], dim: int, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"dim": dim, "count": len(vectors)}) + "\n")
        for post_id in vectors:
            fh.write(json.dumps({"post_id": post_id, "vector": list(map(float, vectors[post_id]))}) + "\n")


def mixing_of(*graphs: PropagationGraph) -> np.ndarray:
    """The propagation operator ``GraphBatch.from_events`` builds for a batch of graphs."""
    return GraphBatch.from_events([np.zeros((g.n, 1)) for g in graphs], list(graphs)).mixing


def permute_graph(graph: PropagationGraph, perm: np.ndarray) -> PropagationGraph:
    """The same topology with node ``i`` taken from node ``perm[i]`` of ``graph``."""
    new = np.argsort(perm)
    edges = ((int(new[i]), int(new[j])) for i, j in graph.edges)
    return PropagationGraph(graph.n, tuple(sorted((min(e), max(e)) for e in edges)))
