"""Undirected propagation topology: an event's reply edges.

Reply relations become undirected edges so opinion signals flow both ways.
A graph holds only its node count and its edges; the symmetric normalized
operator A_hat = D^{-1/2} (A + I) D^{-1/2} that the graph convolution mixes
through is built per batch from the edges, as neighbor lists, by
``model.mixing_operator`` when a ``model.GraphBatch`` is built.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataio import Event


@dataclass(frozen=True)
class PropagationGraph:
    n: int
    edges: tuple[tuple[int, int], ...]  # sorted (i, j) with i < j; reply pairs only


def build_graph(event: Event) -> PropagationGraph:
    """One undirected edge per reply pair; node index = sorted post position."""
    index = {post.post_id: i for i, post in enumerate(event.posts)}
    edges = []
    for post in event.posts[1:]:
        i, j = index[post.parent_id], index[post.post_id]
        edges.append((min(i, j), max(i, j)))
    return PropagationGraph(event.node_count, tuple(sorted(edges)))


def dropedge(graph: PropagationGraph, rate: float, gen: np.random.Generator) -> PropagationGraph:
    """Remove each reply edge (both directions at once) with probability ``rate``.

    Self-loops are added by the operator, never dropped, so every degree
    stays >= 1 and the normalization remains well defined.
    """
    if rate == 0.0 or not graph.edges:
        return graph
    draws = gen.random(len(graph.edges))
    return PropagationGraph(graph.n, tuple(e for e, u in zip(graph.edges, draws) if u >= rate))
