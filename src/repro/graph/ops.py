"""Graph transformations: the power graph.

Graph exponentiation runs the ruling-set pipeline on ``G^k``, whose
edges join every pair of vertices at distance at most ``k`` in ``G``.
"""

from __future__ import annotations

from collections import deque

from repro.errors import GraphError
from repro.graph.graph import Graph


def power_graph(graph: Graph, k: int) -> Graph:
    """Return ``G^k``: same vertices, edges between all pairs at distance ≤ k.

    Implemented as a depth-bounded BFS from each vertex — O(n * (n + m))
    worst case, intended for the moderate sizes the simulator handles.
    ``G^1`` is ``G`` itself (a copy).

    >>> g = power_graph(Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)]), 2)
    >>> sorted(g.neighbors(0))
    [1, 2]
    """
    if k < 1:
        raise GraphError(f"power must be >= 1, got {k}")
    edges = []
    for src in graph.vertices():
        dist = {src: 0}
        queue = deque([src])
        while queue:
            u = queue.popleft()
            if dist[u] == k:
                continue
            for v in graph.neighbors(u):
                if v not in dist:
                    dist[v] = dist[u] + 1
                    queue.append(v)
        for v in dist:
            if src < v:
                edges.append((src, v))
    return Graph.from_edges(graph.num_vertices, edges)
