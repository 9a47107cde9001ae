"""Graph analysis: distances, components, independence, domination.

These routines are the *sequential ground truth* against which every
distributed algorithm in the library is verified — in particular
:func:`is_independent_set` and :func:`domination_radius` together decide
whether a claimed ``(2, β)``-ruling set is genuine.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, List

from repro.errors import GraphError, VertexError
from repro.graph.graph import Graph

UNREACHED = -1


def multi_source_distances(graph: Graph, sources: Iterable[int]) -> List[int]:
    """BFS distance from the nearest source for every vertex.

    Unreached vertices get :data:`UNREACHED` (-1).

    >>> g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    >>> multi_source_distances(g, [0])
    [0, 1, 2, 3]
    """
    dist = [UNREACHED] * graph.num_vertices
    queue: deque = deque()
    for s in set(sources):
        if not 0 <= s < graph.num_vertices:
            raise VertexError(f"source {s} out of range")
        dist[s] = 0
        queue.append(s)
    while queue:
        u = queue.popleft()
        for v in graph.neighbors(u):
            if dist[v] == UNREACHED:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def is_independent_set(graph: Graph, candidate: Iterable[int]) -> bool:
    """Return True iff no two candidate vertices are adjacent.

    >>> g = Graph.from_edges(3, [(0, 1), (1, 2)])
    >>> is_independent_set(g, [0, 2])
    True
    >>> is_independent_set(g, [0, 1])
    False
    """
    members = set(candidate)
    for v in members:
        if not 0 <= v < graph.num_vertices:
            raise VertexError(f"vertex {v} out of range")
    for v in members:
        for u in graph.neighbors(v):
            if u in members:
                return False
    return True


def domination_radius(graph: Graph, dominators: Iterable[int]) -> int:
    """Return ``max_v dist(v, dominators)``; vertices must all be reached.

    Raises :class:`GraphError` if some vertex is unreachable from every
    dominator (the set does not dominate the graph at any radius), or if
    the dominator set is empty on a non-empty graph.

    >>> g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    >>> domination_radius(g, [1])
    2
    """
    if graph.num_vertices == 0:
        return 0
    dominator_list = list(dominators)
    if not dominator_list:
        raise GraphError("empty dominator set cannot dominate a graph")
    dist = multi_source_distances(graph, dominator_list)
    radius = 0
    for v, d in enumerate(dist):
        if d == UNREACHED:
            raise GraphError(f"vertex {v} unreachable from dominator set")
        radius = max(radius, d)
    return radius


def connected_components(graph: Graph) -> List[List[int]]:
    """Return components as sorted vertex lists, ordered by minimum vertex.

    >>> g = Graph.from_edges(4, [(0, 1), (2, 3)])
    >>> connected_components(g)
    [[0, 1], [2, 3]]
    """
    seen = [False] * graph.num_vertices
    components = []
    for root in graph.vertices():
        if seen[root]:
            continue
        seen[root] = True
        component = [root]
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for v in graph.neighbors(u):
                if not seen[v]:
                    seen[v] = True
                    component.append(v)
                    queue.append(v)
        components.append(sorted(component))
    return components

