"""Graph substrate: immutable CSR graphs, generators, operations, analysis.

The whole library works with one concrete graph type, :class:`Graph`:
vertices are the integers ``0..n-1`` and edges are undirected, simple and
unweighted — exactly the setting of the ruling-set problem.  Everything else
(generators, power graphs, BFS-based verification, machine partitions) is
built on it.
"""

from repro.graph.graph import Graph
from repro.graph.builder import GraphBuilder
from repro.graph import generators
from repro.graph.ops import power_graph
from repro.graph.properties import (
    connected_components,
    domination_radius,
    is_independent_set,
    multi_source_distances,
)
from repro.graph.partition import PartitionPlan, balanced_edge_partition
from repro.graph.io import read_edge_list, write_edge_list

__all__ = [
    "Graph",
    "GraphBuilder",
    "generators",
    "power_graph",
    "connected_components",
    "domination_radius",
    "is_independent_set",
    "multi_source_distances",
    "PartitionPlan",
    "balanced_edge_partition",
    "read_edge_list",
    "write_edge_list",
]
