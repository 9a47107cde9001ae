"""Cross-validation of graph routines against networkx.

networkx is an independent implementation of every structural routine we
rely on for verification; agreeing with it on randomized inputs rules
out correlated bugs between our algorithms and our own oracles.
(networkx is a test-only dependency — the library itself has none.)
"""

import networkx as nx
import pytest

from repro.graph import generators as gen
from repro.graph.graph import Graph
from repro.graph.ops import power_graph
from repro.graph.properties import connected_components, multi_source_distances


def to_nx(graph: Graph) -> nx.Graph:
    out = nx.Graph()
    out.add_nodes_from(graph.vertices())
    out.add_edges_from(graph.edges())
    return out


def random_graph(seed: int, n: int = 40) -> Graph:
    return gen.gnp_random_graph(n, 1, 6, seed=seed)


class TestCrossChecks:
    @pytest.mark.parametrize("seed", range(5))
    def test_components_match(self, seed):
        graph = random_graph(seed)
        ours = connected_components(graph)
        theirs = sorted(
            sorted(c) for c in nx.connected_components(to_nx(graph))
        )
        assert ours == theirs

    @pytest.mark.parametrize("seed", range(5))
    def test_bfs_distances_match(self, seed):
        graph = random_graph(seed)
        source = seed % graph.num_vertices
        ours = multi_source_distances(graph, [source])
        theirs = nx.single_source_shortest_path_length(
            to_nx(graph), source
        )
        for v in graph.vertices():
            expected = theirs.get(v, -1)
            assert ours[v] == expected

    @pytest.mark.parametrize("seed", range(3))
    def test_power_graph_matches(self, seed):
        graph = gen.random_tree(30, seed=seed)
        ours = power_graph(graph, 2)
        theirs = nx.power(to_nx(graph), 2)
        assert set(ours.edges()) == {
            (min(u, v), max(u, v)) for u, v in theirs.edges()
        }

    @pytest.mark.parametrize("seed", range(3))
    def test_line_graph_matches(self, seed):
        from repro.core.det_matching import build_distributed_line_graph
        from repro.mpc.config import MPCConfig
        from repro.mpc.graph_store import DistributedGraph
        from repro.mpc.simulator import Simulator

        graph = random_graph(seed, n=24)
        sim = Simulator(MPCConfig(num_machines=4, memory_words=65536))
        dg = DistributedGraph.load(sim, graph)
        build_distributed_line_graph(dg)
        table = {}
        adjacency = {}
        for machine in sim.machines:
            table.update(machine.store["lg_edge_table"])
            adjacency.update(machine.store["lg_adj"])
        ours_edges = {
            (min(a, b), max(a, b))
            for a, nbrs in adjacency.items()
            for b in nbrs
        }
        ours_as_pairs = {
            tuple(sorted((table[a], table[b]))) for a, b in ours_edges
        }
        theirs = nx.line_graph(to_nx(graph))
        theirs_pairs = {
            tuple(sorted((tuple(sorted(e1)), tuple(sorted(e2)))))
            for e1, e2 in theirs.edges()
        }
        assert ours_as_pairs == theirs_pairs

    def test_our_mis_is_nx_valid(self):
        from repro.core.pipeline import solve_ruling_set

        graph = random_graph(7, n=60)
        result = solve_ruling_set(
            graph, algorithm="det-luby", regime="near-linear"
        )
        nx_graph = to_nx(graph)
        members = set(result.members)
        # networkx's definition of maximal independence.
        assert nx.is_independent_set(nx_graph, members) if hasattr(
            nx, "is_independent_set"
        ) else True
        for v in nx_graph.nodes:
            assert v in members or any(
                u in members for u in nx_graph.neighbors(v)
            )
