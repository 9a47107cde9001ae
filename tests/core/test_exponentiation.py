"""Tests for ball growing / graph exponentiation against BFS ground truth."""

import pytest

from repro.core.exponentiation import grow_balls, power_graph_adjacency
from repro.errors import AlgorithmError, MPCViolationError
from repro.graph import generators as gen
from repro.graph.ops import power_graph
from repro.graph.properties import multi_source_distances
from repro.mpc.config import MPCConfig
from repro.mpc.graph_store import DistributedGraph
from repro.mpc.simulator import Simulator


def load(graph, s=16384, k=4):
    sim = Simulator(MPCConfig(num_machines=k, memory_words=s))
    return DistributedGraph.load(sim, graph), sim


def collect_balls(sim):
    balls = {}
    for machine in sim.machines:
        balls.update(machine.store["exp_balls"])
    return balls


class TestGrowBalls:
    @pytest.mark.parametrize("radius", [1, 2, 3, 4, 5])
    def test_balls_match_bfs(self, radius):
        graph = gen.random_tree(40, seed=radius)
        dg, sim = load(graph)
        grow_balls(dg, radius)
        balls = collect_balls(sim)
        for v in graph.vertices():
            dist = multi_source_distances(graph, [v])
            expected = tuple(
                sorted(u for u in graph.vertices() if 0 <= dist[u] <= radius)
            )
            assert balls[v] == expected

    def test_doubling_round_count(self):
        graph = gen.path_graph(40)
        dg, sim = load(graph)
        grow_balls(dg, 8)
        # 3 doublings x 2 rounds, not 8 single expansions.
        assert sim.metrics.rounds <= 7

    def test_rejects_radius_zero(self, path4):
        dg, _ = load(path4)
        with pytest.raises(AlgorithmError):
            grow_balls(dg, 0)

    def test_memory_fault_on_explosive_growth(self):
        # Dense graph + big radius: balls are Θ(n) per vertex and must
        # fault in a small-memory configuration rather than succeed.
        graph = gen.gnp_random_graph(60, 1, 4, seed=1)
        sim = Simulator(MPCConfig(num_machines=8, memory_words=700))
        dg = DistributedGraph.load(sim, graph)
        with pytest.raises(MPCViolationError):
            grow_balls(dg, 4)


class TestPowerGraphAdjacency:
    @pytest.mark.parametrize("radius", [1, 2, 3])
    def test_matches_sequential_power_graph(self, radius):
        graph = gen.cycle_graph(15)
        dg, sim = load(graph)
        power_graph_adjacency(dg, radius, "gk_adj")
        expected = power_graph(graph, radius)
        for machine in sim.machines:
            for v, nbrs in machine.store["gk_adj"].items():
                assert list(nbrs) == list(expected.neighbors(v))

    def test_non_power_of_two_radius_exact(self):
        graph = gen.path_graph(20)
        dg, sim = load(graph)
        power_graph_adjacency(dg, 3, "g3_adj")
        expected = power_graph(graph, 3)
        collected = {}
        for machine in sim.machines:
            collected.update(machine.store["g3_adj"])
        for v in graph.vertices():
            assert list(collected[v]) == list(expected.neighbors(v))

