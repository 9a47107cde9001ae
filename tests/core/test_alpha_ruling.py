"""Tests for general (alpha, beta)-ruling sets via exponentiation."""

import pytest

from repro.core import registry
from repro.core.alpha_ruling import alpha_program
from repro.core.pipeline import solve_ruling_set
from repro.core.program import run_program
from repro.core.verify import check_ruling_set, verify_ruling_set
from repro.errors import AlgorithmError
from repro.graph import generators as gen
from repro.graph.ops import power_graph
from repro.mpc.config import MPCConfig
from repro.mpc.graph_store import DistributedGraph
from repro.mpc.simulator import Simulator


def load_for_alpha(graph, alpha):
    sized = power_graph(graph, alpha - 1) if alpha > 2 else graph
    cfg = MPCConfig.near_linear(
        sized.num_vertices, sized.num_edges, max_degree=sized.max_degree()
    )
    sim = Simulator(cfg)
    return DistributedGraph.load(sim, graph), sim


def run_alpha(dg, alpha, beta=2):
    return run_program(dg, alpha_program(alpha, beta=beta)).counters


class TestEngine:
    @pytest.mark.parametrize("alpha", [2, 3, 4])
    def test_verified_alpha_ruling(self, alpha):
        # Sparse base graphs: G^(alpha-1) must fit the regime (a dense
        # base would legitimately fault the simulator at alpha = 4).
        graph = gen.random_tree(70, seed=alpha)
        dg, _ = load_for_alpha(graph, alpha)
        counters = run_alpha(dg, alpha)
        members = dg.collect_marked("alpha_rs_in_set")
        verify_ruling_set(graph, members, alpha=alpha, beta=2 * (alpha - 1))
        assert counters["iterations"] >= 1

    def test_dense_base_faults_honestly_at_large_alpha(self):
        # G^3 of a dense graph exceeds what the regime sized for G can
        # hold mid-exponentiation; the simulator must fault, not fudge.
        from repro.errors import MPCViolationError

        graph = gen.gnp_random_graph(70, 1, 9, seed=4)
        cfg = MPCConfig.near_linear(
            graph.num_vertices, graph.num_edges,
            max_degree=graph.max_degree(),
        )
        sim = Simulator(cfg)
        dg = DistributedGraph.load(sim, graph)
        with pytest.raises(MPCViolationError):
            run_alpha(dg, 4)

    def test_claimed_beta_formula(self):
        graph = gen.cycle_graph(30)
        spec = registry.get_algorithm(registry.DET_RULING)
        assert spec.claimed_beta(graph, 3, 2) == 4  # beta * (alpha - 1)
        dg, _ = load_for_alpha(graph, 3)
        run_alpha(dg, 3)
        verify_ruling_set(
            graph, dg.collect_marked("alpha_rs_in_set"), alpha=3, beta=4
        )

    def test_original_adjacency_preserved(self):
        graph = gen.cycle_graph(20)
        dg, sim = load_for_alpha(graph, 3)
        run_alpha(dg, 3)
        preserved = {}
        for machine in sim.machines:
            preserved.update(machine.store["alpha_original_adj"])
        for v in graph.vertices():
            assert list(preserved[v]) == list(graph.neighbors(v))

    def test_rejects_bad_parameters(self, small_er):
        dg, _ = load_for_alpha(small_er, 2)
        with pytest.raises(AlgorithmError):
            run_alpha(dg, 1)
        with pytest.raises(AlgorithmError):
            run_alpha(dg, 3, beta=1)


class TestPipelineAlpha:
    @pytest.mark.parametrize("algorithm", ["det-ruling", "rand-ruling"])
    def test_alpha_three_through_pipeline(self, algorithm):
        graph = gen.gnp_random_graph(60, 1, 8, seed=5)
        result = solve_ruling_set(
            graph, algorithm=algorithm, alpha=3, beta=2,
            regime="near-linear",
        )
        assert result.alpha == 3
        assert result.beta == 4
        measured = check_ruling_set(graph, result.members, alpha=3)
        assert measured.independent_at == 3

    def test_greedy_alpha(self):
        graph = gen.path_graph(13)
        result = solve_ruling_set(graph, algorithm="greedy-ruling", alpha=4)
        assert result.members == [0, 4, 8, 12]
        assert result.beta == 3

    def test_alpha_unsupported_algorithms(self, small_er):
        for algorithm in ("det-luby", "local-luby", "greedy-mis"):
            with pytest.raises(AlgorithmError):
                solve_ruling_set(small_er, algorithm=algorithm, alpha=3)

    def test_alpha_below_two_rejected(self, small_er):
        with pytest.raises(AlgorithmError):
            solve_ruling_set(small_er, alpha=1)

    def test_alpha_two_unchanged(self, small_er):
        base = solve_ruling_set(
            small_er, algorithm="det-ruling", regime="near-linear"
        )
        explicit = solve_ruling_set(
            small_er, algorithm="det-ruling", alpha=2, regime="near-linear"
        )
        assert base.members == explicit.members
