"""Tests for the deterministic sparsify-and-gather ruling-set engine."""

import pytest

from repro.core.det_ruling import ruling_program
from repro.core.engine_ops import sampling_rate as _sampling_rate
from repro.core.program import run_program
from repro.core.verify import check_ruling_set, verify_ruling_set
from repro.derand.family import Seed
from repro.errors import AlgorithmError
from repro.graph import generators as gen
from repro.graph.graph import Graph
from repro.mpc.config import MPCConfig
from repro.mpc.graph_store import DistributedGraph
from repro.mpc.simulator import Simulator


def run_det_ruling(graph, beta=2, regime="sublinear", chooser=None):
    if regime == "sublinear":
        cfg = MPCConfig.sublinear(
            graph.num_vertices, graph.num_edges,
            max_degree=graph.max_degree(),
        )
    else:
        cfg = MPCConfig.near_linear(
            graph.num_vertices, graph.num_edges,
            max_degree=graph.max_degree(),
        )
    sim = Simulator(cfg)
    dg = DistributedGraph.load(sim, graph)
    counters = run_program(
        dg, ruling_program(beta=beta, in_set_key="rs", chooser=chooser)
    ).counters
    return dg.collect_marked("rs"), counters, sim


class TestSamplingRate:
    def test_small_degree_uses_half(self):
        assert _sampling_rate(10) == (1, 2)

    def test_large_degree_scales(self):
        num, den = _sampling_rate(400)
        assert (num, den) == (4, 20)

    def test_zero_degree(self):
        assert _sampling_rate(0) == (1, 2)


class TestDetRuling:
    @pytest.mark.parametrize("make", [
        lambda: gen.path_graph(30),
        lambda: gen.complete_graph(12),
        lambda: gen.star_graph(40),
        lambda: gen.gnp_random_graph(100, 1, 8, seed=5),
        lambda: gen.random_tree(80, seed=3),
        lambda: gen.chung_lu_power_law(90, seed=2),
        lambda: gen.grid_graph(7, 7),
    ])
    def test_produces_verified_two_ruling_set(self, make):
        graph = make()
        members, counters, _ = run_det_ruling(graph, beta=2)
        verify_ruling_set(graph, members, alpha=2, beta=2)
        assert counters["iterations"] >= 1

    @pytest.mark.parametrize("beta", [2, 3, 4])
    def test_beta_variants(self, beta):
        graph = gen.gnp_random_graph(90, 1, 8, seed=beta)
        members, _, _ = run_det_ruling(graph, beta=beta)
        verify_ruling_set(graph, members, alpha=2, beta=beta)

    def test_rejects_beta_one(self, small_er):
        with pytest.raises(AlgorithmError, match="got 1; use luby_program"):
            ruling_program(beta=1)

    def test_deterministic_across_runs(self, medium_er):
        a, _, _ = run_det_ruling(medium_er)
        b, _, _ = run_det_ruling(medium_er)
        assert a == b

    def test_consumes_all_vertices(self, small_er):
        _, _, sim = run_det_ruling(small_er)
        for machine in sim.machines:
            assert machine.store["g_adj"] == {}

    def test_small_graph_gather_finish(self):
        # A graph that fits one machine should finish in one gather.
        graph = gen.cycle_graph(10)
        members, counters, _ = run_det_ruling(graph, regime="near-linear")
        assert counters["gather_finishes"] == 1
        verify_ruling_set(graph, members, alpha=2, beta=2)

    def test_sparsify_actually_used_on_big_dense_graph(self):
        graph = gen.gnp_random_graph(200, 1, 8, seed=9)
        members, counters, _ = run_det_ruling(graph)
        assert counters["levels_built"] >= 1
        verify_ruling_set(graph, members, alpha=2, beta=2)

    def test_empty_and_trivial(self):
        for graph in (Graph.empty(0), Graph.empty(3)):
            cfg = MPCConfig.near_linear(max(1, graph.num_vertices), 1)
            sim = Simulator(cfg)
            dg = DistributedGraph.load(sim, graph)
            run_program(dg, ruling_program(beta=2, in_set_key="rs"))
            members = dg.collect_marked("rs")
            if graph.num_vertices:
                assert members == list(graph.vertices())

    def test_measured_beta_within_claim(self):
        graph = gen.gnp_random_graph(120, 1, 10, seed=6)
        members, _, _ = run_det_ruling(graph, beta=3)
        assert check_ruling_set(graph, members).measured_beta <= 3

    def test_empty_level_falls_back_to_residual_luby(self):
        # Seed(0, T, p) hashes every id to T, so the level samples no
        # vertex: the deepest level is empty and the solve step runs
        # one Luby MIS on the whole residual instead.
        def empty_chooser(dg, p, adj_key, threshold, *_):
            return Seed(0, threshold, p), 1

        graph = gen.gnp_random_graph(256, 16, 256, seed=4)
        members, counters, _ = run_det_ruling(graph, chooser=empty_chooser)
        verify_ruling_set(graph, members, alpha=2, beta=2)
        assert counters["endgame_luby"] == 1
        assert counters["levels_built"] == 1
        assert counters["level_gathers"] == 0
        assert counters["level_luby_solves"] == 0
