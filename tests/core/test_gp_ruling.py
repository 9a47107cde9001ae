"""Tests for the degree-class-decomposition (2, 2)-ruling set family."""

import json

import pytest

from repro.core.gp_ruling import claimed_round_bound, gp_program
from repro.core.pipeline import solve_ruling_set
from repro.core.program import run_program
from repro.core.verify import verify_ruling_set
from repro.graph import generators as gen
from repro.graph.graph import Graph
from repro.mpc.config import MPCConfig
from repro.mpc.graph_store import DistributedGraph
from repro.mpc.simulator import Simulator
from repro.mpc.state_layout import numpy_available


def run_gp(graph, regime="sublinear"):
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
    counters = run_program(dg, gp_program(in_set_key="gp")).counters
    return dg.collect_marked("gp"), counters, sim


WORKLOADS = [
    ("path30", lambda: gen.path_graph(30)),
    ("cycle50", lambda: gen.cycle_graph(50)),
    ("complete12", lambda: gen.complete_graph(12)),
    ("star40", lambda: gen.star_graph(40)),
    ("grid8x8", lambda: gen.grid_graph(8, 8)),
    ("gnp100", lambda: gen.gnp_random_graph(100, 1, 8, seed=5)),
    ("tree80", lambda: gen.random_tree(80, seed=3)),
    ("powerlaw", lambda: gen.chung_lu_power_law(120, 25, seed=7)),
    ("caterpillar", lambda: gen.caterpillar_graph(12, 3)),
]


class TestCorrectness:
    @pytest.mark.parametrize(
        "name,make", WORKLOADS, ids=[w[0] for w in WORKLOADS]
    )
    def test_output_is_2_2_ruling_set(self, name, make):
        graph = make()
        members, counters, _ = run_gp(graph)
        check = verify_ruling_set(graph, members, alpha=2, beta=2)
        assert check.size == len(members) == counters["members"]

    def test_near_linear_regime(self):
        graph = gen.gnp_random_graph(90, 1, 6, seed=11)
        members, _, _ = run_gp(graph, regime="near-linear")
        verify_ruling_set(graph, members, alpha=2, beta=2)

    def test_single_vertex_and_edgeless(self):
        for graph in (Graph.empty(1), Graph.empty(5)):
            members, _, _ = run_gp(graph)
            verify_ruling_set(graph, members, alpha=2, beta=2)
            assert sorted(members) == list(range(graph.num_vertices))


class TestRoundBound:
    @pytest.mark.parametrize(
        "name,make", WORKLOADS, ids=[w[0] for w in WORKLOADS]
    )
    def test_rounds_within_claimed_bound(self, name, make):
        graph = make()
        _, _, sim = run_gp(graph)
        bound = claimed_round_bound(graph.num_vertices, graph.max_degree())
        assert sim.metrics.rounds <= bound

    def test_bound_grows_doubly_logarithmically_in_degree(self):
        # The whole point of the decomposition: the bound over degree is
        # log log, so squaring Δ adds O(1) classes, not O(log Δ).
        base = claimed_round_bound(10**6, 2**4)
        squared = claimed_round_bound(10**6, 2**16)
        fourth = claimed_round_bound(10**6, 2**64)
        assert base <= squared <= fourth
        assert fourth - squared <= squared - base + claimed_round_bound(
            10**6, 2
        )


class TestDeterminism:
    def test_identical_across_repeat_runs(self):
        graph = gen.gnp_random_graph(80, 1, 7, seed=23)
        first = run_gp(graph)
        second = run_gp(graph)
        assert sorted(first[0]) == sorted(second[0])
        assert first[1] == second[1]
        assert first[2].metrics.rounds == second[2].metrics.rounds

    @pytest.mark.skipif(
        not numpy_available(), reason="numpy kernel unavailable"
    )
    def test_identical_across_kernels(self):
        graph = gen.gnp_random_graph(80, 1, 7, seed=23)
        results = {}
        for kernel in ("python", "numpy"):
            res = solve_ruling_set(
                graph, algorithm="gp-2ruling", kernel=kernel
            )
            results[kernel] = (sorted(res.members), res.rounds, res.metrics)
        assert results["python"] == results["numpy"]

    def test_identical_across_backends(self):
        graph = gen.gnp_random_graph(80, 1, 7, seed=23)
        serial = solve_ruling_set(graph, algorithm="gp-2ruling")
        shard = solve_ruling_set(
            graph, algorithm="gp-2ruling", backend="shard"
        )
        assert sorted(serial.members) == sorted(shard.members)
        assert serial.rounds == shard.rounds
        assert serial.metrics == shard.metrics


class TestWiring:
    def test_registry_spec(self):
        from repro.core import registry

        spec = registry.get_algorithm("gp-2ruling")
        assert spec.family == registry.MPC_FAMILY
        assert spec.problem == registry.RULING_SET
        assert spec.program_factory is not None
        assert spec.claimed_rounds is not None
        assert "log log" in spec.round_complexity
        # The claimed β is a constant 2 — including on the streaming
        # path, which prices the claim before any graph exists.
        assert spec.claimed_beta(None, 2, 5) == 2

    def test_pipeline_solves_and_verifies(self, small_er):
        result = solve_ruling_set(small_er, algorithm="gp-2ruling", beta=5)
        assert result.beta == 2  # constant regardless of requested β
        verify_ruling_set(small_er, result.members, alpha=2, beta=2)
        assert result.rounds <= claimed_round_bound(
            small_er.num_vertices, small_er.max_degree()
        )

    def test_program_phase_names(self, small_er):
        from repro.core.registry import RunContext, get_algorithm

        spec = get_algorithm("gp-2ruling")
        ctx = RunContext(
            graph=small_er, alpha=2, beta=2, seed=0, in_set_key="gp"
        )
        names = spec.program_factory(ctx).phase_names()
        assert "gp-degree-class" in names
        assert "gp-sparsify" in names

    def test_sweep_grid_accepts_gp(self):
        from repro.analysis.sweep import SweepSpec, run_sweep

        spec = SweepSpec(
            experiment="test_gp_sweep",
            workloads={"tiny": lambda: gen.cycle_graph(12)},
            algorithms=["gp-2ruling", "det-luby"],
        )
        records = run_sweep(spec)
        by_alg = {r.algorithm: r for r in records}
        assert set(by_alg) == {"gp-2ruling", "det-luby"}
        assert by_alg["gp-2ruling"].get("size") > 0

    def test_cli_solve(self, tmp_path, capsys):
        from repro.cli import main
        from repro.graph.io import write_edge_list

        graph_path = tmp_path / "g.txt"
        write_edge_list(gen.cycle_graph(20), graph_path)
        assert main([
            "solve", "--input", str(graph_path),
            "--algorithm", "gp-2ruling", "--json",
        ]) == 0
        lines = [
            line for line in capsys.readouterr().out.splitlines() if line
        ]
        payload = json.loads(lines[-1])
        assert payload["algorithm"] == "gp-2ruling"
        assert payload["beta"] == 2
        assert payload["size"] >= 1
