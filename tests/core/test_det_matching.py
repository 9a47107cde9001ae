"""Tests for deterministic maximal matching on the distributed line graph."""

import pytest

from repro.core import registry
from repro.core.det_matching import (
    build_distributed_line_graph,
    matching_config,
    matching_program,
    verify_maximal_matching,
)
from repro.core.program import run_program
from repro.core.rand_baselines import random_luby_chooser
from repro.errors import AlgorithmError
from repro.graph import generators as gen
from repro.graph.graph import Graph
from repro.mpc.graph_store import DistributedGraph
from repro.mpc.simulator import Simulator
from repro.util.rng import SplitMix64


def load_for_matching(graph):
    # Size the regime for the line graph, which is what the machines hold.
    cfg = matching_config(graph)
    sim = Simulator(cfg)
    return DistributedGraph.load(sim, graph), sim


def run_matching(dg, **options):
    ctx = run_program(dg, matching_program(**options))
    return ctx.matching, ctx.counters


class TestLineGraph:
    def test_conflict_lists_match_ground_truth(self, small_er):
        dg, sim = load_for_matching(small_er)
        line_dg = build_distributed_line_graph(dg)
        # Rebuild the mapping and adjacency driver-side and compare with
        # a sequential line graph.
        table = {}
        adjacency = {}
        for machine in sim.machines:
            table.update(machine.store["lg_edge_table"])
            adjacency.update(machine.store["lg_adj"])
        assert len(table) == small_er.num_edges
        assert sorted(table.values()) == sorted(small_er.edges())
        for edge_id, (u, v) in table.items():
            expected = {
                other_id
                for other_id, (a, b) in table.items()
                if other_id != edge_id and {a, b} & {u, v}
            }
            assert set(adjacency[edge_id]) == expected

    def test_edge_ids_dense(self, path4):
        dg, sim = load_for_matching(path4)
        line_dg = build_distributed_line_graph(dg)
        assert line_dg.num_vertices == path4.num_edges
        ids = sorted(
            eid
            for machine in sim.machines
            for eid in machine.store["lg_edge_table"]
        )
        assert ids == list(range(path4.num_edges))


class TestMatching:
    @pytest.mark.parametrize("make", [
        lambda: gen.path_graph(20),
        lambda: gen.cycle_graph(15),
        lambda: gen.complete_graph(9),
        lambda: gen.star_graph(16),
        lambda: gen.gnp_random_graph(50, 1, 7, seed=2),
        lambda: gen.random_tree(40, seed=1),
        lambda: gen.grid_graph(5, 6),
    ])
    def test_maximal_matching_everywhere(self, make):
        graph = make()
        dg, _ = load_for_matching(graph)
        matching, counters = run_matching(dg)
        verify_maximal_matching(graph, matching)
        assert counters["phases"] >= 1

    def test_deterministic(self, small_er):
        runs = []
        for _ in range(2):
            dg, _ = load_for_matching(small_er)
            matching, _ = run_matching(dg)
            runs.append(matching)
        assert runs[0] == runs[1]

    def test_randomized_chooser_works(self, small_er):
        dg, _ = load_for_matching(small_er)
        matching, _ = run_matching(
            dg,
            chooser=random_luby_chooser(SplitMix64(seed=3)),
            allow_stalls=64,
        )
        verify_maximal_matching(small_er, matching)

    def test_star_matches_one_edge(self):
        graph = gen.star_graph(12)
        dg, _ = load_for_matching(graph)
        matching, _ = run_matching(dg)
        assert len(matching) == 1

    def test_edgeless(self):
        graph = Graph.empty(5)
        dg, _ = load_for_matching(graph)
        matching, _ = run_matching(dg)
        assert matching == []


class TestVerifier:
    def test_rejects_non_edge(self, path4):
        with pytest.raises(AlgorithmError):
            verify_maximal_matching(path4, [(0, 2)])

    def test_rejects_shared_endpoint(self, path4):
        with pytest.raises(AlgorithmError):
            verify_maximal_matching(path4, [(0, 1), (1, 2)])

    def test_rejects_non_maximal(self, path4):
        with pytest.raises(AlgorithmError):
            verify_maximal_matching(path4, [])
        with pytest.raises(AlgorithmError):
            verify_maximal_matching(path4, [(0, 1)])  # (2,3) extendable

    def test_accepts_valid(self, path4):
        verify_maximal_matching(path4, [(0, 1), (2, 3)])


class TestSolveMatching:
    def test_driver_roundtrip(self, small_er):
        from repro.core.det_matching import solve_matching

        matching, metrics = solve_matching(small_er)
        assert metrics["rounds"] >= 1
        assert metrics["alg_phases"] >= 1
        assert len(matching) >= 1

    def test_randomized_driver(self, small_er):
        from repro.core.det_matching import solve_matching

        matching, _ = solve_matching(
            small_er, algorithm=registry.RAND_MATCHING, seed=2
        )
        verify_maximal_matching(small_er, matching)

    def test_empty_graph(self):
        from repro.core.det_matching import solve_matching

        result = solve_matching(Graph.empty(0))
        assert result.matching == []
        assert result.rounds == 0 and result.metrics == {}


class TestSolveMatchingParity:
    """Backend and trace wiring must be pure observers for matching too.

    ``solve_matching`` now runs through the same solver session as
    ``solve_ruling_set``; the out-of-core shard backend or an attached trace
    must leave the matching and every model quantity bit-identical to
    the serial/untraced run.
    """

    def _reference(self, graph):
        from repro.core.det_matching import solve_matching

        return solve_matching(graph)

    def _assert_model_identical(self, reference, other):
        assert other.matching == reference.matching
        assert other.rounds == reference.rounds
        assert other.metrics == reference.metrics
        assert other.phase_rounds == reference.phase_rounds

    def test_shard_backend_bit_identical(self, small_er):
        from repro.core.det_matching import solve_matching

        reference = self._reference(small_er)
        sharded = solve_matching(
            small_er, backend="shard", num_shards=2
        )
        self._assert_model_identical(reference, sharded)

    def test_trace_bit_identical_and_populated(self, small_er):
        from repro.core.det_matching import solve_matching

        reference = self._reference(small_er)
        traced = solve_matching(small_er, trace=True)
        self._assert_model_identical(reference, traced)
        assert reference.trace is None
        assert traced.trace is not None and traced.trace.events

    def test_randomized_backend_and_trace_together(self, small_er):
        from repro.core.det_matching import solve_matching

        reference = solve_matching(
            small_er, algorithm=registry.RAND_MATCHING, seed=7
        )
        combined = solve_matching(
            small_er, algorithm=registry.RAND_MATCHING, seed=7,
            backend="shard", num_shards=2, trace=True,
        )
        self._assert_model_identical(reference, combined)

    def test_result_tuple_compat(self, small_er):
        # Pre-session callers unpacked (matching, metrics); the result
        # object must keep supporting that shape.
        from repro.core.det_matching import solve_matching

        result = solve_matching(small_er)
        matching, metrics = result
        assert matching == result.matching
        assert metrics == result.metrics


class TestCliMatch:
    def test_match_command(self, capsys):
        from repro.cli import main

        assert main([
            "match", "--family", "grid", "--n", "64", "--param", "8",
        ]) == 0
        out = capsys.readouterr().out
        assert "matching size:" in out

    def test_match_json(self, capsys):
        import json as json_mod

        from repro.cli import main

        assert main([
            "match", "--family", "tree", "--n", "40", "--json",
        ]) == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if l]
        payload = json_mod.loads(lines[-1])
        assert isinstance(payload["matching"], list)
