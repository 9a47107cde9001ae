"""End-to-end out-of-core solves: file in, verified ruling set out.

``solve_ruling_set_stream`` chains every piece of the shard path —
pass-1 sizing, pass-2 ingest, shard-backend execution, harvest-based
collection — so these tests are the overlap oracle the acceptance
criterion names: streamed runs must be bit-identical to in-memory serial
runs of the same algorithm under the same owner map.
"""

import json

import pytest

from repro.core import registry
from repro.core.pipeline import solve_ruling_set_stream
from repro.core.program import run_program
from repro.core.registry import RunContext
from repro.core.session import (
    EdgeListSource,
    SolverSession,
    make_config,
    make_config_from_stats,
)
from repro.core.verify import verify_ruling_set
from repro.errors import AlgorithmError, MPCConfigError
from repro.graph import generators as gen
from repro.graph.io import write_edge_list
from repro.mpc import shard as shard_module
from repro.mpc.graph_store import DistributedGraph
from repro.mpc.ownermap import ModOwnerMap
from repro.mpc.simulator import Simulator


STREAMABLE = registry.algorithm_names(
    family=registry.MPC_FAMILY, problem=registry.RULING_SET
)


def _serial_reference(graph, algorithm, seed, beta=2):
    """The in-memory run under the stream path's owner map (ModOwnerMap)."""
    cfg = make_config(graph)
    spec = registry.get_algorithm(algorithm)
    with Simulator(cfg) as sim:
        dg = DistributedGraph.load(
            sim, graph, ModOwnerMap(graph.num_vertices, cfg.num_machines)
        )
        context = RunContext(graph=graph, beta=beta, seed=seed)
        run_program(dg, spec.program_factory(context))
        members = dg.collect_marked(context.in_set_key)
        rounds = sim.metrics.rounds
        metrics = dict(sim.metrics.summary())
    return members, rounds, metrics


class TestStreamSolveParity:
    @pytest.mark.parametrize("algorithm", STREAMABLE)
    def test_bit_identical_to_serial_in_memory(self, tmp_path, algorithm):
        graph = gen.gnp_random_graph(72, 5, 72, seed=17)
        path = tmp_path / "g.txt"
        write_edge_list(graph, path)

        result = solve_ruling_set_stream(path, algorithm=algorithm, seed=5)
        members, rounds, metrics = _serial_reference(graph, algorithm, seed=5)

        assert result.members == members
        assert result.rounds == rounds
        for key, value in metrics.items():
            assert result.metrics[key] == value
        verify_ruling_set(
            graph, result.members, alpha=result.alpha, beta=result.beta
        )

    def test_verify_flag_runs_oracle(self, tmp_path):
        graph = gen.cycle_graph(30)
        path = tmp_path / "g.txt"
        write_edge_list(graph, path)
        result = solve_ruling_set_stream(path, verify=True)
        assert result.size > 0

    def test_ingest_metrics_present(self, tmp_path, small_er):
        path = tmp_path / "g.txt"
        write_edge_list(small_er, path)
        result = solve_ruling_set_stream(path)
        assert result.metrics["ingest_edges"] == small_er.num_edges
        assert result.metrics["ingest_max_degree"] == small_er.max_degree()
        assert result.metrics["shard_max_resident_words"] > 0
        assert result.metrics["shard_shard_spills"] > 0

    def test_deterministic_across_runs(self, tmp_path, small_er, monkeypatch):
        path = tmp_path / "g.txt"
        write_edge_list(small_er, path)
        a = solve_ruling_set_stream(path)
        monkeypatch.setattr(shard_module, "CHUNK_MESSAGES", 3)
        b = solve_ruling_set_stream(path, num_shards=7)
        assert a.members == b.members
        assert a.rounds == b.rounds
        # Residency stats legitimately differ with the shard count; the
        # model quantities must not.
        for key in ("total_words", "total_messages", "max_words_sent"):
            assert a.metrics[key] == b.metrics[key]

    def test_empty_graph(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 0\n", encoding="ascii")
        result = solve_ruling_set_stream(path)
        assert result.members == []

    def test_empty_graph_reports_claimed_beta(self, tmp_path):
        # Regression: the empty-file branch echoed the requested beta
        # instead of the algorithm's claim (an MIS claims beta = 1).
        path = tmp_path / "g.txt"
        path.write_text("0 0\n", encoding="ascii")
        result = solve_ruling_set_stream(
            path, algorithm=registry.DET_LUBY, beta=5
        )
        assert result.beta == 1

    def test_empty_graph_still_validates(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 0\n", encoding="ascii")
        with pytest.raises(AlgorithmError, match="MPC ruling-set"):
            solve_ruling_set_stream(path, algorithm=registry.DET_MATCHING)

    def test_non_mpc_algorithm_rejected(self, tmp_path):
        path = tmp_path / "g.txt"
        write_edge_list(gen.cycle_graph(6), path)
        with pytest.raises(AlgorithmError, match="MPC ruling-set"):
            solve_ruling_set_stream(path, algorithm=registry.GREEDY_MIS)


class TestStreamSession:
    """A streamed session takes its execution choices from the session."""

    def test_runs_on_the_session_shard_count(self, tmp_path, small_er):
        path = tmp_path / "g.txt"
        write_edge_list(small_er, path)
        spec = registry.get_algorithm(registry.DET_RULING)
        result = SolverSession(EdgeListSource(path), spec, num_shards=3).run()
        assert result.metrics["shard_num_shards"] == 3

    def test_traced_run_names_the_shard_backend(self, tmp_path, small_er):
        path = tmp_path / "g.txt"
        write_edge_list(small_er, path)
        spec = registry.get_algorithm(registry.DET_RULING)
        traced = SolverSession(EdgeListSource(path), spec, trace=True).run()
        meta = json.loads(traced.trace.jsonl_lines()[0])
        assert meta["backend"] == "shard"
        assert traced.trace.total_words() == traced.metrics["total_words"]
        plain = solve_ruling_set_stream(path)
        assert traced.members == plain.members
        assert traced.metrics == plain.metrics

    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_refuses_a_backend_it_will_not_use(
        self, tmp_path, small_er, backend
    ):
        # Stream mode always runs on the shard backend, so any other
        # backend is refused rather than silently replaced.
        path = tmp_path / "g.txt"
        write_edge_list(small_er, path)
        spec = registry.get_algorithm(registry.DET_RULING)
        with pytest.raises(MPCConfigError, match="runs on the shard backend"):
            SolverSession(EdgeListSource(path), spec, backend=backend).run()
        shard = SolverSession(EdgeListSource(path), spec, backend="shard")
        assert shard.run().metrics["shard_num_shards"] == 4


class TestConfigFromStats:
    def test_counts_path_matches_graph_path(self, medium_er):
        from_graph = make_config(medium_er)
        from_stats = make_config_from_stats(
            medium_er.num_vertices,
            medium_er.num_edges,
            medium_er.max_degree(),
        )
        assert from_stats == from_graph

    @pytest.mark.parametrize("regime", ["near-linear", "single"])
    def test_other_regimes(self, small_er, regime):
        assert make_config_from_stats(
            small_er.num_vertices,
            small_er.num_edges,
            small_er.max_degree(),
            regime,
        ) == make_config(small_er, regime)

    def test_unknown_regime_rejected(self):
        with pytest.raises(AlgorithmError, match="unknown regime"):
            make_config_from_stats(10, 10, 2, "huge")
