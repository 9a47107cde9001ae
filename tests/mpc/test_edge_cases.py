"""Edge cases and failure-injection for the MPC layer."""

import pytest

from repro.errors import AlgorithmError, MPCViolationError
from repro.graph import generators as gen
from repro.mpc.config import MPCConfig
from repro.mpc.graph_store import ADJ, DistributedGraph
from repro.mpc.metrics import RunMetrics
from repro.mpc.primitives.broadcast import broadcast_value
from repro.mpc.simulator import Simulator


class TestGraphStoreFaults:
    def test_push_to_deactivated_vertex_detected(self):
        graph = gen.path_graph(4)
        sim = Simulator(MPCConfig(num_machines=2, memory_words=4096))
        dg = DistributedGraph.load(sim, graph)

        # Corrupt one machine's adjacency so it references a vertex the
        # receiver no longer considers active; push must fault loudly.
        def deactivate_locally_only(machine):
            machine.store[ADJ].pop(0, None)

        sim.local(deactivate_locally_only)

        def set_values(machine):
            machine.store["vals"] = {v: 1 for v in machine.store[ADJ]}

        sim.local(set_values)
        with pytest.raises(AlgorithmError, match="non-active"):
            dg.push_values("vals")

    def test_gather_overflow_faults(self):
        # Flag a subgraph too large for machine 0's budget.
        graph = gen.complete_graph(24)
        cfg = MPCConfig(num_machines=8, memory_words=200)
        sim = Simulator(cfg)
        with pytest.raises(MPCViolationError):
            dg = DistributedGraph.load(sim, graph)
            sim.local(
                lambda m: m.store.__setitem__(
                    "flags", set(m.store[ADJ])
                )
            )
            dg.gather_flagged_to_zero("flags", "gv", "ge")


class TestPrimitiveEdges:
    def test_broadcast_single_machine(self):
        sim = Simulator(MPCConfig(num_machines=1, memory_words=64))
        broadcast_value(sim, (5,), "x")
        assert sim.machine(0).store["x"] == (5,)
        assert sim.metrics.rounds == 0  # nobody to send to

class TestMetricsEdges:
    def test_empty_phase_rounds(self):
        assert RunMetrics().phase_rounds() == {}

    def test_phase_with_no_rounds(self):
        metrics = RunMetrics()
        metrics.begin_phase("idle")
        assert metrics.phase_rounds() == {"idle": 0}

    def test_record_round_accumulates(self):
        metrics = RunMetrics()
        metrics.record_round(messages=2, words=5, max_sent=3, max_received=5)
        metrics.record_round(messages=1, words=1, max_sent=1, max_received=1)
        assert metrics.rounds == 2
        assert metrics.total_words == 6
        assert metrics.max_words_sent == 3
