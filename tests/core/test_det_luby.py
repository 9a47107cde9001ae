"""Tests for the derandomized Luby MIS engine."""

import pytest

from repro.core.det_luby import luby_program, modulus_for
from repro.core.program import ProgramContext, run_program
from repro.core.verify import verify_ruling_set
from repro.graph import generators as gen
from repro.graph.graph import Graph
from repro.mpc.config import MPCConfig
from repro.mpc.graph_store import ADJ, DistributedGraph
from repro.mpc.machine import Machine
from repro.mpc.simulator import Simulator
from repro.util.prime import is_prime


def run_det_luby(graph, k=None, s=None):
    cfg = MPCConfig.near_linear(
        graph.num_vertices, graph.num_edges, max_degree=graph.max_degree()
    )
    if k is not None or s is not None:
        cfg = MPCConfig(
            num_machines=k or cfg.num_machines,
            memory_words=s or cfg.memory_words,
        )
    sim = Simulator(cfg)
    dg = DistributedGraph.load(sim, graph)
    counters = run_program(dg, luby_program(in_set_key="mis")).counters
    return dg.collect_marked("mis"), counters, sim


class TestModulus:
    def test_prime_and_large(self):
        p = modulus_for(100)
        assert is_prime(p) and p > 400


class TestDetLuby:
    @pytest.mark.parametrize("make", [
        lambda: gen.path_graph(25),
        lambda: gen.cycle_graph(16),
        lambda: gen.complete_graph(10),
        lambda: gen.star_graph(25),
        lambda: gen.gnp_random_graph(80, 1, 8, seed=3),
        lambda: gen.random_tree(60, seed=1),
        lambda: gen.grid_graph(5, 8),
        lambda: gen.caterpillar_graph(10, 3),
    ])
    def test_produces_verified_mis(self, make):
        graph = make()
        members, counters, _ = run_det_luby(graph)
        verify_ruling_set(graph, members, alpha=2, beta=1)
        assert counters["phases"] >= 1

    def test_edgeless_all_join(self):
        graph = Graph.empty(7)
        members, counters, _ = run_det_luby(graph)
        assert members == list(range(7))
        assert counters["isolated_joins"] == 7

    def test_deterministic_across_runs(self, small_er):
        a, _, _ = run_det_luby(small_er)
        b, _, _ = run_det_luby(small_er)
        assert a == b

    def test_consumes_all_vertices(self, small_er):
        _, _, sim = run_det_luby(small_er)
        for machine in sim.machines:
            assert machine.store["g_adj"] == {}

    def test_geometric_edge_decay_rough(self):
        # The derandomized phase must make real progress: phase count is
        # far below n (empirically ~log n; assert a generous band).
        graph = gen.gnp_random_graph(150, 1, 10, seed=4)
        _, counters, _ = run_det_luby(graph)
        assert counters["phases"] <= 15

    def test_rejects_beta_param_mismatch(self):
        # det_luby has no beta; this guards the engine's stall contract:
        # deterministic chooser with allow_stalls=0 must never stall.
        graph = gen.gnp_random_graph(60, 1, 6, seed=7)
        members, counters, _ = run_det_luby(graph)
        verify_ruling_set(graph, members, alpha=2, beta=1)


class TestAbsorbIsolatedKeepsThePrice:
    """The isolated-vertex step reads the adjacency without dropping its
    price, and takes the mutable read only on a machine that drops a row.

    Each test runs the program's first ``luby-phase`` and records which
    machines' audits find ``g_adj`` dirty (unpriced).
    """

    @staticmethod
    def first_luby_phase(graph, monkeypatch):
        sim = Simulator(MPCConfig(num_machines=6, memory_words=8192))
        dg = DistributedGraph.load(sim, graph)
        program = luby_program(in_set_key="mis")
        setup, measure, mark = program.phases()[:3]
        assert mark.name == "luby-phase"
        ctx = ProgramContext(dg)
        ctx.counters.update(dict.fromkeys(program.counters, 0))
        setup.run(ctx)
        measure.run(ctx)
        dirty = set()
        audited = Machine.memory_words

        def recording(machine: Machine) -> int:
            if ADJ in machine.store._dirty:
                dirty.add(machine.mid)
            return audited(machine)

        monkeypatch.setattr(Machine, "memory_words", recording)
        mark.run(ctx)
        return dg, dirty, ctx.counters["isolated_joins"]

    def test_no_isolated_vertex_leaves_it_priced(self, monkeypatch):
        dg, dirty, joins = self.first_luby_phase(
            gen.cycle_graph(24), monkeypatch
        )
        assert joins == 0
        assert dirty == set()
        assert all(ADJ not in m.store._dirty for m in dg.sim.machines)

    def test_isolated_vertex_dirties_only_its_owner(self, monkeypatch):
        graph = Graph.from_edges(24, [(v, v + 1) for v in range(22)])
        dg, dirty, joins = self.first_luby_phase(graph, monkeypatch)
        assert joins == 1
        assert dirty == {dg.owner_of(23)}
        assert 23 in dg.sim.machine(dg.owner_of(23)).store.peek("mis")
