"""Tests for the distributed graph store against the in-memory graph."""

import pytest

from repro.errors import MPCViolationError
from repro.graph import generators as gen
from repro.mpc.config import MPCConfig
from repro.mpc.graph_store import ADJ, DistributedGraph
from repro.mpc.machine import Machine
from repro.mpc.ownermap import HashOwnerMap, ModOwnerMap
from repro.mpc.simulator import Simulator


def load(graph, k=6, s=8192, owner_map=None):
    sim = Simulator(MPCConfig(num_machines=k, memory_words=s))
    return DistributedGraph.load(sim, graph, owner_map=owner_map), sim


class TestLoading:
    def test_snapshot_matches_graph(self, small_er):
        dg, _ = load(small_er)
        vertices, edges = dg.snapshot_active()
        assert vertices == list(small_er.vertices())
        assert edges == sorted(small_er.edges())

    def test_counts(self, small_er):
        dg, _ = load(small_er)
        assert dg.count_active() == small_er.num_vertices
        assert dg.count_active_edges() == small_er.num_edges
        assert dg.max_active_degree() == small_er.max_degree()

    def test_custom_owner_map(self, small_er):
        owner_map = ModOwnerMap(small_er.num_vertices, 6)
        dg, _ = load(small_er, owner_map=owner_map)
        vertices, edges = dg.snapshot_active()
        assert edges == sorted(small_er.edges())

    def test_memory_enforced_at_load(self):
        g = gen.complete_graph(30)
        sim = Simulator(MPCConfig(num_machines=2, memory_words=64))
        with pytest.raises(MPCViolationError):
            DistributedGraph.load(sim, g)


class TestPushValues:
    def test_neighbor_values(self, small_er):
        dg, sim = load(small_er)
        sim.local(
            lambda m: m.store.__setitem__(
                "vals", {v: v * 10 for v in m.store[ADJ]}
            )
        )
        dg.push_values("vals")
        for m in sim.machines:
            for u, received in m.store["g_nbr_values"].items():
                expected = sorted((v, v * 10) for v in small_er.neighbors(u))
                assert received == expected

    def test_tuple_values(self, path4):
        dg, sim = load(path4, k=2)
        sim.local(
            lambda m: m.store.__setitem__(
                "vals", {v: (v, v + 1) for v in m.store[ADJ]}
            )
        )
        dg.push_values("vals")
        machine_of_1 = sim.machine(dg.owner_of(1))
        assert machine_of_1.store["g_nbr_values"][1] == [(0, 0, 1), (2, 2, 3)]


class TestPushFlags:
    def test_only_neighbors_pinged(self, path4):
        dg, sim = load(path4, k=2)
        sim.local(
            lambda m: m.store.__setitem__(
                "flags", sorted(v for v in m.store[ADJ] if v == 0)
            )
        )
        dg.push_flags("flags", "hit")
        hit = set()
        for m in sim.machines:
            hit.update(m.store["hit"])
        assert hit == {1}


class TestDeactivate:
    def test_removes_and_scrubs(self, small_er):
        dg, sim = load(small_er)
        removed = {v for v in small_er.vertices() if v % 3 == 0}
        sim.local(
            lambda m: m.store.__setitem__(
                "rm", {v for v in m.store[ADJ] if v in removed}
            )
        )
        dg.deactivate("rm")
        vertices, edges = dg.snapshot_active()
        assert set(vertices) == set(small_er.vertices()) - removed
        for u, v in edges:
            assert u not in removed and v not in removed
        # Scrubbed adjacency must exactly match the induced subgraph.
        expected = sorted(
            (u, v)
            for u, v in small_er.edges()
            if u not in removed and v not in removed
        )
        assert edges == expected

    def test_deactivate_everything(self, triangle):
        dg, sim = load(triangle, k=2)
        sim.local(lambda m: m.store.__setitem__("rm", set(m.store[ADJ])))
        dg.deactivate("rm")
        assert dg.count_active() == 0


class TestAdjacencyKeepsItsPrice:
    """Operations that only read the adjacency leave its price cached.

    A read through ``store[ADJ]`` would drop the price, and the next
    audit would walk the whole adjacency again.  These tests record which
    machines' audits find ``g_adj`` dirty.
    """

    @staticmethod
    def record_dirty_adjacency(monkeypatch) -> set:
        dirty = set()
        audited = Machine.memory_words

        def recording(machine: Machine) -> int:
            if ADJ in machine.store._dirty:
                dirty.add(machine.mid)
            return audited(machine)

        monkeypatch.setattr(Machine, "memory_words", recording)
        return dirty

    def test_reads_leave_it_clean(self, monkeypatch, small_er):
        dg, sim = load(small_er)
        dirty = self.record_dirty_adjacency(monkeypatch)
        sim.local(
            lambda m: m.store.__setitem__(
                "vals", {v: v % 7 for v in m.store.peek(ADJ)}
            )
        )
        sim.local(
            lambda m: m.store.__setitem__(
                "flags", sorted(v for v in m.store.peek(ADJ) if v % 5 == 0)
            )
        )
        dg.push_values("vals")
        dg.push_flags("flags", "hit")
        assert dg.count_active() == small_er.num_vertices
        assert dg.count_active_edges() == small_er.num_edges
        assert dg.max_active_degree() == small_er.max_degree()
        dg.gather_flagged_to_zero("flags", "gv", "ge")
        assert dirty == set()

    def test_deactivate_dirties_only_changed_machines(self, monkeypatch):
        graph = gen.path_graph(24)
        dg, sim = load(graph)  # six machines, four consecutive ids each
        before = [dict(m.store.peek(ADJ)) for m in sim.machines]
        dirty = self.record_dirty_adjacency(monkeypatch)
        sim.local(
            lambda m: m.store.__setitem__(
                "rm", {v for v in m.store.peek(ADJ) if v == 8}
            )
        )
        dg.deactivate("rm")
        changed = {
            m.mid for m in sim.machines if m.store.peek(ADJ) != before[m.mid]
        }
        assert changed == {1, 2}  # vertex 8 and its neighbours 7 and 9
        assert dirty == changed


class TestGather:
    def test_gather_subgraph(self, small_er):
        dg, sim = load(small_er)
        flagged = {v for v in small_er.vertices() if v < 20}
        sim.local(
            lambda m: m.store.__setitem__(
                "flags", {v for v in m.store[ADJ] if v in flagged}
            )
        )
        dg.gather_flagged_to_zero("flags", "gv", "ge")
        m0 = sim.machine(0)
        assert m0.store["gv"] == sorted(flagged)
        assert m0.store["ge"] == sorted(
            (u, v)
            for u, v in small_er.edges()
            if u in flagged and v in flagged
        )

    def test_gather_with_hash_owner_map(self, small_er):
        owner_map = HashOwnerMap(small_er.num_vertices, 6, seed=11)
        dg, sim = load(small_er, owner_map=owner_map)
        sim.local(
            lambda m: m.store.__setitem__(
                "flags", {v for v in m.store[ADJ] if v % 2 == 0}
            )
        )
        dg.gather_flagged_to_zero("flags", "gv", "ge")
        m0 = sim.machine(0)
        assert m0.store["gv"] == [
            v for v in small_er.vertices() if v % 2 == 0
        ]


class TestCollect:
    def test_collect_marked(self, path4):
        dg, sim = load(path4, k=2)
        sim.local(
            lambda m: m.store.__setitem__(
                "marks", {v for v in m.store[ADJ] if v % 2 == 0}
            )
        )
        assert dg.collect_marked("marks") == [0, 2]
