"""Execution backends: registry, serial vs shard determinism."""

import pytest

from repro.core.det_luby import conditional_expectation_chooser, luby_program
from repro.core.program import run_program
from repro.errors import MPCConfigError, MPCRoutingError
from repro.graph import generators as gen
from repro.mpc.backends import BACKENDS, Router, SerialBackend, resolve_backend
from repro.mpc.config import MPCConfig
from repro.mpc.graph_store import DistributedGraph
from repro.mpc.shard import ShardBackend, _chunk_ranges
from repro.mpc.simulator import Simulator


def run_det_luby(backend_name, num_shards=0):
    graph = gen.gnp_random_graph(96, 8, 96, seed=7)
    cfg = MPCConfig.sublinear(
        graph.num_vertices, graph.num_edges, max_degree=graph.max_degree()
    ).with_backend(backend_name, num_shards)
    with Simulator(cfg) as sim:
        dg = DistributedGraph.load(sim, graph)
        run_program(dg, luby_program(
            in_set_key="mis",
            chooser=conditional_expectation_chooser(chunk_bits=3),
        ))
        members = dg.collect_marked("mis")
        return members, sim.metrics.summary(), sim.backend.stats()


class TestResolveBackend:
    def test_serial_default(self):
        assert resolve_backend("serial").name == "serial"

    def test_unknown_name_rejected(self):
        with pytest.raises(MPCConfigError):
            resolve_backend("gpu")

    def test_process_backend_is_gone(self):
        # No silent fallback to serial: the removed name is an error,
        # whether asked for directly or through the config.
        with pytest.raises(MPCConfigError, match=r"\['serial', 'shard'\]"):
            resolve_backend("process")
        cfg = MPCConfig(num_machines=2, memory_words=256)
        with pytest.raises(MPCConfigError, match=r"\['serial', 'shard'\]"):
            Simulator(cfg.with_backend("process"))

    def test_negative_shard_count_rejected(self):
        with pytest.raises(MPCConfigError):
            ShardBackend(num_shards=-1)
        with pytest.raises(MPCConfigError):
            MPCConfig(num_machines=2, memory_words=256, num_shards=-1)

    def test_config_carries_backend(self):
        cfg = MPCConfig(num_machines=2, memory_words=256)
        assert cfg.backend == "serial"
        forked = cfg.with_backend("shard", num_shards=3)
        assert (forked.backend, forked.num_shards) == ("shard", 3)
        assert cfg.backend == "serial"  # frozen original untouched


class TestChunkRanges:
    @pytest.mark.parametrize("count,parts", [(1, 1), (7, 3), (8, 4), (3, 8)])
    def test_contiguous_cover(self, count, parts):
        ranges = _chunk_ranges(count, parts)
        flat = [i for r in ranges for i in r]
        assert flat == list(range(count))
        sizes = [len(r) for r in ranges]
        assert max(sizes) - min(sizes) <= 1  # balanced


class TestBackendEquivalence:
    def test_det_luby_identical_across_backends(self):
        """The acceptance invariant: backends change wall-clock only."""
        serial_members, serial_metrics, _ = run_det_luby("serial")
        shard_members, shard_metrics, stats = run_det_luby(
            "shard", num_shards=2
        )
        assert shard_members == serial_members
        assert shard_metrics == serial_metrics
        # The shard path genuinely ran: exchanges went through its spool
        # and machine state through its spill files.
        assert stats["exchange_steps"] > 0 and stats["shard_spills"] > 0

    def test_serial_backend_is_plain_loop(self):
        backend = SerialBackend()
        cfg = MPCConfig(num_machines=3, memory_words=256)
        sim = Simulator(cfg, backend=backend)
        sim.local(lambda m: m.store.__setitem__("x", m.mid))
        assert [m.store["x"] for m in sim.machines] == [0, 1, 2]
        # The serial backend reports step counters (the trace layer
        # snapshots them for attribution) and nothing else.
        assert backend.stats() == {"local_steps": 1, "communicate_steps": 0}

    def test_serial_routes_each_outbox_before_the_next_callback(
        self, monkeypatch
    ):
        # No round-wide outbox buffer: machine i's outbox is routed
        # before machine i + 1's callback runs, and delivery still waits
        # for the whole round.
        events = []
        route = Router.route

        def logged(self, sender, outbox):
            events.append(("route", sender))
            return route(self, sender, outbox)

        def send(machine):
            events.append(("callback", machine.mid))
            assert not machine.inbox
            return [((machine.mid + 1) % 3, (machine.mid,))]

        monkeypatch.setattr(Router, "route", logged)
        cfg = MPCConfig(num_machines=3, memory_words=256)
        with Simulator(cfg, backend=SerialBackend()) as sim:
            sim.communicate(send)
            assert [m.inbox for m in sim.machines] == [[(2,)], [(0,)], [(1,)]]
        assert events == [
            (kind, mid) for mid in range(3) for kind in ("callback", "route")
        ]


class TestHarvestContract:
    """Every backend applies a harvest alike: ids once each, in id order."""

    def _sim(self, name):
        cfg = MPCConfig(num_machines=4, memory_words=256).with_backend(
            name, 2
        )
        sim = Simulator(cfg)
        sim.local(lambda m: m.store.__setitem__("x", m.mid * 10))
        return sim

    @pytest.mark.parametrize("name", sorted(BACKENDS))
    def test_repeated_id_rejected_before_any_load(self, name):
        with self._sim(name) as sim:
            loads = sim.backend.stats().get("shard_loads")
            with pytest.raises(
                MPCRoutingError,
                match=r"^harvest names a machine twice: \[1, 1\]$",
            ):
                sim.harvest(lambda m: m.store.pop("x", None), only=(1, 1))
            assert sim.backend.stats().get("shard_loads") == loads
            # Nothing was popped.
            assert sim.harvest(lambda m: m.store["x"]) == [0, 10, 20, 30]

    @pytest.mark.parametrize("name", sorted(BACKENDS))
    def test_fn_runs_in_id_order_results_in_request_order(self, name):
        calls = []

        def record(machine):
            calls.append(machine.mid)
            return machine.store["x"]

        with self._sim(name) as sim:
            assert sim.harvest(record, only=(3, 0, 2)) == [30, 0, 20]
        assert calls == [0, 2, 3]
