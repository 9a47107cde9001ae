"""Participant-scoped supersteps and the audit of touched machines only.

``Simulator.local`` / ``communicate`` take ``only``, the machines that
can act in a step; the backend calls back, delivers and re-prices only
the machines the step touched.  These tests pin that a primitive run on
its participants is indistinguishable from the same primitive run on
every machine, and that the touched-only audit finds the same peak and
the same first over-budget machine a full audit would.
"""

import dataclasses

import pytest

from repro.core import registry
from repro.core.session import EdgeListSource, SolverSession
from repro.errors import MPCRoutingError, MPCViolationError
from repro.graph import generators as gen
from repro.graph.io import write_edge_list
from repro.mpc import simulator as simulator_module
from repro.mpc.backends import resolve_backend
from repro.mpc.config import MPCConfig
from repro.mpc.primitives import (
    broadcast_value,
    exclusive_prefix_counts,
    reduce_vector,
)
from repro.mpc.simulator import Simulator
from repro.mpc.trace import TraceRecorder

BACKEND_LEGS = [("serial", 0), ("shard", 3)]


def _every_machine(monkeypatch):
    """Run every superstep on every machine, as before participants."""
    monkeypatch.setattr(
        simulator_module, "step_participants", lambda k, only: None
    )


def _record_audits(sim, log):
    """Log each superstep's words after its audit; on a resident
    backend also check them against pricing every machine afresh."""
    check = sim._check_memory

    def recording(report):
        fault = check(report)
        words = list(sim._words)
        if sim.backend.all_resident:
            assert words == [m.memory_words() for m in sim.machines]
        log.append(words)
        return fault

    sim._check_memory = recording


def _reduce(sim):
    return reduce_vector(
        sim,
        lambda m: (m.mid, 1, m.mid % 3),
        lambda a, b: tuple(x + y for x, y in zip(a, b)),
        width=3,
    )


def _broadcast(sim):
    broadcast_value(sim, (7, 8, 9), "val")
    return sim.harvest(lambda m: m.store["val"])


def _prefix(sim):
    sim.local(lambda m: m.store.__setitem__("items", [0] * (m.mid % 4)))
    return exclusive_prefix_counts(
        sim, lambda m: len(m.store.peek("items")), "offset"
    )


PRIMITIVES = {"reduce": _reduce, "broadcast": _broadcast, "prefix": _prefix}


def _run_primitive(name, k, memory_words, backend, num_shards):
    cfg = MPCConfig(num_machines=k, memory_words=memory_words)
    log = []
    with Simulator(cfg, resolve_backend(backend, num_shards)) as sim:
        _record_audits(sim, log)
        result = PRIMITIVES[name](sim)
        sim.settle()
        machines = sim.harvest(lambda m: (dict(m.store), list(m.inbox)))
        metrics = dataclasses.asdict(sim.metrics)
    for timing in ("wall_time_s", "time_per_phase"):
        metrics.pop(timing)
    return result, machines, log, metrics


class TestPrimitivesMatchEveryMachine:
    @pytest.mark.parametrize("backend,num_shards", BACKEND_LEGS)
    @pytest.mark.parametrize("name", sorted(PRIMITIVES))
    @pytest.mark.parametrize("k,memory_words", [(17, 64), (40, 96), (9, 4096)])
    def test_participants_leave_the_same_run(
        self, monkeypatch, name, k, memory_words, backend, num_shards
    ):
        scoped = _run_primitive(name, k, memory_words, backend, num_shards)
        with monkeypatch.context() as patch:
            _every_machine(patch)
            full = _run_primitive(name, k, memory_words, backend, num_shards)
        # Result, every store and inbox, every superstep's audited words
        # and every RunMetrics model field.
        assert scoped == full

    def test_the_tree_primitives_skip_idle_callbacks(self):
        # S = 8 gives a fanout-2 reduction: 16 machines, 4 levels.  The
        # plant and the first send reach every machine; each later
        # level halves.
        cfg = MPCConfig(num_machines=16, memory_words=8)
        calls = []
        with Simulator(cfg) as sim:
            for verb in ("local", "communicate"):

                def counted(fn, only=None, _real=getattr(sim, verb)):
                    def wrapped(machine):
                        calls.append(machine.mid)
                        return fn(machine)

                    return _real(wrapped, only=only)

                setattr(sim, verb, counted)
            total = reduce_vector(
                sim, lambda m: (m.mid,), lambda a, b: (a[0] + b[0],), 1
            )
        assert total == (sum(range(16)),)
        assert sim.metrics.rounds == 4
        assert len(calls) == 16 + 16 + 8 + 8 + 4 + 4 + 2 + 2 + 1


class TestStepContract:
    @pytest.mark.parametrize("backend,num_shards", BACKEND_LEGS)
    def test_callbacks_run_on_participants_in_id_order(
        self, backend, num_shards
    ):
        cfg = MPCConfig(num_machines=8, memory_words=256)
        seen = []
        with Simulator(cfg, resolve_backend(backend, num_shards)) as sim:
            sim.local(lambda m: seen.append(("local", m.mid)), only=[6, 1, 3])
            sim.settle()
            sim.communicate(
                lambda m: seen.append(("send", m.mid)), only=range(0, 8, 4)
            )
        assert seen == [
            ("local", 1), ("local", 3), ("local", 6),
            ("send", 0), ("send", 4),
        ]

    @pytest.mark.parametrize("backend,num_shards", BACKEND_LEGS)
    def test_non_participants_get_an_empty_inbox(self, backend, num_shards):
        cfg = MPCConfig(num_machines=8, memory_words=256)
        with Simulator(cfg, resolve_backend(backend, num_shards)) as sim:
            sim.communicate(lambda m: [(m.mid, (m.mid,)), ((m.mid + 1) % 8, ())])
            sim.communicate(lambda m: [(0, (m.mid, m.mid))], only=(2, 5))
            inboxes = sim.harvest(lambda m: list(m.inbox))
        assert inboxes == [[(2, 2), (5, 5)]] + [[]] * 7

    @pytest.mark.parametrize(
        "only, text",
        [
            ((3, 8), "superstep names nonexistent machine 8"),
            ((-1, 2), "superstep names nonexistent machine -1"),
            (range(2, 9), "superstep names nonexistent machine 8"),
            ((2, 2), "superstep names a machine twice"),
        ],
    )
    def test_bad_participants_are_refused(self, only, text):
        sim = Simulator(MPCConfig(num_machines=8, memory_words=256))
        with pytest.raises(MPCRoutingError, match=text):
            sim.local(lambda m: None, only=only)
        with pytest.raises(MPCRoutingError, match=text):
            sim.communicate(lambda m: None, only=only)
        assert sim.metrics.rounds == 0


def _plant(words):
    def plant(machine):
        machine.store["big"] = tuple(range(words))

    return plant


class TestTouchedOnlyAudit:
    @pytest.mark.parametrize("backend,num_shards", BACKEND_LEGS)
    @pytest.mark.parametrize("step", ["local", "communicate"])
    def test_harvest_plant_is_caught_at_the_next_scoped_step(
        self, backend, num_shards, step
    ):
        cfg = MPCConfig(num_machines=8, memory_words=64)
        sim = Simulator(cfg, resolve_backend(backend, num_shards))
        with pytest.raises(MPCViolationError) as excinfo:
            with sim:
                sim.communicate(lambda m: [])
                sim.harvest(_plant(100), only=(5,))
                getattr(sim, step)(lambda m: None, only=(1,))
                sim.settle()
        # "big" prices one word: the same text a full audit gives.
        assert str(excinfo.value) == "machine 5 holds 101 words, budget S=64"

    @pytest.mark.parametrize("backend,num_shards", BACKEND_LEGS)
    @pytest.mark.parametrize("only", [None, (6,), (1,)])
    def test_two_overruns_report_the_lower_id(self, backend, num_shards, only):
        cfg = MPCConfig(num_machines=8, memory_words=64)
        sim = Simulator(cfg, resolve_backend(backend, num_shards))
        with pytest.raises(MPCViolationError) as excinfo:
            with sim:
                sim.harvest(_plant(80), only=(2,))
                # Machine 6 overruns in the step, machine 2 was planted.
                sim.local(
                    lambda m: m.mid == 6 and _plant(90)(m), only=only
                )
                sim.settle()
        assert str(excinfo.value) == "machine 2 holds 81 words, budget S=64"
        assert sim.metrics.peak_memory_words == 81

    def test_peak_and_trace_match_a_full_audit(self, monkeypatch):
        def traced_run():
            # Leaders come within 10% of S while merging: warnings.
            cfg = MPCConfig(num_machines=12, memory_words=48)
            trace = TraceRecorder(cfg)
            with Simulator(cfg, trace=trace) as sim:
                sim.local(
                    lambda m: m.store.__setitem__("x", (1,) * (30 + m.mid % 4))
                )
                total = reduce_vector(
                    sim, lambda m: m.store.peek("x")[:3],
                    lambda a, b: tuple(x + y for x, y in zip(a, b)), 3,
                )
                broadcast_value(sim, total, "total")
            return (
                sim.metrics.summary(), trace.machine_peak_words,
                trace.warnings, [ev["round"] for ev in trace.events],
            )

        scoped = traced_run()
        assert scoped[2], "the run should come near its budget"
        _every_machine(monkeypatch)
        assert traced_run() == scoped


class TestStreamedShardVisits:
    def test_participants_cut_shard_loads_and_spills(
        self, tmp_path, monkeypatch
    ):
        path = tmp_path / "g.txt"
        write_edge_list(gen.gnp_random_graph(160, 6, 159, seed=11), path)
        spec = registry.get_algorithm(registry.DET_RULING)

        def solve():
            return SolverSession(EdgeListSource(path), spec, num_shards=4).run()

        scoped = solve()
        _every_machine(monkeypatch)
        full = solve()
        assert scoped.members == full.members
        io = ("shard_shard_loads", "shard_shard_spills")
        for key in io:
            assert scoped.metrics[key] < full.metrics[key], key
        assert scoped.metrics["shard_chunks_spooled"] == (
            full.metrics["shard_chunks_spooled"]
        )

        def model(metrics):
            return {k: v for k, v in metrics.items() if k not in io}

        assert model(scoped.metrics) == model(full.metrics)
        assert scoped.phase_rounds == full.phase_rounds
