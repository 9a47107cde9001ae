"""Execution backends: serial vs process pool, determinism, fallbacks."""

import os
import signal

import pytest

from repro.core.det_luby import conditional_expectation_chooser, luby_program
from repro.core.program import run_program
from repro.errors import MPCConfigError
from repro.graph import generators as gen
from repro.mpc.backends import (
    ProcessPoolBackend,
    SerialBackend,
    _chunk_ranges,
    resolve_backend,
)
from repro.mpc.config import MPCConfig
from repro.mpc.graph_store import DistributedGraph
from repro.mpc.simulator import Simulator


def _double_store(machine):
    """Module-level so plain pickle can ship it to workers."""
    machine.store["x"] = machine.mid * 2


def _emit_to_zero(machine):
    from repro.mpc.message import Message

    return [Message(dst=0, payload=(machine.mid,))]


def _sigkill_in_worker(machine):
    """SIGKILL the hosting process *only* when it is a pool worker.

    The parent pid rides in the machine store (shipped to the worker by
    pickling), so the in-process serial re-run after recovery executes
    the benign branch instead of killing the test process.  Works for
    every multiprocessing start method.
    """
    if os.getpid() != machine.store["parent_pid"]:
        os.kill(os.getpid(), signal.SIGKILL)
    machine.store["x"] = machine.mid * 3


def _sigkill_comm(machine):
    from repro.mpc.message import Message

    if os.getpid() != machine.store["parent_pid"]:
        os.kill(os.getpid(), signal.SIGKILL)
    return [Message(dst=0, payload=(machine.mid,))]


def run_det_luby(backend_name, workers=0):
    graph = gen.gnp_random_graph(96, 8, 96, seed=7)
    cfg = MPCConfig.sublinear(
        graph.num_vertices, graph.num_edges, max_degree=graph.max_degree()
    ).with_backend(backend_name, workers)
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

    def test_process(self):
        backend = resolve_backend("process", workers=2)
        assert backend.name == "process"
        assert backend.workers == 2

    def test_unknown_name_rejected(self):
        with pytest.raises(MPCConfigError):
            resolve_backend("gpu")

    def test_negative_workers_rejected(self):
        with pytest.raises(MPCConfigError):
            ProcessPoolBackend(workers=-1)

    def test_config_carries_backend(self):
        cfg = MPCConfig(num_machines=2, memory_words=256)
        assert cfg.backend == "serial"
        forked = cfg.with_backend("process", workers=3)
        assert (forked.backend, forked.backend_workers) == ("process", 3)
        assert cfg.backend == "serial"  # frozen original untouched


class TestChunkRanges:
    @pytest.mark.parametrize("count,parts", [(1, 1), (7, 3), (8, 4), (3, 8)])
    def test_contiguous_cover(self, count, parts):
        ranges = _chunk_ranges(count, parts)
        flat = [i for r in ranges for i in r]
        assert flat == list(range(count))
        sizes = [len(r) for r in ranges]
        assert max(sizes) - min(sizes) <= 1  # balanced


class TestProcessPoolExecution:
    def test_local_step_runs_on_workers(self):
        backend = ProcessPoolBackend(workers=2)
        cfg = MPCConfig(num_machines=6, memory_words=256)
        sim = Simulator(cfg, backend=backend)
        try:
            sim.local(_double_store)
            assert [m.store["x"] for m in sim.machines] == [
                0, 2, 4, 6, 8, 10,
            ]
            assert backend.stats()["parallel_steps"] >= 1
        finally:
            sim.shutdown()

    def test_communicate_routes_in_id_order(self):
        backend = ProcessPoolBackend(workers=2)
        cfg = MPCConfig(num_machines=5, memory_words=256)
        sim = Simulator(cfg, backend=backend)
        try:
            sim.communicate(_emit_to_zero)
            # Inbox order must match what the serial backend produces:
            # sender id order, regardless of worker completion order.
            assert sim.machine(0).inbox == [(m,) for m in range(5)]
            assert sim.metrics.rounds == 1
        finally:
            sim.shutdown()

    def test_unpicklable_callback_falls_back_to_serial(self):
        import threading

        lock = threading.Lock()  # neither pickle nor cloudpickle can ship it

        def touch(machine):
            with lock:
                machine.store["x"] = machine.mid

        backend = ProcessPoolBackend(workers=2)
        cfg = MPCConfig(num_machines=4, memory_words=256)
        sim = Simulator(cfg, backend=backend)
        try:
            sim.local(touch)
            assert [m.store["x"] for m in sim.machines] == [0, 1, 2, 3]
            assert backend.stats()["unpicklable_fallbacks"] >= 1
        finally:
            sim.shutdown()

    def test_single_worker_gates_to_serial(self):
        backend = ProcessPoolBackend(workers=1)
        cfg = MPCConfig(num_machines=4, memory_words=256)
        sim = Simulator(cfg, backend=backend)
        sim.local(_double_store)
        assert backend.stats()["serial_fallbacks"] >= 1
        assert backend.stats()["parallel_steps"] == 0

    def test_shutdown_idempotent(self):
        backend = ProcessPoolBackend(workers=2)
        backend.shutdown()
        backend.shutdown()

    def test_shutdown_idempotent_after_use(self):
        backend = ProcessPoolBackend(workers=2)
        cfg = MPCConfig(num_machines=6, memory_words=256)
        sim = Simulator(cfg, backend=backend)
        sim.local(_double_store)
        assert backend._executor is not None
        sim.shutdown()
        assert backend._executor is None
        sim.shutdown()  # second call must be a no-op, not an error
        assert backend._executor is None

    def test_context_manager_releases_pool_on_error(self):
        # Regression: a solve that raises mid-run must still tear the
        # worker pool down (the pipeline relies on this contract).
        backend = ProcessPoolBackend(workers=2)
        cfg = MPCConfig(num_machines=6, memory_words=256)
        with pytest.raises(RuntimeError):
            with Simulator(cfg, backend=backend) as sim:
                sim.local(_double_store)
                assert backend._executor is not None
                raise RuntimeError("solve blew up mid-run")
        assert backend._executor is None


class TestBrokenPoolRecovery:
    def _machines(self, count):
        from repro.mpc.machine import Machine

        machines = []
        for mid in range(count):
            machine = Machine(mid)
            machine.store["parent_pid"] = os.getpid()
            machines.append(machine)
        return machines

    def test_sigkilled_worker_recovers_via_serial_rerun(self):
        backend = ProcessPoolBackend(workers=2)
        machines = self._machines(4)
        try:
            backend.run_local(machines, _sigkill_in_worker)
            # The step still completed, exactly once per machine, via the
            # serial fallback (no half-applied parallel state survives).
            assert [m.store["x"] for m in machines] == [0, 3, 6, 9]
            stats = backend.stats()
            assert stats["broken_pool_recoveries"] == 1
            assert stats["parallel_steps"] == 0
            assert backend._executor is None  # dead pool torn down
        finally:
            backend.shutdown()

    def test_pool_is_recreated_after_recovery(self):
        backend = ProcessPoolBackend(workers=2)
        machines = self._machines(4)
        try:
            backend.run_local(machines, _sigkill_in_worker)
            assert backend.stats()["broken_pool_recoveries"] == 1
            # The next parallel step lazily builds a fresh, working pool.
            backend.run_local(machines, _double_store)
            assert [m.store["x"] for m in machines] == [0, 2, 4, 6]
            assert backend.stats()["parallel_steps"] == 1
            assert backend._executor is not None
        finally:
            backend.shutdown()

    def test_communicate_step_recovers_too(self):
        from repro.mpc.machine import Machine

        backend = ProcessPoolBackend(workers=2)
        machines = [Machine(mid) for mid in range(4)]
        for machine in machines:
            machine.store["parent_pid"] = os.getpid()
        try:
            outboxes = backend.run_communicate(machines, _sigkill_comm)
            assert [ob[0].payload for ob in outboxes] == [
                (0,), (1,), (2,), (3,),
            ]
            assert backend.stats()["broken_pool_recoveries"] == 1
        finally:
            backend.shutdown()


class TestBackendEquivalence:
    def test_det_luby_identical_across_backends(self):
        """The acceptance invariant: backends change wall-clock only."""
        serial_members, serial_metrics, _ = run_det_luby("serial")
        process_members, process_metrics, stats = run_det_luby(
            "process", workers=2
        )
        assert process_members == serial_members
        assert process_metrics == serial_metrics
        # The pool genuinely ran (closures via cloudpickle); if cloudpickle
        # were missing every step would fall back and this run would still
        # pass the equality assertions above.
        assert sum(stats.values()) > 0

    def test_serial_backend_is_plain_loop(self):
        backend = SerialBackend()
        cfg = MPCConfig(num_machines=3, memory_words=256)
        sim = Simulator(cfg, backend=backend)
        sim.local(lambda m: m.store.__setitem__("x", m.mid))
        assert [m.store["x"] for m in sim.machines] == [0, 1, 2]
        # The serial backend now reports step counters (the trace layer
        # snapshots them for attribution) but nothing pool-related.
        assert backend.stats() == {"local_steps": 1, "communicate_steps": 0}
