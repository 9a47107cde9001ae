"""The out-of-core shard backend: parity, residency, harvest, errors.

The contract under test is determinism-by-construction: a run on the
shard backend must be *bit-identical* to the serial backend — members,
rounds, every model metric, and even the text of budget/routing errors —
while never keeping more than one machine shard resident in the driver.
"""

import contextlib
import errno
import gc
import os
import warnings

import pytest

from repro.core import registry
from repro.core.alpha_ruling import alpha_program
from repro.core.det_luby import luby_program
from repro.core.det_ruling import ruling_program
from repro.core.program import run_program
from repro.core.session import SolverSession
from repro.errors import MPCConfigError, MPCRoutingError, MPCViolationError
from repro.graph import generators as gen
from repro.mpc import shard as shard_module
from repro.mpc.backends import SerialBackend, resolve_backend
from repro.mpc.config import MPCConfig
from repro.mpc.graph_store import DistributedGraph
from repro.mpc.machine import Machine, words_of
from repro.mpc.ownermap import ModOwnerMap
from repro.mpc.shard import ShardBackend
from repro.mpc.simulator import Simulator
from repro.mpc.trace import TraceRecorder


def _run(graph, backend=None, program=luby_program):
    cfg = MPCConfig.sublinear(
        graph.num_vertices, graph.num_edges, max_degree=graph.max_degree()
    )
    with Simulator(cfg, backend=backend) as sim:
        dg = DistributedGraph.load(
            sim, graph, ModOwnerMap(graph.num_vertices, cfg.num_machines)
        )
        run_program(dg, program())
        members = dg.collect_marked("result_set")
        metrics = dict(sim.metrics.summary())
        rounds = sim.metrics.rounds
    return members, rounds, metrics


class TestParity:
    @pytest.mark.parametrize("num_shards", [1, 3, 4, 7])
    def test_bit_identical_to_serial(self, num_shards):
        graph = gen.gnp_random_graph(80, 6, 80, seed=13)
        serial = _run(graph)
        sharded = _run(graph, backend=ShardBackend(num_shards=num_shards))
        assert sharded == serial

    def test_det_ruling_parity(self):
        graph = gen.gnp_random_graph(64, 5, 64, seed=5)
        serial = _run(graph, program=ruling_program)
        sharded = _run(
            graph, backend=ShardBackend(num_shards=3), program=ruling_program
        )
        assert sharded == serial

    def test_tiny_chunk_size_changes_nothing(self, monkeypatch):
        # One message per chunk forces a spool flush per message:
        # maximal chunking must still reproduce the serial arrival order.
        graph = gen.gnp_random_graph(48, 4, 48, seed=3)
        serial = _run(graph)
        monkeypatch.setattr(shard_module, "CHUNK_MESSAGES", 1)
        sharded = _run(graph, backend=ShardBackend(num_shards=4))
        assert sharded == serial

    def test_more_shards_than_machines(self):
        graph = gen.cycle_graph(24)
        serial = _run(graph)
        sharded = _run(graph, backend=ShardBackend(num_shards=64))
        assert sharded == serial

    def test_delivered_counts_equal_the_walk(self, monkeypatch):
        delivered = []
        real = Machine.deliver

        def recording(machine, inbox, words):
            delivered.append((machine.mid, words, words_of(inbox)))
            real(machine, inbox, words)

        monkeypatch.setattr(Machine, "deliver", recording)
        cfg = MPCConfig(num_machines=5, memory_words=256)
        with Simulator(cfg, backend=ShardBackend(num_shards=2)) as sim:
            sim.communicate(
                lambda m: [
                    ((m.mid * j) % 5, tuple(range(j)))
                    for j in range(1, 5)
                ]
            )
            # Delivery happens at each shard's next visit.
            sim.harvest(lambda m: None)
        # clear_inbox delivers ([], 0) too: write-outs leave empty husks.
        assert all(words == walk for _, words, walk in delivered)
        assert [mid for mid, words, _ in delivered if words] == list(range(5))
        assert sum(words for _, words, _ in delivered) == 5 * (1 + 2 + 3 + 4)


class _AuditLog(TraceRecorder):
    """A trace that also keeps every word count the memory audit saw."""

    def __init__(self, config):
        super().__init__(config)
        self.audited = []

    def record_memory(self, mid, words, round_index):
        super().record_memory(mid, words, round_index)
        self.audited.append(words)


def _audited(cfg, backend=None):
    """A simulator whose memory audit is logged (see :func:`_words`)."""
    return Simulator(cfg, backend=backend, trace=_AuditLog(cfg))


def _words(sim):
    """Every machine's words after the last superstep, as the audit saw."""
    sim.settle()
    return sim.trace.audited[-sim.num_machines:]


def _ring(m):
    """Send two payloads built from the machine's inbox to two peers."""
    seen = tuple(x for payload in m.inbox for x in payload)
    m.store["seen"] = m.store.get("seen", ()) + seen
    k = 6
    return [
        ((m.mid + 1) % k, (m.mid,) + seen[:3]),
        ((m.mid * 5 + 2) % k, (m.mid, len(seen))),
    ]


def _state(m):
    return (dict(m.store), list(m.inbox))


class TestLazyDelivery:
    """An exchange's inboxes arrive at each shard's next load."""

    def _script(self, backend, steps):
        cfg = MPCConfig(num_machines=6, memory_words=256)
        trail = []
        with _audited(cfg, backend) as sim:
            sim.local(lambda m: m.store.__setitem__("x", m.mid))
            for step in steps:
                step(sim, trail)
                trail.append(_words(sim))
            trail.append(sim.harvest(_state))
            trail.append(sim.metrics.summary())
        return trail

    def test_back_to_back_exchanges_match_serial(self, monkeypatch):
        # No local step between: the second exchange's senders read
        # inboxes that were still pending when it started.  One message
        # per chunk exercises both spool parities.
        steps = [lambda sim, trail: sim.communicate(_ring)] * 3
        serial = self._script(None, steps)
        monkeypatch.setattr(shard_module, "CHUNK_MESSAGES", 1)
        sharded = self._script(ShardBackend(num_shards=3), steps)
        assert sharded == serial

    def test_partial_harvest_between_exchanges_matches_serial(
        self, monkeypatch
    ):
        def harvest_some(sim, trail):
            trail.append(sim.harvest(_state, only=(4, 1)))

        steps = [
            lambda sim, trail: sim.communicate(_ring),
            harvest_some,
            lambda sim, trail: sim.communicate(_ring),
            harvest_some,
        ]
        serial = self._script(None, steps)
        monkeypatch.setattr(shard_module, "CHUNK_MESSAGES", 2)
        sharded = self._script(ShardBackend(num_shards=3), steps)
        assert sharded == serial

    def test_shorter_spool_replaces_a_longer_one(self, monkeypatch):
        # The third exchange writes the same spool parity as the first,
        # with fewer chunks: the held spool file must be cut to the new
        # length, or its delivery reads the first exchange's tail too.
        def heavy(m):
            return [((m.mid + 1) % 6, (m.mid, i)) for i in range(4)]

        def light(m):
            return [((m.mid + 1) % 6, (m.mid,))]

        steps = [
            lambda sim, trail: sim.communicate(heavy),
            lambda sim, trail: sim.communicate(heavy),
            lambda sim, trail: sim.communicate(light),
        ]
        serial = self._script(None, steps)
        monkeypatch.setattr(shard_module, "CHUNK_MESSAGES", 1)
        sharded = self._script(ShardBackend(num_shards=3), steps)
        assert sharded == serial

    def test_resident_high_water_counts_undelivered_inboxes(self):
        # Machine 3 receives a big inbox that the next local step
        # clears, so its shard's peak exists only between the exchange
        # and that step — when the inbox sits unloaded in the spool.
        def fan_in(m):
            return [(3, tuple(range(40)))]

        def steps(sim):
            sim.local(lambda m: m.store.__setitem__("x", (m.mid,) * 3))
            yield
            sim.communicate(fan_in)
            yield
            sim.local(lambda m: m.clear_inbox())
            yield

        cfg = MPCConfig(num_machines=4, memory_words=512)
        shards = [range(0, 2), range(2, 4)]
        expected = 0
        with _audited(cfg) as sim:
            for _ in steps(sim):
                words = _words(sim)
                for rng in shards:
                    expected = max(expected, sum(words[i] for i in rng))
        backend = ShardBackend(num_shards=2)
        with Simulator(cfg, backend=backend) as sim:
            for _ in steps(sim):
                pass
        # Two 4-word stores ("x" plus three ints) and 160 received words.
        assert expected == 2 * 4 + 4 * 40
        assert backend.stats()["max_resident_words"] == expected

    @pytest.mark.parametrize("num_shards", [1, 3, 4])
    def test_one_load_per_shard_per_exchange(self, num_shards):
        # Attach writes every shard and leaves none resident.  Each
        # exchange then visits the shards in id order; the last one
        # stays resident until the next exchange loads shard 0, so the
        # write-outs run one behind the loads — and a lone shard never
        # reloads after its first visit.
        backend = ShardBackend(num_shards=num_shards)
        cfg = MPCConfig(num_machines=6, memory_words=256)
        with Simulator(cfg, backend=backend) as sim:
            sim.local(lambda m: None)
            start = backend.stats()
            for exchanges in range(1, 4):
                sim.communicate(_ring)
                after = backend.stats()
                loads, spills = (
                    after[key] - start[key]
                    for key in ("shard_loads", "shard_spills")
                )
                if num_shards == 1:
                    assert (loads, spills) == (1, 0)
                else:
                    assert loads == exchanges * num_shards
                    assert spills == loads - 1


def _send_next(m):
    return [((m.mid + 1) % len(_EIGHT), (m.mid,))]


_EIGHT = range(8)


class TestFusedVisits:
    """Local steps wait in each shard's queue for its next visit."""

    def _attached(self, num_shards=4):
        backend = ShardBackend(num_shards=num_shards)
        sim = Simulator(
            MPCConfig(num_machines=len(_EIGHT), memory_words=256),
            backend=backend,
        )
        sim.harvest(lambda m: None)  # attach: write once, visit once
        return sim, backend

    def _cost(self, backend, before):
        after = backend.stats()
        return tuple(
            after[key] - before[key] for key in ("shard_loads", "shard_spills")
        )

    def test_two_locals_and_an_exchange_cost_one_visit(self):
        sim, backend = self._attached()
        with sim:
            before = backend.stats()
            sim.local(lambda m: m.store.__setitem__("x", m.mid))
            sim.local(lambda m: m.store.__setitem__("y", m.store["x"] * 2))
            assert self._cost(backend, before) == (0, 0)
            sim.communicate(_send_next)
            assert self._cost(backend, before) == (4, 4)
            values = sim.harvest(lambda m: (m.store["y"], list(m.inbox)))
        assert values == [(2 * mid, [((mid - 1) % 8,)]) for mid in _EIGHT]

    def test_partial_harvest_loads_only_its_shard(self):
        sim, backend = self._attached()
        loaded = []
        real_load = backend._load

        def recording(sid):
            loaded.append(sid)
            real_load(sid)

        backend._load = recording
        with sim:
            sim.local(lambda m: m.store.__setitem__("x", m.mid * 10))
            before = backend.stats()
            assert sim.harvest(lambda m: m.store["x"], only=(0,)) == [0]
            assert self._cost(backend, before) == (1, 1)
            assert loaded == [0]
            # The other shards still owe the step: its tail waits.
            assert len(sim._tails) == 1
            sim.settle()
            assert loaded == [0, 1, 2, 3]
            assert not sim._tails

    def test_back_to_back_work_on_one_shard_loads_it_once(self):
        # Machines 0 and 1 make up shard 0.  Two harvests and an
        # exchange on it in a row load it once and write nothing out;
        # the next load of another shard writes it, harvest pop included.
        def script(sim):
            sim.local(lambda m: m.store.__setitem__("x", m.mid), only=(0, 1))
            before = sim.backend.stats()
            out = [sim.harvest(lambda m: m.store["x"], only=(0,))]
            out.append(sim.harvest(lambda m: m.store.pop("x"), only=(1,)))
            sim.communicate(
                lambda m: [(m.mid + 1, (m.store.get("x", -1),))], only=(0, 1)
            )
            if isinstance(sim.backend, ShardBackend):
                assert self._cost(sim.backend, before) == (1, 0)
            out.append(sim.harvest(_state))
            return out

        cfg = MPCConfig(num_machines=len(_EIGHT), memory_words=256)
        with Simulator(cfg) as sim:
            serial = script(sim)
        with Simulator(cfg, backend=ShardBackend(num_shards=4)) as sim:
            assert script(sim) == serial
        assert serial[:2] == [[0], [1]]
        assert serial[2][:3] == [({"x": 0}, []), ({}, [(0,)]), ({}, [(-1,)])]

    def test_queue_keeps_the_callable_it_was_given(self):
        sim, backend = self._attached(num_shards=2)
        calls = []

        def fn(machine):
            calls.append(machine.mid)

        with sim:
            sim.local(fn)
            assert calls == []
            assert backend._queues[0][-1].fn is fn
            sim.settle()
        assert calls == list(_EIGHT)

    def test_settle_points_replay_pending_steps(self):
        # run_local runs at once through the queue.
        backend = ShardBackend(num_shards=4)
        cfg = MPCConfig(num_machines=8, memory_words=256)
        with Simulator(cfg, backend=backend) as sim:
            sim.local(lambda m: m.store.__setitem__("x", m.mid))
            assert backend.stats()["shard_loads"] == 0
            backend.run_local(sim.machines, lambda m: None)
            assert backend.stats()["shard_loads"] == 4
            assert not backend._open_steps

    def test_callbacks_run_inside_the_call_that_received_them(
        self, monkeypatch
    ):
        # Whatever wraps a backend method (a profiler, say) sees every
        # callback it handed over run before the method returns: a
        # deferred step is queued through queue_local, not run_local.
        stray = []
        for name in ("run_local", "run_exchange", "run_harvest"):
            real = getattr(ShardBackend, name)

            def wrapper(self, machines, fn, *args, _real=real, **kwargs):
                open_call = [True]

                def checked(machine):
                    if not open_call[0]:
                        stray.append(machine.mid)
                    return fn(machine)

                try:
                    return _real(self, machines, checked, *args, **kwargs)
                finally:
                    open_call[0] = False

            monkeypatch.setattr(ShardBackend, name, wrapper)
        graph = gen.gnp_random_graph(64, 6, 64, seed=7)
        assert _run(graph, backend=ShardBackend(num_shards=3)) == _run(graph)
        assert stray == []

    def test_shutdown_on_an_error_path_replays_nothing(self):
        calls = []
        backend = ShardBackend(num_shards=2)
        with pytest.raises(RuntimeError, match="driver fault"):
            with Simulator(
                MPCConfig(num_machines=4, memory_words=256), backend=backend
            ) as sim:
                sim.local(lambda m: calls.append(m.mid))
                raise RuntimeError("driver fault")
        assert calls == []
        assert backend.stats()["shard_loads"] == 0


class TestErrorOrder:
    """Deferred steps still fail in serial order, with serial texts."""

    def _outcome(self, script, backend=None):
        cfg = MPCConfig(num_machines=8, memory_words=16)
        with pytest.raises(Exception) as err:
            with Simulator(cfg, backend=backend) as sim:
                script(sim)
        return type(err.value), str(err.value)

    def _compare(self, script, tmp_path):
        serial = self._outcome(script)
        backend = ShardBackend(num_shards=4, spill_dir=str(tmp_path))
        live = _count_live_shards_at_each_load(backend)
        sharded = self._outcome(script, backend)
        assert sorted(tmp_path.glob("repro-shard-*")) == []
        assert sharded == serial
        # Recovery too leaves at most the shard it visited last live.
        assert max(live, default=0) <= 1
        return serial

    def test_local_memory_violation_outranks_next_send_violation(
        self, tmp_path
    ):
        def script(sim):
            # Machine 4 sits on shard 2; machine 0 on shard 0 overruns
            # its send budget in the exchange that replays the step.
            sim.local(
                lambda m: m.store.__setitem__(
                    "x", tuple(range(40)) if m.mid == 4 else ()
                )
            )
            sim.communicate(
                lambda m: [(1, tuple(range(20)))] if m.mid == 0 else []
            )

        kind, text = self._compare(script, tmp_path)
        assert kind is MPCViolationError
        assert text == "machine 4 holds 41 words, budget S=16"

    def test_callback_fault_outranks_same_steps_memory_violation(
        self, tmp_path
    ):
        def step(m):
            if m.mid == 0:
                m.store["x"] = tuple(range(40))  # shard 0: over budget
            if m.mid == 6:
                raise ValueError("callback fault on machine 6")  # shard 3

        def script(sim):
            sim.local(step)
            sim.communicate(lambda m: [])

        kind, text = self._compare(script, tmp_path)
        assert (kind, text) == (ValueError, "callback fault on machine 6")

    @pytest.mark.parametrize(
        "outbox",
        [
            [(99, (1,))],  # nonexistent destination
            [(1, tuple(range(20)))],  # 20 words over S=16
        ],
        ids=["nonexistent-dst", "send-overrun"],
    )
    def test_later_callback_fault_outranks_earlier_routing_fault(
        self, outbox, tmp_path
    ):
        # Serially every callback runs before any message is routed, so
        # machine 6's exception (shard 3) wins over machine 1's fault.
        def sends(m):
            if m.mid == 6:
                raise ValueError("callback fault on machine 6")
            return outbox if m.mid == 1 else []

        kind, text = self._compare(lambda sim: sim.communicate(sends), tmp_path)
        assert (kind, text) == (ValueError, "callback fault on machine 6")

    def test_lowest_machine_fault_wins_within_a_step(self, tmp_path):
        def step(m):
            if m.mid in (2, 7):
                raise KeyError(f"machine {m.mid}")

        def script(sim):
            sim.local(step)
            sim.harvest(lambda m: None, only=(7,))

        assert self._compare(script, tmp_path) == (KeyError, "'machine 2'")

    def test_recovery_replays_one_shard_at_a_time(self, tmp_path):
        # The harvest's own shard raises; recovery then replays both
        # steps on shards 0-2, each holding a planted store, one load
        # after another (checked in _compare).
        def step(m):
            if m.mid == 7:
                raise ValueError("callback fault on machine 7")

        def script(sim):
            sim.local(lambda m: m.store.__setitem__("x", m.mid))
            sim.local(step)
            sim.harvest(lambda m: None, only=(7,))

        kind, text = self._compare(script, tmp_path)
        assert (kind, text) == (ValueError, "callback fault on machine 7")

    def test_one_backend_keeps_serial_order_across_failed_scripts(
        self, tmp_path
    ):
        def fault(sim):
            sim.local(lambda m: m.store.__setitem__("x", 1 // (m.mid - 6)))
            sim.communicate(lambda m: [])

        def overrun(sim):
            sim.local(
                lambda m: m.store.__setitem__(
                    "x", tuple(range(40)) if m.mid == 4 else ()
                )
            )
            sim.communicate(
                lambda m: [(1, tuple(range(20)))] if m.mid == 0 else []
            )

        backend = ShardBackend(num_shards=4, spill_dir=str(tmp_path))
        for script in (fault, overrun, fault):
            assert self._outcome(script, backend) == self._outcome(script)
        assert sorted(tmp_path.glob("repro-shard-*")) == []

    def test_deferred_violation_surfaces_from_the_harvest(self, tmp_path):
        def plant(m):
            m.store["x"] = tuple(range(40)) if m.mid == 5 else ()

        kind, text = self._compare(lambda sim: sim.local(plant), tmp_path)
        assert kind is MPCViolationError
        backend = ShardBackend(num_shards=4, spill_dir=str(tmp_path))
        with Simulator(
            MPCConfig(num_machines=8, memory_words=16), backend=backend
        ) as sim:
            sim.local(plant)  # deferred: nothing raised yet
            with pytest.raises(MPCViolationError) as err:
                sim.harvest(lambda m: m.mid)
            assert str(err.value) == text
            sim.shutdown()
        assert sorted(tmp_path.glob("repro-shard-*")) == []


def _live(machine):
    """Whether ``machine`` holds state: it is not an empty husk."""
    return bool(machine.store or machine.inbox)


def _count_live_shards_at_each_load(backend):
    """Record, after each of ``backend``'s shard loads, how many shards
    hold a live machine."""
    live = []
    real_load = backend._load

    def recording(sid):
        real_load(sid)
        machines = backend._machines
        live.append(
            sum(
                any(_live(machines[mid]) for mid in rng)
                for rng in backend._shards
            )
        )

    backend._load = recording
    return live


def _scripted_trace(backend):
    """A traced run whose pending local steps straddle phase marks."""
    cfg = MPCConfig(num_machines=8, memory_words=40)
    with Simulator(cfg, backend=backend, trace=TraceRecorder(cfg)) as sim:
        sim.begin_phase("plant")
        sim.local(lambda m: m.store.__setitem__("x", tuple(range(m.mid * 5))))
        sim.begin_phase("talk")
        sim.communicate(_send_next)
        sim.local(lambda m: m.clear_inbox())
        sim.begin_phase("read")
        sim.harvest(lambda m: None, only=(1,))
        sim.local(lambda m: m.store.pop("x"))
        sim.begin_phase("done")
    return sim.trace


def _without_clock(events):
    return [
        {k: v for k, v in ev.items() if k not in ("ts_us", "dur_us", "backend")}
        for ev in events
    ]


class TestSequenceIdentity:
    """Late reports keep every observer's sequence the serial one."""

    @pytest.mark.parametrize(
        "run",
        [
            _scripted_trace,
            lambda backend: _det_luby_trace(backend),
        ],
        ids=["scripted", "det-luby"],
    )
    def test_traced_shard_run_matches_serial(self, run):
        serial = run(None)
        sharded = run(ShardBackend(num_shards=3))
        assert _without_clock(sharded.events) == _without_clock(serial.events)
        assert sharded.warnings == serial.warnings
        assert sharded.machine_peak_words == serial.machine_peak_words

    def test_scripted_trace_has_warnings_and_late_phases(self):
        trace = _scripted_trace(ShardBackend(num_shards=3))
        assert trace.warnings  # machine 7 holds 35 of 40 words
        kinds = [ev["type"] for ev in trace.events]
        assert kinds == [
            "phase", "local", "phase", "round", "local", "phase", "local",
            "phase",
        ]

    def test_in_model_alpha_shard_run_matches_serial(self):
        # alpha = 3 without a prebuilt power graph: the exponentiation
        # rounds run inside the model, on both backends.
        graph = gen.circulant_graph(240, [1, 2, 3])
        cfg = MPCConfig(num_machines=12, memory_words=4096)

        def run(backend=None):
            with Simulator(cfg, backend=backend,
                           trace=_AuditLog(cfg)) as sim:
                dg = DistributedGraph.load(sim, graph)
                run_program(dg, alpha_program(3, beta=2))
                members = dg.collect_marked("alpha_rs_in_set")
            exp_rounds = sim.metrics.phase_rounds()["alpha-exponentiation"]
            return members, sim.metrics.summary(), sim.trace.audited, exp_rounds

        serial = run()
        sharded = run(ShardBackend(num_shards=4))
        assert sharded == serial
        assert serial[3] > 1


def _det_luby_trace(backend):
    graph = gen.gnp_random_graph(64, 6, 64, seed=7)
    cfg = MPCConfig.sublinear(
        graph.num_vertices, graph.num_edges, max_degree=graph.max_degree()
    )
    with Simulator(cfg, backend=backend, trace=TraceRecorder(cfg)) as sim:
        dg = DistributedGraph.load(sim, graph)
        run_program(dg, luby_program())
        dg.collect_marked("result_set")
    return sim.trace


def _open_fds():
    return len(os.listdir("/proc/self/fd"))


@contextlib.contextmanager
def _no_leaked_files():
    """Every file opened inside is closed by the time the block exits.

    Counting descriptors alone would not see a handle the backend
    dropped without closing — CPython closes it on collection — so a
    ResourceWarning from such a handle fails the check too.
    """
    before = _open_fds()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        yield
        gc.collect()
    assert _open_fds() == before
    assert [w for w in caught if w.category is ResourceWarning] == []


@pytest.mark.skipif(
    not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd"
)
class TestFileHandles:
    def test_no_descriptor_leaks_after_exit(self):
        cfg = MPCConfig(num_machines=6, memory_words=256)
        with _no_leaked_files():
            before = _open_fds()
            with Simulator(cfg, backend=ShardBackend(num_shards=3)) as sim:
                sim.local(lambda m: None)
                sim.communicate(_ring)
                # Three held files per shard: its state and two spools.
                assert _open_fds() == before + 3 * 3

    @pytest.mark.parametrize("offender", [3, 5])
    def test_no_descriptor_leaks_after_a_violation(
        self, offender, monkeypatch
    ):
        # One message per chunk, so spools are open when machine
        # ``offender`` overruns its send budget mid-exchange.
        def sends(m):
            if m.mid == offender:
                return [(0, tuple(range(16)))]
            return [(5 - m.mid, (m.mid,))]

        cfg = MPCConfig(num_machines=6, memory_words=8)
        backend = ShardBackend(num_shards=3)
        monkeypatch.setattr(shard_module, "CHUNK_MESSAGES", 1)
        with _no_leaked_files():
            with pytest.raises(MPCViolationError, match="sent 16 words"):
                with Simulator(cfg, backend=backend) as sim:
                    sim.communicate(sends)

    def test_failed_write_out_raises_and_leaks_nothing(
        self, monkeypatch, tmp_path
    ):
        # A shard's state is written out only when another shard loads;
        # a full disk at that point must fail the superstep, not lose
        # or skip the write.
        backend = ShardBackend(num_shards=3, spill_dir=str(tmp_path))
        real_dump = shard_module.pickle.dump
        failed = []

        def dump(obj, handle, *args, **kwargs):
            if backend._attached and handle in backend._files:
                failed.append(backend._files.index(handle))
                raise OSError(errno.ENOSPC, "No space left on device")
            return real_dump(obj, handle, *args, **kwargs)

        monkeypatch.setattr(shard_module.pickle, "dump", dump)
        cfg = MPCConfig(num_machines=6, memory_words=256)
        with _no_leaked_files():
            with pytest.raises(OSError) as err:
                with Simulator(cfg, backend=backend) as sim:
                    sim.local(lambda m: m.store.__setitem__("x", m.mid))
                    assert sim.harvest(lambda m: m.store["x"], only=(1,)) == [1]
                    assert failed == []  # shard 0 stays resident: no write
                    sim.communicate(_ring)  # shard 1's load writes shard 0
        assert err.value.errno == errno.ENOSPC
        assert failed and set(failed) == {0}
        assert sorted(tmp_path.glob("repro-shard-*")) == []

    def test_no_descriptor_leaks_after_a_receive_violation(self):
        cfg = MPCConfig(num_machines=4, memory_words=8)
        with _no_leaked_files():
            with pytest.raises(MPCViolationError, match="received"):
                with Simulator(
                    cfg, backend=ShardBackend(num_shards=2)
                ) as sim:
                    sim.communicate(lambda m: [(0, (1, 2, 3))])


class TestOpenFailure:
    def test_emfile_at_attach_is_a_config_error(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_SHARD_DIR", str(tmp_path))
        opened = []

        def limited(path, mode="r", *args, **kwargs):
            if len(opened) == 2:
                raise OSError(errno.EMFILE, "Too many open files")
            handle = open(path, mode, *args, **kwargs)
            opened.append(handle)
            return handle

        monkeypatch.setattr(shard_module, "open", limited, raising=False)
        cfg = MPCConfig(num_machines=8, memory_words=256)
        backend = ShardBackend(num_shards=4)
        with pytest.raises(MPCConfigError, match="12 files open for 4 shards"):
            with Simulator(cfg, backend=backend) as sim:
                sim.local(lambda m: None)
        assert len(opened) == 2
        assert all(handle.closed for handle in opened)
        assert sorted(tmp_path.glob("repro-shard-*")) == []


class TestResidency:
    def test_one_shard_resident_at_a_time(self):
        graph = gen.gnp_random_graph(96, 8, 96, seed=21)

        def peak_resident(num_shards):
            cfg = MPCConfig.sublinear(
                graph.num_vertices,
                graph.num_edges,
                max_degree=graph.max_degree(),
            )
            backend = ShardBackend(num_shards=num_shards)
            with Simulator(cfg, backend=backend) as sim:
                dg = DistributedGraph.load(
                    sim,
                    graph,
                    ModOwnerMap(graph.num_vertices, cfg.num_machines),
                )
                run_program(dg, luby_program())
                stats = backend.stats()
                largest = max(len(rng) for rng in backend._shards)
                assert stats["max_resident_machines"] == largest
            return stats["max_resident_words"]

        # num_shards=1 keeps every machine resident — that high-water
        # mark is the all-in-driver footprint sharding exists to shrink.
        assert peak_resident(4) < peak_resident(1)

    def test_spill_files_are_source_of_truth(self):
        # After any superstep every machine outside the resident shard
        # is an empty husk, and the resident shard's state reaches its
        # file before another shard loads.
        cfg = MPCConfig(num_machines=6, memory_words=4096)
        backend = ShardBackend(num_shards=3)

        def live_ids():
            return [m.mid for m in sim.machines if _live(m)]

        def resident_ids():
            if backend._resident is None:
                return []
            return list(backend._shards[backend._resident])

        with Simulator(cfg, backend=backend) as sim:
            sim.local(lambda m: m.store.__setitem__("x", m.mid))
            assert live_ids() == resident_ids() == []  # all written at attach
            # Machine 1 sits on shard 0, which stays resident.
            sim.harvest(lambda m: m.store.__setitem__("x", -1), only=(1,))
            assert live_ids() == resident_ids() == [0, 1]
            # Loading shard 2 writes shard 0 out, plant included.
            assert sim.harvest(lambda m: m.store["x"], only=(4,)) == [4]
            assert live_ids() == resident_ids() == [4, 5]
            values = sim.harvest(lambda m: m.store["x"])
            assert live_ids() == resident_ids() == [4, 5]
        assert values == [0, -1, 2, 3, 4, 5]

    def test_shutdown_removes_spill_dir(self):
        cfg = MPCConfig(num_machines=4, memory_words=1024)
        backend = ShardBackend(num_shards=2)
        with Simulator(cfg, backend=backend) as sim:
            sim.local(lambda m: m.store.__setitem__("x", 1))
            spill_dir = backend._dir
            assert spill_dir is not None and os.path.isdir(spill_dir)
        assert not os.path.exists(spill_dir)

    def test_audit_prices_spilled_state(self):
        cfg = MPCConfig(num_machines=4, memory_words=1024)
        backend = ShardBackend(num_shards=2)
        with _audited(cfg, backend) as sim:
            sim.local(
                lambda m: m.store.__setitem__("x", tuple(range(m.mid + 1)))
            )
            words = _words(sim)
        expected = [words_of({"x": tuple(range(mid + 1))}) for mid in range(4)]
        assert words == expected


class TestHarvest:
    def test_harvest_mutation_persists(self):
        cfg = MPCConfig(num_machines=5, memory_words=1024)
        backend = ShardBackend(num_shards=2)
        with Simulator(cfg, backend=backend) as sim:
            sim.local(lambda m: m.store.__setitem__("x", m.mid))
            popped = sim.harvest(lambda m: m.store.pop("x"), only=(3,))
            assert popped == [3]
            remaining = sim.harvest(lambda m: sorted(m.store))
        assert remaining == [["x"], ["x"], ["x"], [], ["x"]]

    def test_harvest_only_order_is_request_order(self):
        cfg = MPCConfig(num_machines=6, memory_words=1024)
        backend = ShardBackend(num_shards=3)
        with Simulator(cfg, backend=backend) as sim:
            sim.local(lambda m: m.store.__setitem__("x", m.mid * 10))
            values = sim.harvest(lambda m: m.store["x"], only=(5, 0, 2))
        assert values == [50, 0, 20]

    def test_harvest_matches_serial_backend(self):
        cfg = MPCConfig(num_machines=4, memory_words=1024)
        with Simulator(cfg) as sim:
            sim.local(lambda m: m.store.__setitem__("x", m.mid))
            assert sim.harvest(lambda m: m.store["x"]) == [0, 1, 2, 3]
            assert sim.harvest(lambda m: m.store["x"], only=(2,)) == [2]

    @pytest.mark.parametrize("mid", [-1, 4])
    def test_harvest_of_nonexistent_machine_rejected(self, mid):
        # -1 used to wrap to machine 3; 4 raised a bare IndexError.
        texts = []
        for backend in (None, ShardBackend(num_shards=2)):
            cfg = MPCConfig(num_machines=4, memory_words=1024)
            with Simulator(cfg, backend=backend) as sim:
                sim.local(lambda m: m.store.__setitem__("x", m.mid))
                loads = sim.backend.stats().get("shard_loads")
                with pytest.raises(MPCRoutingError) as err:
                    sim.harvest(lambda m: m.store["x"], only=(0, mid))
                # Rejected before any shard was loaded.
                assert sim.backend.stats().get("shard_loads") == loads
            texts.append(str(err.value))
        assert texts[0] == texts[1]
        assert texts[0] == f"harvest of nonexistent machine {mid} (k=4)"


class TestErrors:
    def _violation_texts(self, backend):
        cfg = MPCConfig(num_machines=3, memory_words=8)
        with Simulator(cfg, backend=backend) as sim:
            with pytest.raises(MPCViolationError) as err:
                sim.communicate(
                    lambda m: [(0, tuple(range(16)))]
                    if m.mid == 1
                    else []
                )
        return str(err.value)

    def test_sent_violation_text_matches_serial(self):
        assert self._violation_texts(None) == self._violation_texts(
            ShardBackend(num_shards=2)
        )

    def test_received_violation_text_matches_serial(self):
        def fan_in(m):
            return [(0, (1, 2, 3, 4, 5, 6))]

        texts = []
        for backend in (None, ShardBackend(num_shards=2)):
            cfg = MPCConfig(num_machines=3, memory_words=8)
            with Simulator(cfg, backend=backend) as sim:
                with pytest.raises(MPCViolationError) as err:
                    sim.communicate(fan_in)
            texts.append(str(err.value))
        assert texts[0] == texts[1]
        assert "received" in texts[0]

    def test_routing_error_text_matches_serial(self):
        texts = []
        for backend in (None, ShardBackend(num_shards=2)):
            cfg = MPCConfig(num_machines=3, memory_words=64)
            with Simulator(cfg, backend=backend) as sim:
                with pytest.raises(MPCRoutingError) as err:
                    sim.communicate(
                        lambda m: [(7, (1,))] if m.mid == 2 else []
                    )
            texts.append(str(err.value))
        assert texts[0] == texts[1]

    def test_negative_knobs_rejected(self):
        with pytest.raises(MPCConfigError):
            ShardBackend(num_shards=-1)


class TestWiring:
    def test_resolve_backend_by_name(self):
        backend = resolve_backend("shard", 3)
        assert isinstance(backend, ShardBackend)
        assert backend.num_shards == 3
        backend.shutdown()

    def test_config_backend_shard(self):
        # A run's backend is configured where the run is: the simulator
        # takes the backend it is handed, and a session builds it from
        # its own backend / num_shards options.
        cfg = MPCConfig(num_machines=4, memory_words=1024)
        with Simulator(cfg, backend=resolve_backend("shard", 2)) as sim:
            assert isinstance(sim.backend, ShardBackend)
            sim.local(lambda m: m.store.__setitem__("x", 1))
            assert sim.harvest(lambda m: m.store["x"]) == [1, 1, 1, 1]
        graph = gen.gnp_random_graph(64, 6, 64, seed=3)
        spec = registry.get_algorithm(registry.DET_RULING)
        sharded = SolverSession(
            graph, spec, backend="shard", num_shards=2, trace=True
        ).run()
        assert sharded.trace.backend == "shard"
        assert sharded.members == SolverSession(graph, spec).run().members

    def test_spill_dir_env_respected(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_SHARD_DIR", str(tmp_path))
        cfg = MPCConfig(num_machines=2, memory_words=1024)
        backend = ShardBackend(num_shards=2)
        with Simulator(cfg, backend=backend) as sim:
            sim.local(lambda m: m.store.__setitem__("x", 1))
            assert backend._dir.startswith(str(tmp_path))

    def test_num_shards_stat_is_the_attached_count(self):
        cfg = MPCConfig(num_machines=2, memory_words=1024)
        backend = ShardBackend(num_shards=8)
        assert backend.stats()["num_shards"] == 8  # configured, unattached
        with Simulator(cfg, backend=backend) as sim:
            sim.local(lambda m: None)
            assert backend.stats()["num_shards"] == 2

    def test_resident_machines_hint(self):
        # Only the serial backend keeps every machine resident, and the
        # shard backend says so before its first superstep attaches.
        assert SerialBackend.all_resident
        assert not ShardBackend.all_resident
        cfg = MPCConfig(num_machines=10, memory_words=1024)
        with Simulator(cfg, backend=ShardBackend(num_shards=4)) as sim:
            assert not sim.backend.all_resident  # unattached
            sim.local(lambda m: None)
            assert not sim.backend.all_resident
        assert Simulator(cfg).backend.all_resident


class TestSpillDirLifecycle:
    """Abnormal exits must not leak ``repro-shard-*`` spill dirs.

    The guarantee under audit: the Simulator context manager calls
    ``shutdown()`` on *any* exit — a solve raising mid-superstep, an
    operator interrupt — and shutdown removes the backend-owned spill
    directory, including when ``REPRO_SHARD_DIR`` roots it.
    """

    def _leftovers(self, root):
        return sorted(p.name for p in root.glob("repro-shard-*"))

    def _cfg(self, k=3):
        return MPCConfig(num_machines=k, memory_words=4096)

    def test_raising_solve_leaves_no_spill_dirs(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_SHARD_DIR", str(tmp_path))
        graph = gen.cycle_graph(18)
        with pytest.raises(RuntimeError, match="solver fault"):
            with Simulator(
                self._cfg(), backend=ShardBackend(num_shards=2)
            ) as sim:
                DistributedGraph.load(
                    sim, graph, ModOwnerMap(graph.num_vertices, 3)
                )
                assert len(self._leftovers(tmp_path)) == 1  # spilled
                raise RuntimeError("solver fault")
        assert self._leftovers(tmp_path) == []

    def test_raise_mid_superstep_cleans_up(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_SHARD_DIR", str(tmp_path))

        def faulting(machine):
            raise RuntimeError("superstep fault")

        with pytest.raises(RuntimeError, match="superstep fault"):
            with Simulator(
                self._cfg(), backend=ShardBackend(num_shards=2)
            ) as sim:
                sim.local(faulting)
        assert self._leftovers(tmp_path) == []

    def test_interrupt_cleans_up(self, tmp_path, monkeypatch):
        # KeyboardInterrupt is a BaseException; the context manager's
        # __exit__ still runs, so the spill dir must still go away.
        monkeypatch.setenv("REPRO_SHARD_DIR", str(tmp_path))

        def interrupted(machine):
            raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            with Simulator(
                self._cfg(), backend=ShardBackend(num_shards=2)
            ) as sim:
                sim.local(interrupted)
        assert self._leftovers(tmp_path) == []

    def test_explicit_spill_dir_root_survives(self, tmp_path):
        # Only the backend-created repro-shard-* subdir is removed; the
        # user-provided root directory itself is never deleted.
        root = tmp_path / "spool-root"
        with pytest.raises(RuntimeError):
            with Simulator(
                self._cfg(),
                backend=ShardBackend(num_shards=2, spill_dir=str(root)),
            ) as sim:
                sim.local(lambda m: m.store.__setitem__("x", 1))
                raise RuntimeError("fault")
        assert root.is_dir()
        assert sorted(root.glob("repro-shard-*")) == []

    def test_shutdown_is_idempotent_after_fault(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_SHARD_DIR", str(tmp_path))
        backend = ShardBackend(num_shards=2)
        with pytest.raises(RuntimeError):
            with Simulator(self._cfg(), backend=backend) as sim:
                sim.local(lambda m: None)
                raise RuntimeError("fault")
        backend.shutdown()  # second shutdown must be a no-op
        assert self._leftovers(tmp_path) == []
