"""Tests for the superstep engine: routing, budgets, determinism."""

import pytest

from repro.errors import MPCRoutingError, MPCViolationError
from repro.mpc.config import MPCConfig
from repro.mpc.simulator import Simulator


def small_sim(k=4, s=64):
    return Simulator(MPCConfig(num_machines=k, memory_words=s))


class TestLocalStep:
    def test_applies_to_all_machines(self):
        sim = small_sim()
        sim.local(lambda m: m.store.__setitem__("x", m.mid))
        assert [m.store["x"] for m in sim.machines] == [0, 1, 2, 3]

    def test_local_costs_no_rounds(self):
        sim = small_sim()
        sim.local(lambda m: None)
        assert sim.metrics.rounds == 0

    def test_memory_enforced_after_local(self):
        sim = small_sim(s=8)
        with pytest.raises(MPCViolationError):
            sim.local(lambda m: m.store.__setitem__("x", tuple(range(20))))


class TestCommunicate:
    def test_delivery(self):
        sim = small_sim()

        def ring(machine):
            return [((machine.mid + 1) % 4, (machine.mid,))]

        sim.communicate(ring)
        for m in sim.machines:
            assert m.inbox == [((m.mid - 1) % 4,)]
        assert sim.metrics.rounds == 1

    def test_synchronous_semantics(self):
        # A message sent this round must not be visible during the same round.
        sim = small_sim()

        def send_and_check(machine):
            assert machine.inbox == []
            return [(0, (machine.mid,))]

        sim.communicate(send_and_check)
        assert sorted(sim.machine(0).inbox) == [(0,), (1,), (2,), (3,)]

    def test_inbox_sender_order(self):
        sim = small_sim()
        sim.communicate(lambda m: [(0, (m.mid,))])
        assert [p[0] for p in sim.machine(0).inbox] == [0, 1, 2, 3]

    def test_routing_error(self):
        sim = small_sim()
        with pytest.raises(MPCRoutingError):
            sim.communicate(lambda m: [(9, (1,))])

    def test_negative_destination_rejected_by_router(self):
        # Regression: a negative dst used to wrap via Python list
        # indexing and silently deliver to machine k+dst.
        sim = small_sim()
        with pytest.raises(MPCRoutingError, match="nonexistent machine -1"):
            sim.communicate(lambda m: [(-1, (7,))] if m.mid == 0 else [])
        # Nothing wrapped around to the last machine.
        assert sim.machine(3).inbox == []

    def test_send_budget_enforced(self):
        sim = small_sim(s=8)
        with pytest.raises(MPCViolationError):
            sim.communicate(
                lambda m: [(0, tuple(range(9)))] if m.mid == 1 else []
            )

    def test_receive_budget_enforced(self):
        sim = small_sim(k=8, s=8)
        # Every machine sends 3 words to machine 0: 24 > 8 received.
        with pytest.raises(MPCViolationError):
            sim.communicate(lambda m: [(0, (1, 2, 3))])


class TestMetrics:
    def test_round_accounting(self):
        sim = small_sim()
        sim.communicate(lambda m: [(0, (1, 2))])
        assert sim.metrics.rounds == 1
        assert sim.metrics.total_messages == 4
        assert sim.metrics.total_words == 8
        assert sim.metrics.max_words_sent == 2
        assert sim.metrics.max_words_received == 8

    def test_peak_memory_tracked(self):
        sim = small_sim()
        sim.local(lambda m: m.store.__setitem__("x", (1, 2, 3)))
        assert sim.metrics.peak_memory_words >= 3

    def test_phases(self):
        sim = small_sim()
        sim.begin_phase("a")
        sim.communicate(lambda m: [])
        sim.communicate(lambda m: [])
        sim.begin_phase("b")
        sim.communicate(lambda m: [])
        assert sim.metrics.phase_rounds() == {"a": 2, "b": 1}

    def test_repeated_phase_names_accumulate(self):
        sim = small_sim()
        for _ in range(2):
            sim.begin_phase("loop")
            sim.communicate(lambda m: [])
        assert sim.metrics.phase_rounds() == {"loop": 2}

    def test_summary_keys(self):
        sim = small_sim()
        summary = sim.metrics.summary()
        assert set(summary) == {
            "rounds",
            "total_messages",
            "total_words",
            "max_words_sent",
            "max_words_received",
            "peak_memory_words",
        }
