"""Tests for the superstep engine: routing, budgets, determinism."""

import pytest

from repro.errors import MPCRoutingError, MPCViolationError
from repro.mpc.config import MPCConfig
from repro.mpc.message import Message
from repro.mpc.simulator import Simulator


def small_sim(k=4, s=64):
    return Simulator(MPCConfig(num_machines=k, memory_words=s))


class TestMessage:
    def test_words(self):
        assert Message(0, (1, 2, 3)).words == 3

    def test_rejects_negative_destination(self):
        with pytest.raises(MPCRoutingError):
            Message(-1, (1,))

    def test_rejects_non_tuple_payload(self):
        with pytest.raises(TypeError):
            Message(0, [1, 2])

    def test_rejects_non_int_words(self):
        with pytest.raises(TypeError):
            Message(0, (1, "x"))
        with pytest.raises(TypeError):
            Message(0, (True,))

    def test_rejects_bool_or_float_destination(self):
        # A bool dst used to be delivered to machine 1 and a float dst
        # to die inside the router; both now fail like payload words.
        with pytest.raises(TypeError):
            Message(True, (7,))
        with pytest.raises(TypeError):
            Message(1.0, (7,))
        with pytest.raises(TypeError):
            Message(-1.0, (7,))

    def test_int_subclasses_accepted(self):
        class Word(int):
            pass

        message = Message(Word(2), (Word(5), 6))
        assert message.dst == 2
        assert message.payload == (5, 6)

    def test_frozen_and_slotted(self):
        message = Message(1, (2, 3))
        assert not hasattr(message, "__dict__")
        for name in ("dst", "payload"):
            with pytest.raises(AttributeError):
                setattr(message, name, 0)
            with pytest.raises(AttributeError):
                delattr(message, name)
        with pytest.raises(AttributeError):
            message.extra = 1
        assert (message.dst, message.payload) == (1, (2, 3))

    def test_equality_hash_repr(self):
        a, b = Message(1, (2, 3)), Message(1, (2, 3))
        assert a == b and hash(a) == hash(b)
        assert hash(a) == hash((1, (2, 3)))
        assert a != Message(1, (2,)) and a != Message(0, (2, 3))
        assert a != (1, (2, 3))
        assert len({a, b, Message(0, (2, 3))}) == 2
        assert repr(a) == "Message(dst=1, payload=(2, 3))"


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
            return [Message((machine.mid + 1) % 4, (machine.mid,))]

        sim.communicate(ring)
        for m in sim.machines:
            assert m.inbox == [((m.mid - 1) % 4,)]
        assert sim.metrics.rounds == 1

    def test_synchronous_semantics(self):
        # A message sent this round must not be visible during the same round.
        sim = small_sim()

        def send_and_check(machine):
            assert machine.inbox == []
            return [Message(0, (machine.mid,))]

        sim.communicate(send_and_check)
        assert sorted(sim.machine(0).inbox) == [(0,), (1,), (2,), (3,)]

    def test_inbox_sender_order(self):
        sim = small_sim()
        sim.communicate(lambda m: [Message(0, (m.mid,))])
        assert [p[0] for p in sim.machine(0).inbox] == [0, 1, 2, 3]

    def test_routing_error(self):
        sim = small_sim()
        with pytest.raises(MPCRoutingError):
            sim.communicate(lambda m: [Message(9, (1,))])

    def test_negative_destination_rejected_by_router(self):
        # Regression: a negative dst used to wrap via Python list
        # indexing and silently deliver to machine k+dst.  Message
        # validates at construction, but pickle reconstruction bypasses
        # __init__ — the router must reject out-of-range ids on its own.
        sim = small_sim()
        evil = Message.__new__(Message)
        object.__setattr__(evil, "dst", -1)
        object.__setattr__(evil, "payload", (7,))
        with pytest.raises(MPCRoutingError):
            sim.communicate(lambda m: [evil] if m.mid == 0 else [])
        # Nothing wrapped around to the last machine.
        assert sim.machine(3).inbox == []

    def test_pickle_roundtrip_skips_message_validation(self):
        # Documents why the router-side check exists: Message.__reduce__
        # rebuilds the frozen slots without calling __init__.
        import pickle

        msg = pickle.loads(pickle.dumps(Message(1, (5,))))
        hacked = Message.__new__(Message)
        object.__setattr__(hacked, "dst", -2)
        object.__setattr__(hacked, "payload", msg.payload)
        assert pickle.loads(pickle.dumps(hacked)).dst == -2

    def test_send_budget_enforced(self):
        sim = small_sim(s=8)
        with pytest.raises(MPCViolationError):
            sim.communicate(
                lambda m: [Message(0, tuple(range(9)))] if m.mid == 1 else []
            )

    def test_receive_budget_enforced(self):
        sim = small_sim(k=8, s=8)
        # Every machine sends 3 words to machine 0: 24 > 8 received.
        with pytest.raises(MPCViolationError):
            sim.communicate(lambda m: [Message(0, (1, 2, 3))])

    def test_enforcement_can_be_disabled(self):
        sim = Simulator(MPCConfig(num_machines=2, memory_words=8), enforce=False)
        sim.communicate(lambda m: [Message(0, tuple(range(20)))])
        assert sim.metrics.max_words_received == 40


class TestMetrics:
    def test_round_accounting(self):
        sim = small_sim()
        sim.communicate(lambda m: [Message(0, (1, 2))])
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
