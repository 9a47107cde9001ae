"""The router is the one place a message is checked, on every backend.

A communicate callback returns ``(dst, payload)`` pairs.
:class:`~repro.mpc.backends.Router` rejects a malformed one as a routing
fault of its sender: held in sender order, raised once every callback
of the round has run, before anything is delivered.  Each case runs on
the serial backend, the shard backend, and the shard backend with one
message per spool chunk (so earlier senders' payloads are already
spooled when the fault is found).
"""

import pytest

from repro.errors import MPCRoutingError, MPCViolationError
from repro.mpc import shard as shard_module
from repro.mpc.config import MPCConfig
from repro.mpc.shard import ShardBackend
from repro.mpc.simulator import Simulator

K = 4


class Word(int):
    pass


class Words(tuple):
    pass


@pytest.fixture(params=["serial", "shard", "shard-chunk1"])
def make_sim(request, monkeypatch, tmp_path):
    def make(memory_words=64):
        cfg = MPCConfig(num_machines=K, memory_words=memory_words)
        if request.param == "serial":
            return Simulator(cfg)
        if request.param == "shard-chunk1":
            monkeypatch.setattr(shard_module, "CHUNK_MESSAGES", 1)
        backend = ShardBackend(num_shards=2, spill_dir=str(tmp_path))
        return Simulator(cfg, backend=backend)

    return make


def _fails(sim, fn):
    """Run ``fn`` as one exchange; return the (type, text) it raised."""
    with pytest.raises(Exception) as err:
        sim.communicate(fn)
    return type(err.value), str(err.value)


def _undelivered(sim):
    """Whether no inbox holds anything and no round was counted."""
    inboxes = sim.harvest(lambda m: list(m.inbox))
    return inboxes == [[]] * K and sim.metrics.rounds == 0


REJECTED = [
    ("dst-bool", [(True, (7,))], TypeError,
     "destination must be a plain int, got True"),
    ("dst-float", [(1.0, (7,))], TypeError,
     "destination must be a plain int, got 1.0"),
    ("dst-negative", [(-1, (7,))], MPCRoutingError,
     "machine 2 sent to nonexistent machine -1 (k=4)"),
    ("dst-too-large", [(4, (7,))], MPCRoutingError,
     "machine 2 sent to nonexistent machine 4 (k=4)"),
    ("payload-list", [(1, [1, 2])], TypeError,
     "payload must be a tuple of ints, got list"),
    ("word-str", [(1, (1, "x"))], TypeError,
     "payload words must be plain ints, got 'x'"),
    ("word-bool", [(1, (True,))], TypeError,
     "payload words must be plain ints, got True"),
    ("word-float", [(1, (1.5,))], TypeError,
     "payload words must be plain ints, got 1.5"),
    ("not-a-pair-int", [5], TypeError,
     "machine 2 sent 5, not a (dst, payload) pair"),
    ("not-a-pair-triple", [(1, (7,), 3)], TypeError,
     "machine 2 sent (1, (7,), 3), not a (dst, payload) pair"),
    ("after-valid-messages", [(0, (1,)), (3, (2, 3)), (1, [4])], TypeError,
     "payload must be a tuple of ints, got list"),
    # Within one message the checks keep their order: a negative dst
    # before the payload, a dst >= k after it.
    ("negative-dst-list-payload", [(-1, [1])], MPCRoutingError,
     "machine 2 sent to nonexistent machine -1 (k=4)"),
    ("large-dst-list-payload", [(9, [1])], TypeError,
     "payload must be a tuple of ints, got list"),
    ("first-fault-in-send-order", [(1, (1, "x")), (9, (1,))], TypeError,
     "payload words must be plain ints, got 'x'"),
    ("nonexistent-then-malformed", [(9, (1,)), (1, [1])], MPCRoutingError,
     "machine 2 sent to nonexistent machine 9 (k=4)"),
    ("subclass-then-nonexistent", [(Word(1), (5,)), (9, (1,))],
     MPCRoutingError, "machine 2 sent to nonexistent machine 9 (k=4)"),
    ("subclass-words-then-str", [(1, (Word(5),)), (1, ("x",))], TypeError,
     "payload words must be plain ints, got 'x'"),
]


class TestRejections:
    @pytest.mark.parametrize(
        "outbox, kind, text",
        [case[1:] for case in REJECTED],
        ids=[case[0] for case in REJECTED],
    )
    def test_rejected_before_delivery(self, make_sim, outbox, kind, text):
        # Machine 0 routes valid traffic first, so a partly routed (or,
        # one message per chunk, spooled) round must still not land.
        def sends(m):
            if m.mid == 0:
                return [(dst, (dst,)) for dst in range(K)]
            return outbox if m.mid == 2 else []

        with make_sim() as sim:
            assert _fails(sim, sends) == (kind, text)
            assert _undelivered(sim)


class TestAccepted:
    def test_int_subclasses_accepted(self, make_sim):
        with make_sim() as sim:
            sim.communicate(
                lambda m: [(Word(1), (Word(5), 6)), (2, Words((7,)))]
                if m.mid == 0
                else []
            )
            inboxes = sim.harvest(lambda m: list(m.inbox))
        assert inboxes == [[], [(5, 6)], [(7,)], []]

    def test_payload_priced_by_length(self, make_sim):
        with make_sim() as sim:
            sim.communicate(
                lambda m: [(0, (1, 2, 3)), (1, ())] if m.mid == 3 else []
            )
            assert sim.metrics.total_messages == 2
            assert sim.metrics.total_words == 3


class TestFaultOrder:
    """A malformed message is a routing fault of its sender."""

    def test_later_callback_exception_outranks_malformed_message(
        self, make_sim
    ):
        def sends(m):
            if m.mid == 3:
                raise ValueError("callback fault on machine 3")
            return [(True, (7,))] if m.mid == 1 else []

        with make_sim() as sim:
            assert _fails(sim, sends) == (
                ValueError, "callback fault on machine 3"
            )

    @pytest.mark.parametrize(
        "earlier, kind, text",
        [
            ([(9, (1,))], MPCRoutingError,
             "machine 1 sent to nonexistent machine 9 (k=4)"),
            ([(0, tuple(range(9)))], MPCViolationError,
             "machine 1 sent 9 words in one round, budget S=8"),
        ],
        ids=["nonexistent-dst", "send-overrun"],
    )
    def test_earlier_routing_fault_outranks_malformed_message(
        self, make_sim, earlier, kind, text
    ):
        def sends(m):
            if m.mid == 1:
                return earlier
            return [(0, [1])] if m.mid == 3 else []

        with make_sim(memory_words=8) as sim:
            assert _fails(sim, sends) == (kind, text)

    def test_malformed_message_outranks_later_faults(self, make_sim):
        # Machine 3's nonexistent destination and machine 0's receive
        # overrun both come after machine 1's malformed message.
        def sends(m):
            if m.mid == 1:
                return [(0, ("x",))]
            if m.mid == 3:
                return [(9, (1,))]
            return [(0, tuple(range(8)))]

        with make_sim(memory_words=8) as sim:
            assert _fails(sim, sends) == (
                TypeError, "payload words must be plain ints, got 'x'"
            )
