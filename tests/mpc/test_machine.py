"""Tests for machine state and word accounting."""

import pytest

from repro.mpc import machine as machine_module
from repro.mpc.config import MPCConfig
from repro.mpc.machine import Machine, words_of
from repro.mpc.simulator import Simulator


class TestWordsOf:
    def test_scalars(self):
        assert words_of(5) == 1
        assert words_of(True) == 1
        assert words_of(2.5) == 1
        assert words_of(None) == 0

    def test_big_int_still_one_word(self):
        # Words model O(log n)-bit quantities; counters are 1 word.
        assert words_of(10**30) == 1

    def test_containers(self):
        assert words_of((1, 2, 3)) == 3
        assert words_of([1, [2, 3]]) == 3
        assert words_of({1, 2}) == 2
        assert words_of(frozenset({1})) == 1

    def test_dict_counts_keys_and_values(self):
        assert words_of({1: (2, 3)}) == 3

    def test_nested(self):
        state = {"adj": {0: (1, 2), 1: (0,)}, "count": 7}
        # "adj"(1) + [0 + (1,2)] + [1 + (0,)] + "count"(1) + 7(1)
        assert words_of(state) == 1 + 3 + 2 + 1 + 1

    def test_string_cost(self):
        assert words_of("x") == 1
        assert words_of("a" * 16) == 2

    def test_rejects_unknown_types(self):
        class Opaque:
            pass

        with pytest.raises(TypeError):
            words_of(Opaque())


class TestMachine:
    def test_initial_state(self):
        m = Machine(3)
        assert m.mid == 3
        assert m.memory_words() == 0

    def test_memory_counts_store_and_inbox(self):
        m = Machine(0)
        m.store["x"] = (1, 2, 3)
        m.inbox = [(4, 5)]
        assert m.memory_words() == 1 + 3 + 2

    def test_clear_inbox(self):
        m = Machine(0)
        m.inbox = [(1,)]
        m.clear_inbox()
        assert m.inbox == []

    def test_clear_inbox_resets_delivered_count(self):
        m = Machine(0)
        m.deliver([(1, 2)], 2)
        assert m.memory_words() == 2
        m.clear_inbox()
        assert m.memory_words() == 0

    def test_repr(self):
        assert "mid=2" in repr(Machine(2))


class TestInboxPricing:
    """The router's received count prices the inbox; no walk needed."""

    @staticmethod
    def _count_walks(monkeypatch):
        walked = []
        real = machine_module.words_of

        def counting(obj):
            walked.append(obj)
            return real(obj)

        monkeypatch.setattr(machine_module, "words_of", counting)
        return walked

    def test_delivered_inbox_is_not_walked(self, monkeypatch):
        sim = Simulator(MPCConfig(num_machines=4, memory_words=64))
        sim.local(lambda m: m.store.__setitem__("x", (m.mid, 1)))
        walked = self._count_walks(monkeypatch)
        sim.communicate(
            lambda m: [((m.mid + j) % 4, (m.mid, j)) for j in range(3)]
        )
        for m in sim.machines:
            assert m.memory_words() == (
                words_of(dict(m.store)) + words_of(m.inbox)
            )
            assert len(m.inbox) == 3
        inboxes = [m.inbox for m in sim.machines]
        assert not any(obj is inbox for obj in walked for inbox in inboxes)

    def test_reassigned_inbox_is_repriced(self, monkeypatch):
        m = Machine(0)
        m.deliver([(1, 2)], 2)
        walked = self._count_walks(monkeypatch)
        assert m.memory_words() == 2
        assert walked == []
        m.inbox = [(1, 2, 3), (4,)]
        assert m.memory_words() == 4
        assert any(obj is m.inbox for obj in walked)


def _reference_words(obj):
    """The pre-batching per-element walk, kept as the pricing oracle."""
    if obj is None:
        return 0
    if isinstance(obj, (bool, int, float)):
        return 1
    if isinstance(obj, str):
        return max(1, (len(obj) + 7) // 8)
    if isinstance(obj, dict):
        return sum(
            _reference_words(k) + _reference_words(v) for k, v in obj.items()
        )
    if isinstance(obj, (list, tuple, set, frozenset)):
        return sum(_reference_words(x) for x in obj)
    return words_of(obj)  # anything else: the real implementation raises


class TestBatchedWordsOf:
    """The flat-array fast paths must price identically to the walk."""

    def test_flat_int_containers(self):
        for obj in (
            list(range(100)),
            tuple(range(7)),
            set(range(9)),
            [True, False, 3, 2.5],
        ):
            assert words_of(obj) == _reference_words(obj)

    def test_tuple_of_tuples(self):
        obj = [(1, 2), (), (3, 4, 5), (True, 7.5)]
        assert words_of(obj) == _reference_words(obj) == 7

    def test_mixed_container_falls_back(self):
        obj = [1, (2, 3), "abcdefghij"]
        assert words_of(obj) == _reference_words(obj) == 1 + 2 + 2

    def test_strings_never_priced_as_scalars(self):
        # str is excluded from the scalar fast path: it prices len/8.
        obj = ["abcdefghi", "x"]
        assert words_of(obj) == _reference_words(obj) == 2 + 1

    def test_flat_dicts(self):
        assert words_of({1: 2, 3: 4}) == _reference_words({1: 2, 3: 4}) == 4
        obj = {1: (2, 3), 4: (), 5: (6,)}
        assert words_of(obj) == _reference_words(obj) == 6

    def test_dict_with_tuple_keys_falls_back(self):
        obj = {(1, 2): 3, (4,): 5}
        assert words_of(obj) == _reference_words(obj) == 5

    def test_nested_dict_falls_back(self):
        obj = {1: {2: 3}, 4: [5, 6]}
        assert words_of(obj) == _reference_words(obj) == 6

    def test_empty_containers(self):
        for obj in ([], (), set(), {}):
            assert words_of(obj) == 0


class TestBatchedWordsOfProperty:
    def test_adjacency_shaped_state(self):
        # The shape that actually rides the hot path: dicts of int ->
        # tuple-of-int adjacency rows, inboxes of int tuples.
        import random

        rng = random.Random(7)
        for _ in range(50):
            adj = {
                v: tuple(rng.sample(range(200), rng.randrange(6)))
                for v in rng.sample(range(200), rng.randrange(20))
            }
            inbox = [
                tuple(rng.randrange(999) for _ in range(rng.randrange(5)))
                for _ in range(rng.randrange(15))
            ]
            assert words_of(adj) == _reference_words(adj)
            assert words_of(inbox) == _reference_words(inbox)
