"""The incremental memory audit: Store's price cache and its barriers.

Every test here also runs under the audit oracle in ``conftest.py``,
which checks each ``Machine.memory_words`` call against the full walk.
"""

import copy
import pickle

import pytest

from repro.mpc.config import MPCConfig
from repro.mpc.machine import Machine, Store, words_of
from repro.mpc.simulator import Simulator


def priced_store() -> Store:
    """A store with every key priced: mutable and frozen values mixed."""
    store = Store(
        adj={1: (2, 3), 4: (5,)},
        removed={7, 8},
        owner=tuple(range(6)),
        pairs=((1, 2), (3, 4)),
        count=3,
        label="phase",
        nothing=None,
    )
    store.words()
    return store


def cached(store: Store) -> set:
    """The keys whose price is currently cached."""
    return set(store._prices)


def full_walk(store: Store) -> int:
    return words_of(dict(store))


MUTATORS = {
    "setitem": lambda s: s.__setitem__("adj", {9: ()}),
    "delitem": lambda s: s.__delitem__("adj"),
    "pop": lambda s: s.pop("adj"),
    "pop-default": lambda s: s.pop("adj", None),
    "setdefault": lambda s: s.setdefault("adj", {}),
    "update": lambda s: s.update({"adj": {0: (1,)}}),
    "update-kwargs": lambda s: s.update(adj=[1, 2]),
    "ior": lambda s: s.__ior__({"adj": [1, 2, 3]}),
}

#: Every way to write one key, each taking the same write barrier.
WRITERS = {
    "setitem": lambda s, k, v: s.__setitem__(k, v),
    "update": lambda s, k, v: s.update({k: v}),
    "update-kwargs": lambda s, k, v: s.update(**{k: v}),
    "ior": lambda s, k, v: s.__ior__({k: v}),
    "setdefault": lambda s, k, v: s.setdefault(k, v),
}

#: Every way to delete one key.
DELETERS = {
    "delitem": lambda s, k: s.__delitem__(k),
    "pop": lambda s, k: s.pop(k),
    "pop-default": lambda s, k: s.pop(k, None),
    "popitem": lambda s, k: s.popitem(),
}


def assert_priced_on_the_spot(store: Store, key) -> None:
    """``key`` is priced exactly and nothing waits for an audit.

    Called before any ``words()``, so only the write barrier can have
    priced the key.
    """
    value = dict.__getitem__(store, key)
    assert store._prices[key] == words_of(key) + words_of(value)
    assert store._total == full_walk(store)
    assert not store._dirty
    assert key not in store._mutable


class TestWriteBarrier:
    @pytest.mark.parametrize("name", sorted(MUTATORS))
    def test_mutator_drops_the_key(self, name):
        store = priced_store()
        MUTATORS[name](store)
        assert "adj" not in cached(store)
        assert cached(store) == set(store) - {"adj"}
        assert store.words() == full_walk(store)

    @pytest.mark.parametrize(
        "name,key",
        [(name, key) for name in sorted(WRITERS)
         for key in ("adj", "count", "fresh")
         if name != "setdefault" or key == "fresh"],  # it writes only new keys
    )
    def test_frozen_write_prices_the_key(self, name, key):
        store = priced_store()
        WRITERS[name](store, key, (7, True, 2.5))
        assert dict.__getitem__(store, key) == (7, True, 2.5)
        assert_priced_on_the_spot(store, key)

    @pytest.mark.parametrize("name", sorted(set(WRITERS) - {"setdefault"}))
    def test_frozen_write_cleans_a_dirty_key(self, name):
        store = priced_store()
        store["adj"]  # a mutable read: "adj" is dirty
        assert store._dirty == {"adj"}
        WRITERS[name](store, "adj", 5)
        assert_priced_on_the_spot(store, "adj")

    def test_frozen_write_cleans_a_never_priced_key(self):
        store = Store(a=[1, 2], b={3})  # every key dirty until an audit
        store["a"] = 9
        assert store._prices == {"a": 2}
        assert store._dirty == {"b"}
        assert store.words() == full_walk(store) == 2 + 2

    @pytest.mark.parametrize(
        "key,value",
        [
            ("count", 2**70),
            ("count", False),
            ("count", -0.5),
            ("count", ()),
            ("a-key-of-seventeen", (1, 2)),
            (12, 3),
            (-4, (1.5, 2, False)),
        ],
    )
    def test_frozen_shapes_priced_at_the_write(self, key, value):
        store = priced_store()
        store[key] = value
        assert_priced_on_the_spot(store, key)

    @pytest.mark.parametrize(
        "key,value",
        [
            ("count", "a label"),
            ("count", None),
            ("count", ((1, 2), (3,))),
            ("count", frozenset({1, 2})),
            ("count", (1, "x")),
            ((1, 2), 3),
            (None, 3),
            (True, 3),
        ],
    )
    def test_other_frozen_writes_wait_for_the_audit(self, key, value):
        store = priced_store()
        store[key] = value
        assert store._dirty == {key}
        assert key not in cached(store)
        assert store.words() == full_walk(store)
        assert key in cached(store) and key not in store._mutable

    @pytest.mark.parametrize("name", sorted(WRITERS))
    def test_mutable_write_still_drops(self, name):
        store = priced_store()
        held = [1, 2]
        key = "fresh" if name == "setdefault" else "count"
        WRITERS[name](store, key, held)
        assert store._dirty == {key}
        assert key not in cached(store)
        # A callback may still mutate what it wrote, in the same superstep.
        held.extend((3, 4, 5))
        assert store.words() == full_walk(store)
        assert store._prices[key] == words_of(key) + 5
        assert key in store._mutable

    @pytest.mark.parametrize("name", sorted(DELETERS))
    @pytest.mark.parametrize(
        "state", ["priced-mutable", "priced-frozen", "dirty"]
    )
    def test_delete_forgets_the_key(self, name, state):
        store = priced_store()
        key = {"priced-mutable": "adj", "priced-frozen": "count",
               "dirty": "fresh"}[state]
        if state == "dirty":
            store[key] = [1, 2]
        if name == "popitem":
            # popitem takes the last key inserted: put ``key`` last.
            value = dict.pop(store, key)
            dict.__setitem__(store, key, value)
        DELETERS[name](store, key)
        assert key not in store
        assert key not in cached(store)
        assert key not in store._mutable
        assert not store._dirty
        assert store._total == full_walk(store)

    def test_deleting_a_missing_key_changes_nothing(self):
        store = priced_store()
        before = (dict(store._prices), set(store._mutable), store._total)
        assert store.pop("missing", 0) == 0
        with pytest.raises(KeyError):
            store.pop("missing")
        with pytest.raises(KeyError):
            del store["missing"]
        assert (store._prices, store._mutable, store._total) == before
        assert not store._dirty

    def test_setdefault_on_a_present_key_is_a_read(self):
        store = priced_store()
        adj = dict.__getitem__(store, "adj")
        assert store.setdefault("adj", {}) is adj
        assert store._dirty == {"adj"}  # mutable: the caller may mutate it
        assert store.setdefault("count", 9) == 3
        assert "count" in cached(store)  # frozen: keeps its price
        adj[50] = (51,)
        assert store.words() == full_walk(store)

    def test_popitem_drops_the_popped_key(self):
        store = priced_store()
        key, _ = store.popitem()
        assert key == "nothing"
        assert key not in cached(store)
        assert store.words() == full_walk(store)

    def test_clear_drops_everything(self):
        store = priced_store()
        store.clear()
        assert cached(store) == set()
        assert store.words() == 0

    def test_new_key_is_priced_on_next_audit(self):
        store = priced_store()
        store["fresh"] = [1, 2, 3]
        assert store.words() == full_walk(store)
        assert "fresh" in cached(store)


class TestReadBarrier:
    @pytest.mark.parametrize("read", ["getitem", "get"])
    def test_mutable_read_then_mutation_is_repriced(self, read):
        store = priced_store()
        before = store.words()
        adj = store["adj"] if read == "getitem" else store.get("adj")
        assert "adj" not in cached(store)
        adj[10] = (11, 12, 13)
        store["removed"].add(99)
        assert store.words() == full_walk(store) == before + 4 + 1

    def test_frozen_reads_keep_their_price(self):
        store = priced_store()
        for key in ("owner", "pairs", "count", "label", "nothing"):
            store[key]
            store.get(key)
        assert cached(store) == set(store)
        assert store.get("missing") is None
        assert cached(store) == set(store)

    @pytest.mark.parametrize("view", ["items", "values", "copy"])
    def test_bulk_reads_drop_every_mutable_key(self, view):
        store = priced_store()
        getattr(store, view)()
        assert cached(store) == set(store) - {"adj", "removed"}
        for value in dict.values(store):
            if isinstance(value, set):
                value.add(42)
        assert store.words() == full_walk(store)

    @pytest.mark.parametrize(
        "value,frozen",
        [
            ((1, "x", None, 2.5), True),
            (frozenset({(1, 2), (3,)}), True),
            (((1, (2, (3,))), "y"), True),
            ((1, [2]), False),
            (((1,), {2}), False),
        ],
    )
    def test_immutability_is_decided_when_priced(self, value, frozen):
        store = Store(v=value)
        store.words()
        assert ("v" in store._mutable) is not frozen
        store["v"]
        assert ("v" in cached(store)) is frozen


class TestPeek:
    def test_returns_the_value_or_the_default(self):
        store = priced_store()
        assert store.peek("adj") is dict.__getitem__(store, "adj")
        assert store.peek("count") == 3
        assert store.peek("missing") is None
        assert store.peek("missing", ()) == ()

    def test_keeps_every_price(self):
        store = priced_store()
        before = store.words()
        for key in list(dict.keys(store)) + ["missing"]:
            store.peek(key)
        assert cached(store) == set(store)
        assert not store._dirty
        assert store.words() == before == full_walk(store)

    def test_mutating_a_peeked_value_fails_the_oracle(self):
        machine = Machine(0)
        machine.store["adj"] = {1: (2,)}
        assert machine.memory_words() == 3
        machine.store.peek("adj")[3] = (4, 5)  # broken rule: no write
        with pytest.raises(AssertionError, match="incremental audit"):
            machine.memory_words()


class TestPickle:
    def test_round_trip_keeps_contents_and_prices(self):
        store = priced_store()
        store["adj"]  # one mutable key dropped, the rest cached
        clone = pickle.loads(pickle.dumps(store))
        assert type(clone) is Store
        assert clone == store
        assert clone._prices == store._prices
        assert clone._mutable == store._mutable
        assert clone._total == store._total
        assert clone.words() == store.words() == full_walk(clone)
        # The clone's barrier still works after the round trip.
        clone["removed"].add(5)
        assert clone.words() == full_walk(clone)

    def test_machine_round_trip_keeps_a_store(self):
        machine = Machine(4)
        machine.store["x"] = (1, 2)
        machine.inbox = [(3,)]
        words = machine.memory_words()
        clone = pickle.loads(pickle.dumps(machine))
        assert type(clone.store) is Store
        assert clone.memory_words() == words == 1 + 2 + 1

    def test_copy_module_does_not_share_the_cache(self):
        store = priced_store()
        for clone in (copy.copy(store), copy.deepcopy(store)):
            assert type(clone) is Store
            clone["fresh"] = 1
            clone.words()
            assert "fresh" not in cached(store)
            assert store.words() == full_walk(store)


class TestWordsOf:
    def test_store_prices_like_a_dict(self):
        store = priced_store()
        assert words_of(store) == words_of(dict(store)) == store.words()

    def test_machine_words_are_store_plus_inbox(self):
        machine = Machine(0)
        machine.store.update(priced_store())
        machine.inbox = [(1, 2), (3,)]
        assert machine.memory_words() == full_walk(machine.store) + 3


class TestOracle:
    def test_stale_reference_mutation_fails_the_oracle(self):
        machine = Machine(0)
        machine.store["seen"] = set()
        held = machine.store["seen"]
        assert machine.memory_words() == 1  # re-priced after the read
        held.add(7)  # mutated through a reference from before the audit
        with pytest.raises(AssertionError, match="incremental audit"):
            machine.memory_words()
        machine.store["seen"]  # reading through the store again heals it
        assert machine.memory_words() == 2

    def test_in_superstep_mutations_are_audited_exactly(self):
        sim = Simulator(MPCConfig(num_machines=3, memory_words=256))
        sim.local(lambda m: m.store.__setitem__("adj", {m.mid: ()}))
        for step in range(4):
            sim.local(lambda m: m.store["adj"].__setitem__(
                len(m.store["adj"]) + 10, tuple(range(step))
            ))
        expected = max(
            words_of(dict(m.store)) + words_of(m.inbox) for m in sim.machines
        )
        assert sim.metrics.peak_memory_words == expected
