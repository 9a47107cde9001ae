"""Stateful property testing of Store's price cache against the full walk.

Hypothesis drives arbitrary interleavings of every mutator, every read
(``[k]``, ``get``, ``peek``, ``items``, ``values``, ``copy``), in-place
mutation of what a mutable read returned, pickle round trips (the shard
backend's spill path) and ``copy.copy``, over keys and values of every
priced shape.  After each step an audit must price the store at
``words_of(dict(store))``, and no key whose last write was an int or
flat scalar tuple under an int or str key may be waiting for it.  The
step's audit runs on a copy, so dirty keys survive into later steps;
the ``audit`` rule audits the store itself, as a superstep boundary
does.
"""

import copy
import pickle

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.mpc.machine import Store, words_of

#: Keys of every priced shape.  ``True`` and ``1`` are the same dict key,
#: written through two key types.
KEYS = st.sampled_from(
    ["a", "b", "a-key-longer-than-16", 0, 1, True, 9, (1, 2), None]
)
STR_KEYS = st.sampled_from(["a", "b", "a-key-longer-than-16"])
SCALARS = st.one_of(
    st.integers(-3, 2**70), st.booleans(), st.floats(allow_nan=False)
)
FROZEN = st.one_of(
    SCALARS,
    st.lists(SCALARS, max_size=4).map(tuple),
    st.text(max_size=20),
    st.none(),
    st.lists(st.lists(st.integers(), max_size=3).map(tuple),
             max_size=3).map(tuple),
    st.frozensets(st.integers(), max_size=4),
    st.tuples(st.integers(), st.text(max_size=3)),
)
MUTABLE = st.one_of(
    st.lists(st.integers(), max_size=4),
    st.sets(st.integers(), max_size=4),
    st.dictionaries(st.integers(0, 9),
                    st.lists(st.integers(), max_size=3).map(tuple),
                    max_size=3),
    st.tuples(st.integers(), st.lists(st.integers(), max_size=3)),
)
VALUES = st.one_of(FROZEN, MUTABLE)

_SCALAR_TYPES = (int, bool, float)


def priced_at_write(key, value) -> bool:
    """Whether the write barrier must price ``store[key] = value`` itself."""
    if type(key) not in (int, str):
        return False
    if type(value) in _SCALAR_TYPES:
        return True
    return type(value) is tuple and all(
        type(item) in _SCALAR_TYPES for item in value
    )


def deeply_frozen(value) -> bool:
    """Whether nothing can change ``value``'s price in place."""
    if type(value) in (tuple, frozenset):
        return all(map(deeply_frozen, value))
    return type(value) not in (list, set, dict)


def mutate(value) -> None:
    """Change ``value``'s price in place, if it holds anything mutable."""
    if type(value) is list:
        value.append(7)
    elif type(value) is set:
        value.add(len(value) + 100)
    elif type(value) is dict:
        value[len(value) + 100] = (1, 2)
    elif type(value) is tuple:
        for item in value:
            if type(item) in (list, set, dict):
                mutate(item)
                return


class StoreMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.store = Store()
        #: Keys whose last write was priced at the write barrier.
        self.frozen = set()

    def _wrote(self, key, value) -> None:
        if priced_at_write(key, value):
            self.frozen.add(key)
        else:
            self.frozen.discard(key)

    # -- writes ----------------------------------------------------------

    @rule(key=KEYS, value=VALUES)
    def setitem(self, key, value):
        self.store[key] = value
        self._wrote(key, value)

    @rule(changes=st.dictionaries(KEYS, VALUES, max_size=3))
    def update(self, changes):
        self.store.update(changes)
        for key, value in changes.items():
            self._wrote(key, value)

    @rule(changes=st.dictionaries(STR_KEYS, VALUES, max_size=3))
    def update_kwargs(self, changes):
        self.store.update(**changes)
        for key, value in changes.items():
            self._wrote(key, value)

    @rule(changes=st.dictionaries(KEYS, VALUES, max_size=3))
    def ior(self, changes):
        self.store |= changes
        for key, value in changes.items():
            self._wrote(key, value)

    @rule(key=KEYS, value=VALUES)
    def setdefault(self, key, value):
        present = key in self.store
        got = self.store.setdefault(key, value)
        if present:
            mutate(got)  # a read: the caller may mutate what it got
        else:
            self._wrote(key, value)

    # -- deletes ---------------------------------------------------------

    @rule(key=KEYS, how=st.sampled_from(["del", "pop", "pop-default"]))
    def delete(self, key, how):
        if how == "pop-default":
            self.store.pop(key, None)
        elif key in self.store:
            if how == "del":
                del self.store[key]
            else:
                self.store.pop(key)
        self.frozen.discard(key)

    @rule()
    def popitem(self):
        if self.store:
            key, _ = self.store.popitem()
            self.frozen.discard(key)

    @rule()
    def clear(self):
        self.store.clear()
        self.frozen.clear()

    # -- reads -----------------------------------------------------------

    @rule(key=KEYS, how=st.sampled_from(["getitem", "get"]))
    def read_then_mutate(self, key, how):
        if how == "getitem":
            if key not in self.store:
                return
            value = self.store[key]
        else:
            value = self.store.get(key)
        mutate(value)

    @rule(key=KEYS)
    def peek(self, key):
        self.store.peek(key)

    @rule(view=st.sampled_from(["items", "values", "copy"]))
    def bulk_read_then_mutate(self, view):
        if view == "items":
            values = [value for _, value in self.store.items()]
        elif view == "values":
            values = list(self.store.values())
        else:
            values = list(self.store.copy().values())
        for value in values:
            mutate(value)

    # -- copies ----------------------------------------------------------

    @rule(key=KEYS, value=MUTABLE, read=KEYS)
    def pickle_round_trip(self, key, value, read):
        # Leave some keys dirty first, as a spilled shard may have them.
        self.store[key] = value
        self._wrote(key, value)
        self.store.get(read)
        self.store = pickle.loads(pickle.dumps(self.store))

    @rule()
    def shallow_copy(self):
        self.store = copy.copy(self.store)

    # -- the check -------------------------------------------------------

    @rule()
    def audit(self):
        # A superstep boundary: every dirty key is priced again.
        assert self.store.words() == words_of(dict(self.store))
        assert not self.store._dirty

    @invariant()
    def cache_is_exact(self):
        store = self.store
        assert type(store) is Store
        assert not self.frozen & store._dirty
        assert self.frozen <= store._prices.keys()
        assert store._dirty == store.keys() - store._prices.keys()
        assert store._mutable == {
            key for key in store._prices
            if not deeply_frozen(dict.__getitem__(store, key))
        }
        # Audit a copy, so that dirty keys live on into the next step.
        assert copy.copy(store).words() == words_of(dict(store))

StoreMachine.TestCase.settings = settings(
    max_examples=100, stateful_step_count=40, deadline=None
)
TestStoreStateful = StoreMachine.TestCase
