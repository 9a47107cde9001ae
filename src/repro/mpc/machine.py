"""A simulated MPC machine: local store, inbox, and memory accounting.

A machine's state is a :class:`Store` of keys manipulated by algorithm
callbacks, plus the ``inbox`` of payload tuples delivered by the last
communication step.  Memory is measured in *words* by :func:`words_of`,
which deliberately supports only flat integer-bearing containers — if an
algorithm tries to stash an arbitrary object on a machine, accounting
raises instead of under-counting.

The simulator audits every machine after every superstep, but the audit
is incremental: the store caches each key's price and re-prices only the
keys a superstep could have changed (see :class:`Store`), so a round
that touches two scratch keys does not re-walk the adjacency.
"""

from __future__ import annotations

from itertools import chain
from typing import Any, Dict, List, Set, Tuple

#: Types that cost exactly one word each — the batched fast paths may
#: price a whole container by ``len`` only when every element's type is
#: in this set.  ``str`` is deliberately absent (it prices per-8-chars),
#: as is ``NoneType`` (prices 0).
_SCALARS = frozenset((int, bool, float))
_TUPLE_ONLY = frozenset((tuple,))

#: Value types that are deeply immutable on their own.
_ATOMS = frozenset((int, bool, float, str, type(None)))

#: Marks a dirty key that has since been deleted.
_ABSENT = object()


def words_of(obj: Any) -> int:
    """Return the size of ``obj`` in machine words.

    Ints (arbitrary precision, by design — ids and counters) cost 1 word;
    containers cost the sum of their contents (dicts: keys + values);
    ``None`` costs 0 (absence of a value); strings cost one word per 8
    characters (they appear only in phase labels, never in hot state).
    Anything else raises :class:`TypeError`.

    A dict's price is the sum over its items of key price plus value
    price, which is what lets :class:`Store` price one key at a time and
    keep a running total.  What is still priced in full on every audit is
    each machine's inbox and every store key a superstep wrote or read
    mutably.  The dominant shapes — flat containers of plain ints, and
    adjacency dicts mapping int keys to int tuples — are priced
    *batched*: one C-level type sweep (``set(map(type, ...))``) decides
    whether the whole container can be charged by length, replacing the
    per-element Python loop.  Anything the sweep cannot prove flat falls
    back to the element-by-element walk with identical accounting.

    >>> words_of(5)
    1
    >>> words_of({1: (2, 3), 4: (5,)})
    5
    >>> words_of([(1, 2), (3,)])
    3
    """
    t = type(obj)
    if t is int:
        return 1
    if t is tuple or t is list or t is set or t is frozenset:
        if not obj:
            return 0
        kinds = set(map(type, obj))
        if kinds <= _SCALARS:
            # Flat container of one-word scalars: price by length.
            return len(obj)
        if kinds == _TUPLE_ONLY:
            # Container of tuples (adjacency rows, message payloads): if
            # every element of every row is a scalar, the whole structure
            # prices as the total element count — two C passes, zero
            # Python-level iterations.
            if set(map(type, chain.from_iterable(obj))) <= _SCALARS:
                return sum(map(len, obj))
        total = 0
        for item in obj:
            if type(item) is int:
                total += 1
            else:
                total += words_of(item)
        return total
    if t is dict:
        if not obj:
            return 0
        values = obj.values()
        if set(map(type, obj)) <= _SCALARS:
            vkinds = set(map(type, values))
            if vkinds <= _SCALARS:
                return 2 * len(obj)
            if vkinds == _TUPLE_ONLY and (
                set(map(type, chain.from_iterable(values))) <= _SCALARS
            ):
                # int → flat int tuple (the adjacency-store shape):
                # keys cost len, values cost their total element count.
                return len(obj) + sum(map(len, values))
        total = 0
        for k, v in obj.items():
            total += 1 if type(k) is int else words_of(k)
            total += 1 if type(v) is int else words_of(v)
        return total
    if obj is None:
        return 0
    if t is bool or t is float:
        return 1
    if t is str:
        return (len(obj) + 7) // 8
    return _words_of_slow(obj)


def _words_of_slow(obj: Any) -> int:
    """Subclass-tolerant fallback for :func:`words_of` (cold path)."""
    if isinstance(obj, (bool, int, float)):
        return 1
    if isinstance(obj, str):
        return (len(obj) + 7) // 8
    if isinstance(obj, (tuple, list, set, frozenset)):
        return sum(words_of(item) for item in obj)
    if isinstance(obj, dict):
        return sum(words_of(k) + words_of(v) for k, v in obj.items())
    raise TypeError(
        f"cannot account for object of type {type(obj).__name__}; machine "
        "state must be built from ints and flat containers"
    )


def _is_frozen(value: Any) -> bool:
    """Whether ``value`` is deeply immutable.

    Ints, floats, strings and ``None``, and tuples / frozensets built
    only from those or from such tuples.  Nothing holding a reference to
    a frozen value can change its price.
    """
    t = type(value)
    if t in _ATOMS:
        return True
    if t is tuple or t is frozenset:
        kinds = set(map(type, value))
        if kinds <= _ATOMS:
            return True
        if kinds == _TUPLE_ONLY and (
            set(map(type, chain.from_iterable(value))) <= _ATOMS
        ):
            return True
        return all(map(_is_frozen, value))
    return False


class Store(dict):
    """A machine's store: a dict that remembers what each key costs.

    Each key's price (``words_of(key) + words_of(value)``) is cached
    together with a running total, and :meth:`words` re-prices only the
    keys whose cached price was dropped (the *dirty* keys).  Prices are
    dropped by two barriers, so callbacks keep using the store as a
    plain dict:

    * *Write barrier.*  Every mutator drops the key it touches:
      ``store[k] = v``, ``del store[k]``, ``pop``, ``popitem``,
      ``setdefault``, ``update``, ``|=`` and ``clear``.
    * *Read barrier.*  ``store[k]`` and ``get`` drop the key's price when
      its value is mutable (anything but ints, strings, ``None`` and
      tuples / frozensets of those), because the caller may mutate the
      value in place — ``store[ADJ].pop(v)``, ``store["removed"].add(v)``.
      ``items()``, ``values()`` and ``copy()`` drop every mutable key.
      Whether a value is mutable is decided once, when it is priced, so a
      read of a priced frozen value costs one set lookup.

    **The one rule.**  A callback must not mutate a stored container
    through a reference it took in an *earlier* superstep without reading
    it through the store again: the audit after that earlier superstep
    re-priced the key, and nothing tells the store the value changed
    since.  For the same reason one mutable container must not be stored
    under two keys.  The test suite's audit oracle compares every
    :meth:`Machine.memory_words` with the full walk and catches both.

    Pickling keeps the cache: a store pickles as its items plus its
    prices, and unpickles as a :class:`Store`.
    """

    __slots__ = ("_prices", "_mutable", "_dirty", "_total")

    def __init__(self, *args: Any, **kwargs: Any):
        dict.__init__(self, *args, **kwargs)
        self._prices: Dict[Any, int] = {}
        self._mutable: Set[Any] = set()
        self._dirty: Set[Any] = set(self)
        self._total = 0

    # -- pricing ---------------------------------------------------------

    def words(self) -> int:
        """The store's price in words, re-pricing only dirty keys."""
        dirty = self._dirty
        while dirty:
            key = dirty.pop()
            value = dict.get(self, key, _ABSENT)
            if value is _ABSENT:
                continue  # deleted since it was dropped
            try:
                price = words_of(key) + words_of(value)
            except TypeError:
                dirty.add(key)
                raise
            self._prices[key] = price
            self._total += price
            if not _is_frozen(value):
                self._mutable.add(key)
        return self._total

    def _drop(self, key: Any) -> None:
        self._dirty.add(key)
        price = self._prices.pop(key, None)
        if price is not None:
            self._total -= price
            self._mutable.discard(key)

    def _drop_mutable(self) -> None:
        for key in self._mutable:
            self._total -= self._prices.pop(key)
        self._dirty |= self._mutable
        self._mutable.clear()

    # -- read barrier ----------------------------------------------------

    def __getitem__(self, key: Any) -> Any:
        if key in self._mutable:
            self._drop(key)
        return dict.__getitem__(self, key)

    def get(self, key: Any, default: Any = None) -> Any:
        if key in self._mutable:
            self._drop(key)
        return dict.get(self, key, default)

    def items(self):
        self._drop_mutable()
        return dict.items(self)

    def values(self):
        self._drop_mutable()
        return dict.values(self)

    def copy(self) -> Dict[Any, Any]:
        self._drop_mutable()
        return dict.copy(self)

    # -- write barrier ---------------------------------------------------

    def __setitem__(self, key: Any, value: Any) -> None:
        dict.__setitem__(self, key, value)
        self._drop(key)

    def __delitem__(self, key: Any) -> None:
        dict.__delitem__(self, key)
        self._drop(key)

    def pop(self, key: Any, *default: Any) -> Any:
        self._drop(key)
        return dict.pop(self, key, *default)

    def popitem(self) -> Tuple[Any, Any]:
        item = dict.popitem(self)
        self._drop(item[0])
        return item

    def setdefault(self, key: Any, default: Any = None) -> Any:
        self._drop(key)
        return dict.setdefault(self, key, default)

    def update(self, *args: Any, **kwargs: Any) -> None:
        changes = dict(*args, **kwargs)
        dict.update(self, changes)
        for key in changes:
            self._drop(key)

    def __ior__(self, other: Any) -> "Store":
        self.update(other)
        return self

    def clear(self) -> None:
        dict.clear(self)
        self._prices.clear()
        self._mutable.clear()
        self._dirty.clear()
        self._total = 0

    # -- pickling --------------------------------------------------------

    def __reduce__(self):
        # Items are restored with dict-level calls: pickle's default
        # dict-subclass path would call __setitem__ before the slots
        # exist, and would drop every price on the way in.
        return (
            _restore_store,
            (dict(self), self._prices, self._mutable, self._total),
        )

    def __copy__(self) -> "Store":
        # copy.copy would otherwise hand __reduce__'s cache objects to
        # the copy, so both stores would share one price cache.
        return _restore_store(
            dict(self), dict(self._prices), set(self._mutable), self._total
        )


def _restore_store(
    items: Dict[Any, Any], prices: Dict[Any, int], mutable: Set[Any],
    total: int,
) -> Store:
    """Rebuild a pickled :class:`Store` around its own cache objects.

    Unpickling runs once per machine per shard load, so this skips
    ``__init__`` and adopts ``prices`` / ``mutable`` without copying.
    """
    store = Store.__new__(Store)
    dict.update(store, items)
    store._prices = prices
    store._mutable = mutable
    store._dirty = items.keys() - prices.keys()
    store._total = total
    return store


class Machine:
    """One simulated machine.

    Attributes
    ----------
    mid:
        The machine id in ``0..k-1``.
    store:
        Algorithm-managed local state (ints and containers of ints), a
        :class:`Store` so the memory audit can be incremental.
    inbox:
        Payload tuples delivered by the most recent communication round,
        sorted by (sender, payload) so iteration order is deterministic.
    """

    __slots__ = ("mid", "store", "inbox")

    def __init__(self, mid: int):
        self.mid = mid
        self.store = Store()
        self.inbox: List[Tuple[int, ...]] = []

    def memory_words(self) -> int:
        """Current memory footprint: store plus inbox.

        The store's part is its running total after re-pricing only the
        keys whose cached price was dropped; the inbox, replaced by every
        communication step, is priced in full.
        """
        return self.store.words() + words_of(self.inbox)

    def clear_inbox(self) -> None:
        """Drop delivered messages (an algorithm does this once consumed)."""
        self.inbox = []

    def __repr__(self) -> str:
        return f"Machine(mid={self.mid}, words={self.memory_words()})"
