"""Messages exchanged between simulated MPC machines.

Payloads are tuples of machine words (Python ints); the word count of a
message is simply the tuple length.  Restricting payloads to flat integer
tuples keeps the simulator's communication accounting honest — there is no
way to smuggle an unbounded object across the network in "one word" — and
it is what lets a router price each inbox by adding up payload lengths.

A routed round builds one :class:`Message` per edge of traffic, so the
class is a frozen ``__slots__`` class rather than a dataclass: the same
checks, with plain-int fast paths and no per-field ``object.__setattr__``.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError
from typing import Any, Tuple

from repro.errors import MPCRoutingError


def _is_word(value: Any) -> bool:
    """Whether ``value`` is a plain int (int subclasses too, bools not)."""
    return isinstance(value, int) and not isinstance(value, bool)


class Message:
    """A message addressed to machine ``dst`` carrying integer words.

    ``dst`` and every payload word must be plain ints (``type(x) is int``
    is the fast path; int subclasses pass, bools and floats raise
    :class:`TypeError`), ``payload`` must be a tuple, and a negative
    ``dst`` raises :class:`~repro.errors.MPCRoutingError`.  Instances are
    immutable, compare and hash by ``(dst, payload)``, and pickle without
    re-running the checks — which is why the routers bounds-check ``dst``
    on their own.

    >>> Message(2, (7, 8, 9)).words
    3
    >>> Message(2, (7, 8, 9))
    Message(dst=2, payload=(7, 8, 9))
    """

    __slots__ = ("dst", "payload")

    dst: int
    payload: Tuple[int, ...]

    def __init__(self, dst: int, payload: Tuple[int, ...]) -> None:
        if type(dst) is not int and not _is_word(dst):
            raise TypeError(f"destination must be a plain int, got {dst!r}")
        if dst < 0:
            raise MPCRoutingError(f"invalid destination {dst}")
        if not isinstance(payload, tuple):
            raise TypeError(
                f"payload must be a tuple of ints, got {type(payload).__name__}"
            )
        for word in payload:
            if type(word) is not int and not _is_word(word):
                raise TypeError(
                    f"payload words must be plain ints, got {word!r}"
                )
        _set_dst(self, dst)
        _set_payload(self, payload)

    @property
    def words(self) -> int:
        """Size of the message in machine words."""
        return len(self.payload)

    def __setattr__(self, name: str, value: Any) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return (self.dst, self.payload) == (other.dst, other.payload)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.dst, self.payload))

    def __repr__(self) -> str:
        return f"Message(dst={self.dst!r}, payload={self.payload!r})"

    def __reduce__(self):
        return (_restore_message, (self.dst, self.payload))


# Slot setters, bound once: the only writes a Message ever takes.
_set_dst = Message.dst.__set__
_set_payload = Message.payload.__set__


def _restore_message(dst: int, payload: Tuple[int, ...]) -> Message:
    """Unpickle a :class:`Message` without re-running its checks."""
    message = Message.__new__(Message)
    _set_dst(message, dst)
    _set_payload(message, payload)
    return message
