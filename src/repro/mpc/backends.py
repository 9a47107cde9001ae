"""Pluggable execution backends for the MPC superstep engine.

The :class:`~repro.mpc.simulator.Simulator` delegates *how* a superstep
runs to a backend; round accounting, the memory audit and the trace
stay in the simulator.  Two backends ship:

``SerialBackend``
    Runs every callback in machine-id order in the calling process and
    routes each outbox in memory as soon as its callback returns — the
    default.

``ShardBackend`` (:mod:`repro.mpc.shard`)
    Out-of-core: machine state is spilled to disk with one shard
    resident at a time, and messages travel through a chunked spool.

Backend contract: a callback may read and mutate *only the machine it is
given* (machine state is the sole side channel).  The simulator hands a
local step to :meth:`~SuperstepBackend.queue_local`, which a backend may
run at each shard's next visit rather than at once, so beyond its
machine a local callback may read only values bound when the step was
issued (default arguments, or enclosing variables the driver never
rebinds afterwards) and may write no driver state.  A backend implements
:meth:`~SuperstepBackend.run_local` and
:meth:`~SuperstepBackend.run_exchange`, visiting machines in id order,
and every backend yields the identical run — members, metrics and error
texts; only wall-clock and the backend's own counters differ.

One router: every backend routes, checks and prices an exchange through
:class:`Router`, so the routing errors, the budget errors and their
order exist once.  The order is the serial one: a callback's exception
first, then the first nonexistent destination or send overrun in
sender order, then the first receive overrun in machine order.

Participants: ``run_local``, ``queue_local`` and ``run_exchange`` take
an optional ``only``, the ascending machine ids that act in the step
(None: every machine).  A backend calls ``fn`` on participants only; in
an exchange every other machine sends nothing and gets an empty inbox.
A primitive passes the machines its stride arithmetic says can act, so
the rest cost no callback.

Late reports: every superstep reports its machines' words after it, in
issue order, through :meth:`~SuperstepBackend.take_reports`.  A report
re-prices (through :meth:`Machine.memory_words`) only the machines the
step touched: participants, receivers, machines whose non-empty inbox
was cleared, and machines a harvest touched since the last report.
Every other machine is unchanged since its last report, so the
simulator keeps its last words.  The serial backend reports at once; a
backend that defers local steps reports one when its last shard has
replayed it, and :meth:`~SuperstepBackend.settle` forces every
outstanding report.  The simulator holds each superstep's tail
(metrics, trace, budget check) until its report arrives, so tails
complete in issue order on every backend.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, compress
from operator import attrgetter
from typing import (
    Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple, Union,
)

from repro.errors import MPCConfigError, MPCRoutingError, MPCViolationError
from repro.mpc.machine import Machine

MachineFn = Callable[[Machine], object]

#: What a communicate callback returns: ``(dst, payload)`` pairs, each
#: payload a flat tuple of int words (:class:`Router` checks them).
Outbox = List[Tuple[int, Tuple[int, ...]]]

#: A finished superstep's report: every machine's words in id order (a
#: list), the words of the machines it touched keyed by id in ascending
#: order (a dict), or the exception a deferred local step raised
#: (re-raised by the tail).
Report = Union[List[int], Dict[int, int], BaseException]

_INBOX = attrgetter("inbox")


def step_participants(
    k: int, only: Optional[Iterable[int]]
) -> Optional[Sequence[int]]:
    """The ascending machine ids a superstep runs on, validated.

    None (every machine) stays None, and so does a set naming every
    machine, so that step takes the all-machine path.  An id outside
    ``0..k-1`` or named twice raises
    :class:`~repro.errors.MPCRoutingError`.
    """
    if only is None:
        return None
    # A forward range is ascending and distinct already.
    forward = type(only) is range and only.step > 0
    ids: Sequence[int] = only if forward else sorted(only)
    if ids and (ids[0] < 0 or ids[-1] >= k):
        bad = ids[0] if ids[0] < 0 else ids[-1]
        raise MPCRoutingError(
            f"superstep names nonexistent machine {bad} (k={k})"
        )
    if not forward and len(set(ids)) != len(ids):
        raise MPCRoutingError(f"superstep names a machine twice: {ids}")
    return None if len(ids) == k else ids


def harvest_targets(k: int, only: Optional[Sequence[int]]) -> List[int]:
    """The machine ids a harvest reads, validated against ``0..k-1``.

    Both bounds matter: a negative id would silently wrap to machine
    ``k + id`` through list indexing.  A repeated id is rejected too: a
    mutating ``fn`` applied twice would see its own first result.
    """
    if only is None:
        return list(range(k))
    targets = list(only)
    for mid in targets:
        if not 0 <= mid < k:
            raise MPCRoutingError(
                f"harvest of nonexistent machine {mid} (k={k})"
            )
    if len(set(targets)) != len(targets):
        raise MPCRoutingError(f"harvest names a machine twice: {targets}")
    return targets


@dataclass
class ExchangeStats:
    """What the simulator needs to know about a routed exchange.

    :meth:`Router.finish` builds it for every backend, so metrics and
    traces are bit-identical across backends.
    """

    total_messages: int = 0
    total_words: int = 0
    max_sent: int = 0
    max_received: int = 0
    received_per_machine: List[int] = field(default_factory=list)
    #: Populated only when the simulator is tracing (per-machine sent
    #: words are O(k) per round; skipped otherwise).
    sent_per_machine: Optional[List[int]] = None


class Router:
    """Route, check and price one exchange round — for every backend.

    A backend feeds :meth:`route` each sender's outbox in sender id
    order, then calls :meth:`finish`.  Each payload is priced by its
    length and appended to its destination's list in :attr:`inboxes`,
    so arrival order is sender id ascending, then send order.

    This is the one place a message is checked.  An outbox item must
    unpack to a pair ``(dst, payload)``: ``dst`` an int (not a bool)
    naming a machine ``0 <= dst < k``, ``payload`` a tuple of int
    words (not bools); int subclasses pass.  Flat int payloads keep the
    pricing honest: no unbounded object crosses the network as "one
    word", so a payload's length is its size.  The first malformed
    message, nonexistent destination or overrun of the send ``budget``
    is held, and routing stops there; :meth:`finish` raises it once
    every callback of the round has run, so a callback's own exception
    outranks it, as if every callback ran before any routing.
    """

    def __init__(self, k: int, budget: int, want_sent: bool):
        self.budget = budget
        self.want_sent = want_sent
        #: Per destination machine, its routed payloads in arrival order.
        self.inboxes: List[list] = [[] for _ in range(k)]
        #: Messages routed so far.
        self.messages = 0
        self.sent_words = [0] * k
        self.received_words = [0] * k
        self.fault: Optional[Exception] = None

    def route(self, sender: int, outbox: Optional[Iterable]) -> None:
        """Route machine ``sender``'s outbox (None sends nothing)."""
        if not outbox or self.fault is not None:
            return
        if not isinstance(outbox, (list, tuple)):
            outbox = list(outbox)
        inboxes = self.inboxes
        k = len(inboxes)
        received_words = self.received_words
        sent_words = 0
        payloads = []
        # Plain ints and tuples take the fast path; anything else sends
        # the whole outbox through the exact check once, which holds its
        # first fault or clears it (int and tuple subclasses).  Both dst
        # bounds matter: a negative dst would silently wrap via list
        # indexing and deliver to machine k+dst.
        checked = False
        try:
            for dst, payload in outbox:
                if (
                    type(dst) is not int
                    or type(payload) is not tuple
                    or not 0 <= dst < k
                ) and not checked:
                    self.fault = _first_fault(sender, outbox, k)
                    if self.fault is not None:
                        return
                    checked = True
                w = len(payload)
                sent_words += w
                received_words[dst] += w
                inboxes[dst].append(payload)
                payloads.append(payload)
        except (TypeError, ValueError):  # an item that is not a pair
            self.fault = _first_fault(sender, outbox, k)
            return
        if not checked and not _PLAIN_WORDS.issuperset(
            map(type, chain.from_iterable(payloads))
        ):
            self.fault = _first_fault(sender, outbox, k)
            if self.fault is not None:
                return
        self.messages += len(outbox)
        self.sent_words[sender] = sent_words
        if sent_words > self.budget:
            self.fault = MPCViolationError(
                f"machine {sender} sent {sent_words} words in one round, "
                f"budget S={self.budget}"
            )

    def finish(self) -> ExchangeStats:
        """Raise the held fault, else the first receive-budget fault;
        otherwise return the round's aggregates."""
        if self.fault is not None:
            raise self.fault
        sent_words = self.sent_words
        received_words = self.received_words
        max_received = max(received_words, default=0)
        if max_received > self.budget:
            # Only an overrun pays the id-order scan for the first one.
            for mid, words in enumerate(received_words):
                if words > self.budget:
                    raise MPCViolationError(
                        f"machine {mid} received {words} words in one "
                        f"round, budget S={self.budget}"
                    )
        return ExchangeStats(
            total_messages=self.messages,
            total_words=sum(sent_words),
            max_sent=max(sent_words, default=0),
            max_received=max_received,
            received_per_machine=received_words,
            sent_per_machine=sent_words if self.want_sent else None,
        )


_PLAIN_WORDS = frozenset((int,))


def _is_word(value: object) -> bool:
    """Whether ``value`` is an int machine word (subclasses too, bools not)."""
    return isinstance(value, int) and not isinstance(value, bool)


def _first_fault(sender: int, outbox: Sequence, k: int) -> Optional[Exception]:
    """The exception for ``outbox``'s first malformed message, or None.

    Checks run per message in send order: the pair shape, the
    destination's type, a negative destination, the payload's type, its
    words, and last a destination ``>= k``.
    """
    for item in outbox:
        try:
            dst, payload = item
        except (TypeError, ValueError):
            return TypeError(
                f"machine {sender} sent {item!r}, not a (dst, payload) pair"
            )
        if not _is_word(dst):
            return TypeError(f"destination must be a plain int, got {dst!r}")
        if dst < 0:
            return _nonexistent(sender, dst, k)
        if not isinstance(payload, tuple):
            kind = type(payload).__name__
            return TypeError(f"payload must be a tuple of ints, got {kind}")
        for word in payload:
            if not _is_word(word):
                return TypeError(
                    f"payload words must be plain ints, got {word!r}"
                )
        if dst >= k:
            return _nonexistent(sender, dst, k)
    return None


def _nonexistent(sender: int, dst: int, k: int) -> MPCRoutingError:
    return MPCRoutingError(
        f"machine {sender} sent to nonexistent machine {dst} (k={k})"
    )


class SuperstepBackend:
    """How one superstep's machine callbacks get executed.

    Subclasses implement :meth:`run_local` and :meth:`run_exchange`;
    both visit machines in id order, because routing determinism depends
    on it.  Each appends its superstep's :data:`Report` to
    ``self._reports`` once the words are known.  Driver-side code reads
    machine stores through :meth:`run_harvest`, so a backend may keep
    machine state outside the driver between supersteps.
    """

    name = "abstract"

    #: Whether every machine stays resident in the driver.  Driver-side
    #: per-machine caches (the seed search's memoized estimators) exist
    #: only when it is true: holding entries for machines whose state is
    #: spilled to disk would rebuild the O(full graph) driver footprint
    #: an out-of-core backend exists to avoid.
    all_resident = True

    def __init__(self) -> None:
        self._reports: List[Report] = []
        # Machines a harvest touched since the last report.
        self._harvested: Set[int] = set()

    def run_local(
        self,
        machines: Sequence[Machine],
        fn: MachineFn,
        only: Optional[Sequence[int]] = None,
    ) -> None:
        """Apply ``fn`` to the participants now, and report the step.

        ``only`` is the ascending participant ids (every machine when
        None), as :func:`step_participants` returns them.
        """
        raise NotImplementedError

    def queue_local(
        self,
        machines: Sequence[Machine],
        fn: MachineFn,
        only: Optional[Sequence[int]] = None,
    ) -> None:
        """Apply ``fn`` to the participants, now or at a shard's next visit.

        This is how the simulator issues a local step; by default it is
        :meth:`run_local`.  A backend that defers overrides it, so a
        deferred callback runs inside a later call (an exchange, a
        harvest or :meth:`settle`), never inside a ``run_local`` that
        has already returned.  A deferred step reports when every
        participant has run it; an exception it raises then becomes its
        report.
        """
        self.run_local(machines, fn, only)

    def run_exchange(
        self,
        machines: Sequence[Machine],
        fn: MachineFn,
        *,
        memory_words: int,
        want_sent_per_machine: bool = False,
        only: Optional[Sequence[int]] = None,
    ) -> ExchangeStats:
        """Run ``fn`` on the participants, then route, check and deliver.

        ``only`` is the ascending participant ids (every machine when
        None); every other machine sends nothing.  ``fn`` returns the
        ``(dst, payload)`` pairs a machine sends (or None).  Every
        outbox goes through one :class:`Router` in sender order, which
        checks each message and enforces the send and receive budget
        ``memory_words``.  Errors are :class:`TypeError`
        for a malformed message, :class:`~repro.errors.MPCRoutingError`
        for a nonexistent destination and
        :class:`~repro.errors.MPCViolationError` for a send or receive
        budget overflow.  An exception from any callback outranks
        them, even a later machine's; then the router's first malformed
        message, nonexistent destination or send fault; then its first
        receive fault.  Payloads are delivered in arrival order: sender
        id ascending, then send order within a sender; a machine nothing
        reached ends with an empty inbox.

        Every earlier local step has reported by the time it returns or
        raises, and the exchange reports its own words before returning.
        """
        raise NotImplementedError

    def run_harvest(
        self,
        machines: Sequence[Machine],
        fn: MachineFn,
        only: Optional[Sequence[int]] = None,
    ) -> List[object]:
        """Apply a driver-side read (or plant) to machines, keeping state.

        ``only`` selects distinct machine ids; ``fn`` runs on them in id
        order and the results come back in the order requested.  ``fn``
        may mutate the machine (pop a staging key, plant a value) —
        state-owning backends persist the mutation to the spilled shard.
        An id outside ``0..k-1``, or one named twice, raises
        :class:`~repro.errors.MPCRoutingError` before any machine is
        touched.
        """
        targets = harvest_targets(len(machines), only)
        results = {mid: fn(machines[mid]) for mid in sorted(targets)}
        self._harvested.update(targets)
        return [results[mid] for mid in targets]

    def take_reports(self) -> List[Report]:
        """Hand over the reports finished since the last call, in order."""
        reports, self._reports = self._reports, []
        return reports

    def settle(self) -> None:
        """Run every deferred local step now, so every step has reported."""

    def shutdown(self) -> None:
        """Release backend resources such as spill files (idempotent).

        Deferred work is dropped, not run: shutdown is also the error
        path.
        """

    def stats(self) -> Dict[str, int]:
        """Execution counters (integer-valued, cheap to snapshot).

        The trace layer (:mod:`repro.mpc.trace`) snapshots this dict on
        every superstep for backend attribution, so implementations must
        keep it small and allocation-light.
        """
        return {}


class SerialBackend(SuperstepBackend):
    """In-process execution and routing in machine-id order."""

    name = "serial"

    def __init__(self):
        super().__init__()
        self._stats = {"local_steps": 0, "communicate_steps": 0}

    def run_local(
        self,
        machines: Sequence[Machine],
        fn: MachineFn,
        only: Optional[Sequence[int]] = None,
    ) -> None:
        self._stats["local_steps"] += 1
        if only is None:
            for machine in machines:
                fn(machine)
        else:
            for mid in only:
                fn(machines[mid])
        self._report(machines, only)

    def run_communicate(
        self,
        machines: Sequence[Machine],
        fn: MachineFn,
        router: Router,
        only: Optional[Sequence[int]] = None,
    ) -> None:
        """Apply ``fn`` to the participants in id order, routing each
        outbox as soon as its callback returns (no round-wide buffer)."""
        self._stats["communicate_steps"] += 1
        route = router.route
        if only is None:
            for mid, machine in enumerate(machines):
                route(mid, fn(machine))
        else:
            for mid in only:
                route(mid, fn(machines[mid]))

    def run_exchange(
        self,
        machines: Sequence[Machine],
        fn: MachineFn,
        *,
        memory_words: int,
        want_sent_per_machine: bool = False,
        only: Optional[Sequence[int]] = None,
    ) -> ExchangeStats:
        router = Router(len(machines), memory_words, want_sent_per_machine)
        self.run_communicate(machines, fn, router, only)
        stats = router.finish()
        # Each inbox's price is its received count, so the audit never
        # walks it.
        inboxes = router.inboxes
        received_words = router.received_words
        if only is None:
            for machine, inbox, words in zip(machines, inboxes, received_words):
                machine.deliver(inbox, words)
            self._report(machines, None)
            return stats
        # Receivers, and machines whose old inbox must be emptied; every
        # other machine's inbox is empty already and stays as it is.
        ids = range(len(machines))
        delivered = set(compress(ids, inboxes))
        delivered.update(compress(ids, map(_INBOX, machines)))
        for mid in delivered:
            machines[mid].deliver(inboxes[mid], received_words[mid])
        self._report(machines, delivered.union(only))
        return stats

    def _report(
        self, machines: Sequence[Machine], touched: Optional[Iterable[int]]
    ) -> None:
        """Report every machine's words (``touched`` None), or those of
        ``touched`` and of the machines harvested since the last report."""
        if touched is None:
            self._reports.append([machine.memory_words() for machine in machines])
        else:
            ids = sorted(self._harvested.union(touched))
            self._reports.append(
                {mid: machines[mid].memory_words() for mid in ids}
            )
        self._harvested.clear()

    def stats(self) -> Dict[str, int]:
        return dict(self._stats)


def _make_shard_backend(num_shards: int) -> SuperstepBackend:
    # Imported lazily: repro.mpc.shard depends on this module.
    from repro.mpc.shard import ShardBackend

    return ShardBackend(num_shards=num_shards)


#: name → factory(num_shards).  ``num_shards`` is the shard count for
#: ``shard`` (0 → its default); the serial backend takes none.
BACKENDS = {
    SerialBackend.name: lambda num_shards: SerialBackend(),
    "shard": _make_shard_backend,
}


def resolve_backend(name: str, num_shards: int = 0) -> SuperstepBackend:
    """Instantiate a backend by registry name.

    A negative ``num_shards`` is refused on every backend, the serial
    one (which reads no shard count) included.

    >>> resolve_backend("serial").name
    'serial'
    """
    if num_shards < 0:
        raise MPCConfigError(f"num_shards must be >= 0, got {num_shards}")
    if name not in BACKENDS:
        raise MPCConfigError(
            f"unknown backend {name!r}; choose from {sorted(BACKENDS)}"
        )
    return BACKENDS[name](num_shards)
