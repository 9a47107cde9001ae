"""Sharded, out-of-core superstep execution — graphs bigger than RAM.

The serial backend keeps all ``k`` simulated machines resident in the
driver process, so the "low-space" MPC regimes are simulated with O(full
graph) real memory.  :class:`ShardBackend` honours the memory constraint
at the *simulator* level: machines are grouped into contiguous id-ordered
shards, each shard's ``(store, inbox)`` state lives pickled in a state
file, and only **one shard is resident at a time**.  Each shard's state
file and its two spool files are opened once and held.  The last shard
visited stays resident between supersteps: it is written out — its
whole state leaves the process — only when another shard must load,
and a visit to the resident shard loads nothing.

Determinism is preserved by construction, not by luck:

* Supersteps process shards in ascending order and machines in ascending
  id within a shard — the global visitation order is exactly the serial
  backend's.
* The exchange hands each sender's outbox, right after its callback,
  to :class:`~repro.mpc.backends.Router` (the serial backend's router
  too), which appends each payload to its destination machine's
  pending list.  Once :data:`CHUNK_MESSAGES` payloads are pending, each
  destination shard's per-machine lists go to its spool file as one
  chunk; extending every inbox from the chunks in write order
  reproduces the serial arrival order (sender id ascending, then send
  order) bit-for-bit.  No process ever buffers a full round's traffic.
* Work waits for the next visit: each shard keeps one ordered queue of
  pending work — the exchange delivery it has not received yet and the
  local steps issued since — and the shard's next visit (from an
  exchange, a harvest or a settle) replays that queue in order.  So
  ``queue_local`` loads nothing.  A step touches only the shards that
  hold its participants: a local step is queued on those alone, and an
  exchange visits those plus every shard that still owes a local step
  (fusing it), so every earlier step has reported when the
  exchange does.  A shard the exchange skips keeps one pending delivery:
  the new one replaces the old, since each replaces every inbox of the
  shard and nothing read the old inboxes in between.  An exchange's
  memory is charged at its end for every machine (store words plus
  received count, as the serial backend prices it); a local step's
  participants are priced machine by machine as it replays, and the
  step is reported once its last shard has replayed it and every
  earlier step has reported.  The settle points —
  :meth:`ShardBackend.settle` and :meth:`~ShardBackend.run_local` —
  replay every queued local step at once.
* Malformed messages, budget violations and routing errors come from
  that same router, so their types and texts are the serial ones; the
  router holds a routing or send fault until every callback of the
  exchange has run, so the order is the serial one too.  When anything
  raises during a visit, the earlier queued work is first replayed on
  the remaining shards, so the simulator can raise the earliest failure
  in serial order.

Driver-side code must not touch ``machines[i].store`` directly while this
backend owns state (outside the resident shard the in-driver copy is a
cleared husk, and the resident shard is written out as soon as another
shard loads); reads and plants go through :meth:`run_harvest`, which
the simulator exposes as :meth:`~repro.mpc.simulator.Simulator.harvest`.

Knob: ``REPRO_SHARD_DIR`` overrides the spill directory.
"""

from __future__ import annotations

import os
import pickle
import shutil
import tempfile
from collections import deque
from operator import add
from typing import (
    BinaryIO,
    Deque,
    Dict,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.errors import MPCConfigError
from repro.mpc.backends import (
    ExchangeStats,
    MachineFn,
    Router,
    SuperstepBackend,
    harvest_targets,
)
from repro.mpc.machine import Machine, Store, words_of

# ``words_of`` stays importable from here: the end-to-end benchmark's
# tracer wraps ``repro.mpc.shard.words_of`` to attribute audit time.
__all__ = [
    "CHUNK_MESSAGES",
    "DEFAULT_NUM_SHARDS",
    "SPILL_DIR_ENV",
    "ShardBackend",
    "words_of",
]

DEFAULT_NUM_SHARDS = 4

#: Pending payloads that trigger a spool flush, checked after each
#: sender: the driver holds at most this many plus one outbox during an
#: exchange, in per-machine lists.  Driver memory only — flush
#: boundaries appear in no model quantity.
CHUNK_MESSAGES = 4096

SPILL_DIR_ENV = "REPRO_SHARD_DIR"


def _chunk_ranges(count: int, parts: int) -> List[range]:
    """Split ``range(count)`` into ``parts`` contiguous, balanced ranges."""
    parts = max(1, min(parts, count))
    base, extra = divmod(count, parts)
    ranges = []
    lo = 0
    for i in range(parts):
        hi = lo + base + (1 if i < extra else 0)
        ranges.append(range(lo, hi))
        lo = hi
    return ranges


#: What a state file holds per machine: store, inbox, and the inbox's
#: delivered word count (None for an inbox that was never delivered).
_State = Tuple[Store, list, Optional[int]]


class _Step:
    """A local step queued on each shard holding participants, until
    each has replayed it.

    ``mids`` maps each such shard to its participants, ascending;
    ``words`` collects the report — every machine's words (a list) for
    an all-machine step, else the touched machines' words by id.
    """

    __slots__ = ("seq", "fn", "mids", "words", "shards_left", "failure")

    def __init__(
        self,
        seq: int,
        fn: MachineFn,
        mids: Dict[int, Sequence[int]],
        words: Union[List[int], Dict[int, int]],
    ):
        self.seq = seq
        self.fn = fn
        self.mids = mids
        self.words = words
        self.shards_left = len(mids)
        # (rank, exception): rank (0, mid) for a callback, (1, mid) for
        # pricing — the serial order in which they would have raised.
        self.failure: Optional[Tuple[Tuple[int, int], BaseException]] = None

    def fail(self, rank: Tuple[int, int], exc: BaseException) -> None:
        if self.failure is None or rank < self.failure[0]:
            self.failure = (rank, exc)


class _Delivery(NamedTuple):
    """An exchange's inboxes for one shard: its held spool handle (None
    when nothing arrived) and every machine's received count."""

    seq: int
    spool: Optional[BinaryIO]
    received_words: List[int]


_Work = Union[_Step, _Delivery]


class ShardBackend(SuperstepBackend):
    """Out-of-core execution: one machine shard resident at a time.

    ``num_shards=0`` picks :data:`DEFAULT_NUM_SHARDS`; the count is
    clamped to the machine count on attach.  ``spill_dir`` (or
    ``REPRO_SHARD_DIR``) roots the spill files; by default a private
    temporary directory is created and removed on :meth:`shutdown`.
    """

    name = "shard"
    # False even before the first superstep attaches the shards: a
    # driver-side cache built then would outlive the attach.
    all_resident = False

    def __init__(
        self,
        num_shards: int = 0,
        spill_dir: Optional[str] = None,
    ):
        if num_shards < 0:
            raise MPCConfigError(f"num_shards must be >= 0, got {num_shards}")
        self.num_shards = num_shards or DEFAULT_NUM_SHARDS
        super().__init__()
        self._spill_root = spill_dir or os.environ.get(SPILL_DIR_ENV)
        self._dir: Optional[str] = None
        self._own_dir = False
        self._machines: Sequence[Machine] = ()
        self._shards: List[range] = []
        self._words: List[int] = []
        self._store_words: List[int] = []
        # One held state file per shard, opened at attach.
        self._files: List[BinaryIO] = []
        # Per shard, one held spool file per parity, opened at attach.
        self._spools: List[List[BinaryIO]] = []
        # The shard whose machines hold live state, if any.
        self._resident: Optional[int] = None
        # Per shard: the work its next visit replays, oldest first.
        self._queues: List[Deque[_Work]] = []
        # Issue order of queued work (locals and exchanges share it).
        self._seq = 0
        # Local steps issued but not yet reported, oldest first.
        self._open_steps: Deque[_Step] = deque()
        # Seq of the earliest local step that raised, and the latest
        # exception a local step raised.
        self._failed_seq: Optional[int] = None
        self._last_failure: Optional[BaseException] = None
        # Spool parity of the next exchange; it flips only when an
        # exchange leaves spools pending.
        self._parity = 0
        self._attached = False
        self._stats = {
            "local_steps": 0,
            "exchange_steps": 0,
            "harvests": 0,
            "shard_loads": 0,
            "shard_spills": 0,
            "chunks_spooled": 0,
            "max_resident_words": 0,
            "max_resident_machines": 0,
        }

    # -- lifecycle ------------------------------------------------------
    def _ensure_dir(self) -> str:
        if self._dir is None:
            if self._spill_root is not None:
                os.makedirs(self._spill_root, exist_ok=True)
            self._dir = tempfile.mkdtemp(
                prefix="repro-shard-", dir=self._spill_root
            )
            self._own_dir = True
        return self._dir

    def _attach(self, machines: Sequence[Machine]) -> None:
        """First contact: partition machines into shards and write them
        all out.

        Whatever state the machines hold at this point (normally nothing;
        the graph is planted through ``local``) becomes shard 0..p-1 on
        disk, and the in-driver ``Machine`` objects are cleared — from
        here on a shard's state file is the source of truth whenever the
        shard is not resident, and nothing is resident yet.
        """
        if self._attached:
            return
        self._ensure_dir()
        k = len(machines)
        self._shards = _chunk_ranges(k, self.num_shards)
        num_shards = len(self._shards)
        try:
            for sid in range(num_shards):
                self._files.append(open(self._path(f"shard_{sid}"), "w+b"))
                self._spools.append([])
                for parity in (0, 1):
                    self._spools[sid].append(
                        open(self._path(f"spool_{sid}_{parity}"), "w+b")
                    )
        except OSError as exc:
            self.shutdown()
            raise MPCConfigError(
                f"cannot hold {3 * num_shards} files open for {num_shards} "
                f"shards, a state file and two spools each "
                f"({exc.strerror or exc}); use fewer shards"
            ) from exc
        self._words = [0] * k
        self._store_words = [0] * k
        self._queues = [deque() for _ in range(num_shards)]
        self._machines = machines
        for sid in range(num_shards):
            self._price(sid)
            self._write_out(sid)
        self._attached = True

    def _path(self, name: str) -> str:
        return os.path.join(self._ensure_dir(), f"{name}.pkl")

    def _load(self, sid: int) -> None:
        machines = self._machines
        handle = self._files[sid]
        handle.seek(0)
        states: List[_State] = pickle.load(handle)
        for mid, (store, inbox, words) in zip(self._shards[sid], states):
            machine = machines[mid]
            machine.store = store
            if words is None:
                machine.inbox = inbox
            else:
                machine.deliver(inbox, words)
        self._resident = sid
        self._stats["shard_loads"] += 1

    def _visit(self, sid: int, before: Optional[int] = None) -> None:
        """Make shard ``sid`` resident and replay its queue, oldest first.

        Only a different shard's visit writes the resident one out, and
        ``sid`` loads only when it is not resident already.  ``before``
        stops at the first work issued at or after that sequence number.
        A local step that raises ends the replay; the exception is
        recorded on the step and raised here.
        """
        resident = self._resident
        if resident != sid:
            if resident is not None:
                self._write_out(resident)
            self._load(sid)
        queue = self._queues[sid]
        while queue and (before is None or queue[0].seq < before):
            work = queue.popleft()
            if isinstance(work, _Step):
                self._replay(sid, work)
            else:
                self._deliver(sid, work)

    def _replay(self, sid: int, step: _Step) -> None:
        """Run a queued local step on a loaded shard's participants and
        price them.

        Pricing here, machine by machine, is what the serial backend's
        audit sees after the step; the shard's sum (every other machine
        at its known words) is a residency high-water candidate as if
        the visit had ended here.
        """
        machines = self._machines
        rng = self._shards[sid]
        mids = step.mids[sid]
        fn = step.fn
        words = step.words
        known = self._words
        stage = 0
        mid = rng.start
        try:
            for mid in mids:
                fn(machines[mid])
            stage = 1
            for mid in mids:
                w = machines[mid].memory_words()
                words[mid] = w
                known[mid] = w
        except BaseException as exc:
            step.fail((stage, mid), exc)
            if self._failed_seq is None or step.seq < self._failed_seq:
                self._failed_seq = step.seq
            self._last_failure = exc
            self._finish(step)
            raise
        self._note_resident(sum(known[rng.start:rng.stop]), len(rng))
        self._finish(step)

    def _finish(self, step: _Step) -> None:
        """Count one shard's replay of ``step``, then report every step
        that has finished, in issue order.

        Steps on different shards can finish out of issue order (a
        harvest replays one shard's queue), so a finished step waits for
        every earlier one.
        """
        step.shards_left -= 1
        self._report_finished()

    def _report_finished(self) -> None:
        """Report the finished steps at the head of the issue order."""
        open_steps = self._open_steps
        while open_steps and open_steps[0].shards_left == 0:
            step = open_steps.popleft()
            if step.failure is not None:
                self._reports.append(step.failure[1])
            elif type(step.words) is list:
                self._reports.append(step.words)
            else:
                words = step.words
                self._reports.append({mid: words[mid] for mid in sorted(words)})

    def _split(self, ids: Sequence[int]) -> Dict[int, List[int]]:
        """Group ascending machine ids by the shard holding them."""
        shards = self._shards
        parts: Dict[int, List[int]] = {}
        sid = 0
        for mid in ids:
            while mid >= shards[sid].stop:
                sid += 1
            parts.setdefault(sid, []).append(mid)
        return parts

    def _owes_step(self, sid: int) -> bool:
        """Whether shard ``sid``'s queue holds a local step."""
        return any(type(work) is _Step for work in self._queues[sid])

    def _deliver(self, sid: int, delivery: _Delivery) -> None:
        """Replace a loaded shard's inboxes with an exchange's spool.

        Each chunk holds one payload list per machine of the shard; the
        first chunk's lists become the inboxes and later chunks extend
        them in write order — sender id ascending, then send order —
        which is the serial arrival order.  Every machine gets a fresh
        inbox (an empty one if nothing arrived) priced by its received
        count, exactly like the serial path.
        """
        machines = self._machines
        rng = self._shards[sid]
        handle = delivery.spool
        if handle is None:
            inboxes: List[list] = [[] for _ in rng]
        else:
            handle.seek(0)
            inboxes = pickle.load(handle)
            while True:
                try:
                    chunk = pickle.load(handle)
                except EOFError:
                    break
                for inbox, payloads in zip(inboxes, chunk):
                    inbox.extend(payloads)
        received_words = delivery.received_words
        for mid, inbox in zip(rng, inboxes):
            machines[mid].deliver(inbox, received_words[mid])

    def _price(self, sid: int) -> None:
        """End-of-visit bookkeeping: price a visited shard's machines.

        Called after every visit, so the stored and known words — and
        the residency high-water mark — are what a write-out right here
        would record.  Pricing also fills the stores' cached prices,
        which ride along in the state file and survive the next load.
        """
        machines = self._machines
        rng = self._shards[sid]
        resident = 0
        for mid in rng:
            machine = machines[mid]
            words = machine.memory_words()
            self._store_words[mid] = machine.store.words()
            self._words[mid] = words
            resident += words
        self._note_resident(resident, len(rng))

    def _write_out(self, sid: int) -> None:
        """Write a shard's state to its file and leave husks behind."""
        machines = self._machines
        rng = self._shards[sid]
        states: List[_State] = []
        for mid in rng:
            machine = machines[mid]
            states.append(
                (machine.store, machine.inbox, machine.delivered_words())
            )
        handle = self._files[sid]
        handle.seek(0)
        pickle.dump(states, handle, protocol=pickle.HIGHEST_PROTOCOL)
        handle.truncate()
        handle.flush()
        for mid in rng:
            machines[mid].store = Store()
            machines[mid].clear_inbox()
        self._resident = None
        self._stats["shard_spills"] += 1

    def _recover(self) -> None:
        """After a failure, replay what it may be outranked by.

        Every shard replays its queued work issued before the failure —
        up to and including the earliest local step that raised, or all
        of it when the failure is the current exchange's or harvest's
        own — so every earlier step reports and the simulator can raise
        the earliest failure in serial order.  Further callback failures
        are recorded on their steps; any other error propagates.  The
        replays go through :meth:`_visit`, so at most one shard's
        machines hold live state afterwards, as after any superstep.
        """
        try:
            for sid, queue in enumerate(self._queues):
                before = (
                    None if self._failed_seq is None else self._failed_seq + 1
                )
                if not queue or (before is not None and queue[0].seq >= before):
                    continue
                try:
                    self._visit(sid, before)
                except BaseException as exc:
                    if exc is not self._last_failure:
                        raise
        finally:
            self._failed_seq = None
            self._last_failure = None

    def _note_resident(self, words: int, machines: int) -> None:
        if words > self._stats["max_resident_words"]:
            self._stats["max_resident_words"] = words
        if machines > self._stats["max_resident_machines"]:
            self._stats["max_resident_machines"] = machines

    def shutdown(self) -> None:
        files, self._files = self._files, []
        files.extend(handle for pair in self._spools for handle in pair)
        self._spools = []
        try:
            for handle in files:
                handle.close()
        finally:
            if self._own_dir and self._dir is not None:
                shutil.rmtree(self._dir, ignore_errors=True)
            self._dir = None
            self._own_dir = False
            self._attached = False
            self._resident = None
            self._shards = []
            self._words = []
            self._store_words = []
            self._machines = ()
            self._queues = []
            self._open_steps = deque()
            self._harvested = set()
            self._failed_seq = None
            self._last_failure = None

    def stats(self) -> Dict[str, int]:
        out = dict(self._stats)
        out["num_shards"] = len(self._shards) or self.num_shards
        return out

    # -- contract queries -----------------------------------------------
    def settle(self) -> None:
        if not self._open_steps:
            return
        try:
            for sid in range(len(self._queues)):
                if self._owes_step(sid):
                    self._visit(sid)
                    self._price(sid)
        except BaseException:
            self._recover()
            raise

    # -- supersteps -----------------------------------------------------
    def run_local(
        self,
        machines: Sequence[Machine],
        fn: MachineFn,
        only: Optional[Sequence[int]] = None,
    ) -> None:
        """Run ``fn`` on the participants before returning: queue, then
        settle."""
        self.queue_local(machines, fn, only)
        self.settle()

    def queue_local(
        self,
        machines: Sequence[Machine],
        fn: MachineFn,
        only: Optional[Sequence[int]] = None,
    ) -> None:
        self._attach(machines)
        self._stats["local_steps"] += 1
        mids: Dict[int, Sequence[int]]
        words: Union[List[int], Dict[int, int]]
        if only is None:
            mids = dict(enumerate(self._shards))
            words = [0] * len(machines)
        else:
            mids = self._split(only)
            # A harvested machine's words are known from its visit.
            words = {mid: self._words[mid] for mid in self._harvested}
        self._harvested.clear()
        # Queued as is: the step keeps the very callable it was given.
        step = _Step(self._seq, fn, mids, words)
        self._seq += 1
        self._open_steps.append(step)
        for sid in mids:
            self._queues[sid].append(step)
        if not mids:
            self._report_finished()

    def run_exchange(
        self,
        machines: Sequence[Machine],
        fn: MachineFn,
        *,
        memory_words: int,
        want_sent_per_machine: bool = False,
        only: Optional[Sequence[int]] = None,
    ) -> ExchangeStats:
        self._attach(machines)
        self._stats["exchange_steps"] += 1
        router = Router(len(machines), memory_words, want_sent_per_machine)
        senders: Dict[int, Sequence[int]] = (
            dict(enumerate(self._shards)) if only is None else self._split(only)
        )

        # Run senders shard by shard (ascending mid = serial order),
        # routing each outbox right after its callback.  Visiting a
        # sender shard first replays its queue — the previous exchange's
        # spool and the local steps issued since — so this exchange
        # writes the other parity's spool files.  A shard with no sender
        # is visited only when it owes a local step.  Once
        # ``CHUNK_MESSAGES`` payloads are pending, every destination
        # shard's per-machine lists go to its spool, so the driver never
        # holds the full round.
        seq = self._seq
        self._seq += 1
        parity = self._parity
        # Per destination shard: its spool handle once this exchange has
        # written to it (rewound and truncated at the first write).
        spools: List[Optional[BinaryIO]] = [None] * len(self._shards)
        spooled = 0  # router.messages at the last flush

        def _spool() -> None:
            nonlocal spooled
            spooled = router.messages
            inboxes = router.inboxes
            for dst_sid, rng in enumerate(self._shards):
                lists = inboxes[rng.start:rng.stop]
                if not any(lists):
                    continue
                handle = spools[dst_sid]
                if handle is None:
                    handle = spools[dst_sid] = self._spools[dst_sid][parity]
                    handle.seek(0)
                    handle.truncate()
                pickle.dump(lists, handle, protocol=pickle.HIGHEST_PROTOCOL)
                self._stats["chunks_spooled"] += 1
                inboxes[rng.start:rng.stop] = [[] for _ in rng]

        try:
            for sid in range(len(self._shards)):
                mids = senders.get(sid, ())
                if not mids and not self._owes_step(sid):
                    continue
                self._visit(sid)
                for sender in mids:
                    router.route(sender, fn(machines[sender]))
                    if router.messages - spooled >= CHUNK_MESSAGES:
                        _spool()
                self._price(sid)
            stats = router.finish()
            _spool()
        except BaseException:
            self._recover()
            raise

        # Leave every shard's delivery to its next visit.  The accounting
        # does not wait: each machine now holds its store as last
        # priced plus its received words, and each shard's total is a
        # residency high-water candidate, as if delivered right here.
        received_words = stats.received_per_machine
        words = self._words = list(map(add, self._store_words, received_words))
        for sid, rng in enumerate(self._shards):
            self._note_resident(sum(words[rng.start:rng.stop]), len(rng))
            queue = self._queues[sid]
            if queue and type(queue[-1]) is _Delivery:
                # A skipped shard's pending delivery: this one replaces
                # every inbox it would have filled, unread.
                queue.pop()
            queue.append(_Delivery(seq, spools[sid], received_words))
        self._parity = 1 - parity
        self._harvested.clear()
        self._reports.append(list(words))
        return stats

    # -- driver access --------------------------------------------------
    def run_harvest(
        self,
        machines: Sequence[Machine],
        fn: MachineFn,
        only: Optional[Sequence[int]] = None,
    ) -> List[object]:
        target_ids = harvest_targets(len(machines), only)
        self._attach(machines)
        self._stats["harvests"] += 1
        self._harvested.update(target_ids)
        wanted = sorted(target_ids)
        results: Dict[int, object] = {}
        try:
            for sid, rng in enumerate(self._shards):
                mids = [mid for mid in wanted if mid in rng]
                if not mids:
                    continue
                self._visit(sid)
                for mid in mids:
                    results[mid] = fn(machines[mid])
                # fn may have mutated (popped a staging key, planted a
                # value): the write-out before any other load persists it.
                self._price(sid)
        except BaseException:
            self._recover()
            raise
        return [results[mid] for mid in target_ids]
