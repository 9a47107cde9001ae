"""Sharded, out-of-core superstep execution — graphs bigger than RAM.

Every other backend keeps all ``k`` simulated machines resident in the
driver process, so the "low-space" MPC regimes are simulated with O(full
graph) real memory.  :class:`ShardBackend` honours the memory constraint
at the *simulator* level: machines are grouped into contiguous id-ordered
shards, each shard's ``(store, inbox)`` state lives pickled in a spill
directory, and only **one shard is resident at a time**.

Determinism is preserved by construction, not by luck:

* Supersteps process shards in ascending order and machines in ascending
  id within a shard — the global visitation order is exactly the serial
  backend's.
* The exchange spools messages to per-destination-shard chunk files in
  the order senders produce them (sender id ascending, then send order),
  so concatenating a spool file reproduces the serial arrival order
  bit-for-bit.  No process ever buffers a full round's traffic: spool
  buffers flush every ``chunk_messages`` messages.
* Budget violations and routing errors are raised with the identical
  type, message text, and machine-id order as the serial routing loop in
  :meth:`~repro.mpc.simulator.Simulator.communicate` — the shard-parity
  CI gate pins this.

Driver-side code must not touch ``machines[i].store`` directly while this
backend owns state (the resident copy is usually a cleared husk); reads
and plants go through :meth:`run_harvest`, which the simulator exposes as
:meth:`~repro.mpc.simulator.Simulator.harvest`.

Knobs: ``REPRO_SHARD_DIR`` overrides the spill directory,
``REPRO_SHARD_CHUNK`` the messages-per-flush chunk size.
"""

from __future__ import annotations

import os
import pickle
import shutil
import tempfile
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import MPCConfigError, MPCRoutingError, MPCViolationError
from repro.mpc.backends import (
    ExchangeStats,
    MachineFn,
    SuperstepBackend,
    _chunk_ranges,
)
from repro.mpc.machine import Machine, Store, words_of

# ``words_of`` stays importable from here: the end-to-end benchmark's
# tracer wraps ``repro.mpc.shard.words_of`` to attribute audit time.
__all__ = [
    "CHUNK_ENV",
    "DEFAULT_CHUNK_MESSAGES",
    "DEFAULT_NUM_SHARDS",
    "SPILL_DIR_ENV",
    "ShardBackend",
    "words_of",
]

DEFAULT_NUM_SHARDS = 4
DEFAULT_CHUNK_MESSAGES = 4096

SPILL_DIR_ENV = "REPRO_SHARD_DIR"
CHUNK_ENV = "REPRO_SHARD_CHUNK"


class ShardBackend(SuperstepBackend):
    """Out-of-core execution: one machine shard resident at a time.

    ``num_shards=0`` picks :data:`DEFAULT_NUM_SHARDS`; the count is
    clamped to the machine count on attach.  ``chunk_messages`` bounds
    the in-memory spool buffer per destination shard during an exchange.
    ``spill_dir`` (or ``REPRO_SHARD_DIR``) roots the spill files; by
    default a private temporary directory is created and removed on
    :meth:`shutdown`.
    """

    name = "shard"
    owns_state = True
    routes_messages = True

    def __init__(
        self,
        num_shards: int = 0,
        chunk_messages: int = 0,
        spill_dir: Optional[str] = None,
    ):
        if num_shards < 0:
            raise MPCConfigError(f"num_shards must be >= 0, got {num_shards}")
        if chunk_messages < 0:
            raise MPCConfigError(
                f"chunk_messages must be >= 0, got {chunk_messages}"
            )
        self.num_shards = num_shards or DEFAULT_NUM_SHARDS
        env_chunk = int(os.environ.get(CHUNK_ENV, "0") or "0")
        self.chunk_messages = (
            chunk_messages or env_chunk or DEFAULT_CHUNK_MESSAGES
        )
        self._spill_root = spill_dir or os.environ.get(SPILL_DIR_ENV)
        self._dir: Optional[str] = None
        self._own_dir = False
        self._shards: List[range] = []
        self._shard_of: List[int] = []
        self._words: List[int] = []
        self._attached = False
        self._governor = None
        self._stats = {
            "local_steps": 0,
            "exchange_steps": 0,
            "harvests": 0,
            "shard_loads": 0,
            "shard_spills": 0,
            "chunks_spooled": 0,
            "max_resident_words": 0,
            "max_resident_machines": 0,
            "governed_exchanges": 0,
            "min_chunk_messages": 0,
        }

    def attach_governor(self, governor) -> None:
        """Let a :class:`~repro.mpc.governor.LoadGovernor` throttle spools.

        Under a governor the per-exchange flush threshold shrinks with
        the observed budget headroom (dense rounds -> smaller resident
        spool buffers).  Driver memory only: flush boundaries never
        appear in any model quantity, so governed and ungoverned
        exchanges deliver bit-identical rounds.
        """
        self._governor = governor

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
        """First contact: partition machines into shards and spill them all.

        Whatever state the machines hold at this point (normally nothing;
        the graph is planted through ``local``) becomes shard 0..p-1 on
        disk, and the in-driver ``Machine`` objects are cleared — from
        here on the spill files are the source of truth.
        """
        if self._attached:
            return
        self._ensure_dir()
        k = len(machines)
        self._shards = _chunk_ranges(k, self.num_shards)
        self._shard_of = [0] * k
        for sid, rng in enumerate(self._shards):
            for mid in rng:
                self._shard_of[mid] = sid
        self._words = [0] * k
        for sid in range(len(self._shards)):
            self._spill(machines, sid)
        self._attached = True

    def _state_path(self, sid: int) -> str:
        return os.path.join(self._ensure_dir(), f"shard_{sid}.pkl")

    def _spool_path(self, sid: int) -> str:
        return os.path.join(self._ensure_dir(), f"spool_{sid}.pkl")

    def _load(self, machines: Sequence[Machine], sid: int) -> None:
        with open(self._state_path(sid), "rb") as handle:
            states: List[Tuple[Store, list]] = pickle.load(handle)
        for offset, mid in enumerate(self._shards[sid]):
            store, inbox = states[offset]
            machines[mid].store = store
            machines[mid].inbox = inbox
        self._stats["shard_loads"] += 1

    def _spill(self, machines: Sequence[Machine], sid: int) -> None:
        rng = self._shards[sid]
        states = []
        resident = 0
        for mid in rng:
            machine = machines[mid]
            # Priced before the dump, so the store's cached prices ride
            # along in the spill file and survive the next load.
            words = machine.memory_words()
            states.append((machine.store, machine.inbox))
            self._words[mid] = words
            resident += words
        with open(self._state_path(sid), "wb") as handle:
            pickle.dump(states, handle, protocol=pickle.HIGHEST_PROTOCOL)
        for mid in rng:
            machines[mid].store = Store()
            machines[mid].inbox = []
        self._stats["shard_spills"] += 1
        if resident > self._stats["max_resident_words"]:
            self._stats["max_resident_words"] = resident
        if len(rng) > self._stats["max_resident_machines"]:
            self._stats["max_resident_machines"] = len(rng)

    def shutdown(self) -> None:
        if self._own_dir and self._dir is not None:
            shutil.rmtree(self._dir, ignore_errors=True)
        self._dir = None
        self._own_dir = False
        self._attached = False
        self._shards = []
        self._shard_of = []
        self._words = []

    def stats(self) -> Dict[str, int]:
        out = dict(self._stats)
        out["num_shards"] = self.num_shards
        return out

    # -- contract queries -----------------------------------------------
    def memory_snapshot(self) -> Optional[List[int]]:
        if not self._attached:
            return None
        return list(self._words)

    def resident_machines_hint(self) -> Optional[int]:
        if not self._shards:
            return None
        return max(len(rng) for rng in self._shards)

    # -- supersteps -----------------------------------------------------
    def run_local(self, machines: Sequence[Machine], fn: MachineFn) -> None:
        self._attach(machines)
        self._stats["local_steps"] += 1
        for sid in range(len(self._shards)):
            self._load(machines, sid)
            for mid in self._shards[sid]:
                fn(machines[mid])
            self._spill(machines, sid)

    def run_exchange(
        self,
        machines: Sequence[Machine],
        fn: MachineFn,
        *,
        memory_words: int,
        enforce: bool = True,
        want_sent_per_machine: bool = False,
    ) -> ExchangeStats:
        self._attach(machines)
        self._stats["exchange_steps"] += 1
        chunk_messages = self.chunk_messages
        if self._governor is not None:
            chunk_messages = self._governor.scale_chunk(self.chunk_messages)
            if chunk_messages != self.chunk_messages:
                self._stats["governed_exchanges"] += 1
            if (
                self._stats["min_chunk_messages"] == 0
                or chunk_messages < self._stats["min_chunk_messages"]
            ):
                self._stats["min_chunk_messages"] = chunk_messages
        k = len(machines)
        num_shards = len(self._shards)
        received_words = [0] * k
        sent_per_machine = [0] * k if want_sent_per_machine else None
        total_messages = 0
        total_words = 0
        max_sent = 0

        # Phase A: run senders shard by shard (ascending mid = serial
        # order) and spool each message toward its destination shard.
        # Buffers flush every ``chunk_messages`` messages, so the driver
        # holds O(chunk · shards) payloads, never the full round.
        buffers: List[List[Tuple[int, Tuple[int, ...]]]] = [
            [] for _ in range(num_shards)
        ]
        spools: List[Optional[object]] = [None] * num_shards

        def _flush(dst_sid: int) -> None:
            if not buffers[dst_sid]:
                return
            if spools[dst_sid] is None:
                spools[dst_sid] = open(self._spool_path(dst_sid), "wb")
            pickle.dump(
                buffers[dst_sid],
                spools[dst_sid],
                protocol=pickle.HIGHEST_PROTOCOL,
            )
            self._stats["chunks_spooled"] += 1
            buffers[dst_sid] = []

        try:
            for sid in range(num_shards):
                self._load(machines, sid)
                for sender in self._shards[sid]:
                    outbox = fn(machines[sender])
                    sent_words = 0
                    for message in outbox if outbox is not None else ():
                        if not 0 <= message.dst < k:
                            raise MPCRoutingError(
                                f"machine {sender} sent to nonexistent "
                                f"machine {message.dst} (k={k})"
                            )
                        sent_words += message.words
                        received_words[message.dst] += message.words
                        dst_sid = self._shard_of[message.dst]
                        buffers[dst_sid].append(
                            (message.dst, message.payload)
                        )
                        if len(buffers[dst_sid]) >= chunk_messages:
                            _flush(dst_sid)
                        total_messages += 1
                    total_words += sent_words
                    if sent_words > max_sent:
                        max_sent = sent_words
                    if sent_per_machine is not None:
                        sent_per_machine[sender] = sent_words
                    if enforce and sent_words > memory_words:
                        raise MPCViolationError(
                            f"machine {sender} sent {sent_words} words in "
                            f"one round, budget S={memory_words}"
                        )
                self._spill(machines, sid)
            for dst_sid in range(num_shards):
                _flush(dst_sid)
        finally:
            for spool in spools:
                if spool is not None:
                    spool.close()

        max_received = max(received_words, default=0)
        if enforce:
            for mid, words in enumerate(received_words):
                if words > memory_words:
                    raise MPCViolationError(
                        f"machine {mid} received {words} words in one "
                        f"round, budget S={memory_words}"
                    )

        # Phase B: deliver.  Each shard's spool is replayed in write
        # order — sender id ascending, then send order — which is the
        # serial arrival order.  Every machine gets a fresh inbox (an
        # empty one if nothing arrived), exactly like the serial path.
        for sid in range(num_shards):
            self._load(machines, sid)
            for mid in self._shards[sid]:
                machines[mid].inbox = []
            spool_path = self._spool_path(sid)
            if os.path.exists(spool_path):
                with open(spool_path, "rb") as handle:
                    while True:
                        try:
                            chunk = pickle.load(handle)
                        except EOFError:
                            break
                        for dst, payload in chunk:
                            machines[dst].inbox.append(payload)
                os.unlink(spool_path)
            self._spill(machines, sid)

        return ExchangeStats(
            total_messages=total_messages,
            total_words=total_words,
            max_sent=max_sent,
            max_received=max_received,
            received_per_machine=received_words,
            sent_per_machine=sent_per_machine,
        )

    # -- driver access --------------------------------------------------
    def run_harvest(
        self,
        machines: Sequence[Machine],
        fn: MachineFn,
        only: Optional[Sequence[int]] = None,
    ) -> List[object]:
        self._attach(machines)
        self._stats["harvests"] += 1
        if only is None:
            target_ids = list(range(len(machines)))
        else:
            target_ids = list(only)
        by_shard: Dict[int, List[int]] = {}
        for mid in target_ids:
            by_shard.setdefault(self._shard_of[mid], []).append(mid)
        results: Dict[int, object] = {}
        for sid in sorted(by_shard):
            self._load(machines, sid)
            for mid in sorted(by_shard[sid]):
                results[mid] = fn(machines[mid])
            # fn may have mutated (popped a staging key, planted a
            # value): the spill persists it.
            self._spill(machines, sid)
        return [results[mid] for mid in target_ids]
