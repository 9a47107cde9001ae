"""Pluggable execution backends for the MPC superstep engine.

The :class:`~repro.mpc.simulator.Simulator` delegates the *execution* of
machine callbacks to a backend; routing, budget enforcement, and metrics
stay in the simulator.  Two backends ship:

``SerialBackend``
    Runs every callback in machine-id order in the calling process —
    bit-identical to the historical simulator behaviour and the default.

``ProcessPoolBackend``
    Fans machine callbacks across a pool of worker processes.  Machines
    are partitioned into contiguous id-ordered chunks; each worker runs
    the callback on its chunk and ships the mutated stores (and, for
    communication steps, the outboxes) back.  Results are merged in
    machine-id order, so message routing sees exactly the sequence the
    serial backend produces — **determinism is preserved by
    construction**, only wall-clock changes.

    Callbacks are serialized with ``cloudpickle`` when available (which
    handles the closures the algorithms use); with plain ``pickle`` only
    module-level functions survive.  A callback that cannot be
    serialized falls back to in-process serial execution for that call
    (counted in :meth:`ProcessPoolBackend.stats`), so the backend is
    always safe to enable.

Backend contract: a callback may read and mutate *only the machine it is
given*.  Every callback in this repository honours that (machine state is
the sole side channel), which is what makes process isolation sound.
"""

from __future__ import annotations

import os
import pickle
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.errors import MPCConfigError
from repro.mpc.machine import Machine
from repro.mpc.message import Message

try:  # cloudpickle serializes closures; optional, never required.
    import cloudpickle as _fn_pickle
except ImportError:  # pragma: no cover - environment without cloudpickle
    _fn_pickle = pickle

MachineFn = Callable[[Machine], object]

LOCAL_STEP = "local"
COMMUNICATE_STEP = "communicate"


@dataclass
class ExchangeStats:
    """What the simulator needs to know about a routed exchange.

    A state-owning backend (``routes_messages = True``) performs the
    whole route-validate-deliver cycle itself, because the driver process
    never holds all machines at once.  It reports back exactly the
    aggregates the simulator's own routing loop would have produced, so
    metrics and traces are bit-identical across backends.
    """

    total_messages: int = 0
    total_words: int = 0
    max_sent: int = 0
    max_received: int = 0
    received_per_machine: List[int] = field(default_factory=list)
    #: Populated only when the simulator is tracing (per-machine sent
    #: words are O(k) per round; skipped otherwise).
    sent_per_machine: Optional[List[int]] = None


class SuperstepBackend:
    """How one superstep's machine callbacks get executed.

    Subclasses implement :meth:`run_local` and :meth:`run_communicate`;
    both must process machines in id order (or merge results as if they
    had), because routing determinism depends on it.

    Two capability flags extend the contract for out-of-core backends:

    ``owns_state``
        The backend spills machine state out of the driver process
        between supersteps; driver-side code must read machine stores
        through :meth:`run_harvest` (never ``machines[i].store``
        directly) and memory audits come from :meth:`memory_snapshot`.

    ``routes_messages``
        The backend performs the inter-machine exchange itself via
        :meth:`run_exchange` (validation, budget enforcement, delivery),
        instead of returning outboxes for the simulator to route.
    """

    name = "abstract"
    owns_state = False
    routes_messages = False

    def run_local(self, machines: Sequence[Machine], fn: MachineFn) -> None:
        """Apply ``fn`` to every machine, mutating stores in place."""
        raise NotImplementedError

    def run_communicate(
        self, machines: Sequence[Machine], fn: MachineFn
    ) -> List[List[Message]]:
        """Apply ``fn`` to every machine; return outboxes in id order."""
        raise NotImplementedError

    def run_exchange(
        self,
        machines: Sequence[Machine],
        fn: MachineFn,
        *,
        memory_words: int,
        enforce: bool = True,
        want_sent_per_machine: bool = False,
    ) -> ExchangeStats:
        """Route one full exchange (``routes_messages`` backends only).

        Must raise exactly the errors the simulator's serial routing loop
        raises — same types, same messages, same machine-id order — and
        deliver payloads in arrival order (sender id ascending, then send
        order within a sender).
        """
        raise NotImplementedError(
            f"backend {self.name!r} does not route messages"
        )

    def run_harvest(
        self,
        machines: Sequence[Machine],
        fn: MachineFn,
        only: Optional[Sequence[int]] = None,
    ) -> List[object]:
        """Apply a driver-side read (or plant) to machines, keeping state.

        ``only`` selects machine ids; results come back in the order
        requested (id order when ``only`` is None).  ``fn`` may mutate the
        machine (pop a staging key, plant a value) — state-owning
        backends persist the mutation to the spilled shard.
        """
        targets = machines if only is None else [machines[i] for i in only]
        return [fn(machine) for machine in targets]

    def memory_snapshot(self) -> Optional[List[int]]:
        """Per-machine word counts as of the last superstep, or None.

        State-owning backends return the words each machine held when its
        shard was spilled (priced by the same
        :meth:`~repro.mpc.machine.Machine.memory_words` audit); ``None``
        means "measure the live machines directly".
        """
        return None

    def resident_machines_hint(self) -> Optional[int]:
        """How many machines are resident at once, or None for "all".

        Driver-side per-machine caches (memoized estimators, CSR views)
        use this to bound themselves: holding cache entries for machines
        whose state is spilled to disk would silently rebuild the O(full
        graph) driver footprint the backend exists to avoid.
        """
        return None

    def shutdown(self) -> None:
        """Release any worker resources (idempotent)."""

    def stats(self) -> Dict[str, int]:
        """Execution counters (integer-valued, cheap to snapshot).

        The trace layer (:mod:`repro.mpc.trace`) snapshots this dict on
        every superstep for backend/worker attribution, so implementations
        must keep it small and allocation-light.
        """
        return {}


class SerialBackend(SuperstepBackend):
    """In-process execution in machine-id order (the historical path)."""

    name = "serial"

    def __init__(self):
        self._stats = {"local_steps": 0, "communicate_steps": 0}

    def run_local(self, machines: Sequence[Machine], fn: MachineFn) -> None:
        self._stats["local_steps"] += 1
        for machine in machines:
            fn(machine)

    def run_communicate(
        self, machines: Sequence[Machine], fn: MachineFn
    ) -> List[List[Message]]:
        self._stats["communicate_steps"] += 1
        outboxes: List[List[Message]] = []
        for machine in machines:
            sent = fn(machine)
            outboxes.append(list(sent) if sent is not None else [])
        return outboxes

    def stats(self) -> Dict[str, int]:
        return dict(self._stats)


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


def _run_chunk(fn_blob: bytes, step: str, state_blob: bytes) -> bytes:
    """Worker entry point: run one callback over one machine chunk.

    Receives the callback (cloudpickle) and the chunk's machine states
    (plain pickle: stores are flat integer containers, and a
    :class:`~repro.mpc.machine.Store` carries its cached prices both
    ways), returns the mutated states plus — for communication steps —
    the outbox payloads.
    """
    fn = _fn_pickle.loads(fn_blob)
    machines: List[Machine] = pickle.loads(state_blob)
    if step == LOCAL_STEP:
        for machine in machines:
            fn(machine)
        outboxes: Optional[List[List[Message]]] = None
    else:
        outboxes = []
        for machine in machines:
            sent = fn(machine)
            outboxes.append(list(sent) if sent is not None else [])
    states = [(m.store, m.inbox) for m in machines]
    return pickle.dumps((states, outboxes))


class ProcessPoolBackend(SuperstepBackend):
    """Fan machine callbacks across worker processes, deterministically.

    ``workers=0`` means one worker per CPU.  ``min_machines`` gates the
    fan-out: chunks smaller than it are not worth the serialization
    round-trip and run serially.  The pool is created lazily on first
    use and torn down by :meth:`shutdown` (the simulator calls it when
    the run ends, and it is safe to call repeatedly).

    **Broken-pool recovery.**  A worker that dies mid-superstep (OOM
    kill, stray signal) poisons the whole ``ProcessPoolExecutor``: every
    in-flight and future submission raises ``BrokenProcessPool``, and the
    executor never recovers on its own.  The backend treats that as a
    transient fault, not a fatal one: the dead pool is torn down, the
    superstep re-runs on the in-process serial path, and the *next*
    parallel step lazily builds a fresh pool.  Recovery is sound because
    worker results are only applied to the machines after **every** chunk
    has come back — a step that fails anywhere leaves the machines
    untouched, so the serial re-run applies the callback exactly once.
    Occurrences are counted in :meth:`stats` as ``broken_pool_recoveries``.
    """

    name = "process"

    def __init__(self, workers: int = 0, min_machines: int = 2):
        if workers < 0:
            raise MPCConfigError(f"workers must be >= 0, got {workers}")
        self.workers = workers or (os.cpu_count() or 1)
        self.min_machines = max(1, min_machines)
        self._executor = None
        self._serial = SerialBackend()
        self._stats = {
            "parallel_steps": 0,
            "serial_fallbacks": 0,
            "unpicklable_fallbacks": 0,
            "broken_pool_recoveries": 0,
            "chunks_dispatched": 0,
            "machines_shipped": 0,
        }

    # -- lifecycle ------------------------------------------------------
    def _pool(self):
        if self._executor is None:
            from concurrent.futures import ProcessPoolExecutor

            self._executor = ProcessPoolExecutor(max_workers=self.workers)
        return self._executor

    def shutdown(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    def stats(self) -> Dict[str, int]:
        out = dict(self._stats)
        out["workers"] = self.workers
        # Fold in the fallback path's counters so serial execution of
        # unpicklable or tiny steps stays attributed in traces.
        for key, value in self._serial.stats().items():
            out[f"fallback_{key}"] = value
        return out

    # -- execution ------------------------------------------------------
    def _serialize_fn(self, fn: MachineFn) -> Optional[bytes]:
        try:
            return _fn_pickle.dumps(fn)
        except Exception:
            return None

    def _dispatch(
        self, machines: Sequence[Machine], fn: MachineFn, step: str
    ) -> Optional[List[Optional[List[Message]]]]:
        """Run a superstep on the pool; None means "caller must go serial"."""
        if len(machines) < self.min_machines or self.workers < 2:
            self._stats["serial_fallbacks"] += 1
            return None
        fn_blob = self._serialize_fn(fn)
        if fn_blob is None:
            self._stats["unpicklable_fallbacks"] += 1
            return None
        chunks = _chunk_ranges(len(machines), self.workers)
        try:
            blobs = [
                pickle.dumps([machines[i] for i in chunk]) for chunk in chunks
            ]
        except Exception:
            self._stats["unpicklable_fallbacks"] += 1
            return None
        try:
            futures = [
                self._pool().submit(_run_chunk, fn_blob, step, blob)
                for blob in blobs
            ]
            # Collect *every* chunk before touching any machine: a pool
            # that breaks after some chunks returned must not leave a
            # half-applied superstep behind, or the serial re-run would
            # apply the callback twice to the already-mutated machines.
            payloads = [pickle.loads(future.result()) for future in futures]
        except BrokenProcessPool:
            self._recover_broken_pool()
            return None
        merged: List[Optional[List[Message]]] = [None] * len(machines)
        # Apply in submission (= id) order: completion order is
        # irrelevant to the result, so scheduling jitter cannot leak in.
        for chunk, (states, outboxes) in zip(chunks, payloads):
            for offset, mid in enumerate(chunk):
                store, inbox = states[offset]
                machines[mid].store = store
                machines[mid].inbox = inbox
                if outboxes is not None:
                    merged[mid] = outboxes[offset]
        self._stats["parallel_steps"] += 1
        self._stats["chunks_dispatched"] += len(chunks)
        self._stats["machines_shipped"] += len(machines)
        return merged

    def _recover_broken_pool(self) -> None:
        """Discard a poisoned executor; the next step rebuilds it lazily."""
        self._stats["broken_pool_recoveries"] += 1
        executor = self._executor
        self._executor = None
        if executor is not None:
            # The pool is already dead; don't block on its corpse.
            executor.shutdown(wait=False, cancel_futures=True)

    def run_local(self, machines: Sequence[Machine], fn: MachineFn) -> None:
        if self._dispatch(machines, fn, LOCAL_STEP) is None:
            self._serial.run_local(machines, fn)

    def run_communicate(
        self, machines: Sequence[Machine], fn: MachineFn
    ) -> List[List[Message]]:
        merged = self._dispatch(machines, fn, COMMUNICATE_STEP)
        if merged is None:
            return self._serial.run_communicate(machines, fn)
        return [outbox if outbox is not None else [] for outbox in merged]


def _make_shard_backend(workers: int) -> SuperstepBackend:
    # Imported lazily: repro.mpc.shard depends on this module.
    from repro.mpc.shard import ShardBackend

    return ShardBackend(num_shards=workers)


SHARD_BACKEND_NAME = "shard"

#: name → factory(workers).  ``workers`` means pool size for ``process``
#: and shard count for ``shard`` (0 → each backend's default).
BACKENDS = {
    SerialBackend.name: lambda workers: SerialBackend(),
    ProcessPoolBackend.name: lambda workers: ProcessPoolBackend(
        workers=workers
    ),
    SHARD_BACKEND_NAME: _make_shard_backend,
}


def resolve_backend(
    name: str, workers: int = 0
) -> SuperstepBackend:
    """Instantiate a backend by registry name.

    >>> resolve_backend("serial").name
    'serial'
    """
    if name not in BACKENDS:
        raise MPCConfigError(
            f"unknown backend {name!r}; choose from {sorted(BACKENDS)}"
        )
    return BACKENDS[name](workers)
