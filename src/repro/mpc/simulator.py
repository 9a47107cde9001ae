"""The MPC superstep engine.

An algorithm drives the simulator through two verbs:

``local(fn)``
    Run ``fn(machine)`` on every machine.  Free (no round consumed) —
    in the MPC model local computation within a round is unbounded — but
    memory budgets are still enforced afterwards.

``communicate(fn)``
    Run ``fn(machine) -> iterable[Message]`` on every machine, route the
    messages, enforce the per-machine send/receive budget ``S``, deliver
    inboxes, and advance the round counter.

Determinism: machines are processed in id order and each inbox is sorted by
``(sender id, arrival index)``, so a simulated run is a pure function of
(algorithm, input, config).

*Execution* of the machine callbacks is delegated to a pluggable
:class:`~repro.mpc.backends.SuperstepBackend` (serial by default; an
opt-in process pool fans callbacks across workers).  Backends change
wall-clock only: results are merged in machine-id order before routing,
so every backend yields the identical run.  Each superstep's wall-clock,
memory audit included, is recorded into
:class:`~repro.mpc.metrics.RunMetrics` (per round and per phase) so
simulator performance is measured, never asserted.

Budget enforcement is strict by default: a machine exceeding its memory
budget, or sending/receiving more than ``S`` words in one superstep, aborts
the run with :class:`~repro.errors.MPCViolationError`.  Benchmarks run
strict, certifying that measured round counts come from model-legal
executions.

When tracing is enabled (``MPCConfig.trace`` or an injected
:class:`~repro.mpc.trace.TraceRecorder`), each superstep additionally
emits a structured event — per-machine words sent/received, memory
high-water, budget headroom, active phase, backend counters — and the
budget auditor warns when utilization crosses the configured fraction of
``S`` *before* the hard fault would fire.  Tracing is a pure observer:
every hook is gated on ``self.trace is not None`` (zero cost when
disabled) and nothing recorded ever feeds back into routing,
enforcement, or algorithm state, so traced runs stay bit-identical.
"""

from __future__ import annotations

import os
import time
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

from repro.errors import MPCRoutingError, MPCViolationError
from repro.mpc.backends import SuperstepBackend, resolve_backend
from repro.mpc.config import MPCConfig
from repro.mpc.governor import GovernorPolicy, LoadGovernor
from repro.mpc.machine import Machine
from repro.mpc.message import Message
from repro.mpc.metrics import RunMetrics
from repro.mpc.trace import TraceRecorder

MachineFn = Callable[[Machine], Optional[Iterable[Message]]]

#: Environment override for the execution backend, mirroring
#: ``REPRO_KERNEL``: applied only when neither an explicit backend object
#: nor a non-default ``config.backend`` was chosen, so programmatic
#: choices always win.  This is how the shard-parity CI gate replays the
#: whole refactor-parity oracle under ``--backend shard`` without
#: touching the frozen oracle cells.
BACKEND_ENV = "REPRO_BACKEND"

#: Environment override enabling the load governor, mirroring the
#: backend/kernel overrides: applied only when the config did not opt in
#: itself, so programmatic choices win.  This is how CI replays the
#: refactor-parity oracle governed — the oracle's cells are feasible, so
#: under the DESIGN.md section 15 contract a governed replay must stay
#: bit-identical.
GOVERNED_ENV = "REPRO_GOVERNED"


class Simulator:
    """Executes MPC supersteps under a fixed :class:`MPCConfig`.

    ``backend`` overrides the execution backend named by
    ``config.backend`` (useful for injecting a pre-built or instrumented
    backend in tests); both select *how* callbacks run, never what they
    compute.  ``trace`` likewise overrides ``config.trace``: pass a
    :class:`TraceRecorder` to observe a run regardless of config.
    """

    def __init__(
        self,
        config: MPCConfig,
        enforce: bool = True,
        backend: Optional[SuperstepBackend] = None,
        trace: Optional[TraceRecorder] = None,
        governor: Optional[LoadGovernor] = None,
    ):
        self.config = config
        self.enforce = enforce
        self.machines: List[Machine] = [
            Machine(mid) for mid in range(config.num_machines)
        ]
        self.metrics = RunMetrics()
        if backend is not None:
            self.backend: SuperstepBackend = backend
        else:
            name = config.backend
            if name == "serial":
                name = os.environ.get(BACKEND_ENV) or name
            self.backend = resolve_backend(name, config.backend_workers)
        if trace is not None:
            self.trace: Optional[TraceRecorder] = trace
        elif config.trace:
            self.trace = TraceRecorder(config, config.trace_warn_utilization)
        else:
            self.trace = None
        if governor is not None:
            self.governor: Optional[LoadGovernor] = governor
        elif config.governed or os.environ.get(GOVERNED_ENV, "") not in (
            "", "0", "false",
        ):
            self.governor = LoadGovernor(
                config.memory_words,
                GovernorPolicy(
                    target_num=config.governor_target_percent,
                    target_den=100,
                ),
            )
        else:
            self.governor = None
        if self.governor is not None:
            attach = getattr(self.backend, "attach_governor", None)
            if attach is not None:
                attach(self.governor)

    # ------------------------------------------------------------------
    # Supersteps
    # ------------------------------------------------------------------
    def local(self, fn: Callable[[Machine], None]) -> None:
        """Apply a local computation to every machine (no round cost)."""
        started = time.perf_counter()
        self.backend.run_local(self.machines, fn)
        memory = self._price_memory()
        elapsed = time.perf_counter() - started
        self.metrics.record_elapsed(elapsed)
        if self.trace is not None:
            self.trace.record_local(
                round_index=self.metrics.rounds,
                phase=self.metrics.current_phase(),
                elapsed_s=elapsed,
                backend_stats=self.backend.stats(),
            )
        self._check_memory(memory)

    def communicate(self, fn: MachineFn) -> None:
        """One communication superstep.

        ``fn`` runs on each machine and returns the messages it sends this
        round (or None).  All messages are then routed simultaneously —
        synchronous semantics: nothing sent this round is visible until the
        round completes.
        """
        started = time.perf_counter()
        if self.backend.routes_messages:
            # A state-owning backend performs the whole route-validate-
            # deliver cycle itself (it cannot hand us all outboxes at
            # once without materializing the round's traffic) and reports
            # back the aggregates this loop would have produced.
            stats = self.backend.run_exchange(
                self.machines,
                fn,
                memory_words=self.config.memory_words,
                enforce=self.enforce,
                want_sent_per_machine=self.trace is not None,
            )
            self.metrics.record_round(
                messages=stats.total_messages,
                words=stats.total_words,
                max_sent=stats.max_sent,
                max_received=stats.max_received,
            )
            if self.governor is not None:
                # Same model quantities the trace records — wall clock
                # never reaches the governor.
                self.governor.observe_round(
                    words=stats.total_words,
                    max_sent=stats.max_sent,
                    max_received=stats.max_received,
                )
            memory = self._price_memory()
            elapsed = time.perf_counter() - started
            self.metrics.record_elapsed(elapsed, is_round=True)
            if self.trace is not None:
                self.trace.record_round(
                    round_index=self.metrics.rounds,
                    phase=self.metrics.current_phase(),
                    elapsed_s=elapsed,
                    messages=stats.total_messages,
                    words=stats.total_words,
                    max_sent=stats.max_sent,
                    max_received=stats.max_received,
                    sent_per_machine=stats.sent_per_machine,
                    received_per_machine=stats.received_per_machine,
                    backend_stats=self.backend.stats(),
                )
            self._check_memory(memory)
            return
        outboxes = self.backend.run_communicate(self.machines, fn)

        inboxes: List[List[Tuple[int, ...]]] = [
            [] for _ in self.machines
        ]
        received_words = [0] * len(self.machines)
        sent_per_machine = [0] * len(self.machines) if self.trace else None
        total_messages = 0
        total_words = 0
        max_sent = 0

        for sender, outbox in enumerate(outboxes):
            sent_words = 0
            for message in outbox:
                # Both bounds matter: a negative dst would silently wrap
                # via Python list indexing and deliver to machine k+dst.
                if not 0 <= message.dst < len(self.machines):
                    raise MPCRoutingError(
                        f"machine {sender} sent to nonexistent machine "
                        f"{message.dst} (k={len(self.machines)})"
                    )
                sent_words += message.words
                received_words[message.dst] += message.words
                inboxes[message.dst].append(message.payload)
                total_messages += 1
            total_words += sent_words
            max_sent = max(max_sent, sent_words)
            if sent_per_machine is not None:
                sent_per_machine[sender] = sent_words
            if self.enforce and sent_words > self.config.memory_words:
                raise MPCViolationError(
                    f"machine {sender} sent {sent_words} words in one round, "
                    f"budget S={self.config.memory_words}"
                )

        max_received = max(received_words, default=0)
        if self.enforce:
            for mid, words in enumerate(received_words):
                if words > self.config.memory_words:
                    raise MPCViolationError(
                        f"machine {mid} received {words} words in one "
                        f"round, budget S={self.config.memory_words}"
                    )

        for machine, inbox in zip(self.machines, inboxes):
            machine.inbox = inbox  # arrival order: sender id, then send order

        self.metrics.record_round(
            messages=total_messages,
            words=total_words,
            max_sent=max_sent,
            max_received=max_received,
        )
        if self.governor is not None:
            self.governor.observe_round(
                words=total_words,
                max_sent=max_sent,
                max_received=max_received,
            )
        memory = self._price_memory()
        elapsed = time.perf_counter() - started
        self.metrics.record_elapsed(elapsed, is_round=True)
        if self.trace is not None:
            self.trace.record_round(
                round_index=self.metrics.rounds,
                phase=self.metrics.current_phase(),
                elapsed_s=elapsed,
                messages=total_messages,
                words=total_words,
                max_sent=max_sent,
                max_received=max_received,
                sent_per_machine=sent_per_machine,
                received_per_machine=received_words,
                backend_stats=self.backend.stats(),
            )
        self._check_memory(memory)

    # ------------------------------------------------------------------
    # Conveniences
    # ------------------------------------------------------------------
    def begin_phase(self, name: str) -> None:
        """Label subsequent rounds with a phase name (for metrics)."""
        self.metrics.begin_phase(name)
        if self.trace is not None:
            self.trace.record_phase(name, self.metrics.rounds)

    def machine(self, mid: int) -> Machine:
        """Return machine ``mid``.

        Under a state-owning backend the returned object's store may be a
        cleared husk (the real state is spilled); driver-side reads must
        go through :meth:`harvest` instead.
        """
        return self.machines[mid]

    def harvest(
        self,
        fn: Callable[[Machine], object],
        only: Optional[Sequence[int]] = None,
    ) -> List[object]:
        """Driver-side read (or plant) against live machine state.

        Applies ``fn`` to the selected machines (all of them, in id
        order, when ``only`` is None) and returns the results in the
        order requested.  This is the only sanctioned way for driver code
        to touch machine stores between supersteps: state-owning backends
        page the right shard in, persist any mutation ``fn`` made, and
        keep their memory accounting coherent.  On in-memory backends it
        degenerates to a plain loop.
        """
        return self.backend.run_harvest(self.machines, fn, only)

    def shutdown(self) -> None:
        """Release backend resources (worker pools); safe to call twice."""
        self.backend.shutdown()

    def __enter__(self) -> "Simulator":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()

    @property
    def num_machines(self) -> int:
        """Machine count ``k``."""
        return len(self.machines)

    # ------------------------------------------------------------------
    # Internal
    # ------------------------------------------------------------------
    def _price_memory(self) -> List[int]:
        """Every machine's words after a superstep, in id order.

        Runs inside the superstep's clock, so ``wall_time_s`` and the
        trace's ``elapsed_s`` include the audit; :meth:`_check_memory`
        records and enforces the result after the superstep is logged.
        """
        snapshot = self.backend.memory_snapshot()
        if snapshot is not None:
            # State-owning backend: the words it priced at spill time
            # (same words_of contract, same id order, same fault).
            return snapshot
        return [machine.memory_words() for machine in self.machines]

    def _check_memory(self, memory: List[int]) -> None:
        for mid, words in enumerate(memory):
            self.metrics.record_memory(words)
            if self.trace is not None:
                self.trace.record_memory(mid, words, self.metrics.rounds)
            if self.governor is not None:
                self.governor.observe_memory(words)
            if self.enforce and words > self.config.memory_words:
                raise MPCViolationError(
                    f"machine {mid} holds {words} words, budget "
                    f"S={self.config.memory_words}"
                )
