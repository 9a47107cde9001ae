"""The MPC superstep engine.

An algorithm drives the simulator through two verbs:

``local(fn, only=None)``
    Run ``fn(machine)`` on every machine.  Free (no round consumed) —
    in the MPC model local computation within a round is unbounded — but
    memory budgets are still enforced afterwards.  A backend may run
    ``fn`` at each shard's next visit instead of now (see below).

``communicate(fn, only=None)``
    Run ``fn(machine)`` on every machine; it returns the messages it
    sends as ``(dst, payload)`` pairs, each payload a flat tuple of int
    words.  Route and check them, enforce the per-machine send/receive
    budget ``S``, deliver inboxes, and advance the round counter.

``only`` names the step's participants, the machines that can act in
it; ``fn`` runs on them alone, and in an exchange every other machine
sends nothing and gets an empty inbox.  A step whose callback is idle
on most machines (a reduction level, a broadcast level) thus costs
what its participants do.  None means every machine.

Determinism: machines are processed in id order and each inbox is sorted by
``(sender id, arrival index)``, so a simulated run is a pure function of
(algorithm, input, config).

*Execution* of a superstep is delegated to a pluggable
:class:`~repro.mpc.backends.SuperstepBackend`: ``queue_local`` for a
local step, ``run_exchange`` (callbacks, routing, budget checks,
delivery) for a communicate step.  Serial runs when no backend is
given; the out-of-core shard backend keeps one shard of machines
resident.
Backends change wall-clock only: machines are visited and messages
delivered in the same order, so every backend yields the identical run.  The simulator
keeps one superstep tail for all of them — round metrics, memory
audit, trace.  Each superstep's wall-clock, memory audit
included, is recorded into :class:`~repro.mpc.metrics.RunMetrics` (per
phase) so simulator performance is measured, never
asserted.

Late reports: a backend reports each superstep's per-machine words
when it knows them, which for a deferred local step is after its last
shard has replayed it.  Tails wait in a FIFO and complete in issue
order, each with the round index and phase current when its step was
issued, so metrics, trace and budget faults come out in
the serial order on every backend; the serial backend reports at once
through the same path.  :meth:`Simulator.settle` forces every pending
tail.  Deferred work counts toward wall-clock where it runs: inside a
later superstep's time, or in no superstep when a harvest or settle
replays it.

Budget enforcement is always on: a machine exceeding its memory
budget, or sending/receiving more than ``S`` words in one superstep, aborts
the run with :class:`~repro.errors.MPCViolationError`, so every measured
round count comes from a model-legal execution.  The memory audit
checks only the machines a step touched (the backend's report); every
other machine keeps its last reported words, which were within budget
then and have not changed since.  So the peak and the first
over-budget machine in id order are those a full audit would find.

When a :class:`~repro.mpc.trace.TraceRecorder` is given, each
superstep additionally emits a structured event — per-machine words
sent/received, memory high-water, budget headroom, active phase,
backend counters — and the budget auditor warns when utilization
crosses 90% of ``S`` *before* the hard fault would fire.  The recorder
gets every machine's words after each superstep, read from the
last-reported words without re-pricing.  Tracing is a
pure observer: every hook is gated on ``self.trace is not None`` (zero
cost when disabled) and nothing recorded ever feeds back into routing,
enforcement, or algorithm state, so traced runs stay bit-identical.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Callable, Deque, Iterable, List, Optional, Sequence, Tuple

from repro.errors import MPCViolationError
from repro.mpc.backends import (
    Report,
    SerialBackend,
    SuperstepBackend,
    step_participants,
)
from repro.mpc.config import MPCConfig
from repro.mpc.machine import Machine
from repro.mpc.metrics import RunMetrics
from repro.mpc.trace import TraceRecorder

MachineFn = Callable[[Machine], Optional[Iterable[Tuple[int, Tuple[int, ...]]]]]

#: A superstep tail waiting in the FIFO: whether it takes a report, and
#: the bookkeeping that runs on it (a phase mark takes none).
_Tail = Tuple[bool, Callable[[Optional[List[int]]], None]]

class Simulator:
    """Executes MPC supersteps under a fixed :class:`MPCConfig`.

    ``backend`` is the execution backend (a
    :class:`~repro.mpc.backends.SerialBackend` when None); it selects
    *how* callbacks run, never what they compute.  ``trace`` is the
    recorder that observes the run (none when None); the simulator
    stamps it with the backend's name.
    """

    def __init__(
        self,
        config: MPCConfig,
        backend: Optional[SuperstepBackend] = None,
        trace: Optional[TraceRecorder] = None,
    ):
        self.config = config
        self.machines: List[Machine] = [
            Machine(mid) for mid in range(config.num_machines)
        ]
        self.metrics = RunMetrics()
        self.backend: SuperstepBackend = (
            backend if backend is not None else SerialBackend()
        )
        self.trace: Optional[TraceRecorder] = trace
        if trace is not None:
            trace.backend = self.backend.name
        # Tails waiting for their reports, oldest first.
        self._tails: Deque[_Tail] = deque()
        # Every machine's words at its last report.
        self._words: List[int] = [0] * config.num_machines

    # ------------------------------------------------------------------
    # Supersteps
    # ------------------------------------------------------------------
    def local(
        self,
        fn: Callable[[Machine], None],
        only: Optional[Iterable[int]] = None,
    ) -> None:
        """Apply a local computation to the participants (no round cost).

        ``only`` selects distinct machine ids (every machine when None);
        ``fn`` runs on them in id order.  The backend may run ``fn`` at
        each shard's next visit; the step's audit and trace event then
        complete when it reports, still in issue order.
        """
        started = time.perf_counter()
        participants = step_participants(self.num_machines, only)
        self._call(
            self.backend.queue_local, self.machines, fn, only=participants
        )
        issue_s = time.perf_counter() - started
        round_index = self.metrics.rounds
        phase = self.metrics.current_phase()

        def finish(report: Report) -> None:
            audit_started = time.perf_counter()
            fault = self._check_memory(report)
            elapsed = issue_s + time.perf_counter() - audit_started
            self.metrics.record_elapsed(elapsed, phase)
            if self.trace is not None:
                self.trace.record_local(
                    round_index=round_index,
                    phase=phase,
                    elapsed_s=elapsed,
                    backend_stats=self.backend.stats(),
                )
            self._finish_audit(fault, round_index)

        self._tails.append((True, finish))
        self._drain()

    def communicate(
        self, fn: MachineFn, only: Optional[Iterable[int]] = None
    ) -> None:
        """One communication superstep.

        ``fn`` runs on each participant (every machine when ``only`` is
        None) and returns the messages it sends this round (or None).
        The backend routes all messages simultaneously — synchronous
        semantics: nothing sent this round is visible until the round
        completes — and reports the round's aggregates.
        """
        started = time.perf_counter()
        participants = step_participants(self.num_machines, only)
        stats = self._call(
            self.backend.run_exchange,
            self.machines,
            fn,
            memory_words=self.config.memory_words,
            want_sent_per_machine=self.trace is not None,
            only=participants,
        )
        exchange_s = time.perf_counter() - started
        phase = self.metrics.current_phase()

        def finish(report: Report) -> None:
            self.metrics.record_round(
                messages=stats.total_messages,
                words=stats.total_words,
                max_sent=stats.max_sent,
                max_received=stats.max_received,
            )
            audit_started = time.perf_counter()
            fault = self._check_memory(report)
            elapsed = exchange_s + time.perf_counter() - audit_started
            self.metrics.record_elapsed(elapsed, phase)
            if self.trace is not None:
                self.trace.record_round(
                    round_index=self.metrics.rounds,
                    phase=phase,
                    elapsed_s=elapsed,
                    messages=stats.total_messages,
                    words=stats.total_words,
                    max_sent=stats.max_sent,
                    max_received=stats.max_received,
                    sent_per_machine=stats.sent_per_machine,
                    received_per_machine=stats.received_per_machine,
                    backend_stats=self.backend.stats(),
                )
            self._finish_audit(fault, self.metrics.rounds)

        self._tails.append((True, finish))
        self._drain()

    def settle(self) -> None:
        """Run every deferred local step and complete every tail.

        Call before reading :attr:`metrics` or the backend's counters
        when local steps may still be pending.
        """
        self._call(self.backend.settle)
        self._drain()

    # ------------------------------------------------------------------
    # Conveniences
    # ------------------------------------------------------------------
    def begin_phase(self, name: str) -> None:
        """Label subsequent rounds with a phase name (for metrics)."""
        self.metrics.begin_phase(name)
        if self.trace is not None:
            # Queued behind pending tails, so the mark keeps its place
            # among the superstep events.
            round_index = self.metrics.rounds
            self._tails.append(
                (False, lambda _: self.trace.record_phase(name, round_index))
            )
            self._drain()

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

        Applies ``fn`` to the selected machines (all of them when
        ``only`` is None) in id order and returns the results in the
        order requested.  This is the only sanctioned way for driver code
        to touch machine stores between supersteps: state-owning backends
        page the right shard in, persist any mutation ``fn`` made, and
        keep their memory accounting coherent.  On in-memory backends it
        degenerates to a plain loop.  A machine id outside ``0..k-1``,
        or one named twice, raises :class:`~repro.errors.MPCRoutingError`.
        """
        results = self._call(self.backend.run_harvest, self.machines, fn, only)
        self._drain()
        return results

    def shutdown(self) -> None:
        """Release backend resources (spill files); safe to call twice.

        Pending local steps are dropped, not run: this is also the error
        path.
        """
        self._tails.clear()
        self.backend.shutdown()

    def __enter__(self) -> "Simulator":
        return self

    def __exit__(self, exc_type, *exc) -> None:
        try:
            if exc_type is None:
                self.settle()
        finally:
            self.shutdown()

    @property
    def num_machines(self) -> int:
        """Machine count ``k``."""
        return len(self.machines)

    # ------------------------------------------------------------------
    # Internal
    # ------------------------------------------------------------------
    def _call(self, method, *args, **kwargs):
        """Call into the backend; a failure first completes earlier tails.

        A backend that fails mid-visit has already replayed the earlier
        pending steps everywhere, so an earlier step's fault (its report)
        outranks the failure, as in serial order.
        """
        try:
            return method(*args, **kwargs)
        except BaseException:
            self._drain()
            raise

    def _drain(self) -> None:
        """Complete waiting tails in issue order, as far as reports go."""
        reports = self.backend.take_reports()
        tails = self._tails
        taken = 0
        while tails:
            takes_report, finish = tails[0]
            report = None
            if takes_report:
                if taken == len(reports):
                    return
                report = reports[taken]
                taken += 1
            tails.popleft()
            if isinstance(report, BaseException):
                raise report
            finish(report)

    def _check_memory(self, report: Report) -> Optional[int]:
        """Audit a superstep's report; return the first over-budget id.

        The report's words become the machines' last-known words.  Only
        the machines it names are checked: any other machine was within
        budget at its last report and has not changed since.  The peak
        takes the machines up to the first over-budget one in id order,
        as a full scan that stops there would.
        """
        budget = self.config.memory_words
        if type(report) is list:
            self._words = report
            items: Iterable[Tuple[int, int]] = enumerate(report)
            top = max(report, default=0)
        else:
            words = self._words
            for mid, w in report.items():
                words[mid] = w
            items = report.items()
            top = max(report.values(), default=0)
        if top <= budget:
            self.metrics.record_memory(top)
            return None
        # Only an overrun pays the id-order scan for the first one.  Every
        # machine before it is within budget, so its words are the peak.
        fault = next(mid for mid, w in items if w > budget)
        self.metrics.record_memory(self._words[fault])
        return fault

    def _finish_audit(self, fault: Optional[int], round_index: int) -> None:
        """Feed the trace every machine's words, then raise ``fault``.

        On a fault the trace sees the machines up to the faulting one,
        as the id-order audit met them.
        """
        words = self._words
        if self.trace is not None:
            last = len(words) if fault is None else fault + 1
            for mid in range(last):
                self.trace.record_memory(mid, words[mid], round_index)
        if fault is not None:
            raise MPCViolationError(
                f"machine {fault} holds {words[fault]} words, budget "
                f"S={self.config.memory_words}"
            )
