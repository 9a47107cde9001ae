"""Structured superstep tracing and budget auditing.

The paper's claims are round/communication/memory claims, which makes
the simulator a measurement instrument — and :class:`RunMetrics` only
reports end-of-run aggregates.  :class:`TraceRecorder` captures *where
inside a run* the budget pressure and wall-clock go: one structured
event per superstep (local and communication), per-machine send/receive
words, per-machine memory high-water marks, and the execution backend's
step/shard counters, all labelled with the active phase.

Two exports ship:

* **JSONL** (:meth:`TraceRecorder.write_jsonl`) — one JSON object per
  line: a ``meta`` header, ``phase`` marks, ``local`` / ``round``
  events, ``budget_warning`` records, and a closing ``summary``.  The
  per-round ``words`` fields sum exactly to ``RunMetrics.total_words``
  (pinned by test), so the trace is an audit trail for the aggregate
  numbers, not a parallel bookkeeping that can drift.
* **Chrome trace format** (:meth:`TraceRecorder.write_chrome_trace`) —
  loadable in ``chrome://tracing`` or Perfetto: supersteps as duration
  events on one simulator track, phases as instant marks, and counter
  tracks for words sent and budget headroom per round.

A **budget auditor** rides along: whenever a machine's per-round send,
per-round receive, or post-superstep memory reaches
:data:`WARN_UTILIZATION` (90%) of the budget ``S``, a
``budget_warning`` record is emitted — early visibility *before* the
hard :class:`~repro.errors.MPCViolationError` fault would fire.

Tracing is strictly an observer: the recorder is only consulted when
one is handed to the simulator, never feeds a
value back into the simulator or an algorithm, and stores wall-clock
only in trace events — so traced and untraced runs are bit-identical in
members, rounds, and words (pinned by test).
"""

from __future__ import annotations

import json
import math
from collections import deque
from typing import Any, Dict, List, Optional, Sequence

SCHEMA_VERSION = 1

#: Fraction of the budget ``S`` at which the auditor starts warning.
WARN_UTILIZATION = 0.9

#: Latency records a :class:`DaemonTrace` keeps: the most recent ones.
LATENCY_WINDOW = 1024


def _nearest_rank(sorted_values: List[float], quantile: float) -> float:
    """Nearest-rank percentile over an already-sorted, non-empty list."""
    rank = max(1, math.ceil(quantile * len(sorted_values)))
    return sorted_values[min(rank, len(sorted_values)) - 1]


# Chrome trace events need strictly positive durations to render; a
# superstep faster than the clock's resolution gets this floor (µs).
_MIN_DURATION_US = 0.001


class TraceRecorder:
    """Collects structured per-superstep events for one simulator run.

    The simulator calls the ``record_*`` hooks; everything else is
    read-side (export / inspection).  ``config`` is the run's
    :class:`~repro.mpc.config.MPCConfig` (only ``memory_words`` and
    ``num_machines`` are read).

    Attributes
    ----------
    backend:
        Name of the execution backend the run executes on, for the
        JSONL meta; the simulator sets it when handed the recorder.
    events:
        Superstep / phase events in emission order.  Every event dict
        carries ``type`` (``"phase"``, ``"local"``, or ``"round"``),
        ``ts_us`` / ``dur_us`` (monotone simulator-relative wall clock,
        microseconds), and ``phase``.
    warnings:
        Budget-audit records (``kind`` in ``sent`` / ``received`` /
        ``memory``) for every machine-superstep at or above
        ``WARN_UTILIZATION * S``.
    machine_peak_words:
        Per-machine memory high-water marks observed so far.
    """

    def __init__(self, config: Any):
        self.config = config
        self.backend = "serial"
        self.events: List[Dict[str, Any]] = []
        self.warnings: List[Dict[str, Any]] = []
        self.machine_peak_words: Dict[int, int] = {}
        self._clock_us = 0.0
        self._warned: set = set()  # (kind, machine, round) dedup

    # ------------------------------------------------------------------
    # Hooks (called by the simulator; order defines the trace clock)
    # ------------------------------------------------------------------
    def record_phase(self, name: str, round_index: int) -> None:
        """Mark the start of a named phase (instant event)."""
        self.events.append(
            {
                "type": "phase",
                "phase": name,
                "round": round_index,
                "ts_us": self._clock_us,
                "dur_us": 0.0,
            }
        )

    def record_local(
        self,
        *,
        round_index: int,
        phase: str,
        elapsed_s: float,
        backend_stats: Dict[str, int],
    ) -> None:
        """Record one local superstep (no round consumed)."""
        self.events.append(
            {
                "type": "local",
                "phase": phase,
                "round": round_index,
                **self._advance(elapsed_s),
                "backend": dict(backend_stats),
            }
        )

    def record_round(
        self,
        *,
        round_index: int,
        phase: str,
        elapsed_s: float,
        messages: int,
        words: int,
        max_sent: int,
        max_received: int,
        sent_per_machine: Sequence[int],
        received_per_machine: Sequence[int],
        backend_stats: Dict[str, int],
    ) -> None:
        """Record one communication superstep and audit its budgets."""
        headroom = self.config.memory_words - max(max_sent, max_received)
        event = {
            "type": "round",
            "phase": phase,
            "round": round_index,
            **self._advance(elapsed_s),
            "messages": messages,
            "words": words,
            "max_sent": max_sent,
            "max_received": max_received,
            "headroom_words": headroom,
            "sent_per_machine": list(sent_per_machine),
            "received_per_machine": list(received_per_machine),
            "backend": dict(backend_stats),
        }
        self.events.append(event)
        for mid, sent in enumerate(sent_per_machine):
            self._audit("sent", mid, round_index, sent)
        for mid, received in enumerate(received_per_machine):
            self._audit("received", mid, round_index, received)

    def record_memory(self, mid: int, words: int, round_index: int) -> None:
        """Record a machine's post-superstep residency; audit vs ``S``."""
        if words > self.machine_peak_words.get(mid, -1):
            self.machine_peak_words[mid] = words
        self._audit("memory", mid, round_index, words)

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    def round_events(self) -> List[Dict[str, Any]]:
        """The communication-superstep events, in round order."""
        return [ev for ev in self.events if ev["type"] == "round"]

    def total_words(self) -> int:
        """Sum of per-round words (must equal ``RunMetrics.total_words``)."""
        return sum(ev["words"] for ev in self.round_events())

    def min_headroom_words(self) -> int:
        """Worst per-round headroom seen (``S`` when no round ran).

        Never negative: the simulator faults a round past budget before
        it is recorded.
        """
        rounds = self.round_events()
        if not rounds:
            return self.config.memory_words
        return min(ev["headroom_words"] for ev in rounds)

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def jsonl_lines(self) -> List[str]:
        """The trace as JSON lines: meta, events, warnings, summary."""
        meta = {
            "type": "meta",
            "schema": SCHEMA_VERSION,
            "num_machines": self.config.num_machines,
            "memory_words": self.config.memory_words,
            "backend": self.backend,
            "warn_utilization": WARN_UTILIZATION,
        }
        summary = {
            "type": "summary",
            "rounds": len(self.round_events()),
            "total_words": self.total_words(),
            "min_headroom_words": self.min_headroom_words(),
            "peak_memory_words": max(
                self.machine_peak_words.values(), default=0
            ),
            "budget_warnings": len(self.warnings),
        }
        records = [meta, *self.events, *self.warnings, summary]
        return [json.dumps(record, sort_keys=True) for record in records]

    def write_jsonl(self, path) -> None:
        """Write the JSONL export to ``path``."""
        with open(path, "w") as handle:
            handle.write("\n".join(self.jsonl_lines()) + "\n")

    def chrome_trace_events(self) -> List[Dict[str, Any]]:
        """The trace in Chrome trace format (``chrome://tracing``).

        Supersteps become duration (``ph: "X"``) events on one
        "simulator" track; phase marks become instant events; words and
        budget headroom become counter tracks.  Timestamps are the
        monotone trace clock, in microseconds.
        """
        out: List[Dict[str, Any]] = [
            {
                "name": "process_name",
                "ph": "M",
                "pid": 0,
                "args": {"name": "mpc-simulator"},
            }
        ]
        for ev in self.events:
            if ev["type"] == "phase":
                out.append(
                    {
                        "name": ev["phase"],
                        "cat": "phase",
                        "ph": "i",
                        "s": "g",
                        "ts": ev["ts_us"],
                        "pid": 0,
                        "tid": 0,
                    }
                )
                continue
            name = (
                f"round {ev['round']}"
                if ev["type"] == "round"
                else "local"
            )
            args: Dict[str, Any] = {"phase": ev["phase"]}
            if ev["type"] == "round":
                args.update(
                    words=ev["words"],
                    messages=ev["messages"],
                    max_sent=ev["max_sent"],
                    max_received=ev["max_received"],
                    headroom_words=ev["headroom_words"],
                )
            out.append(
                {
                    "name": name,
                    "cat": ev["type"],
                    "ph": "X",
                    "ts": ev["ts_us"],
                    "dur": ev["dur_us"],
                    "pid": 0,
                    "tid": 0,
                    "args": args,
                }
            )
            if ev["type"] == "round":
                for counter, value in (
                    ("words sent", ev["words"]),
                    ("budget headroom", ev["headroom_words"]),
                ):
                    out.append(
                        {
                            "name": counter,
                            "ph": "C",
                            "ts": ev["ts_us"],
                            "pid": 0,
                            "args": {counter: value},
                        }
                    )
        return out

    def write_chrome_trace(self, path) -> None:
        """Write the Chrome-trace export (one JSON object) to ``path``."""
        payload = {
            "traceEvents": self.chrome_trace_events(),
            "displayTimeUnit": "ms",
        }
        with open(path, "w") as handle:
            json.dump(payload, handle)
            handle.write("\n")

    def format_warnings(self) -> List[str]:
        """Human-readable budget-audit lines (for CLI / CI output)."""
        lines = []
        for w in self.warnings:
            lines.append(
                f"round {w['round']}: machine {w['machine']} "
                f"{w['kind']} {w['words']}/{w['budget']} words "
                f"({100.0 * w['utilization']:.1f}% of S)"
            )
        return lines

    # ------------------------------------------------------------------
    # Internal
    # ------------------------------------------------------------------
    def _advance(self, elapsed_s: float) -> Dict[str, float]:
        """Allocate a monotone [ts, ts+dur) slot on the trace clock."""
        dur_us = max(elapsed_s * 1e6, _MIN_DURATION_US)
        slot = {
            "ts_us": round(self._clock_us, 3),
            "dur_us": round(dur_us, 3),
        }
        self._clock_us = round(self._clock_us + dur_us, 3)
        return slot

    def _audit(self, kind: str, mid: int, round_index: int, words: int) -> None:
        budget = self.config.memory_words
        if words < WARN_UTILIZATION * budget:
            return
        key = (kind, mid, round_index)
        if key in self._warned:
            return
        self._warned.add(key)
        self.warnings.append(
            {
                "type": "budget_warning",
                "kind": kind,
                "machine": mid,
                "round": round_index,
                "words": words,
                "budget": budget,
                "utilization": round(words / budget, 4),
            }
        )


class ServiceTrace:
    """Structured observability for the serve layer (:mod:`repro.serve`).

    Where :class:`TraceRecorder` watches one simulator run from the
    inside, ``ServiceTrace`` watches the layer *above* it: cache hits /
    misses / stores / evictions, request dedup, and per-request
    execution outcomes in the batch engine.  Same design contract as the
    superstep trace — a pure observer with a JSONL export (``meta``
    header, one event per record, closing ``summary``), never a value
    fed back into a solve — so traced and untraced service runs produce
    bit-identical output records.

    Events carry a monotone sequence number instead of wall clock: the
    export participates in record-for-record comparisons between serial
    and parallel engine runs, which timing would break.

    The serve *daemon* additionally needs per-request latency
    attribution — how long a request sat in the admission queue versus
    how long its solve ran — which is wall clock by definition.  Those
    records live in a separate ``latencies`` list (exported as
    ``type: "latency"`` lines between the events and the summary), so
    the deterministic event stream stays byte-comparable while the
    timing side channel rides alongside, mirroring the ``_serve`` /
    ``_meta`` split the output records use.
    """

    #: Counter keys every summary reports (zero-initialised so the
    #: summary shape is stable whether or not an event kind occurred).
    COUNTER_KINDS = (
        "cache_hit",
        "cache_miss",
        "cache_store",
        "cache_eviction",
        "dedup",
        "executed",
        "failed",
        "refused",
    )

    #: The per-request latency stages the daemon attributes: time spent
    #: queued behind admission control, time executing the solve, and
    #: the end-to-end total (queue + execute + scheduling overhead).
    LATENCY_STAGES = ("queue_s", "execute_s", "total_s")

    def __init__(self) -> None:
        self.events: List[Dict[str, Any]] = []
        self.latencies: List[Dict[str, Any]] = []
        self.counters: Dict[str, int] = {
            kind: 0 for kind in self.COUNTER_KINDS
        }
        self._seq = 0

    def record(self, kind: str, **fields: Any) -> None:
        """Append one service event and bump its counter."""
        self._seq += 1
        self.counters[kind] = self.counters.get(kind, 0) + 1
        self.events.append({"type": kind, "seq": self._seq, **fields})

    def record_latency(
        self,
        *,
        id: object,
        outcome: str,
        queue_s: float,
        execute_s: float,
        total_s: float,
        tenant: Optional[str] = None,
    ) -> None:
        """Attribute one served request's wall clock to its stages.

        ``queue_s`` is admission-to-execution-start, ``execute_s`` the
        solve itself, ``total_s`` admission-to-response.  Latency
        records are kept apart from the deterministic event stream (see
        the class docstring); ``outcome`` is the response status
        (``ok`` / ``failed`` / ``invalid``), so percentiles can be
        read per outcome.  Refusals are *not* latency records — they
        are counted under ``refused`` and answered inline.
        """
        entry: Dict[str, Any] = {
            "type": "latency",
            "id": id,
            "outcome": outcome,
            "queue_s": round(queue_s, 6),
            "execute_s": round(execute_s, 6),
            "total_s": round(total_s, 6),
        }
        if tenant is not None:
            entry["tenant"] = tenant
        self.latencies.append(entry)

    def latency_summary(self) -> Dict[str, Any]:
        """Per-stage p50/p95/p99 latency (milliseconds) over all requests.

        Percentiles use the nearest-rank method, so every reported
        number is a latency that actually occurred.  Returns
        ``{"count": 0}`` when nothing has been served yet.
        """
        summary: Dict[str, Any] = {"count": len(self.latencies)}
        if not self.latencies:
            return summary
        for stage in self.LATENCY_STAGES:
            values = sorted(entry[stage] for entry in self.latencies)
            summary[stage.replace("_s", "_ms")] = {
                f"p{percent}": round(
                    1000.0 * _nearest_rank(values, percent / 100.0), 3
                )
                for percent in (50, 95, 99)
            }
        return summary

    def summary(self) -> Dict[str, Any]:
        """The closing summary record (also useful without an export)."""
        summary = {"type": "summary", "events": self._seq,
                   **dict(sorted(self.counters.items()))}
        if self.latencies:
            summary["latency_ms"] = self.latency_summary()
        return summary

    def jsonl_lines(self) -> List[str]:
        """The service trace as JSON lines: meta, events, latencies, summary."""
        meta = {"type": "meta", "schema": SCHEMA_VERSION, "layer": "serve"}
        records = [meta, *self.events, *self.latencies, self.summary()]
        return [json.dumps(record, sort_keys=True) for record in records]

    def write_jsonl(self, path) -> None:
        """Write the JSONL export to ``path``."""
        with open(path, "w") as handle:
            handle.write("\n".join(self.jsonl_lines()) + "\n")


class DaemonTrace(ServiceTrace):
    """The :class:`ServiceTrace` of a long-running serve daemon.

    The daemon reads only the counters and :meth:`latency_summary`, so
    this trace keeps the counters exact, only the latest
    :data:`LATENCY_WINDOW` latency records (the percentiles cover
    those), and no events: its memory stays bounded however long the
    daemon serves.  Its JSONL export is the meta header, the retained
    latency records and the summary, which still counts every event.
    """

    def __init__(self) -> None:
        super().__init__()
        self.latencies = deque(maxlen=LATENCY_WINDOW)

    def record(self, kind: str, **fields: Any) -> None:
        """Count one service event without keeping it."""
        self._seq += 1
        self.counters[kind] = self.counters.get(kind, 0) + 1
