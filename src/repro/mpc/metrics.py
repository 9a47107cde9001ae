"""Run metrics: the quantities the paper's theorems are *about*.

A theory paper's "cost" of an MPC algorithm is its round count, with
per-round communication and per-machine memory as side constraints.  The
simulator therefore records:

* ``rounds`` — number of communication supersteps;
* ``total_messages`` / ``total_words`` — global communication volume;
* ``max_words_sent`` / ``max_words_received`` — worst per-machine,
  per-round I/O observed (must stay ≤ S; the simulator enforces it);
* ``peak_memory_words`` — worst per-machine residency observed;
* ``phases`` — named round ranges, so benches can attribute rounds to
  algorithm stages (sparsify vs gather vs cleanup, seed search vs commit).

Alongside the model quantities the accumulator keeps **wall-clock
timing**: ``wall_time_s`` and ``time_per_phase`` (seconds attributed
to the phase each superstep was issued in, its memory audit and local
steps included); per-round
words and seconds are in the optional trace (:mod:`repro.mpc.trace`).
Wall-clock measures the *simulator*, not a cluster — it exists so
performance work on the simulator's hot paths (estimator caching,
execution backends) is measured rather than asserted.  Timing never
feeds back into any algorithmic decision, so runs stay bit-for-bit
deterministic in members/rounds/words.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional


@dataclass
class PhaseMark:
    """A named phase beginning at ``start_round``."""

    name: str
    start_round: int


@dataclass
class RunMetrics:
    """Mutable accumulator owned by a :class:`repro.mpc.Simulator`."""

    rounds: int = 0
    total_messages: int = 0
    total_words: int = 0
    max_words_sent: int = 0
    max_words_received: int = 0
    peak_memory_words: int = 0
    phases: List[PhaseMark] = field(default_factory=list)
    wall_time_s: float = 0.0
    time_per_phase: Dict[str, float] = field(default_factory=dict)

    UNPHASED = "(unphased)"

    def begin_phase(self, name: str) -> None:
        """Mark the start of a named phase at the current round."""
        self.phases.append(PhaseMark(name=name, start_round=self.rounds))

    def current_phase(self) -> str:
        """Name of the phase subsequent work is attributed to."""
        return self.phases[-1].name if self.phases else self.UNPHASED

    def record_round(
        self,
        messages: int,
        words: int,
        max_sent: int,
        max_received: int,
    ) -> None:
        """Record one communication superstep."""
        self.rounds += 1
        self.total_messages += messages
        self.total_words += words
        self.max_words_sent = max(self.max_words_sent, max_sent)
        self.max_words_received = max(self.max_words_received, max_received)

    def record_elapsed(self, seconds: float, phase: Optional[str] = None) -> None:
        """Attribute ``seconds`` of wall clock to ``phase`` (default: the
        current phase; a late superstep tail passes the phase it was
        issued in)."""
        self.wall_time_s += seconds
        if phase is None:
            phase = self.current_phase()
        self.time_per_phase[phase] = (
            self.time_per_phase.get(phase, 0.0) + seconds
        )

    def record_memory(self, words: int) -> None:
        """Record an observed per-machine memory footprint."""
        self.peak_memory_words = max(self.peak_memory_words, words)

    def phase_rounds(self) -> Dict[str, int]:
        """Rounds spent in each phase (later marks close earlier ones).

        Repeated phase names accumulate, so per-iteration phases like
        ``"luby-step"`` sum across iterations.
        """
        spans: Dict[str, int] = {}
        for i, mark in enumerate(self.phases):
            end = (
                self.phases[i + 1].start_round
                if i + 1 < len(self.phases)
                else self.rounds
            )
            spans[mark.name] = spans.get(mark.name, 0) + (
                end - mark.start_round
            )
        return spans

    def summary(self) -> Dict[str, int]:
        """Flat dict for table output (model quantities only — ints).

        Wall-clock is deliberately excluded: the summary participates in
        determinism assertions (identical runs must compare equal), which
        timing would break.  Use :meth:`timing_summary` for wall-clock.
        """
        return {
            "rounds": self.rounds,
            "total_messages": self.total_messages,
            "total_words": self.total_words,
            "max_words_sent": self.max_words_sent,
            "max_words_received": self.max_words_received,
            "peak_memory_words": self.peak_memory_words,
        }

    def timing_summary(self) -> Dict[str, float]:
        """Wall-clock totals: overall seconds plus per-phase seconds.

        Per-phase keys are prefixed ``time_`` so the dict can be merged
        into a flat record without colliding with round counts.
        """
        out: Dict[str, float] = {"wall_time_s": round(self.wall_time_s, 6)}
        for phase, seconds in self.time_per_phase.items():
            out[f"time_{phase}"] = round(seconds, 6)
        return out
