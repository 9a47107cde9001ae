"""Problem and result types for solver computations.

An ``(α, β)``-ruling set of ``G``:

* **α-independence** — distinct members are at graph distance ≥ α
  (α = 2 is plain independence; all algorithms here produce α = 2);
* **β-domination** — every vertex is within distance β of a member.

An MIS is a (2, 1)-ruling set; "β-ruling set" abbreviates (2, β).
Maximal matching (an MIS on the line graph) gets the matching-shaped
result type.

Both result types extend :class:`RunResult`, the one declaration of the
MPC-run tail (``rounds`` / ``metrics`` / ``phase_rounds`` / timing /
``trace``).  :meth:`repro.core.session.SolverSession.run` builds them,
and the serve cache derives the tail part of its payloads from
:class:`RunResult`'s fields, so a new tail field is declared here once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Tuple

if TYPE_CHECKING:  # import kept type-only: spec stays simulator-agnostic
    from repro.mpc.trace import TraceRecorder


@dataclass(frozen=True, kw_only=True)
class RunResult:
    """The MPC-run tail shared by every result type (keyword-only).

    Attributes
    ----------
    rounds:
        MPC rounds consumed (0 for sequential / LOCAL runs and empty
        inputs).
    metrics:
        Flat metric dict from :class:`repro.mpc.RunMetrics.summary`, plus
        algorithm-specific counters (phases, seeds scanned, ...).  Model
        quantities only — identical runs compare equal on this dict.
    phase_rounds:
        Rounds attributed to each named phase.
    wall_time_s / time_per_phase:
        Wall-clock spent in the simulator, total and per phase — kept
        out of ``metrics`` precisely because timing varies between
        identical runs.  Measures the simulator, not a cluster.
    trace:
        The run's :class:`~repro.mpc.trace.TraceRecorder` when tracing
        was enabled, else ``None``.  Excluded from equality for the
        same reason timing is kept out of ``metrics``: the trace holds
        wall clock, and identical runs must compare equal.
    """

    rounds: int = 0
    metrics: Dict[str, object] = field(default_factory=dict)
    phase_rounds: Dict[str, int] = field(default_factory=dict)
    wall_time_s: float = 0.0
    time_per_phase: Dict[str, float] = field(default_factory=dict)
    trace: Optional["TraceRecorder"] = field(
        default=None, compare=False, repr=False
    )


@dataclass(frozen=True)
class RulingSetResult(RunResult):
    """The outcome of one ruling-set computation.

    Attributes
    ----------
    members:
        Sorted member vertex ids.
    alpha / beta:
        The guarantee the algorithm *claims* (verification measures the
        actual values; ``measured_beta <= beta`` must hold).
    algorithm:
        Human-readable algorithm label.
    """

    members: List[int]
    alpha: int
    beta: int
    algorithm: str

    @property
    def size(self) -> int:
        """Number of members."""
        return len(self.members)

    def summary_row(self) -> Dict[str, object]:
        """Flat row for benchmark tables."""
        row: Dict[str, object] = {
            "algorithm": self.algorithm,
            "size": self.size,
            "alpha": self.alpha,
            "beta": self.beta,
            "rounds": self.rounds,
        }
        row.update(self.metrics)
        row["wall_time_s"] = round(self.wall_time_s, 6)
        return row


@dataclass(frozen=True)
class MatchingResult(RunResult):
    """The outcome of one maximal-matching computation.

    Iterating yields ``(matching, metrics)``, so the historical
    ``matching, metrics = solve_matching(graph)`` unpacking keeps
    working unchanged.
    """

    matching: List[Tuple[int, int]]
    algorithm: str

    @property
    def size(self) -> int:
        """Number of matched edges."""
        return len(self.matching)

    def __iter__(self) -> Iterator[object]:
        yield self.matching
        yield self.metrics

    def summary_row(self) -> Dict[str, object]:
        """Flat row for benchmark tables."""
        row: Dict[str, object] = {
            "algorithm": self.algorithm,
            "size": self.size,
            "rounds": self.rounds,
        }
        row.update(self.metrics)
        row["wall_time_s"] = round(self.wall_time_s, 6)
        return row
