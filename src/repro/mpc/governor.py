"""Adaptive load governing: peak-hold estimation and throttle planning.

ROADMAP item 5: the related repo's fixed sampling rate violated the
per-round communication cap by ~500x on dense graphs until it was
throttled against a peak-hold ball-size estimate.  This module is our
analogue.  A :class:`LoadGovernor` watches the same per-round
words/memory signals the PR 2 trace layer records and answers three
questions for the execution layer:

* how large may the shard backend's spool-flush chunks be right now
  (:meth:`LoadGovernor.scale_chunk`),
* how many vertices may one batched exponentiation window contain
  without blowing the per-round budget
  (:meth:`LoadGovernor.plan_batch`),
* what should an unpriceable serve request be assumed to cost
  (:class:`PeakHold`, consulted by the serve daemon's admission
  estimator).

Governor contract (DESIGN.md section 15)
----------------------------------------

The governor may adapt *execution strategy* only — spool flush
thresholds (driver memory), exponentiation window sizes (round
structure), admission prices (scheduling).  It must never change
*results*: solver members, message payloads, or error texts.  Two rules
make that composable:

* **Deterministic inputs only.**  Every signal feeding a governor is a
  model quantity (words against the budget ``S``) — never wall clock —
  so a governed run is a pure function of (algorithm, input, config),
  exactly like an ungoverned one.  Repeating a governed run repeats
  every throttling decision bit-for-bit.
* **No-op at feasible sizes.**  Planners return the ungoverned value
  whenever their conservative bound fits the budget target, so governed
  and ungoverned runs are bit-identical (members *and* rounds) on
  workloads that never needed throttling.  Only a workload that would
  fault the budget ungoverned diverges — by completing in more,
  smaller rounds.

The governor is **fed by the simulator**, not by the trace: the
simulator reports the identical quantities to both, so tracing stays a
pure observer.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.errors import MPCConfigError

__all__ = ["LoadGovernor", "PeakHold"]


class PeakHold:
    """Strict peak-hold of a non-negative word signal.

    The held value is the largest observation so far (the related
    repo's ball-size estimator); integer arithmetic throughout, so it is
    a deterministic function of the observation sequence on every
    platform.

    >>> ph = PeakHold()
    >>> for words in (10, 80, 30):
    ...     ph.observe(words)
    >>> ph.peak
    80
    """

    __slots__ = ("peak", "observations")

    def __init__(self) -> None:
        self.peak = 0
        self.observations = 0

    def observe(self, value: int) -> None:
        """Fold one observation (negative values clamp to zero)."""
        self.peak = max(self.peak, int(value))
        self.observations += 1


#: Planners aim at ``TARGET_NUM / TARGET_DEN`` of the budget ``S``; the
#: margin below it absorbs the traffic a conservative bound cannot see
#: (request-round overhead, skewed responder fan-out).
TARGET_NUM, TARGET_DEN = 1, 2

#: Hard minimums throttling may reach for spool chunks and
#: exponentiation windows; past them the model-honest behaviour is to
#: fault, not to subdivide further.
CHUNK_FLOOR = 32
WINDOW_FLOOR = 1


class LoadGovernor:
    """Peak-hold load estimator + deterministic throttle planner.

    One governor instance per run, scoped to a budget ``S``
    (``budget_words``).  The simulator feeds it every communication
    round (:meth:`observe_round`) and every memory audit
    (:meth:`observe_memory`); consumers query it between supersteps.
    All queries are pure functions of the feed history, so two runs
    with identical model behaviour make identical throttling decisions.
    """

    def __init__(self, budget_words: int):
        if budget_words < 1:
            raise MPCConfigError(
                f"budget_words must be >= 1, got {budget_words}"
            )
        self.budget_words = budget_words
        self._round_peak = PeakHold()
        self._memory_peak = PeakHold()
        self._chunk_scalings = 0
        self._batched_steps = 0
        self._planned_steps = 0

    # -- feeding --------------------------------------------------------
    def observe_round(
        self, *, words: int, max_sent: int, max_received: int
    ) -> None:
        """Fold one communication round's traffic (model words)."""
        del words  # totals are reported for symmetry; peaks drive decisions
        self._round_peak.observe(max(max_sent, max_received))

    def observe_memory(self, words: int) -> None:
        """Fold one machine's post-superstep residency."""
        self._memory_peak.observe(words)

    # -- queries --------------------------------------------------------
    @property
    def target_words(self) -> int:
        """The per-round word level planners aim at (a fraction of S)."""
        return max(1, self.budget_words * TARGET_NUM // TARGET_DEN)

    def peak_round_words(self) -> int:
        """Peak-hold of per-round ``max(max_sent, max_received)``."""
        return self._round_peak.peak

    def peak_memory_words(self) -> int:
        """Peak-hold of per-machine residency."""
        return self._memory_peak.peak

    def headroom_words(self) -> int:
        """Budget minus the held round peak, clamped to >= 0."""
        return max(0, self.budget_words - self._round_peak.peak)

    def scale_chunk(self, base: int) -> int:
        """Scale a driver-side buffer size by the observed headroom.

        Returns ``base`` until the first round is observed, then shrinks
        proportionally to the remaining budget headroom, never below
        :data:`CHUNK_FLOOR` (or ``base`` itself when smaller).  Driver
        memory only — chunk size never appears in any model quantity, so
        this is always safe to adapt.
        """
        if base < 1:
            raise MPCConfigError(f"chunk base must be >= 1, got {base}")
        if self._round_peak.observations == 0:
            return base
        floor = min(base, CHUNK_FLOOR)
        scaled = base * self.headroom_words() // self.budget_words
        scaled = max(floor, min(base, scaled))
        if scaled != base:
            self._chunk_scalings += 1
        return scaled

    def plan_batch(
        self,
        num_vertices: int,
        per_vertex_words: Dict[int, int],
        owner_of: Callable[[int], int],
    ) -> Optional[int]:
        """Choose a batched-growth window size for one superstep.

        ``per_vertex_words[v]`` is a conservative bound on the round
        traffic vertex ``v`` contributes to its owner if ``v`` is in the
        active window; ``owner_of`` maps vertices to machines.  Returns
        ``None`` (run unbatched — bit-identical to the ungoverned step)
        when every machine's full-window load fits :attr:`target_words`;
        otherwise the largest halving of ``num_vertices`` whose worst
        per-machine per-window load fits, floored at
        :data:`WINDOW_FLOOR`.  Windows are contiguous global-id
        ranges, matching ``repro.core.exponentiation._batch_windows``,
        so the plan is a pure function of (sizes, owners, budget).
        """
        self._planned_steps += 1
        if num_vertices <= 0 or not per_vertex_words:
            return None
        target = self.target_words
        if self._fits(num_vertices, num_vertices, per_vertex_words, owner_of, target):
            return None
        batch = num_vertices // 2
        while batch > WINDOW_FLOOR and not self._fits(
            num_vertices, batch, per_vertex_words, owner_of, target
        ):
            batch //= 2
        batch = max(WINDOW_FLOOR, batch)
        self._batched_steps += 1
        return batch

    @staticmethod
    def _fits(
        num_vertices: int,
        batch: int,
        per_vertex_words: Dict[int, int],
        owner_of: Callable[[int], int],
        target: int,
    ) -> bool:
        """Does every machine's load in every window stay under target?"""
        for lo in range(0, num_vertices, batch):
            loads: Dict[int, int] = {}
            for v in range(lo, min(lo + batch, num_vertices)):
                cost = per_vertex_words.get(v)
                if not cost:
                    continue
                machine = owner_of(v)
                load = loads.get(machine, 0) + cost
                if load > target:
                    return False
                loads[machine] = load
        return True

    # -- reporting ------------------------------------------------------
    def stats(self) -> Dict[str, int]:
        """Counters for benchmarks and traces (reporting only)."""
        return {
            "budget_words": self.budget_words,
            "target_words": self.target_words,
            "peak_round_words": self._round_peak.peak,
            "peak_memory_words": self._memory_peak.peak,
            "rounds_observed": self._round_peak.observations,
            "chunk_scalings": self._chunk_scalings,
            "planned_steps": self._planned_steps,
            "batched_steps": self._batched_steps,
        }
