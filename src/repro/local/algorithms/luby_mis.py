"""Luby's randomized MIS in the LOCAL model.

Each *phase* (two simulated rounds) every active vertex draws a fresh
priority; a vertex whose priority beats all active neighbours joins the
MIS, and MIS members knock their neighbours out.  With fresh uniform
priorities per phase, the active graph loses a constant fraction of its
edges per phase in expectation, giving ``O(log n)`` phases w.h.p. — the
baseline round count that the deterministic MPC algorithms are measured
against in E8.

Priorities are 64-bit draws from per-vertex SplitMix64 streams (forked
from a run seed), with the vertex id as tiebreak, so runs are exactly
reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Tuple

from repro.graph.graph import Graph
from repro.local.network import LocalNetwork, VertexAlgorithm, require_completed
from repro.util.rng import SplitMix64

ACTIVE = 0
IN_MIS = 1
OUT = 2


@dataclass
class _LubyState:
    status: int
    rng: SplitMix64
    priority: Tuple[int, int] = (0, 0)
    active_neighbors: set = field(default_factory=set)
    announced: bool = False


class LubyMIS(VertexAlgorithm):
    """Vertex program: phases of (priority exchange, decision exchange)."""

    def __init__(self, seed: int = 0):
        self.seed = seed
        self.root = SplitMix64(seed=seed)

    def init(self, v: int, degree: int) -> _LubyState:
        return _LubyState(status=ACTIVE, rng=self.root.fork(v))

    def message(self, v: int, state: _LubyState, round_no: int) -> Any:
        if round_no % 2 == 0:
            if state.status != ACTIVE:
                return None
            state.priority = (state.rng.next_u64(), v)
            return ("prio", state.priority)
        if state.status == IN_MIS and not state.announced:
            state.announced = True
            return ("in", v)
        if state.status == OUT and not state.announced:
            state.announced = True
            return ("out", v)
        return None

    def update(
        self,
        v: int,
        state: _LubyState,
        inbox: List[Tuple[int, Any]],
        round_no: int,
    ) -> _LubyState:
        if round_no == 0:
            state.active_neighbors = {u for u, _ in inbox}
        if state.status != ACTIVE:
            return state
        if round_no % 2 == 0:
            lowest = all(
                state.priority < payload[1]
                for u, payload in inbox
                if payload[0] == "prio" and u in state.active_neighbors
            )
            if lowest:
                state.status = IN_MIS
            return state
        for u, payload in inbox:
            if payload[0] == "in":
                state.status = OUT
                state.announced = False
            if payload[0] in ("in", "out"):
                state.active_neighbors.discard(u)
        return state

    def halted(self, v: int, state: _LubyState) -> bool:
        if state.status == ACTIVE:
            return False
        return state.announced


def run_luby_mis(
    graph: Graph, seed: int = 0, max_rounds: int = 10_000
) -> Tuple[List[int], int]:
    """Run Luby's MIS; return ``(mis_members, rounds)``.

    Raises :class:`AlgorithmError` on non-convergence (which for sane
    ``max_rounds`` indicates a bug, not bad luck).
    """
    algorithm = LubyMIS(seed=seed)
    result = LocalNetwork(graph).run(algorithm, max_rounds=max_rounds)
    require_completed(result, "Luby MIS")
    members = [
        v for v in graph.vertices() if result.states[v].status == IN_MIS
    ]
    return members, result.rounds
