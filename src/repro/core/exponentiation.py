"""Graph exponentiation: ball growing by doubling in MPC.

The standard MPC round-compression tool: after ``O(log r)`` doubling
steps (two rounds each) every vertex knows its ball ``B(v, r)``, so ``r``
LOCAL rounds can be answered at once and ``G^r`` adjacency can be formed
locally.  Memory honesty is preserved by the simulator: balls count
against the machine budget, so exponentiation is only legal where the
model actually permits it (small ``r``, bounded growth) — exceeding the
budget faults instead of silently succeeding, which is the behaviour E8
relies on.

Exactness: merging radius-``r`` balls of radius-``r`` ball members yields
exactly ``B(v, 2r)``, so doubling is exact for powers of two; arbitrary
radii are reached by doubling to the largest power of two below the
target and finishing with single-hop expansions.

Batched growth (``batch_vertices``): unbatched ball-growing concentrates
every vertex's ball traffic in the same round, which is exactly how α>2
exponentiation blows the per-round budget on large inputs.  Batching
splits each growth step into contiguous global-id windows — only the
window's vertices request/push per pass — with all responses served from
a *frozen pre-step snapshot* of the balls, so later windows never see
earlier windows' already-grown balls and the final balls are identical
bit-for-bit to the unbatched step.  Cost: more rounds and a transient
second copy of the balls; gain: per-round ``max_sent``/``max_received``
shrink by roughly the window fraction.  The default stays unbatched —
budget-faulting on oversized unbatched growth is itself the model-honest
behaviour E8 relies on.

Governed growth (``governed``): each growth step's window size is
replanned by :func:`plan_batch` from the live ball sizes.  The planner
bounds each window's worst per-machine round traffic (requests plus
snapshot-ball responses) and picks the largest halving of ``n`` that
fits half the budget ``S``; when the full window fits, the step runs
unbatched and is bit-identical to the ungoverned step, rounds included.
Dense graphs that would fault the per-round budget unbatched instead
degrade to smaller windows and complete with the identical balls.  The
plan reads only model quantities (ball sizes, owners, ``S``), so a
governed run is as deterministic as an ungoverned one.  An explicit
``batch_vertices`` always wins (the caller pinned the schedule).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.errors import AlgorithmError
from repro.mpc.graph_store import ADJ, DistributedGraph
from repro.mpc.machine import Machine
from repro.mpc.message import Message

BALLS = "exp_balls"

_SNAPSHOT = "_exp_snapshot"

#: The planner aims at ``TARGET_NUM / TARGET_DEN`` of the budget ``S``;
#: the margin below it absorbs the traffic its bound cannot see
#: (request-round overhead, skewed responder fan-out).
TARGET_NUM, TARGET_DEN = 1, 2

#: The smallest window the planner may choose; past it the model-honest
#: behaviour is to fault, not to subdivide further.
WINDOW_FLOOR = 1


def _batch_windows(
    num_vertices: int, batch_vertices: Optional[int]
) -> List[Optional[Tuple[int, int]]]:
    """Contiguous global-id windows for batched ball growing.

    ``None`` (the default) is the unbatched single window.  Windows are a
    pure function of ``(n, batch_vertices)``, so every machine agrees on
    the schedule without coordination and the run stays deterministic.
    """
    if batch_vertices is None:
        return [None]
    if batch_vertices < 1:
        raise AlgorithmError(
            f"batch_vertices must be >= 1, got {batch_vertices}"
        )
    if num_vertices == 0:
        return [None]
    return [
        (lo, min(lo + batch_vertices, num_vertices))
        for lo in range(0, num_vertices, batch_vertices)
    ]


def plan_batch(
    num_vertices: int,
    per_vertex_words: Dict[int, int],
    owner_of: Callable[[int], int],
    budget_words: int,
) -> Optional[int]:
    """Choose a batched-growth window size for one growth step.

    ``per_vertex_words[v]`` bounds the round traffic vertex ``v`` draws
    onto its owner when it is in the active window.  Returns ``None``
    (run unbatched) when every machine's full-window load fits
    ``budget_words * TARGET_NUM // TARGET_DEN``; otherwise the largest
    halving of ``num_vertices`` whose worst per-machine per-window load
    fits, floored at :data:`WINDOW_FLOOR`.  Windows are the contiguous
    global-id ranges of :func:`_batch_windows`.

    >>> plan_batch(8, {v: 10 for v in range(8)}, lambda v: v // 4, 100)
    >>> plan_batch(8, {v: 20 for v in range(8)}, lambda v: v // 4, 100)
    2
    """
    if num_vertices <= 0 or not per_vertex_words:
        return None
    target = max(1, budget_words * TARGET_NUM // TARGET_DEN)

    def fits(batch: int) -> bool:
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

    if fits(num_vertices):
        return None
    batch = num_vertices // 2
    while batch > WINDOW_FLOOR and not fits(batch):
        batch //= 2
    return max(WINDOW_FLOOR, batch)


def _plan_step_windows(
    dg: DistributedGraph,
    balls_key: str,
    adj_key: str,
    doubling: bool,
) -> List[Optional[Tuple[int, int]]]:
    """Plan this step's window schedule with :func:`plan_batch`.

    Harvests the live per-vertex ball sizes (and degrees, for single-hop
    expansion) and hands the planner a conservative per-vertex bound on
    the round words a windowed vertex draws onto one machine: for a
    doubling step each member's snapshot ball answer is at most
    ``max_ball + 1`` words; for an expansion step each incident edge
    pushes at most ``max_ball + 1`` words.
    """
    harvested = dg.sim.harvest(
        lambda machine: {
            v: (len(ball), len(machine.store[adj_key].get(v, ())))
            for v, ball in machine.store[balls_key].items()
        }
    )
    sizes: Dict[int, Tuple[int, int]] = {}
    for part in harvested:
        sizes.update(part)
    if not sizes:
        return [None]
    max_ball = max(size for size, _ in sizes.values())
    costs: Dict[int, int] = {}
    for v, (size, degree) in sizes.items():
        if doubling:
            costs[v] = (size + 1) * (max_ball + 1)
        else:
            costs[v] = (degree + 1) * (max_ball + 1)
    batch = plan_batch(
        dg.num_vertices, costs, dg.owner_of, dg.sim.config.memory_words
    )
    return _batch_windows(dg.num_vertices, batch)


def _freeze(sim, balls_key: str) -> None:
    """Snapshot the balls so batched windows all read pre-step state."""

    def snap(machine: Machine) -> None:
        machine.store[_SNAPSHOT] = dict(machine.store[balls_key])

    sim.local(snap)


def _thaw(sim) -> None:
    def drop(machine: Machine) -> None:
        machine.store.pop(_SNAPSHOT, None)

    sim.local(drop)


def grow_balls(
    dg: DistributedGraph,
    radius: int,
    balls_key: str = BALLS,
    adj_key: str = ADJ,
    batch_vertices: Optional[int] = None,
    governed: bool = False,
) -> int:
    """Compute exactly ``B(v, radius)`` for every active vertex.

    Afterwards ``store[balls_key]`` maps each owned active vertex to the
    sorted tuple of vertices within ``radius`` hops (inclusive of ``v``).
    Returns the number of doubling steps used; total cost is
    ``2 * doublings + (radius - 2^doublings)`` rounds, multiplied by the
    window count when ``batch_vertices`` is set (see module docstring).
    When ``governed`` (and no explicit ``batch_vertices``) each step's
    window size is replanned from the live ball sizes before it runs.
    """
    if radius < 1:
        raise AlgorithmError(f"radius must be >= 1, got {radius}")
    sim = dg.sim
    governed = governed and batch_vertices is None
    windows = _batch_windows(dg.num_vertices, batch_vertices)

    def init_balls(machine: Machine) -> None:
        adj = machine.store[adj_key]
        machine.store[balls_key] = {
            v: tuple(sorted(set(nbrs) | {v})) for v, nbrs in adj.items()
        }

    sim.local(init_balls)
    reach = 1
    doublings = 0
    while 2 * reach <= radius:
        if governed:
            windows = _plan_step_windows(
                dg, balls_key, adj_key, doubling=True
            )
        if windows != [None]:
            _freeze(sim, balls_key)
            for window in windows:
                _double(dg, balls_key, _SNAPSHOT, window)
            _thaw(sim)
        else:
            _double(dg, balls_key, balls_key, None)
        reach *= 2
        doublings += 1
    while reach < radius:
        if governed:
            windows = _plan_step_windows(
                dg, balls_key, adj_key, doubling=False
            )
        if windows != [None]:
            _freeze(sim, balls_key)
            for window in windows:
                _expand_one(dg, balls_key, _SNAPSHOT, adj_key, window)
            _thaw(sim)
        else:
            _expand_one(dg, balls_key, balls_key, adj_key, None)
        reach += 1
    return doublings


def power_graph_adjacency(
    dg: DistributedGraph,
    radius: int,
    out_adj_key: str,
    adj_key: str = ADJ,
    balls_key: str = BALLS,
    batch_vertices: Optional[int] = None,
    governed: bool = False,
) -> None:
    """Materialise exact ``G^radius`` adjacency under ``out_adj_key``."""
    grow_balls(
        dg,
        radius,
        balls_key=balls_key,
        adj_key=adj_key,
        batch_vertices=batch_vertices,
        governed=governed,
    )

    def build(machine: Machine) -> None:
        balls = machine.store[balls_key]
        machine.store[out_adj_key] = {
            v: tuple(u for u in ball if u != v) for v, ball in balls.items()
        }

    dg.sim.local(build)


def _in_window(v: int, window: Optional[Tuple[int, int]]) -> bool:
    return window is None or window[0] <= v < window[1]


def _double(
    dg: DistributedGraph,
    balls_key: str,
    source_key: str,
    window: Optional[Tuple[int, int]],
) -> None:
    """One doubling: ``B(v, 2r) = union of B(u, r) over u in B(v, r)``.

    ``source_key`` is where responders read balls from — the live balls
    when unbatched, the frozen pre-step snapshot when batched, so every
    window's unions combine radius-``r`` balls only.
    """
    sim = dg.sim

    # Round 1: each (windowed) vertex requests the ball of every member.
    def request(machine: Machine) -> List[Message]:
        balls = machine.store[source_key]
        owner_of = dg.owner_map.owner_of
        out = []
        for v, ball in balls.items():
            if not _in_window(v, window):
                continue
            for u in ball:
                if u != v:
                    out.append(Message(owner_of(u), (u, v)))
        return out

    sim.communicate(request)

    # Round 2: owners answer with the requested (pre-step) balls.
    def respond(machine: Machine) -> List[Message]:
        balls = machine.store[source_key]
        requests: Dict[int, List[int]] = {}
        for u, v in machine.inbox:
            requests.setdefault(u, []).append(v)
        machine.clear_inbox()
        owner_of = dg.owner_map.owner_of
        out = []
        for u, requesters in requests.items():
            ball = balls[u]
            for v in requesters:
                out.append(Message(owner_of(v), (v,) + ball))
        return out

    sim.communicate(respond)

    def merge(machine: Machine) -> None:
        balls = machine.store[balls_key]
        unions: Dict[int, Set[int]] = {
            v: set(ball) for v, ball in balls.items()
        }
        for payload in machine.inbox:
            v = payload[0]
            if v in unions:
                unions[v].update(payload[1:])
        machine.clear_inbox()
        machine.store[balls_key] = {
            v: tuple(sorted(members)) for v, members in unions.items()
        }

    sim.local(merge)


def _expand_one(
    dg: DistributedGraph,
    balls_key: str,
    source_key: str,
    adj_key: str,
    window: Optional[Tuple[int, int]],
) -> None:
    """Grow every (windowed) ball by one hop (one push round + union).

    Senders push their ``source_key`` ball — the frozen pre-step copy
    when batched — so a ball grown by an earlier window is never pushed
    onward within the same step.
    """
    sim = dg.sim

    def send(machine: Machine) -> List[Message]:
        adj = machine.store[adj_key]
        balls = machine.store[source_key]
        owner_of = dg.owner_map.owner_of
        out = []
        for v, ball in balls.items():
            if not _in_window(v, window):
                continue
            for u in adj[v]:
                out.append(Message(owner_of(u), (u,) + ball))
        return out

    sim.communicate(send)

    def merge(machine: Machine) -> None:
        balls = machine.store[balls_key]
        unions = {v: set(ball) for v, ball in balls.items()}
        for payload in machine.inbox:
            v = payload[0]
            if v in unions:
                unions[v].update(payload[1:])
        machine.clear_inbox()
        machine.store[balls_key] = {
            v: tuple(sorted(members)) for v, members in unions.items()
        }

    sim.local(merge)
