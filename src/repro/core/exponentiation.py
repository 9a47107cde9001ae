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
"""

from __future__ import annotations

from typing import Dict, List, Set

from repro.errors import AlgorithmError
from repro.mpc.backends import Outbox
from repro.mpc.graph_store import ADJ, DistributedGraph
from repro.mpc.machine import Machine

BALLS = "exp_balls"


def grow_balls(
    dg: DistributedGraph,
    radius: int,
    balls_key: str = BALLS,
    adj_key: str = ADJ,
) -> int:
    """Compute exactly ``B(v, radius)`` for every active vertex.

    Afterwards ``store[balls_key]`` maps each owned active vertex to the
    sorted tuple of vertices within ``radius`` hops (inclusive of ``v``).
    Returns the number of doubling steps used; total cost is
    ``2 * doublings + (radius - 2^doublings)`` rounds.
    """
    if radius < 1:
        raise AlgorithmError(f"radius must be >= 1, got {radius}")

    def init_balls(machine: Machine) -> None:
        adj = machine.store[adj_key]
        machine.store[balls_key] = {
            v: tuple(sorted(set(nbrs) | {v})) for v, nbrs in adj.items()
        }

    dg.sim.local(init_balls)
    reach = 1
    doublings = 0
    while 2 * reach <= radius:
        _double(dg, balls_key)
        reach *= 2
        doublings += 1
    while reach < radius:
        _expand_one(dg, balls_key, adj_key)
        reach += 1
    return doublings


def power_graph_adjacency(
    dg: DistributedGraph,
    radius: int,
    out_adj_key: str,
    adj_key: str = ADJ,
    balls_key: str = BALLS,
) -> None:
    """Materialise exact ``G^radius`` adjacency under ``out_adj_key``."""
    grow_balls(dg, radius, balls_key=balls_key, adj_key=adj_key)

    def build(machine: Machine) -> None:
        balls = machine.store[balls_key]
        machine.store[out_adj_key] = {
            v: tuple(u for u in ball if u != v) for v, ball in balls.items()
        }

    dg.sim.local(build)


def _double(dg: DistributedGraph, balls_key: str) -> None:
    """One doubling: ``B(v, 2r) = union of B(u, r) over u in B(v, r)``."""
    sim = dg.sim

    # Round 1: each vertex requests the ball of every member.
    def request(machine: Machine) -> Outbox:
        owners = dg.owner_map.owners
        out = []
        for v, ball in machine.store[balls_key].items():
            for u in ball:
                if u != v:
                    out.append((owners[u], (u, v)))
        return out

    sim.communicate(request)

    # Round 2: owners answer with the requested (pre-merge) balls.
    def respond(machine: Machine) -> Outbox:
        balls = machine.store[balls_key]
        requests: Dict[int, List[int]] = {}
        for u, v in machine.inbox:
            requests.setdefault(u, []).append(v)
        machine.clear_inbox()
        owners = dg.owner_map.owners
        out = []
        for u, requesters in requests.items():
            ball = balls[u]
            for v in requesters:
                out.append((owners[v], (v,) + ball))
        return out

    sim.communicate(respond)
    _merge(dg, balls_key)


def _expand_one(dg: DistributedGraph, balls_key: str, adj_key: str) -> None:
    """Grow every ball by one hop (one push round + union)."""

    def send(machine: Machine) -> Outbox:
        adj = machine.store[adj_key]
        owners = dg.owner_map.owners
        out = []
        for v, ball in machine.store[balls_key].items():
            for u in adj[v]:
                out.append((owners[u], (u,) + ball))
        return out

    dg.sim.communicate(send)
    _merge(dg, balls_key)


def _merge(dg: DistributedGraph, balls_key: str) -> None:
    """Union every received ``(v, *members)`` payload into ``v``'s ball."""

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

    dg.sim.local(merge)
