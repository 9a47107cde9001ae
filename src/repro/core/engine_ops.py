"""Shared MPC engine subroutines used by the solver phase programs.

These are the reusable superstep building blocks that every ruling-set
style solver composes: measuring an adjacency layer, gathering a small
subgraph to one machine for a sequential solve, the β-hop removal wave,
and the member-set merge/teardown steps.  They were extracted verbatim
from the first solver module so that new families build on them instead
of copy-pasting ~200 lines of scaffolding.

Bit-identity note: machine-store keys are memory-priced words (see
:func:`repro.mpc.machine.words_of`), so every scratch-key literal here
(``_rs_gather_flag``, ``_rs_frontier``, …) is part of the metrics
contract and must not be renamed casually — the refactor-parity oracle
pins ``peak_memory_words`` across these helpers' callers.
"""

from __future__ import annotations

import math
from typing import List, Tuple

from repro.core.greedy import greedy_mis_on_edges
from repro.mpc.graph_store import ADJ, DistributedGraph
from repro.mpc.machine import Machine
from repro.mpc.message import Message
from repro.mpc.primitives.aggregate import reduce_scalar, reduce_vector


def sampling_rate(max_degree: int) -> Tuple[int, int]:
    """Rate ``q = min(1/2, 4/isqrt(Δ))`` as an exact fraction."""
    root = math.isqrt(max(1, max_degree))
    if root <= 8:
        return (1, 2)
    return (4, root)


def adjacency_words(dg: DistributedGraph, adj_key: str) -> Tuple[int, int, int]:
    """Return ``(n_active, m_active, words)`` for one adjacency layer."""
    sim = dg.sim

    def extract(machine: Machine) -> Tuple[int, ...]:
        adj = machine.store[adj_key]
        return (
            len(adj),
            sum(len(nbrs) for nbrs in adj.values()),
        )

    n_active, directed = reduce_vector(
        sim, extract, lambda a, b: (a[0] + b[0], a[1] + b[1]), width=2
    )
    return n_active, directed // 2, directed + n_active


def gather_and_greedy(
    dg: DistributedGraph, adj_key: str, members_key: str
) -> int:
    """Gather the ``adj_key`` subgraph to machine 0, solve, scatter members.

    Flags every active vertex of the layer, ships the subgraph, runs
    greedy MIS at machine 0, and sends each member id to its owner, which
    records it under ``members_key``.  Returns the member count.  Costs 4
    rounds.
    """
    sim = dg.sim

    def flag_all(machine: Machine) -> None:
        machine.store["_rs_gather_flag"] = sorted(machine.store[adj_key])

    sim.local(flag_all)
    dg.gather_flagged_to_zero(
        "_rs_gather_flag", "_rs_gv", "_rs_ge", adj_key=adj_key
    )

    def solve_and_scatter(machine: Machine) -> List[Message]:
        machine.store.pop("_rs_gather_flag")
        if machine.mid != 0:
            return []
        vertices = machine.store.pop("_rs_gv")
        edges = machine.store.pop("_rs_ge")
        members = greedy_mis_on_edges(vertices, edges)
        owner_of = dg.owner_map.owner_of
        return [Message(owner_of(v), (v,)) for v in members]

    sim.communicate(solve_and_scatter)

    def record(machine: Machine) -> None:
        for payload in machine.inbox:
            machine.store[members_key].add(payload[0])
        machine.clear_inbox()

    sim.local(record)
    return reduce_scalar(
        sim, lambda m: len(m.store[members_key]), lambda a, b: a + b
    )


def removal_wave(
    dg: DistributedGraph, members_key: str, beta: int, adj_key: str = ADJ
) -> int:
    """Deactivate every active vertex within β hops of the new members.

    β rounds of flag pushes on the base adjacency plus one deactivation
    round.  Returns the number of vertices removed.
    """
    sim = dg.sim

    def seed_wave(machine: Machine) -> None:
        members = set(machine.store[members_key])
        active = set(machine.store[adj_key])
        machine.store["_rs_frontier"] = sorted(members & active)
        machine.store["_rs_removed"] = members & active

    sim.local(seed_wave)
    for _ in range(beta):
        dg.push_flags("_rs_frontier", "_rs_hit", adj_key=adj_key)

        def advance(machine: Machine) -> None:
            removed = machine.store["_rs_removed"]
            hit = machine.store.pop("_rs_hit")
            newly = {
                v
                for v in hit
                if v not in removed and v in machine.store[adj_key]
            }
            removed.update(newly)
            machine.store["_rs_frontier"] = sorted(newly)

        sim.local(advance)

    def finalize(machine: Machine) -> None:
        machine.store.pop("_rs_frontier")
        machine.store["_rs_removed"] = set(machine.store["_rs_removed"])
        machine.store["_rs_removed_count"] = len(machine.store["_rs_removed"])

    sim.local(finalize)
    removed_total = sum(
        sim.harvest(lambda m: m.store.pop("_rs_removed_count"))
    )
    dg.deactivate("_rs_removed", adj_key=adj_key)
    return removed_total


def merge_members(sim, in_set_key: str, iter_key: str) -> int:
    """Fold this iteration's members into the global set; return count."""

    def merge(machine: Machine) -> None:
        new_members = machine.store[iter_key]
        machine.store["_rs_merged"] = len(new_members)
        machine.store[in_set_key].update(new_members)
        machine.store[iter_key] = set()

    sim.local(merge)
    return sum(sim.harvest(lambda m: m.store.pop("_rs_merged")))


def deactivate_all(dg: DistributedGraph, adj_key: str) -> None:
    """Remove every remaining active vertex (after a gather-finish)."""

    def mark_all(machine: Machine) -> None:
        machine.store["_rs_all"] = set(machine.store[adj_key])

    dg.sim.local(mark_all)
    dg.deactivate("_rs_all", adj_key=adj_key)
