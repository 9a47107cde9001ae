"""Shared MPC engine subroutines used by the solver phase programs.

These are the reusable superstep building blocks that every ruling-set
style solver composes: measuring an adjacency layer, gathering a small
subgraph to one machine for a sequential solve, the β-hop removal wave,
and the member-set merge/teardown steps.  :func:`sparsify_gather_program`
composes them into the one sparsify–solve–remove loop behind every
sampling ruling-set solver; each solver supplies only its sampling step.

Bit-identity note: machine-store keys are memory-priced words (see
:func:`repro.mpc.machine.words_of`), so every scratch-key literal here
(``_rs_gather_flag``, ``_rs_frontier``, …) is part of the metrics
contract and must not be renamed casually — the refactor-parity oracle
pins ``peak_memory_words`` across these helpers' callers.
"""

from __future__ import annotations

import math
from typing import Callable, Optional, Tuple

from repro.core.det_luby import luby_program, modulus_for
from repro.core.greedy import greedy_mis_on_edges
from repro.core.program import (
    EXIT,
    Branch,
    Loop,
    Phase,
    ProgramContext,
    SuperstepProgram,
    run_program,
)
from repro.errors import AlgorithmError
from repro.mpc.backends import Outbox
from repro.mpc.graph_store import ADJ, DistributedGraph
from repro.mpc.machine import Machine
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
        adj = machine.store.peek(adj_key)
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
        machine.store["_rs_gather_flag"] = sorted(machine.store.peek(adj_key))

    sim.local(flag_all)
    dg.gather_flagged_to_zero(
        "_rs_gather_flag", "_rs_gv", "_rs_ge", adj_key=adj_key
    )

    def solve_and_scatter(machine: Machine) -> Outbox:
        machine.store.pop("_rs_gather_flag")
        if machine.mid != 0:
            return []
        vertices = machine.store.pop("_rs_gv")
        edges = machine.store.pop("_rs_ge")
        members = greedy_mis_on_edges(vertices, edges)
        owners = dg.owner_map.owners
        return [(owners[v], (v,)) for v in members]

    sim.communicate(solve_and_scatter)

    def record(machine: Machine) -> None:
        for payload in machine.inbox:
            machine.store[members_key].add(payload[0])
        machine.clear_inbox()

    sim.local(record)
    return reduce_scalar(
        sim, lambda m: len(m.store.peek(members_key)), lambda a, b: a + b
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
        members = set(machine.store.peek(members_key))
        active = set(machine.store.peek(adj_key))
        machine.store["_rs_frontier"] = sorted(members & active)
        machine.store["_rs_removed"] = members & active

    sim.local(seed_wave)
    for _ in range(beta):
        dg.push_flags("_rs_frontier", "_rs_hit", adj_key=adj_key)

        def advance(machine: Machine) -> None:
            removed = machine.store["_rs_removed"]
            hit = machine.store.pop("_rs_hit")
            adj = machine.store.peek(adj_key)
            newly = {v for v in hit if v not in removed and v in adj}
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
        machine.store["_rs_all"] = set(machine.store.peek(adj_key))

    dg.sim.local(mark_all)
    dg.deactivate("_rs_all", adj_key=adj_key)


#: A sampling step: given the residual maximum degree, build the sample
#: levels (registering each with ``ctx.push_level``) and return the
#: store key of the deepest one.
Sampler = Callable[[ProgramContext, int], str]


def sparsify_gather_program(
    *,
    name: str,
    prefix: str,
    route_label: str,
    solve_label: str,
    solve_counter: str,
    iteration_counter: Optional[str],
    in_set_key: str,
    iter_key: str,
    sample: Sampler,
    sample_keys: Tuple[str, ...],
    sample_counters: Tuple[str, ...],
    limit: Callable[[int], int],
    endgame_degree: int,
    radius: int,
    luby_chooser=None,
    luby_allow_stalls: int = 0,
) -> SuperstepProgram:
    """The sample–solve–remove loop shared by the sampling ruling sets.

    Each iteration is an unlabelled measurement step plus a branch
    picked under ``route_label``: ``{prefix}-gather-finish`` (the whole
    residual fits half a machine: gather it and solve it greedily),
    ``{prefix}-endgame-luby`` (residual degree ≤ ``endgame_degree``:
    one Luby MIS on the residual), or the three-phase chain
    ``{prefix}-sparsify`` → ``solve_label`` → ``{prefix}-removal-wave``.
    The chain runs ``sample``, solves its deepest level (gathered when
    it fits half a machine, else a nested Luby MIS; one Luby MIS on the
    residual when the level is empty), then removes everything within
    ``radius`` hops of the new members and releases the sample levels.

    ``sample`` reads the hash modulus and the gather budget from
    ``ctx.state["p"]`` and ``ctx.state["budget"]``; ``sample_keys`` and
    ``sample_counters`` declare what it stores and counts.  The deepest
    level's solves count under ``{solve_counter}_gathers`` and
    ``{solve_counter}_luby_solves``; ``iteration_counter`` (when set)
    counts loop iterations.  ``limit`` maps the vertex count to the
    iteration cap; ``name`` names the program and its exhaustion error.
    Members accumulate per machine under
    ``store[in_set_key]``, each iteration's under ``store[iter_key]``.
    """
    gathers = f"{solve_counter}_gathers"
    luby_solves = f"{solve_counter}_luby_solves"

    def luby(adj_key: str) -> SuperstepProgram:
        return luby_program(
            adj_key=adj_key, in_set_key=iter_key,
            chooser=luby_chooser, allow_stalls=luby_allow_stalls,
        )

    def setup(ctx: ProgramContext) -> None:
        dg, sim = ctx.dg, ctx.sim
        ctx.state["p"] = modulus_for(dg.num_vertices)
        ctx.state["budget"] = sim.config.memory_words // 2
        ctx.state["limit"] = limit(dg.num_vertices)

        def ensure_sets(machine: Machine) -> None:
            if in_set_key not in machine.store:
                machine.store[in_set_key] = set()
            machine.store[iter_key] = set()

        sim.local(ensure_sets)

    def measure(ctx: ProgramContext):
        n_act, m_act, words = adjacency_words(ctx.dg, ADJ)
        if n_act == 0:
            return EXIT
        if iteration_counter is not None:
            ctx.counters[iteration_counter] += 1
        ctx.state["words"] = words
        return None

    def route(ctx: ProgramContext) -> None:
        # The residual degree is only measured (one reduction) when the
        # residual does not fit one machine.
        if ctx.state["words"] <= ctx.state["budget"]:
            ctx.state["route"] = "gather"
            return
        max_deg = ctx.dg.max_active_degree(ADJ)
        if max_deg <= endgame_degree:
            ctx.state["route"] = "endgame"
            return
        ctx.state["route"] = "sample"
        ctx.state["max_deg"] = max_deg

    def gather_finish(ctx: ProgramContext):
        members = gather_and_greedy(ctx.dg, ADJ, iter_key)
        ctx.counters["gather_finishes"] += 1
        ctx.counters["members"] += members
        merge_members(ctx.sim, in_set_key, iter_key)
        deactivate_all(ctx.dg, ADJ)
        return EXIT

    def endgame(ctx: ProgramContext):
        # Guaranteed progress: one full Luby MIS on the residual.
        sub = run_program(ctx.dg, luby(ADJ)).counters
        ctx.counters["endgame_luby"] += 1
        ctx.counters["seed_candidates"] += sub["seed_candidates"]
        ctx.counters["members"] += merge_members(
            ctx.sim, in_set_key, iter_key
        )
        return EXIT

    def run_sample(ctx: ProgramContext) -> None:
        ctx.state["deep_key"] = sample(ctx, ctx.state.pop("max_deg"))

    def solve(ctx: ProgramContext):
        dg, sim = ctx.dg, ctx.sim
        deep_key = ctx.state.pop("deep_key")
        n_deep, m_deep, deep_words = adjacency_words(dg, deep_key)
        if n_deep == 0:
            # Sampling emptied out (legal but rare).
            endgame(ctx)
            ctx.release_levels()
            return EXIT
        if deep_words <= ctx.state["budget"]:
            members = gather_and_greedy(dg, deep_key, iter_key)
            ctx.counters[gathers] += 1
        else:
            sub = run_program(dg, luby(deep_key)).counters
            ctx.counters[luby_solves] += 1
            ctx.counters["seed_candidates"] += sub["seed_candidates"]
            members = reduce_scalar(
                sim, lambda m: len(m.store.peek(iter_key)), lambda a, b: a + b
            )
        if members == 0:
            raise AlgorithmError(
                f"{solve_label} produced no members from a non-empty level"
            )
        ctx.counters["members"] += members
        return None

    def remove(ctx: ProgramContext) -> None:
        removal_wave(ctx.dg, iter_key, radius)
        merge_members(ctx.sim, in_set_key, iter_key)
        ctx.release_levels()

    return SuperstepProgram(
        name=name,
        counters=(
            ((iteration_counter,) if iteration_counter is not None else ())
            + sample_counters
            + ("seed_candidates", "gather_finishes", gathers, luby_solves,
               "endgame_luby", "members")
        ),
        steps=(
            Phase(setup, keys=(in_set_key, iter_key)),
            Loop(
                steps=(
                    Phase(measure),
                    Phase(route, name=route_label),
                    Branch(
                        pick=lambda ctx: ctx.state.pop("route"),
                        arms={
                            "gather": (
                                Phase(
                                    gather_finish,
                                    name=f"{prefix}-gather-finish",
                                ),
                            ),
                            "endgame": (
                                Phase(endgame, name=f"{prefix}-endgame-luby"),
                            ),
                            "sample": (
                                Phase(
                                    run_sample,
                                    name=f"{prefix}-sparsify",
                                    keys=sample_keys,
                                ),
                                Phase(solve, name=solve_label),
                                Phase(remove, name=f"{prefix}-removal-wave"),
                            ),
                        },
                    ),
                ),
                limit=lambda ctx: ctx.state["limit"],
                exhausted=lambda ctx: AlgorithmError(
                    f"{name} did not finish in "
                    f"{ctx.state['limit']} iterations"
                ),
            ),
        ),
    )
