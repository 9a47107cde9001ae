"""Deterministic maximal matching: the Luby engine on the line graph.

Maximal matching is MIS on the *line graph* (edges are nodes; two edges
conflict when they share an endpoint), so the derandomized Luby engine
applies verbatim once the line graph exists in distributed form.  This
module builds it inside the model and runs the engine — a demonstration
that the derandomization toolkit is problem-agnostic, offered as an
extension (DESIGN.md inventory #20).

Construction (4 MPC rounds):

1. edges get dense ids: each machine numbers its locally-owned edges
   (an edge lives with the owner of its smaller endpoint) and a prefix
   sum turns local counts into global offsets;
2. every edge announces ``(endpoint, edge_id)`` to both endpoints'
   owners (one round);
3. every vertex owner returns its collected incident-edge list to each
   incident edge's home (one round) — edge homes now know their full
   conflict lists.

Memory honesty: a vertex of degree d contributes d(d−1) conflict-list
entries, so the line graph costs Θ(Σ d(v)²) words — quadratic in the
degrees.  Callers size the regime for that (``line_graph_words``), and
the simulator faults where the model genuinely cannot afford it.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.det_luby import luby_program
from repro.core.program import (
    Phase,
    ProgramContext,
    SuperstepProgram,
    run_program,
)
from repro.core.spec import MatchingResult
from repro.errors import AlgorithmError
from repro.graph.graph import Graph
from repro.mpc.backends import Outbox
from repro.mpc.graph_store import ADJ, DistributedGraph
from repro.mpc.machine import Machine
from repro.mpc.ownermap import RangeOwnerMap
from repro.mpc.primitives.prefix import exclusive_prefix_counts

LG_ADJ = "lg_adj"
EDGE_TABLE = "lg_edge_table"
MATCHED = "lg_matched"


def line_graph_words(graph: Graph) -> int:
    """Aggregate footprint of a matching run (for config sizing).

    The base adjacency, the per-edge endpoint table (3 words each), and
    the conflict lists (``Σ_v d(v)(d(v)-1)`` entries) all coexist on the
    machines.
    """
    degree_sq = sum(d * d for d in graph.degrees())
    base = 2 * graph.num_edges + graph.num_vertices
    return base + 3 * graph.num_edges + degree_sq


def matching_config(
    graph: Graph, alpha=(2, 3), slack: int = 8, regime: str = "sublinear"
):
    """An MPC regime sized for the *line graph* this module builds.

    The aggregate footprint is :func:`line_graph_words`; the per-machine
    floor is Ω(Δ²) because a degree-Δ vertex's owner emits Δ incidence
    lists of Δ words in the construction's reflect round.  ``regime``
    selects the same named regimes as the ruling-set path (``sublinear``
    / ``near-linear`` / ``single``), all sized for the line graph.
    """
    from repro.mpc.config import MPCConfig

    n = max(2, graph.num_vertices)
    pseudo_m = max(0, (line_graph_words(graph) - n + 1) // 2)
    # Ω(Δ²) per-machine floor: the machine holding a degree-Δ vertex's
    # edges keeps ~2Δ² conflict entries and the Luby engine multiplies
    # that by its per-entry constant.
    degree_floor = max(graph.max_degree(), graph.max_degree() ** 2)
    if regime == "sublinear":
        base = MPCConfig.sublinear(
            n, pseudo_m, alpha[0], alpha[1],
            slack=slack, max_degree=degree_floor,
        )
    elif regime == "near-linear":
        base = MPCConfig.near_linear(n, pseudo_m, max_degree=degree_floor)
    elif regime == "single":
        base = MPCConfig.single_machine(n, pseudo_m)
    else:
        raise AlgorithmError(f"unknown regime {regime!r}")
    # A matching run carries *two* compact owner tables (vertex ids and
    # edge ids) and pushes 3-word values over the heavier line-graph
    # adjacency, so double the per-machine memory relative to the
    # single-graph regime.
    return MPCConfig(
        num_machines=base.num_machines,
        memory_words=2 * base.memory_words,
        label=base.label + "+matching",
        slack=base.slack,
    )


def build_distributed_line_graph(dg: DistributedGraph) -> DistributedGraph:
    """Materialise the line graph of the active base graph.

    Returns a second :class:`DistributedGraph` (same simulator, its own
    contiguous owner map over edge ids) whose adjacency lives under
    ``LG_ADJ``; each machine also keeps ``EDGE_TABLE`` mapping its edge
    ids to endpoint pairs.  Costs 6 rounds.
    """
    sim = dg.sim

    # --- dense edge ids via a prefix sum over local edge counts --------
    def stage_edges(machine: Machine) -> None:
        adj = machine.store[ADJ]
        local_edges = sorted(
            (v, u) for v, nbrs in adj.items() for u in nbrs if v < u
        )
        machine.store["_lg_local_edges"] = local_edges

    sim.local(stage_edges)
    total_edges = exclusive_prefix_counts(
        sim,
        lambda machine: len(machine.store["_lg_local_edges"]),
        store_key="_lg_offset",
    )

    def assign_ids(machine: Machine) -> None:
        offset = machine.store.pop("_lg_offset")
        local_edges = machine.store.pop("_lg_local_edges")
        machine.store[EDGE_TABLE] = {
            offset + i: pair for i, pair in enumerate(local_edges)
        }

    sim.local(assign_ids)

    # --- edge-id owner map: contiguous ranges by construction ----------
    bounds = [0]
    for count in sim.harvest(lambda m: len(m.store[EDGE_TABLE])):
        bounds.append(bounds[-1] + count)
    line_owner = RangeOwnerMap(tuple(bounds))

    # --- endpoints learn their incident edges (1 round) ----------------
    def announce(machine: Machine) -> Outbox:
        owners = dg.owner_map.owners
        out = []
        for edge_id, (u, v) in machine.store[EDGE_TABLE].items():
            out.append((owners[u], (u, edge_id)))
            out.append((owners[v], (v, edge_id)))
        return out

    sim.communicate(announce)

    # --- vertex owners return full incidence lists (1 round) -----------
    def reflect(machine: Machine) -> Outbox:
        incident: Dict[int, List[int]] = {}
        for vertex, edge_id in machine.inbox:
            incident.setdefault(vertex, []).append(edge_id)
        machine.clear_inbox()
        line_owners = line_owner.owners
        out = []
        for vertex, edge_ids in incident.items():
            edge_ids.sort()
            for edge_id in edge_ids:
                out.append(
                    (line_owners[edge_id], (edge_id,) + tuple(edge_ids))
                )
        return out

    sim.communicate(reflect)

    def build_adjacency(machine: Machine) -> None:
        conflicts: Dict[int, set] = {
            edge_id: set() for edge_id in machine.store[EDGE_TABLE]
        }
        for payload in machine.inbox:
            edge_id = payload[0]
            if edge_id in conflicts:
                conflicts[edge_id].update(payload[1:])
        machine.clear_inbox()
        machine.store[LG_ADJ] = {
            edge_id: tuple(sorted(group - {edge_id}))
            for edge_id, group in conflicts.items()
        }

    serialized = line_owner.serialize()

    def plant_owner(machine: Machine) -> None:
        # Charge each machine for the compact owner-map metadata, the
        # same way DistributedGraph.load does for the base graph.
        machine.store["lg_owner"] = tuple(serialized)

    sim.local(build_adjacency)
    sim.local(plant_owner)
    return DistributedGraph(sim, line_owner, total_edges)


def matching_program(
    chooser=None,
    allow_stalls: int = 0,
) -> SuperstepProgram:
    """Maximal matching as a phase program: Luby MIS on the line graph.

    Three unlabelled steps (the construction and harvest carry no trace
    label of their own, exactly as before the framework; the embedded
    Luby engine emits its usual phase labels): build the distributed
    line graph, solve MIS on it, record the matched endpoint pairs.  The
    matching lands in the context's ``matching`` payload slot; matched
    endpoint pairs are also kept per machine under ``MATCHED``.
    ``chooser`` / ``allow_stalls`` forward to the Luby engine (pass a
    random chooser and positive stalls for the randomized baseline).
    """

    def build(ctx: ProgramContext) -> None:
        ctx.state["lg_graph"] = build_distributed_line_graph(ctx.dg)

    def solve(ctx: ProgramContext) -> None:
        engine = luby_program(
            adj_key=LG_ADJ,
            in_set_key="lg_in_set",
            chooser=chooser,
            allow_stalls=allow_stalls,
        )
        ctx.counters.update(
            run_program(ctx.state["lg_graph"], engine).counters
        )

    def record(ctx: ProgramContext) -> None:
        def record_matches(machine: Machine) -> None:
            table = machine.store[EDGE_TABLE]
            chosen = machine.store.pop("lg_in_set")
            machine.store[MATCHED] = sorted(table[eid] for eid in chosen)

        ctx.sim.local(record_matches)
        matching: List[Tuple[int, int]] = []
        for chunk in ctx.sim.harvest(lambda m: m.store[MATCHED]):
            matching.extend(chunk)
        ctx.matching = sorted(matching)

    return SuperstepProgram(
        name="line-graph",
        counters=("phases", "seed_candidates", "isolated_joins"),
        steps=(
            Phase(build, keys=(LG_ADJ, EDGE_TABLE)),
            Phase(solve, keys=("lg_in_set",)),
            Phase(record, keys=(MATCHED,)),
        ),
    )


def solve_matching(
    graph: Graph,
    seed: int = 0,
    verify: bool = True,
    algorithm: Optional[str] = None,
    regime: str = "sublinear",
    alpha_mem: Tuple[int, int] = (2, 3),
    config=None,
    backend: Optional[str] = None,
    num_shards: int = 0,
    kernel: Optional[str] = None,
    trace: bool = False,
) -> MatchingResult:
    """One-call driver: build the regime, run, verify, return the matching.

    A thin registry lookup over :class:`~repro.core.session.SolverSession`
    — the same dispatch and lifecycle as ``solve_ruling_set``, which is
    what gives matching the full driver surface: named ``regime`` /
    explicit ``config``, the ``backend`` (``"serial"`` or ``"shard"``)
    with its ``num_shards`` shard count, the ``kernel`` compute
    backend, and the superstep ``trace`` (all with the usual
    bit-identity contracts).

    ``algorithm`` is any registered matching algorithm name (default
    :data:`~repro.core.registry.DET_MATCHING`).

    Returns a :class:`~repro.core.spec.MatchingResult`; iterating it
    yields ``(matching, metrics)``, so existing tuple-unpacking callers
    are unaffected.
    """
    from repro.core import registry
    from repro.core.session import SolverSession

    if algorithm is None:
        algorithm = registry.DET_MATCHING
    spec = registry.solver_spec(algorithm, registry.MATCHING)
    result = SolverSession(
        graph, spec, regime=regime, alpha_mem=alpha_mem, config=config,
        seed=seed, backend=backend, num_shards=num_shards, kernel=kernel,
        trace=trace,
    ).run()
    if verify:
        verify_maximal_matching(graph, result.matching)
    return result


def verify_maximal_matching(
    graph: Graph, matching: List[Tuple[int, int]]
) -> None:
    """Sequential ground truth: matching validity plus maximality."""
    used = set()
    for u, v in matching:
        if not graph.has_edge(u, v):
            raise AlgorithmError(f"({u}, {v}) is not an edge")
        if u in used or v in used:
            raise AlgorithmError(f"endpoint reused by ({u}, {v})")
        used.add(u)
        used.add(v)
    for u, v in graph.edges():
        if u not in used and v not in used:
            raise AlgorithmError(
                f"edge ({u}, {v}) could extend the matching — not maximal"
            )
