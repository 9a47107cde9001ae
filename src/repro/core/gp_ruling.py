"""Deterministic 2-ruling set via degree-class decomposition.

A reconstruction of the improved deterministic MPC 2-ruling set of
Giliberti and Parsaeian (arXiv 2406.12727), the direct successor to the
source paper's sparsify-and-gather engine.  Where the engine of the
source paper pays a seed scan per *sparsification level* (β − 1 levels
per iteration, Θ(log Δ) iterations), this algorithm processes the graph
in **degree classes** whose maximum degree decays doubly exponentially,
so only ``O(log log Δ)`` classes are ever touched:

1. **Class floor.**  With residual maximum degree Δ, set
   ``d_lo = isqrt(Δ)``.  Vertices of degree ≥ d_lo are the *high* class
   this iteration must dominate.
2. **Derandomized sparsification.**  Sample each vertex with rate
   ``q = min(1/2, 4/d_lo)`` via an affine hash seed.  A high vertex with
   no sampled closed neighbour is *uncovered*; by pairwise independence
   and Chebyshev an average seed leaves ≤ 1/4 of the uncovered set
   uncovered, so the batched distributed seed scan (the same
   :func:`repro.derand.seed_search.distributed_scan_seeds` machinery the
   sparsify engine uses) finds a seed halving the uncovered count after
   O(1) candidates.  Committed seeds accumulate — membership in the
   sample is the union over committed seeds, still a pure function of
   the id, so every machine builds the induced sample adjacency with
   **zero communication**.  At most ``log2(n) + 1`` seeds are committed
   before every high vertex is covered.
3. **Solve the sample.**  MIS on the induced sample subgraph — gathered
   to machine 0 for a sequential greedy solve when it fits half a
   machine, else the derandomized distributed Luby engine.  Every high
   vertex is within distance 1 of the sample and every sample vertex is
   within distance 1 of an MIS member, so the high class sits within
   distance 2 of the output.
4. **Remove** everything within 2 hops of the new members.  The entire
   high class is removed, so the residual maximum degree drops below
   ``isqrt(Δ)`` — the doubly-exponential decay.

The loop finishes by gathering the whole residual once it fits one
machine, or by running the Luby engine once the residual degree is ≤ 8.
Members of one iteration are independent (an MIS of an induced
subgraph), and later members are at distance ≥ 2 from earlier ones
(distance-1 neighbours are always removed), so the output is
2-independent; every removed vertex is certifiably within 2 hops of a
member, so the output 2-dominates: a (2, 2)-ruling set, unconditionally
by construction.  As with the sparsify engine, the sampling targets only
govern progress speed.

The implementation is a :class:`~repro.core.program.SuperstepProgram`
built entirely from the shared phase-program framework and
:mod:`repro.core.engine_ops` building blocks — the point of the
refactor is visible here: this module contains only algorithm logic.
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

from repro.core.det_luby import luby_program, modulus_for
from repro.core.engine_ops import (
    adjacency_words,
    deactivate_all,
    gather_and_greedy,
    merge_members,
    removal_wave,
)
from repro.core.program import (
    EXIT,
    Branch,
    Loop,
    Phase,
    ProgramContext,
    SuperstepProgram,
    run_program,
)
from repro.derand.family import Seed, threshold_for_rate
from repro.derand.seed_search import distributed_scan_seeds
from repro.errors import AlgorithmError
from repro.mpc.graph_store import ADJ
from repro.mpc.machine import Machine
from repro.mpc.primitives.aggregate import reduce_scalar

GP_IN_SET = "gp_in_set"
GP_ITER = "gp_iter_members"
SAMPLE_ADJ = "gp_sample_adj"

#: Residual degree at which the class loop hands over to the Luby engine.
ENDGAME_DEGREE = 8


def claimed_round_bound(num_vertices: int, max_degree: int) -> int:
    """A concrete, testable ceiling on the round count of one solve.

    ``O(log log Δ)`` degree classes (doubly-exponential decay), each
    paying ``O(log n)`` scan/solve rounds, plus one endgame.  The
    constant is deliberately generous — the bound's job is to be a
    *claimed* complexity function the tests can hold the implementation
    to, mirroring how claimed β is checked by verification.
    """
    blen = max(2, num_vertices).bit_length()
    classes = 2 + max(1, max(2, max_degree).bit_length().bit_length())
    return 80 * (classes + 2) * (blen + 4)


def _class_threshold(p: int, d_lo: int) -> int:
    """Sampling threshold for rate ``q = min(1/2, 4/d_lo)``."""
    if d_lo <= 8:
        return threshold_for_rate(p, 1, 2)
    return threshold_for_rate(p, 4, d_lo)


def gp_program(
    in_set_key: str = GP_IN_SET,
    luby_chooser=None,
    luby_allow_stalls: int = 0,
    max_iterations: Optional[int] = None,
) -> SuperstepProgram:
    """The degree-class 2-ruling set as a phase program.

    Each iteration is an unlabelled measurement phase plus a routed
    branch: ``gp-gather-finish`` (whole residual fits one machine),
    ``gp-endgame-luby`` (residual degree ≤ 8), or the three-phase class
    chain ``gp-sparsify`` → ``gp-solve-sample`` → ``gp-removal-wave``.
    The session executes it via the registry's program factory.
    Members accumulate per machine under ``store[in_set_key]``.
    """

    def sample_luby(adj_key: str) -> SuperstepProgram:
        return luby_program(
            adj_key=adj_key, in_set_key=GP_ITER,
            chooser=luby_chooser, allow_stalls=luby_allow_stalls,
        )

    def setup(ctx: ProgramContext) -> None:
        dg, sim = ctx.dg, ctx.sim
        ctx.state["gp_p"] = modulus_for(dg.num_vertices)
        ctx.state["gp_budget"] = sim.config.memory_words // 2
        ctx.state["gp_limit"] = (
            max_iterations
            if max_iterations is not None
            else 2 + max(1, dg.num_vertices.bit_length())
        )

        def ensure_sets(machine: Machine) -> None:
            if in_set_key not in machine.store:
                machine.store[in_set_key] = set()
            machine.store[GP_ITER] = set()

        sim.local(ensure_sets)

    def measure(ctx: ProgramContext):
        n_act, m_act, words = adjacency_words(ctx.dg, ADJ)
        if n_act == 0:
            return EXIT
        ctx.state["gp_words"] = words
        return None

    def route(ctx: ProgramContext) -> None:
        if ctx.state["gp_words"] <= ctx.state["gp_budget"]:
            ctx.state["gp_route"] = "gather"
            return
        max_deg = ctx.dg.max_active_degree(ADJ)
        if max_deg <= ENDGAME_DEGREE:
            ctx.state["gp_route"] = "endgame"
            return
        ctx.state["gp_route"] = "class"
        ctx.state["gp_max_deg"] = max_deg

    def gather_finish(ctx: ProgramContext):
        members = gather_and_greedy(ctx.dg, ADJ, GP_ITER)
        ctx.counters["gather_finishes"] += 1
        ctx.counters["members"] += members
        merge_members(ctx.sim, in_set_key, GP_ITER)
        deactivate_all(ctx.dg, ADJ)
        return EXIT

    def endgame(ctx: ProgramContext):
        sub = run_program(ctx.dg, sample_luby(ADJ)).counters
        ctx.counters["endgame_luby"] += 1
        ctx.counters["seed_candidates"] += sub["seed_candidates"]
        ctx.counters["members"] += merge_members(ctx.sim, in_set_key, GP_ITER)
        return EXIT

    def sparsify(ctx: ProgramContext) -> None:
        """Commit seeds until every high-class vertex is covered."""
        dg, sim = ctx.dg, ctx.sim
        p = ctx.state["gp_p"]
        d_lo = math.isqrt(ctx.state.pop("gp_max_deg"))
        threshold = _class_threshold(p, d_lo)
        ctx.counters["classes"] += 1

        # The uncovered table: each machine keeps the closed neighbour
        # lists of its still-uncovered high-class vertices, filtered in
        # place as seeds commit, so every scan candidate is scored
        # against exactly the remaining uncovered set.
        def stage_uncovered(machine: Machine) -> None:
            adj = machine.store[ADJ]
            machine.store["_gp_uncov"] = {
                v: nbrs for v, nbrs in adj.items() if len(nbrs) >= d_lo
            }

        sim.local(stage_uncovered)
        uncovered = reduce_scalar(
            sim, lambda m: len(m.store["_gp_uncov"]), lambda a, b: a + b
        )
        committed: List[Seed] = []
        scan_start = 0
        commit_cap = 2 + max(2, dg.num_vertices).bit_length()
        while uncovered > 0:
            if len(committed) >= commit_cap:
                raise AlgorithmError(
                    "degree-class sparsification failed to cover the "
                    f"high class within {commit_cap} committed seeds"
                )

            def local_stats(machine: Machine, seed: Seed) -> Tuple[int]:
                # Still-uncovered count under committed ∪ {candidate}:
                # a vertex stays uncovered when neither it nor any
                # neighbour hashes below the threshold.
                t = threshold
                still = 0
                for v, nbrs in machine.store["_gp_uncov"].items():
                    if seed.hash(v) < t:
                        continue
                    if any(seed.hash(u) < t for u in nbrs):
                        continue
                    still += 1
                return (still,)

            def accept(stats: Tuple[int, ...]) -> bool:
                return 2 * stats[0] <= uncovered

            seed, stats, scan = distributed_scan_seeds(
                sim,
                p,
                local_stats,
                stat_width=1,
                accept=accept,
                start_index=scan_start,
            )
            scan_start += scan.candidates_scanned
            committed.append(seed)
            ctx.counters["scans"] += 1
            ctx.counters["seed_candidates"] += scan.candidates_scanned
            uncovered = stats[0]

            def drop_covered(machine: Machine, s=seed) -> None:
                t = threshold
                machine.store["_gp_uncov"] = {
                    v: nbrs
                    for v, nbrs in machine.store["_gp_uncov"].items()
                    if s.hash(v) >= t
                    and not any(s.hash(u) < t for u in nbrs)
                }

            sim.local(drop_covered)

        ctx.release("_gp_uncov")

        # Sample membership is a pure function of the id given the
        # committed seed list — the induced adjacency needs no rounds.
        def build_sample(machine: Machine) -> None:
            t = threshold

            def sampled(v: int) -> bool:
                return any(s.hash(v) < t for s in committed)

            adj = machine.store[ADJ]
            machine.store[SAMPLE_ADJ] = {
                v: tuple(u for u in nbrs if sampled(u))
                for v, nbrs in adj.items()
                if sampled(v)
            }

        sim.local(build_sample)
        ctx.push_level(SAMPLE_ADJ)

    def solve_sample(ctx: ProgramContext) -> None:
        dg, sim = ctx.dg, ctx.sim
        n_smp, m_smp, smp_words = adjacency_words(dg, SAMPLE_ADJ)
        if smp_words <= ctx.state["gp_budget"]:
            members = gather_and_greedy(dg, SAMPLE_ADJ, GP_ITER)
            ctx.counters["class_gathers"] += 1
        else:
            sub = run_program(dg, sample_luby(SAMPLE_ADJ)).counters
            ctx.counters["class_luby_solves"] += 1
            ctx.counters["seed_candidates"] += sub["seed_candidates"]
            members = reduce_scalar(
                sim, lambda m: len(m.store[GP_ITER]), lambda a, b: a + b
            )
        if members == 0:
            raise AlgorithmError(
                "class solver produced no members from a non-empty sample"
            )
        ctx.counters["members"] += members

    def remove(ctx: ProgramContext) -> None:
        removal_wave(ctx.dg, GP_ITER, 2)
        merge_members(ctx.sim, in_set_key, GP_ITER)
        ctx.release_levels()

    return SuperstepProgram(
        name="degree-class",
        counters=(
            "classes",
            "scans",
            "seed_candidates",
            "class_gathers",
            "class_luby_solves",
            "gather_finishes",
            "endgame_luby",
            "members",
        ),
        steps=(
            Phase(setup, keys=(in_set_key, GP_ITER)),
            Loop(
                steps=(
                    Phase(measure),
                    Phase(route, name="gp-degree-class"),
                    Branch(
                        pick=lambda ctx: ctx.state.pop("gp_route"),
                        arms={
                            "gather": (
                                Phase(
                                    gather_finish, name="gp-gather-finish"
                                ),
                            ),
                            "endgame": (
                                Phase(endgame, name="gp-endgame-luby"),
                            ),
                            "class": (
                                Phase(
                                    sparsify,
                                    name="gp-sparsify",
                                    keys=("_gp_uncov", SAMPLE_ADJ),
                                ),
                                Phase(solve_sample, name="gp-solve-sample"),
                                Phase(remove, name="gp-removal-wave"),
                            ),
                        },
                    ),
                ),
                limit=lambda ctx: ctx.state["gp_limit"],
                exhausted=lambda ctx: AlgorithmError(
                    "degree-class decomposition did not finish in "
                    f"{ctx.state['gp_limit']} iterations"
                ),
            ),
        ),
    )

