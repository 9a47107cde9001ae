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

Steps 3 and 4, the two finishing arms and the class loop are the
shared :func:`repro.core.engine_ops.sparsify_gather_program`, the same
loop the sparsify-and-gather engine runs; this module supplies only
steps 1–2 (the degree-class sampling step) and its constants (see
:func:`gp_program`).
"""

from __future__ import annotations

import math
from typing import List, Tuple

from repro.core.engine_ops import sparsify_gather_program
from repro.core.program import ProgramContext, SuperstepProgram
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


def gp_program(in_set_key: str = GP_IN_SET) -> SuperstepProgram:
    """The degree-class 2-ruling set as a phase program.

    Runs :func:`~repro.core.engine_ops.sparsify_gather_program` with
    the degree-class sampling step under ``gp-sparsify``, the sample
    solved under ``gp-solve-sample`` and removed to 2 hops under
    ``gp-removal-wave``; the loop routes under ``gp-degree-class`` and
    ends in ``gp-gather-finish`` or, at residual degree ≤ 8,
    ``gp-endgame-luby``.  It counts ``classes`` and ``scans``, and caps
    the loop at ``2 + bit_length(n)`` classes.  The session executes it
    via the registry's program factory.  Members accumulate per machine
    under ``store[in_set_key]``.
    """

    def sparsify(ctx: ProgramContext, max_deg: int) -> str:
        """Commit seeds until every high-class vertex is covered."""
        dg, sim = ctx.dg, ctx.sim
        p = ctx.state["p"]
        d_lo = math.isqrt(max_deg)
        threshold = _class_threshold(p, d_lo)
        ctx.counters["classes"] += 1

        # The uncovered table: each machine keeps the closed neighbour
        # lists of its still-uncovered high-class vertices, filtered in
        # place as seeds commit, so every scan candidate is scored
        # against exactly the remaining uncovered set.
        def stage_uncovered(machine: Machine) -> None:
            adj = machine.store.peek(ADJ)
            machine.store["_gp_uncov"] = {
                v: nbrs for v, nbrs in adj.items() if len(nbrs) >= d_lo
            }

        sim.local(stage_uncovered)
        uncovered = reduce_scalar(
            sim, lambda m: len(m.store.peek("_gp_uncov")), lambda a, b: a + b
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
                hash_v, any_below = seed.hash, seed.any_below
                still = 0
                for v, nbrs in machine.store.peek("_gp_uncov").items():
                    if hash_v(v) >= t and not any_below(nbrs, t):
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
                    if s.hash(v) >= t and not s.any_below(nbrs, t)
                }

            sim.local(drop_covered)

        ctx.release("_gp_uncov")

        # Sample membership is a pure function of the id given the
        # committed seed list — the induced adjacency needs no rounds.
        def build_sample(machine: Machine) -> None:
            t = threshold
            adj = machine.store.peek(ADJ)
            ids = set(adj).union(*adj.values())
            sample = set()
            for s in committed:
                sample.update(s.below(ids, t))
            machine.store[SAMPLE_ADJ] = {
                v: tuple(u for u in nbrs if u in sample)
                for v, nbrs in adj.items()
                if v in sample
            }

        sim.local(build_sample)
        ctx.push_level(SAMPLE_ADJ)
        return SAMPLE_ADJ

    return sparsify_gather_program(
        name="degree-class",
        prefix="gp",
        route_label="gp-degree-class",
        solve_label="gp-solve-sample",
        solve_counter="class",
        iteration_counter=None,
        in_set_key=in_set_key,
        iter_key=GP_ITER,
        sample=sparsify,
        sample_keys=("_gp_uncov", SAMPLE_ADJ),
        sample_counters=("classes", "scans"),
        limit=lambda n: 2 + max(1, n.bit_length()),
        endgame_degree=ENDGAME_DEGREE,
        radius=2,
    )
