"""Deterministic ``(2, β)``-ruling sets via derandomized sparsify-and-gather.

This is the reconstruction of the paper's headline algorithm.  Each
iteration of the main loop:

1. **Sparsify** (β − 1 levels).  Level ``j`` samples
   ``X_j = {v ∈ X_{j-1} : h_j(v) < T_j}`` with rate
   ``q_j = min(1/2, 4/√Δ_j)`` using a hash seed chosen by a *batched
   distributed seed scan* against two targets:

   * size: ``|X_j| · p ≤ 3 · |X_{j-1}| · T_j``  (Markov, fails w.p. < 1/3)
   * coverage: at most half the vertices of degree ≥ ``8/q_j`` lack a
     sampled neighbour (pairwise independence + Chebyshev gives
     ``Pr[no sampled neighbour] ≤ 1/(deg·q) ≤ 1/8`` per such vertex, so
     the target fails w.p. ≤ 1/4).

   At least a ``5/12`` fraction of the family meets both targets, so the
   deterministic scan commits after O(1) batches.  Because membership in
   ``X_j`` is a pure function of the *id*, each machine builds the induced
   level-``j`` adjacency with **zero communication**.

2. **Solve** the deepest level: gather its subgraph to machine 0 and run
   greedy MIS there if it fits half a machine's memory, otherwise fall
   back to the distributed derandomized Luby MIS on that level (or, if
   sampling left the level empty, one Luby MIS on the whole residual).

3. **Remove** everything within β hops of the new members (a β-round
   flag wave on the original adjacency), so every removed vertex is
   certifiably within β of the output and later members stay independent
   of earlier ones (distance-1 neighbours are always removed).

The loop ends by gathering the whole residual graph once it fits, or by
running Luby when its degree is tiny.  Correctness — 2-independence and
β-domination — holds *unconditionally by construction*; the sampling
targets only govern progress speed.  The randomized baseline runs the
same engine with a draw-don't-scan seed chooser, so benchmark deltas
isolate exactly the derandomization cost.

Steps 2 and 3, the two finishing arms and the iteration loop are the
shared :func:`repro.core.engine_ops.sparsify_gather_program`, which the
degree-class solver (:mod:`repro.core.gp_ruling`) runs too; this module
supplies only step 1 — the level chain and its seed chooser — and the
engine's constants (see :func:`ruling_program`).
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

from repro.core.engine_ops import (
    adjacency_words,
    sampling_rate,
    sparsify_gather_program,
)
from repro.core.program import ProgramContext, SuperstepProgram
from repro.derand.family import Seed, threshold_for_rate
from repro.derand.seed_search import distributed_scan_seeds
from repro.errors import AlgorithmError
from repro.mpc.graph_store import ADJ, DistributedGraph
from repro.mpc.machine import Machine
from repro.mpc.primitives.aggregate import reduce_scalar

IN_SET = "rs_in_set"
ITER_MEMBERS = "rs_iter_members"

#: Residual degree at which the loop hands over to the Luby engine.
ENDGAME_DEGREE = 4

# A sampling chooser returns (seed, candidates_scanned) for one level.
SamplingChooser = Callable[
    ["DistributedGraph", int, str, int, int, int, int], Tuple[Seed, int]
]


def scanning_chooser(batch: int = 32, max_batches: int = 512) -> SamplingChooser:
    """Deterministic chooser: batched scan against size+coverage targets."""

    def choose(
        dg: DistributedGraph,
        p: int,
        adj_key: str,
        threshold: int,
        high_degree: int,
        n_level: int,
        n_high: int,
    ) -> Tuple[Seed, int]:
        def local_stats(machine: Machine, seed: Seed) -> Tuple[int, int]:
            # ``seed.hash`` inlined: this is the scan's per-vertex loop.
            a, b = seed.a, seed.b
            sampled = 0
            uncovered_high = 0
            for v, neighbors in machine.store.peek(adj_key).items():
                if (a * v + b) % p < threshold:
                    sampled += 1
                if len(neighbors) >= high_degree and not any(
                    (a * u + b) % p < threshold for u in neighbors
                ):
                    uncovered_high += 1
            return (sampled, uncovered_high)

        def accept(stats: Tuple[int, ...]) -> bool:
            sampled, uncovered_high = stats
            # Size: E[|X|] = n*T/p and Var <= E under pairwise
            # independence, so Chebyshev bounds Pr[|X| > 1.5E + 4] by
            # E/(E/2 + 4)^2 — a 1.5x multiplicative target (plus absolute
            # slack 4) keeps a constant family fraction acceptable while
            # excluding degenerate near-full samples, which a 3x Markov
            # target would admit at rate 1/2.
            size_ok = 2 * sampled * p <= 3 * n_level * threshold + 8 * p
            coverage_ok = 2 * uncovered_high <= n_high
            return size_ok and coverage_ok

        seed, _, scan = distributed_scan_seeds(
            dg.sim,
            p,
            local_stats,
            stat_width=2,
            accept=accept,
            batch=batch,
            max_batches=max_batches,
        )
        return seed, scan.candidates_scanned

    return choose


def ruling_program(
    beta: int = 2,
    in_set_key: str = IN_SET,
    chooser: Optional[SamplingChooser] = None,
    luby_chooser=None,
    luby_allow_stalls: int = 0,
) -> SuperstepProgram:
    """The sparsify-and-gather ruling-set engine as a phase program.

    Runs :func:`~repro.core.engine_ops.sparsify_gather_program` with
    this engine's sampling step: the β − 1 level chain under
    ``ruling-sparsify``, solved under ``ruling-solve-level``, removed
    to β hops under ``ruling-removal-wave``; the loop routes under
    ``ruling-iteration`` and ends in ``ruling-gather-finish`` or, at
    residual degree ≤ 4, ``ruling-endgame-luby``.  It counts
    ``iterations`` and ``levels_built``, and caps the loop at n + 2
    iterations.

    Members accumulate per machine under ``store[in_set_key]``.
    ``chooser`` selects sampling seeds (default: the deterministic
    batched scan); ``luby_chooser`` is forwarded to the Luby engine when
    it is used as the level solver or endgame (default: deterministic
    conditional expectations).
    """
    if beta < 2:
        raise AlgorithmError(
            f"ruling_program needs beta >= 2, got {beta}; "
            "use luby_program for an MIS"
        )
    choose = chooser if chooser is not None else scanning_chooser()

    def sparsify(ctx: ProgramContext, max_deg: int) -> str:
        dg, sim = ctx.dg, ctx.sim
        p = ctx.state["p"]
        budget = ctx.state["budget"]
        prev_key = ADJ
        level_degree = max_deg
        for level in range(1, beta):
            rate_num, rate_den = sampling_rate(level_degree)
            threshold = threshold_for_rate(p, rate_num, rate_den)
            high_degree = -(-8 * rate_den // rate_num)  # ceil(8 / q)
            n_level = dg.count_active(prev_key)
            n_high = reduce_scalar(
                sim,
                lambda m, hk=prev_key, hd=high_degree: sum(
                    1
                    for nbrs in m.store.peek(hk).values()
                    if len(nbrs) >= hd
                ),
                lambda a, b: a + b,
            )
            seed, scanned = choose(
                dg, p, prev_key, threshold, high_degree, n_level, n_high
            )
            ctx.counters["seed_candidates"] += scanned
            ctx.counters["levels_built"] += 1
            new_key = f"rs_level{level}_adj"
            ctx.push_level(new_key)

            def build_level(
                machine: Machine, src=prev_key, dst=new_key,
                s=seed, t=threshold,
            ) -> None:
                machine.store[dst] = {
                    v: tuple(u for u in nbrs if s.hash(u) < t)
                    for v, nbrs in machine.store.peek(src).items()
                    if s.hash(v) < t
                }

            sim.local(build_level)
            prev_key = new_key
            n_lvl, m_lvl, lvl_words = adjacency_words(dg, prev_key)
            if n_lvl == 0 or lvl_words <= budget:
                break
            level_degree = dg.max_active_degree(prev_key)
            if level_degree <= ENDGAME_DEGREE:
                break
        return prev_key

    return sparsify_gather_program(
        name="sparsify-gather",
        prefix="ruling",
        route_label="ruling-iteration",
        solve_label="ruling-solve-level",
        solve_counter="level",
        iteration_counter="iterations",
        in_set_key=in_set_key,
        iter_key=ITER_MEMBERS,
        sample=sparsify,
        sample_keys=(),
        sample_counters=("levels_built",),
        limit=lambda n: n + 2,
        endgame_degree=ENDGAME_DEGREE,
        radius=beta,
        luby_chooser=luby_chooser,
        luby_allow_stalls=luby_allow_stalls,
    )
