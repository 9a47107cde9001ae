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
   back to the distributed derandomized Luby MIS on that level.

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

The engine is expressed as a :class:`~repro.core.program.
SuperstepProgram` (see :func:`ruling_program`); the shared superstep
building blocks (gather-and-greedy, removal wave, layer accounting) live
in :mod:`repro.core.engine_ops`.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

from repro.core.det_luby import luby_program, modulus_for
from repro.core.engine_ops import (
    adjacency_words,
    deactivate_all,
    gather_and_greedy,
    merge_members,
    removal_wave,
    sampling_rate,
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
from repro.mpc.graph_store import ADJ, DistributedGraph
from repro.mpc.machine import Machine
from repro.mpc.primitives.aggregate import reduce_scalar

IN_SET = "rs_in_set"
ITER_MEMBERS = "rs_iter_members"

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
            sampled = 0
            uncovered_high = 0
            for v, neighbors in machine.store[adj_key].items():
                if seed.hash(v) < threshold:
                    sampled += 1
                if len(neighbors) >= high_degree and not any(
                    seed.hash(u) < threshold for u in neighbors
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
    endgame_degree: int = 4,
    max_iterations: Optional[int] = None,
) -> SuperstepProgram:
    """The sparsify-and-gather ruling-set engine as a phase program.

    Each main-loop iteration is an unlabelled measurement phase plus a
    routed branch: ``ruling-gather-finish`` (whole residual fits one
    machine), ``ruling-endgame-luby`` (tiny residual degree), or the
    three-phase sparsify chain (``ruling-sparsify`` →
    ``ruling-solve-level`` → ``ruling-removal-wave``).  Level adjacency
    layers register with :meth:`~repro.core.program.ProgramContext.
    push_level` and are torn down via ``release_levels`` on every exit
    path.

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

    def level_luby(adj_key: str) -> SuperstepProgram:
        return luby_program(
            adj_key=adj_key, in_set_key=ITER_MEMBERS,
            chooser=luby_chooser, allow_stalls=luby_allow_stalls,
        )

    def setup(ctx: ProgramContext) -> None:
        dg, sim = ctx.dg, ctx.sim
        ctx.state["rs_p"] = modulus_for(dg.num_vertices)
        ctx.state["rs_budget"] = sim.config.memory_words // 2
        ctx.state["rs_limit"] = (
            max_iterations
            if max_iterations is not None
            else dg.num_vertices + 2
        )

        def ensure_sets(machine: Machine) -> None:
            if in_set_key not in machine.store:
                machine.store[in_set_key] = set()
            machine.store[ITER_MEMBERS] = set()

        sim.local(ensure_sets)

    def measure(ctx: ProgramContext):
        n_act, m_act, words = adjacency_words(ctx.dg, ADJ)
        if n_act == 0:
            return EXIT
        ctx.counters["iterations"] += 1
        ctx.state["rs_words"] = words
        return None

    def route(ctx: ProgramContext) -> None:
        # Runs under the "ruling-iteration" label: picks the arm and, on
        # the sparsify path, measures the residual degree (that reduction
        # is only paid when the residual does not fit one machine).
        if ctx.state["rs_words"] <= ctx.state["rs_budget"]:
            ctx.state["rs_route"] = "gather"
            return
        max_deg = ctx.dg.max_active_degree(ADJ)
        if max_deg <= endgame_degree:
            ctx.state["rs_route"] = "endgame"
            return
        ctx.state["rs_route"] = "sparsify"
        ctx.state["rs_max_deg"] = max_deg

    def gather_finish(ctx: ProgramContext):
        members = gather_and_greedy(ctx.dg, ADJ, ITER_MEMBERS)
        ctx.counters["gather_finishes"] += 1
        ctx.counters["members"] += members
        merge_members(ctx.sim, in_set_key, ITER_MEMBERS)
        deactivate_all(ctx.dg, ADJ)
        return EXIT

    def _residual_luby(ctx: ProgramContext) -> None:
        # Guaranteed-progress fallback: one full Luby MIS on the residual.
        sub = run_program(ctx.dg, level_luby(ADJ)).counters
        ctx.counters["endgame_luby"] += 1
        ctx.counters["seed_candidates"] += sub["seed_candidates"]
        ctx.counters["members"] += merge_members(
            ctx.sim, in_set_key, ITER_MEMBERS
        )

    def endgame(ctx: ProgramContext):
        _residual_luby(ctx)
        return EXIT

    def sparsify(ctx: ProgramContext) -> None:
        dg, sim = ctx.dg, ctx.sim
        p = ctx.state["rs_p"]
        budget = ctx.state["rs_budget"]
        prev_key = ADJ
        level_degree = ctx.state.pop("rs_max_deg")
        for level in range(1, beta):
            rate_num, rate_den = sampling_rate(level_degree)
            threshold = threshold_for_rate(p, rate_num, rate_den)
            high_degree = -(-8 * rate_den // rate_num)  # ceil(8 / q)
            n_level = dg.count_active(prev_key)
            n_high = reduce_scalar(
                sim,
                lambda m, hk=prev_key, hd=high_degree: sum(
                    1
                    for nbrs in m.store[hk].values()
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
                    for v, nbrs in machine.store[src].items()
                    if s.hash(v) < t
                }

            sim.local(build_level)
            prev_key = new_key
            n_lvl, m_lvl, lvl_words = adjacency_words(dg, prev_key)
            if n_lvl == 0 or lvl_words <= budget:
                break
            level_degree = dg.max_active_degree(prev_key)
            if level_degree <= endgame_degree:
                break
        ctx.state["rs_deep_key"] = prev_key

    def solve_level(ctx: ProgramContext):
        dg, sim = ctx.dg, ctx.sim
        prev_key = ctx.state.pop("rs_deep_key")
        n_deep, m_deep, deep_words = adjacency_words(dg, prev_key)
        if n_deep == 0:
            # Sampling emptied out (legal but rare): make guaranteed
            # progress with one full Luby MIS on the residual graph.
            _residual_luby(ctx)
            ctx.release_levels()
            return EXIT
        if deep_words <= ctx.state["rs_budget"]:
            members = gather_and_greedy(dg, prev_key, ITER_MEMBERS)
            ctx.counters["level_gathers"] += 1
        else:
            sub = run_program(dg, level_luby(prev_key)).counters
            ctx.counters["level_luby_solves"] += 1
            ctx.counters["seed_candidates"] += sub["seed_candidates"]
            members = reduce_scalar(
                sim, lambda m: len(m.store[ITER_MEMBERS]), lambda a, b: a + b
            )
        if members == 0:
            raise AlgorithmError(
                "level solver produced no members from a non-empty level"
            )
        ctx.counters["members"] += members
        return None

    def remove(ctx: ProgramContext) -> None:
        removal_wave(ctx.dg, ITER_MEMBERS, beta)
        merge_members(ctx.sim, in_set_key, ITER_MEMBERS)
        ctx.release_levels()

    return SuperstepProgram(
        name="sparsify-gather",
        counters=(
            "iterations",
            "levels_built",
            "seed_candidates",
            "gather_finishes",
            "level_gathers",
            "level_luby_solves",
            "endgame_luby",
            "members",
        ),
        steps=(
            Phase(setup, keys=(in_set_key, ITER_MEMBERS)),
            Loop(
                steps=(
                    Phase(measure),
                    Phase(route, name="ruling-iteration"),
                    Branch(
                        pick=lambda ctx: ctx.state.pop("rs_route"),
                        arms={
                            "gather": (
                                Phase(
                                    gather_finish,
                                    name="ruling-gather-finish",
                                ),
                            ),
                            "endgame": (
                                Phase(endgame, name="ruling-endgame-luby"),
                            ),
                            "sparsify": (
                                Phase(sparsify, name="ruling-sparsify"),
                                Phase(
                                    solve_level,
                                    name="ruling-solve-level",
                                ),
                                Phase(
                                    remove,
                                    name="ruling-removal-wave",
                                ),
                            ),
                        },
                    ),
                ),
                limit=lambda ctx: ctx.state["rs_limit"],
                exhausted=lambda ctx: AlgorithmError(
                    "ruling set did not finish in "
                    f"{ctx.state['rs_limit']} iterations"
                ),
            ),
        ),
    )

