"""Deterministic MIS in MPC via the derandomized Luby step.

Each *phase* derandomizes one step of Luby's Algorithm B:

1. every active vertex ``v`` learns its neighbours' degrees (one round);
2. vertex ``v`` would be *marked* when ``h(v) < T_v`` with
   ``T_v = p // (2 d(v))`` — marking probability ``≈ 1/(2 d(v))``;
3. the seed ``h = h_{a,b}`` is selected by the distributed method of
   conditional expectations against the pessimistic estimator

   ``Psi(h) = Σ_v d(v)·[v marked] − Σ_v Σ_{u ~ v, u ≻ v} d(v)·[u, v both
   marked]``

   where ``u ≻ v`` orders by ``(degree, id)``.  Pointwise
   ``Psi(h) ≤ Σ_{v ∈ C} d(v)`` for the *winner set*
   ``C = {marked v with no marked u ≻ v adjacent}`` (a marked vertex with
   a marked higher neighbour nets ≤ 0), and ``C`` is independent.
   Over the pairwise-independent family,
   ``E[Psi] ≥ Σ_v d(v)·(T_v/p)·(1 − Σ_{u≻v} T_u/p) ≥ n_act(1/4 − Δ/2p)
   ≥ n_act/8`` for ``p ≥ 4Δ`` — so the committed seed certifies
   ``Σ_{v∈C} d(v) ≥ n_act/8 > 0``: **every phase makes progress and
   removes at least n_act/8 edge endpoints, deterministically**;
4. ``C`` joins the MIS; ``N[C]`` is removed (two rounds).

Phase count is ``O(log n)`` empirically (bench E3 measures the decay);
the per-phase *guarantee* proved above is positive progress plus the
``n_act/8`` floor.  Isolated vertices join the MIS directly.

The same engine runs the **randomized** Luby baseline: pass a seed
chooser that draws ``(a, b)`` at random instead of searching — the code
path, and hence the measured difference, isolates exactly the cost of
derandomization.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from repro.core.program import (
    CONTINUE,
    EXIT,
    Loop,
    Phase,
    ProgramContext,
    SuperstepProgram,
)
from repro.derand.estimator import ThresholdEstimator
from repro.derand.family import Seed
from repro.derand.seed_search import distributed_choose_seed
from repro.errors import AlgorithmError
from repro.mpc.graph_store import ADJ
from repro.mpc.machine import Machine
from repro.mpc.state_layout import KERNEL_PYTHON, kernel_of
from repro.util.prime import next_prime

VTERMS = "luby_vterms"
PTERMS = "luby_pterms"
IN_SET = "luby_in_set"

#: Luby iterations before the engine gives up with an
#: :class:`~repro.errors.AlgorithmError` (a safety net, not a bound).
MAX_PHASES = 10_000

# A seed chooser returns (seed, candidates_scanned); the deterministic
# chooser runs the distributed method of conditional expectations.
SeedChooser = Callable[["object", int], Tuple[Seed, int]]


def _luby_estimator(
    p: int, kernel: str = KERNEL_PYTHON
) -> Callable[[Machine], ThresholdEstimator]:
    """Estimator builder for the compact Luby term layout.

    Machines store vertex terms ``(v, T_v, d_v)`` and compact pair terms
    ``(v, u, T_u)`` — the pair's own threshold ``T_v`` and weight
    ``-d_v`` are recovered from the vertex-term table, saving two words
    per directed edge on the machines.
    """

    def build(machine: Machine) -> ThresholdEstimator:
        vterms = machine.store.peek(VTERMS, ())
        own = {v: (t_v, d_v) for v, t_v, d_v in vterms}
        pterms = []
        for v, u, t_u in machine.store.peek(PTERMS, ()):
            t_v, d_v = own[v]
            pterms.append((v, t_v, u, t_u, -d_v))
        return ThresholdEstimator.from_flat_terms(
            p, vterms, pterms, kernel=kernel
        )

    return build


def conditional_expectation_chooser(chunk_bits: int = 5) -> SeedChooser:
    """Seed chooser: distributed method of conditional expectations."""

    def choose(sim, p: int) -> Tuple[Seed, int]:
        seed, stats = distributed_choose_seed(
            sim,
            p,
            _luby_estimator(p, kernel=kernel_of(sim)),
            chunk_bits=chunk_bits,
        )
        return seed, stats.candidates_scanned

    return choose


def modulus_for(num_vertices: int) -> int:
    """Hash-field modulus: a prime ``> 4 n`` so ``T_v = p//(2d) >= 2``."""
    return next_prime(4 * max(2, num_vertices))


def luby_program(
    adj_key: str = ADJ,
    in_set_key: str = IN_SET,
    chooser: Optional[SeedChooser] = None,
    allow_stalls: int = 0,
    trace: Optional[List[Tuple[int, int, int]]] = None,
) -> SuperstepProgram:
    """The (de)randomized Luby MIS engine as a phase program.

    Four phases per iteration: an unlabelled measurement step (active
    count, optional E3 trace, termination), ``luby-phase`` (isolated
    absorption + degree exchange), ``luby-seed-search`` (estimator terms
    + seed selection), and ``luby-commit`` (winner set + ``N[C]``
    removal).  The session executes it via the registry's program
    factory; phase bodies nest it with
    :func:`~repro.core.program.run_program`.

    ``allow_stalls`` is the number of *consecutive* zero-progress phases
    tolerated: 0 for the deterministic chooser (its estimator guarantee
    makes a stall a bug), a small positive number for randomized seed
    choosers (an unlucky draw is legal there).  Pass a list as ``trace``
    to receive ``(phase, active_vertices, active_edges)`` tuples (the E3
    decay series; tracing costs one extra reduction per phase).
    """
    choose = (
        chooser if chooser is not None else conditional_expectation_chooser()
    )

    def setup(ctx: ProgramContext) -> None:
        ctx.state["luby_p"] = modulus_for(ctx.dg.num_vertices)
        ctx.state["luby_stalls"] = 0

        def ensure_set(machine: Machine) -> None:
            if in_set_key not in machine.store:
                machine.store[in_set_key] = set()

        ctx.sim.local(ensure_set)

    def measure(ctx: ProgramContext):
        dg = ctx.dg
        active = dg.count_active(adj_key)
        if trace is not None:
            # (phase index, active vertices, active edges) — the E3 decay
            # series; the extra edge reduction is only paid when tracing.
            trace.append(
                (
                    ctx.counters["phases"],
                    active,
                    dg.count_active_edges(adj_key),
                )
            )
        if active == 0:
            return EXIT
        ctx.counters["phases"] += 1
        return None

    def mark_round(ctx: ProgramContext):
        dg, sim = ctx.dg, ctx.sim

        # --- isolated vertices join immediately -----------------------
        def absorb_isolated(machine: Machine) -> None:
            adj = machine.store.peek(adj_key)
            isolated = sorted(v for v, nbrs in adj.items() if not nbrs)
            if isolated:
                # Only a machine that drops rows gives up the price.
                adj = machine.store[adj_key]
                for v in isolated:
                    machine.store[in_set_key].add(v)
                    del adj[v]
            machine.store["_luby_isolated"] = len(isolated)

        sim.local(absorb_isolated)
        ctx.counters["isolated_joins"] += sum(
            sim.harvest(lambda m: m.store.pop("_luby_isolated"))
        )
        max_deg = dg.max_active_degree(adj_key)
        if max_deg == 0:
            return CONTINUE  # everything left was isolated; loop re-counts

        # --- neighbours' degrees (one round) ---------------------------
        def set_degrees(machine: Machine) -> None:
            adj = machine.store.peek(adj_key)
            machine.store["_luby_deg"] = {
                v: len(nbrs) for v, nbrs in adj.items()
            }

        sim.local(set_degrees)
        dg.push_values("_luby_deg", out_key="_luby_nbrdeg", adj_key=adj_key)
        return None

    def seed_search(ctx: ProgramContext) -> None:
        p = ctx.state["luby_p"]

        # --- build estimator terms (local) -----------------------------
        def build_terms(machine: Machine) -> None:
            degrees = machine.store.pop("_luby_deg")
            nbrdeg = machine.store.pop("_luby_nbrdeg")
            vterms: List[Tuple[int, int, int]] = []
            pterms: List[Tuple[int, int, int]] = []
            for v, d_v in degrees.items():
                if d_v == 0:
                    continue
                t_v = p // (2 * d_v)
                vterms.append((v, t_v, d_v))
                for u, d_u in nbrdeg[v]:
                    if (d_u, u) > (d_v, v):
                        # Compact pair term: T_v and the weight -d_v are
                        # recovered from the vertex-term table.
                        pterms.append((v, u, p // (2 * d_u)))
            machine.store[VTERMS] = tuple(vterms)
            machine.store[PTERMS] = tuple(pterms)

        ctx.sim.local(build_terms)

        # --- select the seed -------------------------------------------
        seed, scanned = choose(ctx.sim, p)
        ctx.counters["seed_candidates"] += scanned
        ctx.state["luby_seed"] = seed

    def commit(ctx: ProgramContext) -> None:
        dg, sim = ctx.dg, ctx.sim
        seed = ctx.state.pop("luby_seed")

        # --- compute the winner set C locally --------------------------
        def decide_winners(machine: Machine) -> None:
            marked = {
                v for v, t_v, _ in machine.store.pop(VTERMS)
                if seed.hash(v) < t_v
            }
            beaten = set()
            for v, u, t_u in machine.store.pop(PTERMS):
                if v in marked and seed.hash(u) < t_u:
                    beaten.add(v)
            winners = sorted(marked - beaten)
            machine.store[in_set_key].update(winners)
            machine.store["_luby_winners"] = winners

        sim.local(decide_winners)

        # --- remove N[C] (two rounds) -----------------------------------
        dg.push_flags("_luby_winners", "_luby_hit", adj_key=adj_key)

        def removal_set(machine: Machine) -> None:
            winners = set(machine.store.pop("_luby_winners"))
            hit = machine.store.pop("_luby_hit")
            machine.store["_luby_removed"] = winners | hit
            machine.store["_luby_progress"] = len(winners | hit)

        sim.local(removal_set)
        progress = sum(
            sim.harvest(lambda m: m.store.pop("_luby_progress"))
        )
        if progress == 0:
            ctx.state["luby_stalls"] += 1
            if ctx.state["luby_stalls"] > allow_stalls:
                raise AlgorithmError(
                    "Luby phase removed nothing beyond the tolerated "
                    "stalls — for the deterministic chooser this means "
                    "the estimator guarantee was violated (bug)"
                )
        else:
            ctx.state["luby_stalls"] = 0
        dg.deactivate("_luby_removed", adj_key=adj_key)

    return SuperstepProgram(
        name="luby",
        counters=("phases", "seed_candidates", "isolated_joins"),
        steps=(
            Phase(setup, keys=(in_set_key,)),
            Loop(
                steps=(
                    Phase(measure),
                    Phase(
                        mark_round,
                        name="luby-phase",
                        keys=("_luby_deg", "_luby_nbrdeg"),
                    ),
                    Phase(
                        seed_search,
                        name="luby-seed-search",
                        keys=(VTERMS, PTERMS),
                    ),
                    Phase(
                        commit,
                        name="luby-commit",
                        keys=("_luby_winners", "_luby_removed"),
                    ),
                ),
                limit=lambda ctx: MAX_PHASES,
                exhausted=lambda ctx: AlgorithmError(
                    f"Luby MIS did not finish in {MAX_PHASES} phases"
                ),
            ),
        ),
    )

