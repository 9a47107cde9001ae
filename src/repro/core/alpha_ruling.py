"""General ``(α, β)``-ruling sets via graph exponentiation.

The paper's setting is α = 2 (plain independence).  The classic
reduction extends every α = 2 algorithm to larger α: members that are
independent in the power graph ``G^{α-1}`` are pairwise at distance ≥ α
in ``G``, and a set that β-dominates ``G^{α-1}`` dominates ``G`` within
``β·(α-1)`` hops.  So:

1. materialise ``G^{α-1}`` adjacency with the MPC exponentiation
   primitive (``O(log α)`` doubling rounds, memory permitting — the
   simulator faults where the model genuinely cannot afford the power
   graph);
2. run the deterministic ``(2, β)``-ruling set engine *on the power
   graph*;
3. the output is an ``(α, β·(α-1))``-ruling set of ``G``.

This module is an *extension* beyond the brief announcement's headline
(recorded in DESIGN.md); its guarantee is verified like everything else,
by BFS on the original graph.  The composition is a phase program: an
``alpha-exponentiation`` phase followed by the ruling engine embedded as
a :class:`~repro.core.program.Subprogram`.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.core.det_ruling import ruling_program
from repro.core.exponentiation import power_graph_adjacency
from repro.core.program import (
    Phase,
    ProgramContext,
    Subprogram,
    SuperstepProgram,
)
from repro.errors import AlgorithmError
from repro.mpc.graph_store import ADJ
from repro.mpc.machine import Machine

ORIGINAL_ADJ = "alpha_original_adj"


def alpha_program(
    alpha: int,
    beta: int = 2,
    in_set_key: str = "alpha_rs_in_set",
    chooser=None,
    luby_chooser=None,
    luby_allow_stalls: int = 0,
    power_adjacency: Optional[Dict[int, Tuple[int, ...]]] = None,
) -> SuperstepProgram:
    """The exponentiation reduction as a phase program.

    Requires ``alpha >= 2`` and ``beta >= 2``.  For α = 2 the reduction
    is the identity, so the ruling engine's own program is returned
    unchanged; for α > 2 it is wrapped behind the
    ``alpha-exponentiation`` phase that swaps the power adjacency in
    under ``ADJ`` (preserving the original under ``ORIGINAL_ADJ``).
    Members accumulate under ``store[in_set_key]`` and form an
    ``(alpha, beta * (alpha - 1))``-ruling set of ``G``.

    ``power_adjacency`` is the ``G^{α-1}`` adjacency when the caller has
    already built it — :class:`~repro.core.session.SolverSession`
    materialises it once for regime sizing and passes it here, so a
    one-call solve does not derive the same graph twice.  It is
    installed under the ``alpha-exponentiation`` phase in one
    budget-charged local step (each machine's slice of the power graph
    must fit its memory exactly as if exponentiation had produced it).
    When ``None``, the in-model doubling primitive builds it, pricing
    the ``O(log α)`` exponentiation rounds and faulting where the
    growing balls overrun the budget.  Only direct engine tests take
    that path (E8 drives the same primitive through
    :func:`~repro.core.exponentiation.grow_balls`); E9 and every solver
    go through :func:`~repro.core.pipeline.solve_ruling_set`, which
    passes a prebuilt graph.
    """
    if alpha < 2:
        raise AlgorithmError(f"alpha must be >= 2, got {alpha}")
    engine = ruling_program(
        beta=beta, in_set_key=in_set_key,
        chooser=chooser, luby_chooser=luby_chooser,
        luby_allow_stalls=luby_allow_stalls,
    )
    if alpha == 2:
        return engine

    def exponentiate(ctx: ProgramContext) -> None:
        dg, sim = ctx.dg, ctx.sim
        if power_adjacency is None:
            power_graph_adjacency(
                dg, alpha - 1, out_adj_key="alpha_power_adj"
            )

            def swap_in_power(machine: Machine) -> None:
                machine.store[ORIGINAL_ADJ] = machine.store[ADJ]
                machine.store[ADJ] = machine.store.pop("alpha_power_adj")
                machine.store.pop("exp_balls", None)

            sim.local(swap_in_power)
        else:

            def install_prebuilt(machine: Machine) -> None:
                adj = machine.store[ADJ]
                machine.store[ORIGINAL_ADJ] = adj
                machine.store[ADJ] = {
                    v: tuple(power_adjacency.get(v, ())) for v in adj
                }

            sim.local(install_prebuilt)

    return SuperstepProgram(
        name="power-graph",
        steps=(
            Phase(
                exponentiate,
                name="alpha-exponentiation",
                keys=(ORIGINAL_ADJ,),
            ),
            Subprogram(engine),
        ),
    )

