"""E17: dense-graph stress under governed (windowed) exponentiation.

Claim exhibited: on a workload whose α > 2 in-model exponentiation
*provably overflows* the per-round budget — the doubling step's
respond-round traffic grows with d(d+2) per machine while the stored
state stays linear — the ungoverned run faults with
:class:`~repro.errors.MPCViolationError`, and the *governed* run
(:func:`repro.core.exponentiation.plan_batch`) completes by windowing
the exchange, with **bit-identical members** to the ungoverned
reference (budget enforcement lifted) at the same config.  On a
feasible sibling workload the planner is a provable no-op: members,
rounds, and words all equal the ungoverned run's.

Workload math (the dense leg): circulant ``n = 240`` with offsets
``1..8`` (d = 16) on ``k = 12`` machines with ``S = 4096``.  The
doubling respond round receives ``(n/k) · d · (d + 2) = 5760 > S``
words on every machine, while resident state peaks well under ``S`` —
exactly the regime where windowed exponentiation (more rounds, same
words) rescues the run.  The feasible leg shrinks the offsets to
``1..3`` (d = 6), where the full window fits the planner's target and
the planner must return "no batching".
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from benchmarks.bench_common import emit
from repro.analysis.tables import format_table
from repro.core.alpha_ruling import alpha_program
from repro.core.program import run_program
from repro.core.verify import verify_ruling_set
from repro.errors import MPCViolationError
from repro.graph import generators as gen
from repro.graph.graph import Graph
from repro.mpc.config import MPCConfig
from repro.mpc.graph_store import DistributedGraph
from repro.mpc.simulator import Simulator

ALPHA = 3
BETA = 2
IN_SET_KEY = "alpha_rs_in_set"

#: The stress regime: 12 machines × 4096 words.
CONFIG = MPCConfig(num_machines=12, memory_words=4096, label="e17-stress")


def dense_workload() -> Graph:
    """Circulant n=240, d=16 — the leg that overflows ungoverned."""
    return gen.circulant_graph(240, list(range(1, 9)))


def feasible_workload() -> Graph:
    """Circulant n=240, d=6 — the leg where the planner is a no-op."""
    return gen.circulant_graph(240, [1, 2, 3])


def run_alpha(
    graph: Graph, config: MPCConfig, enforce: bool = True
) -> Tuple[int, List[int], Dict[str, int]]:
    """One in-model α=3 solve (exponentiation included, no prebuilt
    power graph); returns ``(claimed_beta, members, model_metrics)``."""
    with Simulator(config, enforce=enforce) as sim:
        dg = DistributedGraph.load(sim, graph)
        run_program(
            dg, alpha_program(ALPHA, beta=BETA, in_set_key=IN_SET_KEY)
        )
        members = dg.collect_marked(IN_SET_KEY)
        metrics = {
            "rounds": sim.metrics.rounds,
            "total_words": sim.metrics.total_words,
        }
        wall = sim.metrics.wall_time_s
    metrics["wall_time_s"] = wall
    return BETA * (ALPHA - 1), members, metrics


def ci_cell():
    """The regression-gate cell: fault → governed rescue → parity.

    Everything exact is pinned by a determinism contract: the
    ungoverned fault (the workload math above), the governed members
    against the enforcement-lifted ungoverned reference (windowing is
    bit-identical in results), and the feasible leg's full equality
    (the planner's no-op contract, DESIGN.md section 15).
    """
    dense = dense_workload()

    # Leg 1: ungoverned at the stress config must fault.
    ungoverned_faults = 0
    try:
        run_alpha(dense, CONFIG)
    except MPCViolationError:
        ungoverned_faults = 1

    # Leg 2: governed completes; members must equal the ungoverned
    # reference with enforcement lifted (same config → same algorithm
    # parameters; windowing changes rounds, never results).
    claimed, members, governed_metrics = run_alpha(
        dense, CONFIG.with_governor()
    )
    verify_ruling_set(dense, members, alpha=ALPHA, beta=claimed)
    _, reference_members, reference_metrics = run_alpha(
        dense, CONFIG, enforce=False
    )

    # Leg 3: feasible sibling — governed must be a bit-identical no-op.
    feasible = feasible_workload()
    _, base_members, base_metrics = run_alpha(feasible, CONFIG)
    _, gov_members, gov_metrics = run_alpha(feasible, CONFIG.with_governor())

    exact = {
        "ungoverned_faults": ungoverned_faults,
        "governed_rounds": governed_metrics["rounds"],
        "governed_words": governed_metrics["total_words"],
        "size": len(members),
        "members_checksum": sum(
            (i + 1) * v for i, v in enumerate(sorted(members))
        ),
        "members_match_reference": int(members == reference_members),
        "words_match_reference": int(
            governed_metrics["total_words"]
            == reference_metrics["total_words"]
        ),
        "parity_members": int(base_members == gov_members),
        "parity_rounds": int(
            base_metrics["rounds"] == gov_metrics["rounds"]
        ),
        "parity_words": int(
            base_metrics["total_words"] == gov_metrics["total_words"]
        ),
    }
    return exact, governed_metrics["wall_time_s"]


def test_e17_dense_stress(benchmark):
    exact, _ = ci_cell()
    assert exact["ungoverned_faults"] == 1
    assert exact["members_match_reference"] == 1
    assert exact["words_match_reference"] == 1
    assert exact["parity_members"] == 1
    assert exact["parity_rounds"] == 1
    assert exact["parity_words"] == 1

    rows = [dict(exact, cell="e17_dense_stress")]
    table = format_table(
        rows,
        columns=[
            "cell", "ungoverned_faults", "governed_rounds",
            "governed_words", "size", "members_match_reference",
            "parity_members", "parity_rounds",
        ],
        title="E17: dense stress — ungoverned faults, governed completes "
        "bit-identically (alpha=3, k=12, S=4096)",
    )
    emit("e17_dense_stress", table)

    benchmark.pedantic(
        lambda: run_alpha(dense_workload(), CONFIG.with_governor()),
        rounds=1,
        iterations=1,
    )
