"""E11 (extension): deterministic maximal matching on the line graph.

Extension exhibiting that the derandomization toolkit is
problem-agnostic: maximal matching = MIS on the line graph, so the
identical Luby engine (same estimator, same conditional expectations)
solves it once the line graph is materialised in-model.  The table
reports phases, rounds, matching sizes vs a sequential greedy matching,
and the quadratic line-graph footprint the regime must fund.

One sweep-engine cell per workload (the matching solver does not go
through ``solve_ruling_set``, so the cells are built explicitly).
"""

from __future__ import annotations

from functools import partial

from benchmarks.bench_common import emit, run_experiment_cells
from repro.analysis.records import RunRecord
from repro.analysis.sweep import Cell
from repro.analysis.tables import format_table
from repro.core.det_matching import (
    line_graph_words,
    matching_config,
    matching_program,
    verify_maximal_matching,
)
from repro.core.program import run_program
from repro.core.registry import DET_MATCHING
from repro.graph import generators as gen
from repro.mpc.graph_store import DistributedGraph
from repro.mpc.simulator import Simulator

WORKLOADS = {
    "er-192": lambda: gen.gnp_random_graph(192, 8, 192, seed=11),
    "tree-256": lambda: gen.random_tree(256, seed=11),
    "grid-12x12": lambda: gen.grid_graph(12, 12),
    "regular-8": lambda: gen.regular_graph(128, 8),
}


def greedy_matching_size(graph) -> int:
    used = set()
    size = 0
    for u, v in graph.edges():
        if u not in used and v not in used:
            used.add(u)
            used.add(v)
            size += 1
    return size


def run_matching(graph):
    with Simulator(matching_config(graph)) as sim:
        dg = DistributedGraph.load(sim, graph)
        ctx = run_program(dg, matching_program())
    matching, counters = ctx.matching, ctx.counters
    verify_maximal_matching(graph, matching)
    return matching, counters, sim


def matching_cell(name: str) -> RunRecord:
    """One pure cell: verified maximal matching on one workload."""
    graph = WORKLOADS[name]()
    matching, counters, sim = run_matching(graph)
    greedy = greedy_matching_size(graph)
    # Any maximal matching is at least half the maximum one, and the
    # greedy is maximal too, so sizes stay within a factor of two.
    assert 2 * len(matching) >= greedy
    return RunRecord(
        "e11_matching", name, DET_MATCHING,
        {
            "n": graph.num_vertices,
            "m": graph.num_edges,
            "line_words": line_graph_words(graph),
            "matching_size": len(matching),
            "greedy_size": greedy,
            "rounds": sim.metrics.rounds,
            "luby_phases": counters["phases"],
            "memory_words": sim.config.memory_words,
            "peak_memory_words": sim.metrics.peak_memory_words,
        },
    )


def test_e11_matching(benchmark):
    records = run_experiment_cells(
        "e11_matching",
        [
            Cell(
                key=f"{name}/{DET_MATCHING}",
                runner=partial(matching_cell, name),
                workload=name, algorithm=DET_MATCHING,
            )
            for name in sorted(WORKLOADS)
        ],
    )
    emit(
        "e11_matching",
        format_table(
            records,
            columns=[
                "workload", "n", "m", "line_words", "matching_size",
                "greedy_size", "rounds", "luby_phases",
                "peak_memory_words", "memory_words",
            ],
            title="E11: deterministic maximal matching "
            "(Luby engine on the distributed line graph)",
        ),
    )

    graph = WORKLOADS["grid-12x12"]()
    benchmark.pedantic(
        lambda: run_matching(graph), rounds=1, iterations=1
    )
