"""E3 (Figure 2): derandomized Luby phases shrink the graph geometrically.

Claim exhibited: the seed committed by the method of conditional
expectations meets the estimator's family average every phase, so the
active edge count decays at a steady geometric rate — the derandomization
preserves randomized Luby's progress rather than merely terminating.

Workload: Erdős–Rényi n = 512 (expected degree 16); the series records
(phase, active vertices, active edges) until exhaustion.  The per-phase
series is stored in the cell's record as JSON strings so the experiment
rides the checkpointing sweep engine like every grid sweep.
"""

from __future__ import annotations

import json

from benchmarks.bench_common import emit, run_experiment_cells
from repro.analysis.records import RunRecord
from repro.analysis.sweep import Cell
from repro.analysis.tables import format_series
from repro.core.det_luby import luby_program
from repro.core.program import run_program
from repro.core.registry import DET_LUBY
from repro.core.verify import verify_ruling_set
from repro.graph import generators as gen
from repro.mpc.config import MPCConfig
from repro.mpc.graph_store import DistributedGraph
from repro.mpc.simulator import Simulator


def run_traced(graph):
    cfg = MPCConfig.sublinear(
        graph.num_vertices, graph.num_edges, max_degree=graph.max_degree()
    )
    with Simulator(cfg) as sim:
        dg = DistributedGraph.load(sim, graph)
        trace = []
        run_program(dg, luby_program(in_set_key="mis", trace=trace))
        members = dg.collect_marked("mis")
    verify_ruling_set(graph, members, alpha=2, beta=1)
    return trace


def decay_cell(n: int, seed: int) -> RunRecord:
    """One pure cell: trace the phase-by-phase residual graph."""
    graph = gen.gnp_random_graph(n, 16, n, seed=seed)
    trace = run_traced(graph)
    return RunRecord(
        "e3_residual_decay", f"er-{n:04d}", DET_LUBY,
        {
            "n": graph.num_vertices,
            "m": graph.num_edges,
            "phases": len(trace),
            "series_vertices": json.dumps(
                [[phase, n_act] for phase, n_act, _ in trace]
            ),
            "series_edges": json.dumps(
                [[phase, m_act] for phase, _, m_act in trace]
            ),
        },
    )


def test_e3_residual_decay(benchmark):
    records = run_experiment_cells(
        "e3_residual_decay",
        [
            Cell(
                key=f"er-0512/{DET_LUBY}", runner=decay_cell, args=(512, 77),
                workload="er-0512", algorithm=DET_LUBY,
            )
        ],
    )
    record = records[0]
    series = {
        "active-vertices": [
            tuple(point) for point in json.loads(record.get("series_vertices"))
        ],
        "active-edges": [
            tuple(point) for point in json.loads(record.get("series_edges"))
        ],
    }
    text = format_series(
        series, "phase", "count",
        title="E3: residual graph per derandomized Luby phase "
        f"(ER n={record.get('n')}, m={record.get('m')})",
    )

    # Measured decay factor per phase on the edge series.
    edges = [m for _, m in series["active-edges"] if m > 0]
    ratios = [b / a for a, b in zip(edges, edges[1:])]
    text += "\n\nper-phase edge ratios: " + "  ".join(
        f"{r:.3f}" for r in ratios
    )
    emit("e3_residual_decay", text)

    # Every phase with >= 8 edges must remove a nontrivial fraction; the
    # proven floor is n_act/8 endpoints, the empirical rate far stronger.
    for before, after in zip(edges, edges[1:]):
        if before >= 8:
            assert after < before

    benchmark.pedantic(
        lambda: run_traced(gen.gnp_random_graph(256, 16, 256, seed=7)),
        rounds=1,
        iterations=1,
    )
