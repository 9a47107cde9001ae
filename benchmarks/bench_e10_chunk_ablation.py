"""E10 (ablation): chunked bit-fixing in the distributed seed selection.

Design decision ablated (DESIGN.md §6.2): the method of conditional
expectations fixes the offset ``b`` in chunks of ``c`` bits by scoring
all ``2^c`` extensions per vector reduction.  Larger chunks trade wider
reduction vectors for fewer coordination rounds — with ``c = 1`` the
selection degenerates to one reduction per bit.

The table reports det-luby's total rounds and seed-search phase rounds
as the chunk width varies on a fixed workload.  One sweep-engine cell
per chunk width; the ``seed_search_time_s`` / ``wall_time_s`` fields are
wall-clock convenience numbers (non-model — they vary run to run, see
DESIGN.md's determinism contract).
"""

from __future__ import annotations

from functools import partial

from benchmarks.bench_common import emit, run_experiment_cells
from repro.analysis.records import RunRecord
from repro.analysis.sweep import Cell
from repro.analysis.tables import format_table
from repro.core.det_luby import conditional_expectation_chooser, luby_program
from repro.core.program import run_program
from repro.core.registry import DET_LUBY
from repro.core.verify import verify_ruling_set
from repro.graph import generators as gen
from repro.mpc.config import MPCConfig
from repro.mpc.graph_store import DistributedGraph
from repro.mpc.simulator import Simulator

CHUNK_BITS = [1, 2, 4, 6]


def run_with_chunk(graph, chunk_bits):
    cfg = MPCConfig.sublinear(
        graph.num_vertices, graph.num_edges, max_degree=graph.max_degree()
    )
    with Simulator(cfg) as sim:
        dg = DistributedGraph.load(sim, graph)
        counters = run_program(dg, luby_program(
            in_set_key="mis",
            chooser=conditional_expectation_chooser(chunk_bits=chunk_bits),
        )).counters
        members = dg.collect_marked("mis")
    verify_ruling_set(graph, members, alpha=2, beta=1)
    return sim, counters


def chunk_cell(chunk: int) -> RunRecord:
    """One pure cell: det-luby with a fixed offset-fixing chunk width."""
    graph = gen.gnp_random_graph(384, 14, 384, seed=10)
    sim, counters = run_with_chunk(graph, chunk)
    phases = sim.metrics.phase_rounds()
    record = RunRecord(
        "e10_chunk_ablation",
        f"chunk-{chunk}",
        DET_LUBY,
        {
            "chunk_bits": chunk,
            "rounds": sim.metrics.rounds,
            "seed_search_rounds": phases.get("luby-seed-search", 0),
            "luby_phases": counters["phases"],
            "max_words_received": sim.metrics.max_words_received,
        },
    )
    record.meta.update(
        {
            "seed_search_time_s": round(
                sim.metrics.time_per_phase.get("luby-seed-search", 0.0), 4
            ),
            "wall_time_s": round(sim.metrics.wall_time_s, 4),
        }
    )
    return record


def test_e10_chunk_ablation(benchmark):
    records = run_experiment_cells(
        "e10_chunk_ablation",
        [
            Cell(
                key=f"chunk-{chunk}/{DET_LUBY}",
                runner=partial(chunk_cell, chunk),
                workload=f"chunk-{chunk}", algorithm=DET_LUBY,
            )
            for chunk in CHUNK_BITS
        ],
    )
    rounds_by_chunk = {
        r.get("chunk_bits"): r.get("rounds") for r in records
    }
    emit(
        "e10_chunk_ablation",
        format_table(
            records,
            columns=[
                "workload", "chunk_bits", "rounds", "seed_search_rounds",
                "luby_phases", "max_words_received",
            ],
            title="E10: offset-fixing chunk width ablation (ER n=384)",
        ),
    )

    # The ablation's point: 1-bit fixing must cost strictly more rounds
    # than the widest chunk (that is what chunking buys).
    assert rounds_by_chunk[1] > rounds_by_chunk[CHUNK_BITS[-1]]

    graph = gen.gnp_random_graph(384, 14, 384, seed=10)
    benchmark.pedantic(
        lambda: run_with_chunk(graph, 4), rounds=1, iterations=1
    )
