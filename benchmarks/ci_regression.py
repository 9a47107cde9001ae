"""CI benchmark-regression gate.

Runs a small fixed set of cells — the E1 smallest row, an E10-style
chunk ablation at n ≤ 512, the E12 service round-trip, the E13 kernel
head-to-head, the E14 streamed out-of-core solve, the E15 daemon
traffic replay, and the E16 degree-class-family solve — and compares
them against the checked-in baseline
``benchmarks/results/ci_baseline.json``:

* **model quantities** (rounds, words, sizes) must match the baseline
  *exactly* — the algorithms are deterministic, so any drift is a real
  behaviour change that needs a deliberate baseline update;
* **wall-clock** drift beyond the relative tolerance (default ±20%) is
  reported as a **visible warning**, not a failure: shared CI runners
  have noisy-neighbour wall-clock variance that would flake a hard
  gate, so timing regressions are surfaced for humans while only the
  deterministic model quantities can fail the job.  Wall-clock is
  measured as the best of ``--repeats`` runs to damp scheduler noise;
  ``--no-time`` skips the comparison entirely for machines unlike the
  one that wrote the baseline.

``--trace-out PATH`` additionally re-runs the first E1 cell with the
superstep trace enabled and writes its JSONL export, so CI can archive
a budget-headroom trace as a workflow artifact.

Usage::

    python -m benchmarks.ci_regression --check            # CI gate
    python -m benchmarks.ci_regression --write-baseline   # refresh

Updating the baseline is a reviewed action: rerun with
``--write-baseline`` and commit the new JSON alongside the change that
legitimately moved the numbers.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import partial
from pathlib import Path
from typing import Dict, List, Tuple

from repro.analysis.records import RunRecord
from repro.analysis.sweep import Cell, failures, run_cells
from repro.core.det_luby import conditional_expectation_chooser, luby_program
from repro.core.pipeline import solve_ruling_set
from repro.core.program import run_program
from repro.core.registry import DET_LUBY, DET_RULING
from repro.core.verify import verify_ruling_set
from repro.graph import generators as gen
from repro.mpc.config import MPCConfig
from repro.mpc.graph_store import DistributedGraph
from repro.mpc.simulator import Simulator

BASELINE_PATH = Path(__file__).resolve().parent / "results" / "ci_baseline.json"

Measurement = Tuple[Dict[str, int], float]  # (exact quantities, wall seconds)

# Timing-like row keys: compared with the relative drift tolerance (a
# warning, never a failure) instead of the exact-match rule, because
# they measure the machine, not the model.  Each maps to the aggregator
# that picks the *best* repeat — max for bigger-is-better quantities
# (speedup, throughput), min for latency — mirroring how the wall clock
# keeps its fastest repeat to damp scheduler noise.
TIMING_BEST = {
    "kernel_speedup_x": max,
    "serve_throughput_rps": max,
    "serve_p50_ms": min,
    "serve_p95_ms": min,
    "serve_p99_ms": min,
}
TIMING_KEYS = ("wall_time_s", *TIMING_BEST)


def run_e1_small(algorithm: str) -> Measurement:
    """E1's smallest row: one verified solve on ER n=256."""
    graph = gen.gnp_random_graph(256, 12, 256, seed=256)
    result = solve_ruling_set(
        graph, algorithm=algorithm, beta=2, regime="sublinear"
    )
    exact = {
        "rounds": result.rounds,
        "total_words": result.metrics["total_words"],
        "total_messages": result.metrics["total_messages"],
        "size": result.size,
    }
    return exact, result.wall_time_s


def run_e10_chunk(chunk_bits: int) -> Measurement:
    """E10's chunk ablation at n=256: det-luby with a fixed chunk width."""
    graph = gen.gnp_random_graph(256, 12, 256, seed=10)
    cfg = MPCConfig.sublinear(
        graph.num_vertices, graph.num_edges, max_degree=graph.max_degree()
    )
    with Simulator(cfg) as sim:
        dg = DistributedGraph.load(sim, graph)
        run_program(dg, luby_program(
            in_set_key="mis",
            chooser=conditional_expectation_chooser(chunk_bits=chunk_bits),
        ))
        members = dg.collect_marked("mis")
    verify_ruling_set(graph, members, alpha=2, beta=1)
    exact = {
        "rounds": sim.metrics.rounds,
        "total_words": sim.metrics.total_words,
        "seed_search_rounds": sim.metrics.phase_rounds().get(
            "luby-seed-search", 0
        ),
        "size": len(members),
    }
    return exact, sim.metrics.wall_time_s


def run_e12_service() -> Measurement:
    """E12's service round-trip: a cold batch then a warm batch.

    The exact quantities gate the serve layer's contract — unique
    requests executed once cold, zero executions warm, records
    identical across the two runs — while the reported wall-clock is
    the cold batch (the warm one is a cache read).
    """
    import tempfile
    import time

    from repro.serve import BatchEngine, ResultCache

    gnp = {"family": "gnp", "n": 128, "param": 8, "seed": 12}
    requests = [
        {"id": "r0", "graph": gnp, "algorithm": DET_RULING},
        {"id": "r1", "graph": gnp, "algorithm": DET_RULING},  # dedups
        {"id": "r2", "graph": gnp, "algorithm": DET_LUBY},
    ]

    def strip(records):
        return [
            {k: v for k, v in record.items() if k != "_serve"}
            for record in records
        ]

    with tempfile.TemporaryDirectory(prefix="ci-e12-") as tmp:
        cold_engine = BatchEngine(ResultCache(disk_dir=tmp))
        start = time.perf_counter()
        cold = cold_engine.run(requests)
        wall = time.perf_counter() - start
        warm_engine = BatchEngine(ResultCache(disk_dir=tmp))
        warm = warm_engine.run(requests)
    exact = {
        "cold_executed": cold_engine.trace.counters["executed"],
        "warm_executed": warm_engine.trace.counters["executed"],
        "warm_hits": warm_engine.trace.counters["cache_hit"],
        "dedup": cold_engine.trace.counters["dedup"],
        "size_checksum": sum(
            len(record.get("members", ())) for record in cold
        ),
        "records_match": int(strip(cold) == strip(warm)),
    }
    return exact, wall


def run_e14_shard() -> Measurement:
    """E14's smallest streamed cell: out-of-core solve on a circulant.

    The workload is written straight to disk and solved through the full
    shard pipeline (two-pass ingest + ShardBackend), so this cell gates
    the out-of-core path end to end.  Everything here is exact: the model
    quantities by the shard-parity contract, the ingest checksum because
    the workload generator is deterministic, and the residency high-water
    mark because exchange/spill scheduling is itself deterministic.
    """
    import tempfile

    from benchmarks.bench_e14_shard_scale import write_streamed_workload
    from repro.core.pipeline import solve_ruling_set_stream

    with tempfile.TemporaryDirectory(prefix="ci-e14-") as tmp:
        path = Path(tmp) / "circulant.txt"
        m = write_streamed_workload(path, 256)
        result = solve_ruling_set_stream(path, algorithm=DET_RULING)
    exact = {
        "rounds": result.rounds,
        "total_words": result.metrics["total_words"],
        "size": result.size,
        "ingest_edges": m,
        "ingest_checksum": result.metrics["ingest_checksum"],
        "resident_words": result.metrics["shard_max_resident_words"],
    }
    return exact, result.wall_time_s


def run_e13_kernel() -> Measurement:
    """E13's kernel head-to-head on the E10 hot cell's workload.

    The seed, selection stats, and term counts are exact (the
    bit-identity contract makes them kernel- and run-independent); the
    python/numpy speedup rides along as a timing quantity so a kernel
    performance regression surfaces as a visible drift warning.
    """
    from benchmarks.bench_e13_kernel import e10_workload, measure_speedup

    return measure_speedup(e10_workload(), repeats=2)


def run_e15_serve() -> Measurement:
    """E15's sequential daemon replay, batch-compared.

    The counts, member checksum, and the served-vs-batch bit-identity
    flag are exact (the daemon's determinism contract); throughput and
    the latency percentiles ride along as ``serve_*`` timing quantities
    so a serving-path performance regression surfaces as a visible
    drift warning, like the E13 kernel speedup.
    """
    from benchmarks.bench_e15_serve import ci_cell

    return ci_cell()


def run_e16_families() -> Measurement:
    """E16's gate cell: the degree-class family on the ER workload.

    Exact members (size + order-weighted checksum), rounds, and words —
    the new family is deterministic end to end, so any drift here is a
    real behaviour change in the family or the phase-program machinery
    underneath it.
    """
    from benchmarks.bench_e16_families import ci_cell

    return ci_cell()


CELLS = {
    "e1_small_det_ruling": partial(run_e1_small, DET_RULING),
    "e1_small_det_luby": partial(run_e1_small, DET_LUBY),
    "e10_chunk1_n256": partial(run_e10_chunk, 1),
    "e10_chunk4_n256": partial(run_e10_chunk, 4),
    "e12_service_roundtrip": run_e12_service,
    "e13_kernel_speedup": run_e13_kernel,
    "e14_shard_scale": run_e14_shard,
    "e15_serve_replay": run_e15_serve,
    "e16_families": run_e16_families,
}


def measure_cell(name: str) -> RunRecord:
    """One gate cell as a sweep-engine record (simulator wall in meta)."""
    exact, seconds = CELLS[name]()
    record = RunRecord("ci_regression", name, "gate", dict(exact))
    record.meta["sim_wall_s"] = seconds
    return record


def measure(repeats: int, jobs: int = 1) -> Dict[str, Dict[str, float]]:
    """Run every cell through the sweep engine.

    Each named cell runs ``repeats`` times (all repeats are independent
    engine cells, so ``--jobs`` parallelises across them); the exact
    model quantities must agree across repeats and the best simulator
    wall-clock is kept.
    """
    cells = [
        Cell(
            key=f"{name}#r{rep}",
            runner=measure_cell,
            args=(name,),
            workload=name,
            algorithm="gate",
        )
        for name in CELLS
        for rep in range(max(1, repeats))
    ]
    records = run_cells("ci_regression", cells, jobs=jobs)
    failed = failures(records)
    if failed:
        for record in failed:
            print(
                f"  CELL FAILED {record.workload}: "
                f"{record.get('error_type')}: {record.get('error')}"
            )
        raise SystemExit(1)
    results: Dict[str, Dict[str, float]] = {}
    for name in CELLS:
        repeats_for_name = [r for r in records if r.workload == name]

        def exact_of(record: RunRecord) -> Dict[str, float]:
            return {
                k: v for k, v in record.fields.items()
                if k not in TIMING_KEYS
            }

        exact_reference = exact_of(repeats_for_name[0])
        for record in repeats_for_name[1:]:
            if exact_of(record) != exact_reference:
                raise AssertionError(
                    f"cell {name} is not deterministic across repeats: "
                    f"{exact_of(record)} != {exact_reference}"
                )
        best_time = min(
            r.meta["sim_wall_s"] for r in repeats_for_name
        )
        row: Dict[str, float] = dict(exact_reference)
        # Keep the best repeat for every timing quantity, like the wall
        # clock: max for speedup/throughput, min for latency.
        for key, best in TIMING_BEST.items():
            values = [
                r.fields[key] for r in repeats_for_name
                if key in r.fields
            ]
            if values:
                row[key] = best(values)
        row["wall_time_s"] = round(best_time, 4)
        results[name] = row
        print(f"  measured {name}: {row}")
    return results


def check(
    measured: Dict[str, Dict[str, float]],
    baseline: Dict[str, Dict[str, float]],
    time_tolerance: float,
    compare_time: bool,
) -> Tuple[List[str], List[str]]:
    """Compare against the baseline.

    Returns ``(failures, warnings)``: exact model-quantity mismatches
    are failures; wall-clock drift beyond the tolerance is a warning —
    visible in the job log but non-fatal, because shared CI runners
    make hard wall-clock gates flaky.
    """
    failures: List[str] = []
    warnings: List[str] = []
    for name, base_row in baseline.items():
        if name not in measured:
            failures.append(f"{name}: cell missing from this run")
            continue
        row = measured[name]
        for key, base_value in base_row.items():
            if key in TIMING_KEYS:
                continue
            if row.get(key) != base_value:
                failures.append(
                    f"{name}.{key}: measured {row.get(key)}, "
                    f"baseline {base_value} (exact match required)"
                )
        if not compare_time:
            continue
        for key in TIMING_KEYS:
            if not base_row.get(key) or key not in row:
                continue
            base_time = float(base_row[key])
            this_time = float(row[key])
            drift = (this_time - base_time) / base_time
            if abs(drift) > time_tolerance:
                warnings.append(
                    f"{name}.{key}: measured {this_time:.4f} vs "
                    f"baseline {base_time:.4f} ({drift:+.0%}, tolerance "
                    f"±{time_tolerance:.0%})"
                )
    for name in measured:
        if name not in baseline:
            failures.append(
                f"{name}: new cell not present in baseline "
                "(rerun --write-baseline)"
            )
    return failures, warnings


def write_trace(path: Path) -> None:
    """Re-run the first E1 cell with tracing on; write the JSONL export.

    The traced run's model quantities are identical to the untraced
    cell (tracing is a pure observer — pinned by test), so this adds an
    inspectable budget-headroom artifact without perturbing the gate.
    """
    graph = gen.gnp_random_graph(256, 12, 256, seed=256)
    result = solve_ruling_set(
        graph, algorithm=DET_RULING, beta=2, regime="sublinear",
        trace=True,
    )
    result.trace.write_jsonl(path)
    print(
        f"trace written to {path} ({len(result.trace.events)} events, "
        f"{len(result.trace.warnings)} budget warnings, min headroom "
        f"{result.trace.min_headroom_words()} words)"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Benchmark regression gate for CI."
    )
    parser.add_argument(
        "--baseline", type=Path, default=BASELINE_PATH,
        help="baseline JSON path",
    )
    parser.add_argument(
        "--write-baseline", action="store_true",
        help="measure and overwrite the baseline instead of checking",
    )
    parser.add_argument(
        "--time-tolerance", type=float, default=0.20,
        help="relative wall-clock tolerance before a drift warning "
        "(default 0.20 = ±20%%; drift warns, never fails)",
    )
    parser.add_argument(
        "--no-time", action="store_true",
        help="skip the wall-clock comparison (rounds/words stay exact)",
    )
    parser.add_argument(
        "--repeats", type=int, default=3,
        help="timing repeats per cell; best time is kept (default 3)",
    )
    parser.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for the measurement cells (wall-clock "
        "numbers from parallel runs are noisier; model quantities are "
        "identical by the sweep engine's determinism contract)",
    )
    parser.add_argument(
        "--trace-out", type=Path, default=None,
        help="also run one traced cell and write its JSONL trace here "
        "(uploaded as a CI artifact for budget-headroom inspection)",
    )
    args = parser.parse_args(argv)

    print(f"running {len(CELLS)} regression cells ...")
    measured = measure(args.repeats, jobs=args.jobs)

    if args.write_baseline:
        payload = {
            "note": (
                "CI benchmark baseline: exact model quantities + wall "
                "clock. Refresh with: python -m benchmarks.ci_regression "
                "--write-baseline"
            ),
            "repeats": args.repeats,
            "cells": measured,
        }
        args.baseline.parent.mkdir(parents=True, exist_ok=True)
        args.baseline.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"baseline written to {args.baseline}")
        return 0

    if not args.baseline.exists():
        print(f"error: no baseline at {args.baseline}; run --write-baseline")
        return 1
    baseline = json.loads(args.baseline.read_text())["cells"]
    failures, warnings = check(
        measured,
        baseline,
        time_tolerance=args.time_tolerance,
        compare_time=not args.no_time,
    )
    if args.trace_out is not None:
        write_trace(args.trace_out)
    if warnings:
        print("\nBENCHMARK WARNINGS (wall-clock drift; non-fatal):")
        for warning in warnings:
            print(f"  ~ {warning}")
    if failures:
        print("\nBENCHMARK REGRESSION:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print("\nall cells match the baseline on exact model quantities"
          + ("" if warnings else
             f" (wall clock within ±{args.time_tolerance:.0%})"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
