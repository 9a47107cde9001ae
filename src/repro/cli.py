"""Command-line interface: generate graphs, solve, verify, sweep.

Installed as ``repro-mpc``::

    repro-mpc generate --family gnp --n 300 --param 12 --out g.txt
    repro-mpc solve --input g.txt --algorithm det-ruling --beta 2
    repro-mpc solve --family powerlaw --n 400 --algorithm det-luby --json
    repro-mpc trace --family gnp --n 256 --out run.trace.jsonl \
        --chrome-out run.trace.json
    repro-mpc verify --input g.txt --members 3,19,40 --beta 2
    repro-mpc sweep --n 128,256 --algorithms det-ruling,det-luby \
        --jobs 4 --checkpoint sweep.jsonl --resume --timeout 120
    repro-mpc batch --requests requests.jsonl --out results.jsonl \
        --cache-dir .repro-cache --jobs 4
    repro-mpc cache stats --cache-dir .repro-cache
    repro-mpc serve --socket /tmp/repro.sock --cache-dir .repro-cache

Every ``solve`` runs on the enforcing simulator and verifies its output;
``--json`` emits a machine-readable record instead of the text summary.
``trace`` (or ``solve --trace-out``) additionally records the
structured superstep trace — per-round words, per-machine budget
utilization, headroom warnings — as JSONL and, with ``--chrome-out``,
in Chrome trace format for ``chrome://tracing`` / Perfetto.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

from repro.analysis.sweep import SweepSpec, failures, run_sweep
from repro.analysis.tables import format_table
from repro.core import registry
from repro.core.pipeline import solve_ruling_set, solve_ruling_set_stream
from repro.core.verify import verify_ruling_set
from repro.errors import ReproError
from repro.graph import generators as gen
from repro.graph.graph import Graph
from repro.graph.io import read_edge_list, write_edge_list
from repro.mpc.backends import BACKENDS

WORKERS_HELP = (
    "shard count for the shard backend and --stream (0 = default); "
    "an error on any other backend"
)

FAMILIES = (
    "gnp", "powerlaw", "tree", "grid", "regular", "star", "cycle",
    "rmat", "barbell",
)


def build_graph(family: str, n: int, param: int, seed: int) -> Graph:
    """Construct a workload graph from CLI parameters.

    ``param`` means: expected degree (gnp), degree (regular), columns
    (grid); it is ignored by the other families.
    """
    if family == "gnp":
        return gen.gnp_random_graph(n, max(1, param), n, seed=seed)
    if family == "powerlaw":
        return gen.chung_lu_power_law(n, seed=seed)
    if family == "tree":
        return gen.random_tree(n, seed=seed)
    if family == "grid":
        cols = max(1, param)
        rows = max(1, n // cols)
        return gen.grid_graph(rows, cols)
    if family == "regular":
        return gen.regular_graph(n, max(0, param))
    if family == "star":
        return gen.star_graph(n)
    if family == "cycle":
        return gen.cycle_graph(n)
    if family == "rmat":
        scale = max(1, n.bit_length() - 1)
        return gen.rmat_graph(scale, edge_factor=max(1, param), seed=seed)
    if family == "barbell":
        return gen.barbell_graph(max(2, n // 2), max(0, param))
    raise ReproError(f"unknown family {family!r}")


def _load_or_build(args) -> Graph:
    if args.input:
        return read_edge_list(args.input)
    return build_graph(args.family, args.n, args.param, args.seed)


def _add_graph_source(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--input", help="edge-list file (header 'n m')")
    parser.add_argument(
        "--family", choices=FAMILIES, default="gnp",
        help="generator family when no --input is given",
    )
    parser.add_argument("--n", type=int, default=200)
    parser.add_argument(
        "--param", type=int, default=12,
        help="family parameter (expected degree / degree / columns)",
    )
    parser.add_argument("--seed", type=int, default=0)


def cmd_generate(args) -> int:
    graph = build_graph(args.family, args.n, args.param, args.seed)
    write_edge_list(graph, args.out)
    print(
        f"wrote {graph.num_vertices} vertices, {graph.num_edges} edges "
        f"to {args.out}"
    )
    return 0


def _check_workers(args) -> None:
    """Refuse ``--workers`` where no shard backend would read it."""
    if args.workers and args.backend != "shard":
        raise ReproError(
            f"--workers {args.workers} sets the shard count and needs "
            f"--backend shard (got --backend {args.backend or 'serial'})"
        )


def cmd_solve(args) -> int:
    if getattr(args, "stream", False):
        return _cmd_solve_stream(args)
    _check_workers(args)
    graph = _load_or_build(args)
    trace_out = getattr(args, "trace_out", None)
    result = solve_ruling_set(
        graph,
        algorithm=args.algorithm,
        beta=args.beta,
        alpha=args.alpha,
        regime=args.regime,
        seed=args.seed,
        backend=args.backend,
        backend_workers=args.workers,
        kernel=args.kernel,
        trace=trace_out is not None,
        governed=args.governed,
    )
    if trace_out is not None:
        if result.trace is None:
            raise ReproError(
                f"algorithm {args.algorithm!r} does not run on the MPC "
                "simulator; --trace-out needs an MPC algorithm"
            )
        result.trace.write_jsonl(trace_out)
        if not args.json:
            print(
                f"trace:      {trace_out} "
                f"({len(result.trace.events)} events)"
            )
    if args.json:
        payload = result.summary_row()
        payload["members"] = result.members
        payload.update(
            {
                f"time_{phase}_s": seconds
                for phase, seconds in result.time_per_phase.items()
            }
        )
        print(json.dumps(payload, sort_keys=True))
        return 0
    print(f"graph:      n={graph.num_vertices} m={graph.num_edges}")
    print(f"algorithm:  {result.algorithm}")
    print(f"guarantee:  ({result.alpha}, {result.beta})-ruling set")
    print(f"size:       {result.size}")
    print(f"rounds:     {result.rounds}")
    for key in sorted(result.metrics):
        print(f"  {key} = {result.metrics[key]}")
    if result.wall_time_s:
        print(f"wall clock: {result.wall_time_s:.3f}s (simulator, not cluster)")
        for phase in sorted(result.time_per_phase):
            print(f"  time[{phase}] = {result.time_per_phase[phase]:.3f}s")
    return 0


def _cmd_solve_stream(args) -> int:
    if not args.input:
        raise ReproError("--stream requires --input (an edge-list file)")
    if args.alpha != 2:
        raise ReproError(
            "--stream fixes alpha at 2 (alpha > 2 sizes on a "
            "driver-materialized power graph, which contradicts streaming)"
        )
    if args.backend not in (None, "shard"):
        raise ReproError(
            f"--stream runs on the shard backend; --backend {args.backend} "
            "cannot apply (drop it or pass --backend shard)"
        )
    result = solve_ruling_set_stream(
        args.input,
        algorithm=args.algorithm,
        beta=args.beta,
        regime=args.regime,
        seed=args.seed,
        verify=args.stream_verify,
        num_shards=args.workers,
        kernel=args.kernel,
        governed=args.governed,
    )
    if args.json:
        payload = result.summary_row()
        payload["members"] = result.members
        print(json.dumps(payload, sort_keys=True))
        return 0
    print(f"input:      {args.input} (streamed)")
    print(
        f"ingest:     m={result.metrics['ingest_edges']} "
        f"max_degree={result.metrics['ingest_max_degree']}"
    )
    print(f"algorithm:  {result.algorithm}")
    print(f"guarantee:  ({result.alpha}, {result.beta})-ruling set")
    print(f"size:       {result.size}")
    print(f"rounds:     {result.rounds}")
    for key in sorted(result.metrics):
        print(f"  {key} = {result.metrics[key]}")
    if result.wall_time_s:
        print(f"wall clock: {result.wall_time_s:.3f}s (simulator, not cluster)")
    return 0


def cmd_trace(args) -> int:
    """Solve with the superstep trace enabled; write JSONL (+ Chrome)."""
    _check_workers(args)
    graph = _load_or_build(args)
    result = solve_ruling_set(
        graph,
        algorithm=args.algorithm,
        beta=args.beta,
        alpha=args.alpha,
        regime=args.regime,
        seed=args.seed,
        backend=args.backend,
        backend_workers=args.workers,
        kernel=args.kernel,
        trace=True,
        trace_warn_utilization=args.warn_utilization,
        governed=args.governed,
    )
    trace = result.trace
    if trace is None:
        raise ReproError(
            f"algorithm {args.algorithm!r} does not run on the MPC "
            "simulator; there is no superstep trace to record"
        )
    trace.write_jsonl(args.out)
    print(f"graph:        n={graph.num_vertices} m={graph.num_edges}")
    print(f"algorithm:    {result.algorithm}")
    print(f"rounds:       {result.rounds}")
    print(f"total words:  {result.metrics['total_words']}")
    print(
        f"min headroom: {trace.min_headroom_words()} words "
        f"(budget S={result.metrics['memory_words']})"
    )
    print(f"trace jsonl:  {args.out} ({len(trace.events)} events)")
    if args.chrome_out:
        trace.write_chrome_trace(args.chrome_out)
        print(
            f"chrome trace: {args.chrome_out} "
            "(load in chrome://tracing or Perfetto)"
        )
    if trace.warnings:
        lines = trace.format_warnings()
        print(
            f"budget warnings (≥{100 * trace.warn_utilization:.0f}% of S, "
            f"{len(lines)} total):"
        )
        shown = 20
        for line in lines[:shown]:
            print(f"  ! {line}")
        if len(lines) > shown:
            print(
                f"  ... and {len(lines) - shown} more "
                "(full list in the JSONL export)"
            )
    else:
        print(
            "budget warnings: none "
            f"(threshold {100 * trace.warn_utilization:.0f}% of S)"
        )
    return 0


def cmd_match(args) -> int:
    from repro.core.det_matching import solve_matching

    _check_workers(args)
    graph = _load_or_build(args)
    trace_out = getattr(args, "trace_out", None)
    result = solve_matching(
        graph,
        deterministic=not args.randomized,
        algorithm=args.algorithm,
        seed=args.seed,
        backend=args.backend,
        backend_workers=args.workers,
        kernel=args.kernel,
        trace=trace_out is not None,
        governed=args.governed,
    )
    if trace_out is not None:
        result.trace.write_jsonl(trace_out)
        if not args.json:
            print(
                f"trace:      {trace_out} "
                f"({len(result.trace.events)} events)"
            )
    if args.json:
        payload = result.summary_row()
        payload["matching"] = [list(edge) for edge in result.matching]
        print(json.dumps(payload, sort_keys=True))
        return 0
    print(f"graph:         n={graph.num_vertices} m={graph.num_edges}")
    print(f"algorithm:     {result.algorithm}")
    print(f"matching size: {result.size}")
    print(f"MPC rounds:    {result.rounds}")
    for key in sorted(result.metrics):
        print(f"  {key} = {result.metrics[key]}")
    return 0


def cmd_verify(args) -> int:
    graph = read_edge_list(args.input)
    members = [int(x) for x in args.members.split(",") if x]
    try:
        check = verify_ruling_set(
            graph, members, alpha=args.alpha, beta=args.beta
        )
    except ReproError as exc:
        print(f"INVALID: {exc}")
        return 1
    print(
        f"VALID ({args.alpha}, {args.beta})-ruling set: size={check.size} "
        f"measured_beta={check.measured_beta}"
    )
    return 0


def cmd_sweep(args) -> int:
    sizes = [int(x) for x in args.n.split(",") if x]
    algorithms = [a for a in args.algorithms.split(",") if a]
    betas = (
        [int(x) for x in args.betas.split(",") if x]
        if args.betas
        else None
    )
    workloads = {
        f"{args.family}-{n}": (
            lambda n=n: build_graph(args.family, n, args.param, args.seed)
        )
        for n in sizes
    }
    records = run_sweep(
        SweepSpec(
            experiment="cli-sweep",
            workloads=workloads,
            algorithms=algorithms,
            beta=args.beta,
            betas=betas,
            regime=args.regime,
            seed=args.seed,
        ),
        jobs=args.jobs,
        checkpoint=args.checkpoint,
        resume=args.resume,
        retries=args.retries,
        timeout=args.timeout,
    )
    failed = failures(records)
    print(
        format_table(
            [r for r in records if r.get("status") != "failed"],
            columns=[
                "workload", "algorithm", "beta", "n", "m", "rounds", "size",
            ],
            title="cli sweep",
        )
    )
    if args.checkpoint:
        print(f"checkpoint: {args.checkpoint} ({len(records)} records)")
    if failed:
        print(f"\n{len(failed)}/{len(records)} cells FAILED:")
        for record in failed:
            print(
                f"  - {record.get('cell')}: {record.get('error_type')}: "
                f"{record.get('error')}"
            )
        return 1
    return 0


def cmd_fuzz(args) -> int:
    from repro.core.harness import fuzz_verify

    solver_seeds = tuple(
        int(x) for x in args.solver_seeds.split(",") if x
    ) or (0,)
    algorithms = (
        [a for a in args.algorithms.split(",") if a]
        if args.algorithms else None
    )
    families = (
        [f for f in args.families.split(",") if f]
        if args.families else None
    )
    report = fuzz_verify(
        scale=args.scale,
        seed=args.seed,
        solver_seeds=solver_seeds,
        families=families,
        algorithms=algorithms,
        governed=args.governed,
    )
    if args.json:
        payload = {
            "governed": report.governed,
            "cells": len(report.cells),
            "failures": [
                {
                    "graph": cell.graph_name,
                    "algorithm": cell.algorithm,
                    "seed": cell.seed,
                    "detail": cell.detail,
                }
                for cell in report.failures
            ],
        }
        print(json.dumps(payload, sort_keys=True))
    else:
        print(report.format())
    return 0 if report.ok else 1


def cmd_batch(args) -> int:
    from repro.serve import (
        BatchEngine,
        ResultCache,
        read_requests,
        records_to_lines,
        write_records,
    )

    cache = ResultCache(
        memory_entries=args.cache_memory, disk_dir=args.cache_dir
    )
    engine = BatchEngine(
        cache,
        jobs=args.jobs,
        timeout=args.timeout,
        retries=args.retries,
        max_requests=args.max_requests,
    )
    requests, linenos = read_requests(args.requests, with_linenos=True)
    records = engine.run(requests, linenos=linenos)
    if args.out:
        write_records(records, args.out)
    else:
        for line in records_to_lines(records):
            print(line)
    if args.trace_out:
        engine.trace.write_jsonl(args.trace_out)
    summary = engine.trace.summary()
    failed = [r for r in records if r.get("status") == "failed"]
    print(
        f"batch: {len(records)} requests | "
        f"hits={summary['cache_hit']} misses={summary['cache_miss']} "
        f"dedup={summary['dedup']} executed={summary['executed']} "
        f"failed={summary['failed']}",
        file=sys.stderr,
    )
    if args.out:
        print(f"records: {args.out}", file=sys.stderr)
    if failed:
        for record in failed:
            print(
                f"  - {record['id']}: {record.get('error_type')}: "
                f"{record.get('error')}",
                file=sys.stderr,
            )
        return 1
    return 0


def cmd_serve(args) -> int:
    import asyncio

    from repro.serve import (
        AdmissionPolicy,
        BatchEngine,
        ResultCache,
        ServeDaemon,
    )

    cache = ResultCache(
        memory_entries=args.cache_memory, disk_dir=args.cache_dir
    )
    # The daemon's per-request path always solves in process (that is
    # what keeps the SessionFactory warm); concurrency comes from the
    # daemon's worker threads, not run_cells fan-out.
    engine = BatchEngine(
        cache, retries=args.retries, graph_pool=args.graph_pool
    )
    daemon = ServeDaemon(
        engine,
        policy=AdmissionPolicy(
            max_queue=args.max_queue,
            max_inflight_words=args.max_inflight_words,
            default_request_words=args.default_request_words,
        ),
        workers=args.workers,
    )
    if args.socket:
        socket_path = Path(args.socket)
        socket_path.unlink(missing_ok=True)  # stale socket from a crash
        print(f"serving on {socket_path}", file=sys.stderr)
        try:
            asyncio.run(daemon.serve_unix(str(socket_path)))
        finally:
            socket_path.unlink(missing_ok=True)
    else:
        asyncio.run(daemon.serve_stdio())
    if args.trace_out:
        engine.trace.write_jsonl(args.trace_out)
    stats = daemon.stats()
    counters = stats["counters"]
    print(
        f"serve done: served={stats['served']} "
        f"refused={stats['refused']} | "
        f"hits={counters.get('cache_hit', 0)} "
        f"executed={counters.get('executed', 0)} "
        f"failed={counters.get('failed', 0)}",
        file=sys.stderr,
    )
    return 0


def cmd_cache(args) -> int:
    from repro.serve import BatchEngine, ResultCache, read_requests

    if args.cache_dir is None:
        # A memory-only cache dies with this process, so every cache
        # maintenance action needs the persistent tier.
        raise ReproError(f"cache {args.action} needs --cache-dir <dir>")
    cache = ResultCache(
        memory_entries=args.cache_memory, disk_dir=args.cache_dir
    )
    if args.action == "stats":
        stats = cache.stats()
        print(f"cache dir:    {args.cache_dir}")
        print(f"disk entries: {stats['disk_entries']}")
        print(f"disk bytes:   {stats['disk_bytes']}")
        return 0
    if args.action == "clear":
        removed = cache.clear()
        print(f"removed {removed} cached results from {args.cache_dir}")
        return 0
    # warm: run a request stream purely to populate the cache.
    if not args.requests:
        raise ReproError("cache warm needs --requests <file.jsonl>")
    engine = BatchEngine(
        cache, jobs=args.jobs, timeout=args.timeout, retries=args.retries
    )
    records = engine.run(read_requests(args.requests))
    summary = engine.trace.summary()
    print(
        f"warmed {args.cache_dir}: {len(records)} requests | "
        f"executed={summary['executed']} "
        f"already-cached={summary['cache_hit']} "
        f"failed={summary['failed']}"
    )
    return 1 if summary["failed"] else 0


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-mpc",
        description="Deterministic MPC ruling sets: solve, verify, sweep.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_generate = sub.add_parser("generate", help="write a workload graph")
    _add_graph_source(p_generate)
    p_generate.add_argument("--out", required=True)
    p_generate.set_defaults(func=cmd_generate)

    def _add_solve_options(parser: argparse.ArgumentParser) -> None:
        # Help text is generated from the registry so it cannot drift
        # from the real algorithm set again (validation happens in the
        # driver, whose unknown-name error also enumerates the registry).
        parser.add_argument(
            "--algorithm", default=registry.DET_RULING,
            help=registry.help_text(problem=registry.RULING_SET, rounds=True),
        )
        parser.add_argument("--beta", type=int, default=2)
        parser.add_argument("--alpha", type=int, default=2)
        parser.add_argument(
            "--regime", default="sublinear",
            choices=("sublinear", "near-linear", "single"),
        )
        parser.add_argument(
            "--backend", default=None, choices=sorted(BACKENDS),
            help="superstep execution backend (results are bit-identical; "
            "'shard' spills machine state to disk and keeps one shard "
            "resident — graphs bigger than RAM)",
        )
        parser.add_argument(
            "--workers", type=int, default=0, help=WORKERS_HELP,
        )
        parser.add_argument(
            "--kernel", default=None, choices=("python", "numpy"),
            help="machine-local compute kernel (results are bit-identical; "
            "'numpy' vectorizes the hot loops and is an error when NumPy "
            "is not installed; default: $REPRO_KERNEL or 'python')",
        )
        parser.add_argument(
            "--governed", action="store_true",
            help="run under the adaptive load governor: near-budget "
            "rounds throttle exchange chunking and exponentiation "
            "windows instead of faulting (results are bit-identical at "
            "feasible sizes; also $REPRO_GOVERNED=1)",
        )

    p_solve = sub.add_parser("solve", help="compute a verified ruling set")
    _add_graph_source(p_solve)
    _add_solve_options(p_solve)
    p_solve.add_argument(
        "--trace-out", default=None,
        help="enable the superstep trace and write its JSONL here",
    )
    p_solve.add_argument(
        "--stream", action="store_true",
        help="solve --input out-of-core: two-pass streaming ingest "
        "shards the file per machine and the run executes on the shard "
        "backend — no process ever holds the whole graph (requires "
        "--input; alpha is fixed at 2; verification is skipped unless "
        "--stream-verify)",
    )
    p_solve.add_argument(
        "--stream-verify", action="store_true",
        help="with --stream: verify against the sequential oracle by "
        "re-reading the file in memory (debug aid — reintroduces the "
        "O(n + m) footprint streaming avoids)",
    )
    p_solve.add_argument("--json", action="store_true")
    p_solve.set_defaults(func=cmd_solve)

    p_trace = sub.add_parser(
        "trace",
        help="solve with the superstep trace on; export JSONL/Chrome trace",
    )
    _add_graph_source(p_trace)
    _add_solve_options(p_trace)
    p_trace.add_argument(
        "--out", required=True, help="JSONL trace output path"
    )
    p_trace.add_argument(
        "--chrome-out", default=None,
        help="also write Chrome trace format (chrome://tracing, Perfetto)",
    )
    p_trace.add_argument(
        "--warn-utilization", type=float, default=0.9,
        help="budget-audit threshold as a fraction of S (default 0.9)",
    )
    p_trace.set_defaults(func=cmd_trace)

    p_match = sub.add_parser(
        "match", help="compute a verified maximal matching"
    )
    _add_graph_source(p_match)
    p_match.add_argument("--randomized", action="store_true")
    p_match.add_argument(
        "--algorithm", default=None,
        help=registry.help_text(problem=registry.MATCHING, rounds=True)
        + " (default: picked from --randomized)",
    )
    p_match.add_argument(
        "--backend", default=None, choices=sorted(BACKENDS),
        help="superstep execution backend (results are bit-identical)",
    )
    p_match.add_argument(
        "--workers", type=int, default=0, help=WORKERS_HELP,
    )
    p_match.add_argument(
        "--kernel", default=None, choices=("python", "numpy"),
        help="machine-local compute kernel (results are bit-identical)",
    )
    p_match.add_argument(
        "--trace-out", default=None,
        help="enable the superstep trace and write its JSONL here",
    )
    p_match.add_argument(
        "--governed", action="store_true",
        help="run under the adaptive load governor (bit-identical at "
        "feasible sizes)",
    )
    p_match.add_argument("--json", action="store_true")
    p_match.set_defaults(func=cmd_match)

    p_verify = sub.add_parser("verify", help="check a claimed ruling set")
    p_verify.add_argument("--input", required=True)
    p_verify.add_argument(
        "--members", required=True, help="comma-separated vertex ids"
    )
    p_verify.add_argument("--alpha", type=int, default=2)
    p_verify.add_argument("--beta", type=int, default=2)
    p_verify.set_defaults(func=cmd_verify)

    p_sweep = sub.add_parser(
        "sweep",
        help="run an algorithm x size grid (parallel, checkpointed)",
    )
    p_sweep.add_argument("--family", choices=FAMILIES, default="gnp")
    p_sweep.add_argument("--n", default="128,256")
    p_sweep.add_argument("--param", type=int, default=12)
    p_sweep.add_argument("--seed", type=int, default=0)
    p_sweep.add_argument("--beta", type=int, default=2)
    p_sweep.add_argument(
        "--betas", default=None,
        help="comma-separated beta grid axis (overrides --beta)",
    )
    p_sweep.add_argument(
        "--regime", default="sublinear",
        choices=("sublinear", "near-linear", "single"),
    )
    p_sweep.add_argument(
        "--algorithms",
        default=f"{registry.DET_RULING},{registry.DET_LUBY}",
        help="comma-separated algorithm names ("
        + registry.help_text(problem=registry.RULING_SET) + ")",
    )
    p_sweep.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for cell execution (records are emitted "
        "in deterministic grid order whatever the fan-out)",
    )
    p_sweep.add_argument(
        "--checkpoint", default=None,
        help="JSONL checkpoint path; each finished cell is appended "
        "(and the file compacted to grid order on completion)",
    )
    p_sweep.add_argument(
        "--resume", action="store_true",
        help="skip cells already completed in --checkpoint; failed "
        "cells are re-run",
    )
    p_sweep.add_argument(
        "--timeout", type=float, default=None,
        help="per-cell wall-clock timeout in seconds (a timed-out cell "
        "becomes a structured failure record)",
    )
    p_sweep.add_argument(
        "--retries", type=int, default=0,
        help="re-run attempts for a failing cell before recording the "
        "failure (default 0)",
    )
    p_sweep.set_defaults(func=cmd_sweep)

    p_fuzz = sub.add_parser(
        "fuzz",
        help="fuzzing verifier: every registered solver over the "
        "hostile graph suite, checked against the sequential validators",
    )
    p_fuzz.add_argument(
        "--scale", type=int, default=1,
        help="hostile-suite size multiplier (default 1)",
    )
    p_fuzz.add_argument(
        "--seed", type=int, default=0,
        help="hostile-suite generator seed (default 0)",
    )
    p_fuzz.add_argument(
        "--solver-seeds", default="0",
        help="comma-separated seeds tried per seeded algorithm "
        "(seedless algorithms run once)",
    )
    p_fuzz.add_argument(
        "--families", default=None,
        help="comma-separated family filter: "
        + ",".join(registry.FAMILIES) + " (default: all)",
    )
    p_fuzz.add_argument(
        "--algorithms", default=None,
        help="comma-separated algorithm filter ("
        + registry.help_text() + "; default: all)",
    )
    p_fuzz.add_argument(
        "--governed", action="store_true",
        help="replay the sweep under the adaptive load governor "
        "(results must stay bit-identical)",
    )
    p_fuzz.add_argument("--json", action="store_true")
    p_fuzz.set_defaults(func=cmd_fuzz)

    def _add_cache_options(parser: argparse.ArgumentParser) -> None:
        parser.add_argument(
            "--cache-dir", default=None,
            help="on-disk result-cache directory (omit for memory-only)",
        )
        parser.add_argument(
            "--cache-memory", type=int, default=256,
            help="in-memory LRU tier size in entries (0 disables it)",
        )
        parser.add_argument(
            "--jobs", type=int, default=1,
            help="worker processes for cache misses (hits never execute; "
            "records are emitted in request order whatever the fan-out)",
        )
        parser.add_argument(
            "--timeout", type=float, default=None,
            help="per-request wall-clock timeout in seconds (a timed-out "
            "request becomes a structured failure record)",
        )
        parser.add_argument(
            "--retries", type=int, default=0,
            help="re-run attempts for a failing request (default 0)",
        )

    p_batch = sub.add_parser(
        "batch",
        help="serve a JSONL request stream (content-addressed cache, "
        "dedup, bounded fan-out)",
    )
    p_batch.add_argument(
        "--requests", required=True,
        help="JSONL request file (one solve request per line)",
    )
    p_batch.add_argument(
        "--out", default=None,
        help="output JSONL path (default: records on stdout)",
    )
    _add_cache_options(p_batch)
    p_batch.add_argument(
        "--max-requests", type=int, default=10_000,
        help="backpressure bound: refuse larger batches up front",
    )
    p_batch.add_argument(
        "--trace-out", default=None,
        help="write the service trace (hits/misses/dedup/outcomes) "
        "as JSONL here",
    )
    p_batch.set_defaults(func=cmd_batch)

    p_serve = sub.add_parser(
        "serve",
        help="run the persistent solve daemon (newline-delimited JSON "
        "over a unix socket or stdio)",
    )
    p_serve.add_argument(
        "--socket", default=None,
        help="unix socket path (omit to serve on stdin/stdout)",
    )
    p_serve.add_argument(
        "--cache-dir", default=None,
        help="on-disk result-cache directory (omit for memory-only)",
    )
    p_serve.add_argument(
        "--cache-memory", type=int, default=256,
        help="in-memory LRU tier size in entries (0 disables it)",
    )
    p_serve.add_argument(
        "--workers", type=int, default=1,
        help="worker threads executing solves (default 1)",
    )
    p_serve.add_argument(
        "--max-queue", type=int, default=64,
        help="admission bound on admitted-but-unfinished requests; "
        "beyond it new requests are refused with a structured error",
    )
    p_serve.add_argument(
        "--max-inflight-words", type=int, default=0,
        help="admission bound on the summed estimated input words of "
        "work in flight (0 = unbounded)",
    )
    p_serve.add_argument(
        "--default-request-words", type=int, default=0,
        help="conservative price charged against --max-inflight-words "
        "for requests whose cost cannot be estimated up front; lifted "
        "to the peak-hold of priced requests seen so far (0 = legacy "
        "behavior, unpriceable requests are admitted at zero cost)",
    )
    p_serve.add_argument(
        "--graph-pool", type=int, default=64,
        help="warm graph pool size (distinct sources kept loaded)",
    )
    p_serve.add_argument(
        "--retries", type=int, default=0,
        help="re-run attempts for a failing request (default 0)",
    )
    p_serve.add_argument(
        "--trace-out", default=None,
        help="write the service trace (events + per-request latency) "
        "as JSONL here on exit",
    )
    p_serve.set_defaults(func=cmd_serve)

    p_cache = sub.add_parser(
        "cache", help="inspect, clear, or pre-warm a result cache"
    )
    p_cache.add_argument(
        "action", choices=("stats", "clear", "warm"),
        help="stats: entry/byte counts; clear: drop every cached "
        "result; warm: run --requests purely to populate the cache",
    )
    _add_cache_options(p_cache)
    p_cache.add_argument(
        "--requests", default=None,
        help="JSONL request file for the warm action",
    )
    p_cache.set_defaults(func=cmd_cache)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
