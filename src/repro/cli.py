"""Command-line interface: generate graphs, solve, verify, sweep.

Installed as ``repro-mpc``::

    repro-mpc generate --family gnp --n 300 --param 12 --out g.txt
    repro-mpc solve --input g.txt --algorithm det-ruling --beta 2
    repro-mpc solve --family powerlaw --n 400 --algorithm det-luby --json
    repro-mpc solve --family gnp --n 256 --trace-out run.trace.jsonl \
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
``solve --trace-out`` additionally records the structured superstep
trace — per-round words, per-machine budget utilization, headroom
warnings — as JSONL and, with ``--chrome-out``, in Chrome trace format
for ``chrome://tracing`` / Perfetto, then prints the budget audit.
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
from repro.graph.generators import FAMILIES, build_graph
from repro.graph.graph import Graph
from repro.graph.io import read_edge_list, write_edge_list
from repro.mpc.backends import BACKENDS
from repro.mpc.trace import WARN_UTILIZATION, DaemonTrace

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


def _add_execution_options(parser: argparse.ArgumentParser) -> None:
    """The flags ``solve`` and ``match`` share for how a run executes."""
    parser.add_argument(
        "--backend", default=None, choices=sorted(BACKENDS),
        help="superstep execution backend (results are bit-identical; "
        "'shard' spills machine state to disk and keeps one shard "
        "resident — graphs bigger than RAM)",
    )
    parser.add_argument(
        "--shards", type=int, default=0,
        help="shard count for the shard backend and solve --stream "
        "(0 = default); an error on any other backend",
    )
    parser.add_argument(
        "--kernel", default=None, choices=("python", "numpy"),
        help="seed-search scoring kernel (results are bit-identical; "
        "'numpy' batches the estimator queries and is an error when "
        "NumPy is not installed; default: $REPRO_KERNEL or 'python')",
    )
    parser.add_argument(
        "--trace-out", default=None,
        help="enable the superstep trace, write its JSONL here, and "
        "print the budget audit (headroom, warnings at "
        f"{100 * WARN_UTILIZATION:.0f}%% of S)",
    )


def cmd_generate(args) -> int:
    graph = build_graph(args.family, args.n, args.param, args.seed)
    write_edge_list(graph, args.out)
    print(
        f"wrote {graph.num_vertices} vertices, {graph.num_edges} edges "
        f"to {args.out}"
    )
    return 0


def _check_shards(args) -> None:
    """Refuse ``--shards`` where no shard backend would read it."""
    if args.shards and args.backend != "shard":
        raise ReproError(
            f"--shards {args.shards} sets the shard count and needs "
            f"--backend shard (got --backend {args.backend or 'serial'})"
        )


def _write_trace(
    result, trace_out: str, chrome_out: Optional[str] = None
) -> List[str]:
    """Write a run's ``--trace-out`` (and ``--chrome-out``) exports.

    Returns the budget-audit lines for the text summary: the exports,
    the worst per-round headroom, and every warning at or above
    :data:`~repro.mpc.trace.WARN_UTILIZATION` of ``S``.
    """
    trace = result.trace
    if trace is None:
        raise ReproError(
            f"algorithm {result.algorithm!r} does not run on the MPC "
            "simulator; --trace-out needs an MPC algorithm"
        )
    trace.write_jsonl(trace_out)
    report = [f"trace:      {trace_out} ({len(trace.events)} events)"]
    if chrome_out is not None:
        trace.write_chrome_trace(chrome_out)
        report.append(
            f"chrome:     {chrome_out} (load in chrome://tracing or Perfetto)"
        )
    report.append(
        f"min headroom: {trace.min_headroom_words()} words "
        f"(budget S={trace.config.memory_words})"
    )
    threshold = f"{100 * WARN_UTILIZATION:.0f}% of S"
    warnings = trace.format_warnings()
    if not warnings:
        return report + [f"budget warnings: none (threshold {threshold})"]
    shown = 20
    report.append(f"budget warnings (≥{threshold}, {len(warnings)} total):")
    report.extend(f"  ! {line}" for line in warnings[:shown])
    if len(warnings) > shown:
        report.append(
            f"  ... and {len(warnings) - shown} more "
            "(full list in the JSONL export)"
        )
    return report


def _print_result(args, result, header, key: str, value) -> int:
    """Print a ``solve`` / ``match`` run: ``--json`` or the text report.

    ``key`` / ``value`` (the members or the matching) join the JSON
    record; ``header`` is the text report's ``(label, value)`` lines
    naming the input and the problem.  Everything after the header —
    rounds, metrics, wall clock per phase, the trace audit — is the
    same for every command and input mode.
    """
    report = (
        _write_trace(result, args.trace_out, args.chrome_out)
        if args.trace_out is not None
        else []
    )
    if args.json:
        payload = result.summary_row()
        payload[key] = value
        payload.update(
            {
                f"time_{phase}_s": seconds
                for phase, seconds in result.time_per_phase.items()
            }
        )
        print(json.dumps(payload, sort_keys=True))
        return 0
    for label, text in [*header, ("rounds", result.rounds)]:
        print(f"{label + ':':<11} {text}")
    for name in sorted(result.metrics):
        print(f"  {name} = {result.metrics[name]}")
    if result.wall_time_s:
        print(f"wall clock: {result.wall_time_s:.3f}s (simulator, not cluster)")
        for phase in sorted(result.time_per_phase):
            print(f"  time[{phase}] = {result.time_per_phase[phase]:.3f}s")
    for line in report:
        print(line)
    return 0


def _check_stream(args) -> None:
    """Refuse the flags a ``--stream`` solve cannot honour."""
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
    for flag, value in (
        ("--trace-out", args.trace_out), ("--chrome-out", args.chrome_out)
    ):
        if value is not None:
            raise ReproError(
                f"--stream records no superstep trace; {flag} cannot apply"
            )


def cmd_solve(args) -> int:
    if args.stream:
        _check_stream(args)
        result = solve_ruling_set_stream(
            args.input,
            algorithm=args.algorithm,
            beta=args.beta,
            regime=args.regime,
            seed=args.seed,
            verify=args.stream_verify,
            num_shards=args.shards,
            kernel=args.kernel,
        )
        header = [
            ("input", f"{args.input} (streamed)"),
            (
                "ingest",
                f"m={result.metrics['ingest_edges']} "
                f"max_degree={result.metrics['ingest_max_degree']}",
            ),
        ]
    else:
        if args.stream_verify:
            raise ReproError("--stream-verify needs --stream")
        if args.chrome_out is not None and args.trace_out is None:
            raise ReproError("--chrome-out needs --trace-out")
        _check_shards(args)
        graph = _load_or_build(args)
        result = solve_ruling_set(
            graph,
            algorithm=args.algorithm,
            beta=args.beta,
            alpha=args.alpha,
            regime=args.regime,
            seed=args.seed,
            backend=args.backend,
            num_shards=args.shards,
            kernel=args.kernel,
            trace=args.trace_out is not None,
        )
        header = [("graph", f"n={graph.num_vertices} m={graph.num_edges}")]
    header += [
        ("algorithm", result.algorithm),
        ("guarantee", f"({result.alpha}, {result.beta})-ruling set"),
        ("size", result.size),
    ]
    return _print_result(args, result, header, "members", result.members)


def cmd_match(args) -> int:
    from repro.core.det_matching import solve_matching

    _check_shards(args)
    graph = _load_or_build(args)
    result = solve_matching(
        graph,
        algorithm=args.algorithm,
        seed=args.seed,
        backend=args.backend,
        num_shards=args.shards,
        kernel=args.kernel,
        trace=args.trace_out is not None,
    )
    header = [
        ("graph", f"n={graph.num_vertices} m={graph.num_edges}"),
        ("algorithm", result.algorithm),
        ("matching size", result.size),
    ]
    matching = [list(edge) for edge in result.matching]
    return _print_result(args, result, header, "matching", matching)


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
    )
    if args.json:
        payload = {
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
    # The daemon's per-request path always solves in process;
    # concurrency comes from the daemon's worker threads, not run_cells
    # fan-out (so no --jobs / --timeout / --retries here).
    # A daemon keeps counters and recent latencies only (DaemonTrace),
    # so its trace stays bounded however long it serves.
    engine = BatchEngine(
        cache, graph_pool=args.graph_pool, trace=DaemonTrace()
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

    p_solve = sub.add_parser("solve", help="compute a verified ruling set")
    _add_graph_source(p_solve)
    # Help text is generated from the registry so it cannot drift from
    # the real algorithm set again (validation happens in the driver,
    # whose unknown-name error also enumerates the registry).
    p_solve.add_argument(
        "--algorithm", default=registry.DET_RULING,
        help=registry.help_text(problem=registry.RULING_SET, rounds=True),
    )
    p_solve.add_argument("--beta", type=int, default=2)
    p_solve.add_argument("--alpha", type=int, default=2)
    p_solve.add_argument(
        "--regime", default="sublinear",
        choices=("sublinear", "near-linear", "single"),
    )
    _add_execution_options(p_solve)
    p_solve.add_argument(
        "--chrome-out", default=None,
        help="with --trace-out: also write Chrome trace format "
        "(chrome://tracing, Perfetto)",
    )
    p_solve.add_argument(
        "--stream", action="store_true",
        help="solve --input out-of-core: two-pass streaming ingest "
        "shards the file per machine and the run executes on the shard "
        "backend — no process ever holds the whole graph (requires "
        "--input; alpha is fixed at 2; verification is skipped unless "
        "--stream-verify; no superstep trace)",
    )
    p_solve.add_argument(
        "--stream-verify", action="store_true",
        help="with --stream: verify against the sequential oracle by "
        "re-reading the file in memory (debug aid — reintroduces the "
        "O(n + m) footprint streaming avoids)",
    )
    p_solve.add_argument("--json", action="store_true")
    p_solve.set_defaults(func=cmd_solve)

    p_match = sub.add_parser(
        "match", help="compute a verified maximal matching"
    )
    _add_graph_source(p_match)
    p_match.add_argument(
        "--algorithm", default=registry.DET_MATCHING,
        help=registry.help_text(problem=registry.MATCHING, rounds=True),
    )
    _add_execution_options(p_match)
    p_match.add_argument("--json", action="store_true")
    # match has no Chrome export.
    p_match.set_defaults(func=cmd_match, chrome_out=None)

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

    def _add_fanout_options(parser: argparse.ArgumentParser) -> None:
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
    _add_fanout_options(p_batch)
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
    _add_cache_options(p_serve)
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
        "--trace-out", default=None,
        help="write the service trace (event counters + the latest "
        "per-request latencies) as JSONL here on exit",
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
    _add_fanout_options(p_cache)
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
