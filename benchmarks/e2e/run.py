"""End-to-end benchmark of the MPC ruling-set reproduction.

Run from the repository root::

    python3 benchmarks/e2e/run.py [--workload W] [--seed N] [--seconds S]
                                  [--trace [0|1]] [--out FILE]
    python3 benchmarks/e2e/run.py compare A.json B.json

(``PYTHONPATH=src python -m benchmarks.e2e.run`` works the same way.)
Each workload runs in fresh child processes, one at a time, with
``PYTHONHASHSEED=0``; the timed operations are split across them and
their samples pooled.  Timings are scaled to a quiet host by the
workers' host-speed probe (``hostspeed.py``); the wall-clock readings
are printed and stored beside them.  Every metric is printed with its
unit; the last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (end-to-end metrics, or with
``--trace 1`` the per-layer ones).  The full result, samples included,
is written to ``--out`` (default ``benchmarks/e2e/results/``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
from statistics import median
from time import perf_counter
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")
WORKER = os.path.join(HERE, "worker.py")
sys.path.insert(0, HERE)

import inputs  # noqa: E402
from tracing import percentile  # noqa: E402 - stdlib only; installs nothing

WORKLOADS = inputs.WORKLOADS
PROCESSES = 3
DEFAULT_SECONDS = 20
#: Operations per traced run (the same number again runs untraced,
#: interleaved, to measure the tracing overhead).  Streamed solves vary
#: too much for two pairs to estimate that overhead, hence six.
TRACE_OPS = {
    "full": {"solve-er": 5, "solve-rmat": 5, "stream-circulant": 6,
             "serve-mixed": 320},
    "smoke": {"solve-er": 2, "solve-rmat": 2, "stream-circulant": 2,
              "serve-mixed": 40},
}
#: A run of one workload must end well inside 180 seconds.
WORKLOAD_DEADLINE_S = 170

#: (name, unit, better) — mirrored in BENCHMARK.json (test_e2e checks).
END_TO_END = (
    ("latency_p50_s", "s", "lower"),
    ("throughput_rps", "1/s", "higher"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)
#: Printed and stored, but not part of the result line: the p99 has ten
#: samples beyond it only on serve-mixed, error_rate is 0 on a correct
#: run (it rides in ``failed`` / ``attempted`` instead), and the last two
#: show the unscaled reading and how contended the host was.
EXTRA_END_TO_END = (
    ("latency_p99_s", "s", "lower"),
    ("error_rate", "fraction", "lower"),
    ("latency_p50_wall_s", "s", "lower"),
    ("host_speed", "fraction", "higher"),
)
#: Per-layer metrics of the result line: per-operation means from the
#: traced run.  Times here are non-zero on every workload; layers only
#: some workloads reach (ingest, verify, serve, program phases) are in
#: the stored result and the README breakdown.
PER_LAYER = (
    ("machine.audit_s", "s"),
    ("machine.audit_calls", "count"),
    ("derand.seed_search_s", "s"),
    ("derand.candidates_scanned", "count"),
    ("derand.accept_ratio", "ratio"),
    ("sim.local_s", "s"),
    ("sim.communicate_s", "s"),
    ("sim.route_self_s", "s"),
    ("sim.supersteps", "count"),
    ("sim.rounds", "count"),
    ("sim.total_words", "words"),
    ("backend.callback_s", "s"),
    ("backend.overhead_s", "s"),
    ("shard.loads", "count"),
    ("shard.spills", "count"),
    ("shard.chunks_spooled", "count"),
    ("session.sizing_s", "s"),
    ("session.unattributed_s", "s"),
    ("graph_store.load_s", "s"),
    ("graph_store.collect_s", "s"),
    ("serve.cache_hit_ratio", "ratio"),
    ("trace.overhead_frac", "fraction"),
)


def child_env() -> Dict[str, str]:
    """The parent's environment minus every ``REPRO_*`` override."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = SRC
    return env


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, scale: str,
    deadline: float,
) -> Dict[str, object]:
    """All processes of one workload; returns its aggregated result."""
    workdir = os.path.join(HERE, ".work", f"{name}-{seed}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    os.makedirs(RESULTS, exist_ok=True)
    processes = 1 if trace else PROCESSES
    try:
        spec = inputs.build(name, seed, scale, workdir, processes)
        print(f"{name}: seed {seed} inputs digest {spec['digest']}", flush=True)
        results = []
        failures = []
        for proc in range(processes):
            job = {
                "workload": name, "proc": proc, "spec": spec,
                "workdir": workdir, "trace": trace,
                "seconds": seconds / processes,
                "trace_ops": TRACE_OPS[scale][name],
                "result_path": os.path.join(workdir, f"result-{proc}.json"),
                "spans_path": os.path.join(
                    RESULTS, f"spans-{name}-{seed}.jsonl"
                ),
            }
            job_path = os.path.join(workdir, f"job-{proc}.json")
            with open(job_path, "w", encoding="utf-8") as handle:
                json.dump(job, handle)
            timeout = max(1.0, deadline - perf_counter())
            try:
                done = subprocess.run(
                    [sys.executable, WORKER, job_path], cwd=ROOT,
                    env=child_env(), capture_output=True, text=True,
                    timeout=timeout,
                )
            except subprocess.TimeoutExpired:
                failures.append(f"process {proc} timed out after {timeout:.0f}s")
                break
            if done.returncode != 0:
                tail = done.stderr.strip().splitlines()[-1:] or ["no output"]
                failures.append(f"process {proc} exited {done.returncode}: "
                                f"{tail[0]}")
                sys.stderr.write(done.stderr)
                continue
            with open(job["result_path"], encoding="utf-8") as handle:
                results.append(json.load(handle))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return aggregate(name, spec["digest"], results, failures, trace)


def aggregate(name, digest, results, failures, trace) -> Dict[str, object]:
    records = [r for result in results for r in result["records"]]
    errors = [r["error"] for r in records if r["error"] is not None]
    attempted = len(records) + len(failures)
    failed = len(errors) + len(failures)
    out: Dict[str, object] = {
        "input_digest": digest,
        "attempted": attempted,
        "failed": failed,
        "errors": (failures + errors)[:10],
        "processes": len(results),
    }
    if not results:
        return out
    metrics: Dict[str, Dict[str, object]] = {}

    def put(metric, unit, value, runs):
        metrics[metric] = {"value": value, "unit": unit, "runs": runs}

    def latencies(result, key="latency"):
        return [r[key] for r in result["records"]
                if r["error"] is None and not r["traced"]]

    pooled = [x for result in results for x in latencies(result)]
    if pooled:
        put("latency_p50_s", "s", median(pooled),
            [median(latencies(r)) for r in results if latencies(r)])
        put("latency_p99_s", "s", percentile(pooled, 99),
            [percentile(latencies(r), 99) for r in results if latencies(r)])
        put("throughput_rps", "1/s",
            len(pooled) / sum(r["measured_s"] for r in results),
            [len(latencies(r)) / r["measured_s"] for r in results])
        put("latency_p50_wall_s", "s",
            median(x for r in results for x in latencies(r, "wall_s")),
            [median(latencies(r, "wall_s")) for r in results if latencies(r)])
    put("host_speed", "fraction", median(r["host_speed"] for r in results),
        [r["host_speed"] for r in results])
    put("setup_s", "s", median(r["setup_s"] for r in results),
        [r["setup_s"] for r in results])
    put("peak_rss_mb", "MB", max(r["peak_rss_mb"] for r in results),
        [r["peak_rss_mb"] for r in results])
    put("error_rate", "fraction", failed / attempted if attempted else 0.0,
        [sum(x["error"] is not None for x in r["records"])
         / max(1, len(r["records"])) for r in results])
    out["samples"] = len(pooled)
    out["latencies"] = [latencies(result) for result in results]
    out["metrics"] = metrics
    if trace:
        summary = results[0]["trace"]
        out["layers"] = summary.pop("layers")
        out["trace_checks"] = summary
        if summary["wrappers_left"]:
            out["failed"] += 1
            out["errors"].append("trace wrappers were not removed")
        if summary["max_partition_error"] > 0.05:
            out["failed"] += 1
            out["errors"].append("self times do not add up to the operation")
    if name == "serve-mixed":
        caches = [r.get("cache") for r in records]
        out["cache_hit_share"] = caches.count("hit") / max(1, len(caches))
    return out


def line_metrics(result: Dict[str, object], trace: bool):
    """The ``metrics`` object of the final line."""
    if trace:
        layers = result.get("layers", {})
        return {name: {"value": layers.get(name, 0.0), "unit": unit}
                for name, unit in PER_LAYER}
    metrics = result.get("metrics", {})
    return {name: {"value": metrics[name]["value"], "unit": unit}
            for name, unit, _ in END_TO_END if name in metrics}


def print_result(name: str, result: Dict[str, object], trace: bool) -> None:
    print(f"{name}: {result['attempted']} operations, "
          f"{result['failed']} failed, {result.get('samples', 0)} timed "
          f"samples in {result['processes']} processes")
    for error in result["errors"]:
        print(f"{name}:   error: {error}")
    metrics = result.get("metrics", {})
    for metric, unit, _ in END_TO_END + EXTRA_END_TO_END:
        if metric in metrics:
            print(f"{name}: {metric} = {metrics[metric]['value']:.6g} {unit}")
    if trace:
        layers = result.get("layers", {})
        for metric in sorted(layers):
            print(f"{name}: layer {metric} = {layers[metric]:.6g}")
        checks = result.get("trace_checks", {})
        print(f"{name}: trace max partition error "
              f"{checks.get('max_partition_error', 0.0):.3%}, "
              f"wrappers left {checks.get('wrappers_left')}")


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        import compare

        return compare.main(argv[1:])
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, action="append",
                        help="repeatable; default: all four")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="measured seconds per workload, split "
                        "across its processes")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="run the traced per-layer breakdown instead")
    parser.add_argument("--scale", choices=sorted(inputs.SHAPES),
                        default="full", help="smoke: tiny inputs, for tests")
    parser.add_argument("--out", help="result JSON (default: under results/)")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: no repro package under {SRC}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    trace = bool(args.trace)
    names = args.workload or list(WORKLOADS)
    report = {
        "seed": args.seed, "seconds": args.seconds, "scale": args.scale,
        "trace": trace, "python": platform.python_version(),
        "machine": f"{platform.machine()} {os.cpu_count()} cpus",
        "workloads": {},
    }
    for name in names:
        deadline = perf_counter() + WORKLOAD_DEADLINE_S
        result = run_workload(
            name, args.seed, args.seconds, trace, args.scale, deadline
        )
        report["workloads"][name] = result
        print_result(name, result, trace)
    out = args.out or os.path.join(
        RESULTS, f"run-{'-'.join(names) if args.workload else 'all'}"
        f"-{args.seed}{'-trace' if trace else ''}.json"
    )
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1, sort_keys=True)
    print(f"wrote {os.path.relpath(out)}")
    results = list(report["workloads"].values())
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    if len(names) == 1:
        metrics = line_metrics(results[0], trace)
    else:
        metrics = {f"{name}/{metric}": value
                   for name, result in report["workloads"].items()
                   for metric, value in line_metrics(result, trace).items()}
    correct = failed == 0 and all("metrics" in r for r in results)
    print(json.dumps({"correct": correct, "attempted": max(1, attempted),
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
