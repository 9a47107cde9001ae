"""One benchmark process: set up a workload, run timed operations, check.

``run.py`` starts this file once per process with a job file; it writes
its result JSON to the path the job names.  Timing happens here, around
calls into ``repro``'s public functions only.  ``setup_s`` starts before
the first ``repro`` import and ends after one untimed warm-up operation;
reading the benchmark's own input files comes before it and is excluded.
An untraced process probes the host's speed throughout (``hostspeed``)
and reports every timing scaled to a quiet host, with the wall-clock
reading kept beside it.
"""

from __future__ import annotations

import asyncio
import gc
import importlib
import json
import os
import resource
import sys
from statistics import median
from time import perf_counter
from typing import Dict, List, Optional

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import hostspeed  # noqa: E402
import inputs  # noqa: E402


def algorithm(constant: str) -> str:
    """The algorithm name behind a ``repro.core.registry`` constant."""
    from repro.core import registry

    return getattr(registry, constant)


class SolveWorkload:
    """Closed loop, one client: each solve starts when the last returned.

    Operation ``i`` of process ``p`` uses input ``(p + i) mod K``, so the
    processes overlap on inputs and a run averages over all K of them.
    """

    ALGORITHM = "DET_RULING"

    def __init__(self, job: Dict[str, object]) -> None:
        self.job = job
        self.proc = int(job["proc"])
        self.files = job["spec"]["graphs"]

    def graph_index(self, i: int) -> int:
        return (self.proc + i) % len(self.files)

    def load_inputs(self) -> None:
        self.edges = [inputs.read_edges(g["path"]) for g in self.files]

    def setup(self) -> None:
        """Import, construct and warm up (timed as ``setup_s``)."""
        raise NotImplementedError

    def op(self, i: int):
        """One timed operation on input position ``i``; returns
        ``(members, claimed beta)``."""
        raise NotImplementedError

    def after_op(self) -> Optional[str]:
        """A defect the operation left behind, checked outside the timer."""
        return None

    def close(self) -> None:
        pass


class SolveER(SolveWorkload):
    kernel = "python"

    def setup(self) -> None:
        from repro.core.pipeline import solve_ruling_set
        from repro.graph.graph import Graph

        self.solve = solve_ruling_set
        self.algorithm = algorithm(self.ALGORITHM)
        self.graphs = [Graph.from_edges(n, edges) for n, edges in self.edges]
        self.op(0)

    def op(self, i: int):
        result = self.solve(
            self.graphs[self.graph_index(i)], algorithm=self.algorithm,
            kernel=self.kernel, backend="serial",
        )
        return result.members, result.beta


class SolveRMAT(SolveER):
    ALGORITHM = "GP_RULING"
    kernel = "numpy"

    def setup(self) -> None:
        from repro.mpc.state_layout import resolve_kernel

        # No silent fallback: this workload measures the numpy kernel.
        if resolve_kernel(self.kernel) != self.kernel:
            raise RuntimeError("the numpy kernel did not resolve")
        super().setup()


class StreamCirculant(SolveWorkload):
    def setup(self) -> None:
        from repro.core.pipeline import solve_ruling_set_stream

        self.solve = solve_ruling_set_stream
        self.algorithm = algorithm(self.ALGORITHM)
        self.spill = os.path.join(self.job["workdir"], f"spill-{self.proc}")
        os.makedirs(self.spill, exist_ok=True)
        self.op(0)

    def op(self, i: int):
        result = self.solve(
            self.files[self.graph_index(i)]["path"],
            algorithm=self.algorithm, spill_dir=self.spill,
        )
        return result.members, result.beta

    def after_op(self) -> Optional[str]:
        left = os.listdir(self.spill)
        return f"spill files left behind: {left}" if left else None


def run_solves(
    workload: SolveWorkload, job, tracer_mod=None
) -> Dict[str, object]:
    """The timed loop.

    In trace mode operations come in pairs on the same input, untraced
    then traced, so input-to-input variation cannot leak into
    ``trace.overhead_frac``.
    """
    records: List[Dict[str, object]] = []
    trace = tracer_mod is not None
    if trace:
        tracer = tracer_mod.Tracer()
        count = 2 * int(job["trace_ops"])
    else:
        count = None
        stop_at = perf_counter() + float(job["seconds"])
    started = perf_counter()
    i = 0
    while (i < count) if trace else (i == 0 or perf_counter() < stop_at):
        traced = trace and i % 2 == 1
        position = i // 2 if trace else i
        patches = tracer_mod.install(tracer) if traced else None
        gc.collect()
        root = tracer.start_root(i) if traced else None
        t0 = perf_counter()
        try:
            members, beta = workload.op(position)
            error = None
        except Exception as exc:  # a failed operation is counted, not fatal
            members, beta, error = None, None, f"{type(exc).__name__}: {exc}"
        latency = perf_counter() - t0
        if traced:
            tracer.finish_root(root)
            tracer_mod.uninstall(patches)
        records.append({
            "i": i, "pair": position, "graph": workload.graph_index(position),
            "start": t0, "latency": latency,
            "traced": traced, "members": members, "beta": beta,
            "error": error or workload.after_op(),
        })
        i += 1
    out = {"records": records, "span": (started, perf_counter())}
    if trace:
        out["tracer"] = tracer
    return out


def check_solves(workload: SolveWorkload, records) -> None:
    """Independent check of every answer; one digest per input file."""
    adjacency = {}
    digests: Dict[int, set] = {}
    for record in records:
        if record["error"] is not None:
            continue
        index = record["graph"]
        if index not in adjacency:
            n, edges = workload.edges[index]
            adjacency[index] = (n, inputs.adjacency(n, edges))
        n, adj = adjacency[index]
        defect = inputs.check_ruling_set(
            n, adj, record["members"], record["beta"]
        )
        if defect:
            record["error"] = f"wrong answer: {defect}"
            continue
        record["digest"] = inputs.members_digest(record["members"])
        digests.setdefault(index, set()).add(record["digest"])
    for record in records:
        if record.get("digest") and len(digests[record["graph"]]) > 1:
            record["error"] = "answers differ between repeats of one input"
        record.pop("members", None)


# ---------------------------------------------------------------------------
# serve-mixed
# ---------------------------------------------------------------------------


class ServeMixed:
    """An in-process ``ServeDaemon`` (one worker) on a unix socket, driven
    by two closed-loop clients of two tenants over the line protocol."""

    CLIENTS = 2
    IDENTITY_RECORDS = 20

    def __init__(self, job: Dict[str, object]) -> None:
        self.job = job
        self.proc = int(job["proc"])
        self.spec = job["spec"]
        self.cursor = [0] * self.CLIENTS
        # Relative: unix socket paths are limited to ~100 bytes.
        self.socket = os.path.relpath(
            os.path.join(job["workdir"], f"serve-{self.proc}.sock")
        )

    def load_inputs(self) -> None:
        self.graphs = self.spec["graphs"]
        self.traces = self.spec["traces"][self.proc]

    def request(self, entry, tenant: Optional[str] = None) -> Dict[str, object]:
        data = {
            "id": entry["id"],
            "graph": {"input": self.graphs[entry["graph"]]["path"]},
            "algorithm": algorithm(entry["algorithm"]),
        }
        if tenant is not None:
            data["tenant"] = tenant
        return data

    def setup(self) -> None:
        from repro.serve.cache import ResultCache
        from repro.serve.daemon import ServeDaemon
        from repro.serve.engine import BatchEngine

        self.loop = asyncio.new_event_loop()
        self.engine = BatchEngine(ResultCache())
        self.daemon = ServeDaemon(self.engine, workers=1)
        self.server = self.loop.create_task(self.daemon.serve_unix(self.socket))
        self.loop.run_until_complete(self._wait_for_socket())
        warm = self.loop.run_until_complete(
            self._client([self.request(e) for e in self.spec["warmup"]])
        )
        bad = [r for *_, r in warm if json.loads(r).get("status") != "ok"]
        if bad:
            raise RuntimeError(f"warm-up request failed: {bad[0][:200]!r}")

    async def _wait_for_socket(self) -> None:
        for _ in range(1000):
            if os.path.exists(self.socket):
                return
            await asyncio.sleep(0.005)
        raise RuntimeError("serve daemon did not open its socket")

    async def _client(self, requests, stop_at=None, tracer=None):
        """Send each request after the previous response arrived."""
        reader, writer = await asyncio.open_unix_connection(
            self.socket, limit=1 << 24
        )
        out = []
        try:
            for data in requests:
                if stop_at is not None and out and perf_counter() >= stop_at:
                    break
                line = (json.dumps(data) + "\n").encode()
                root = tracer.start_root(data["id"], push=False) if tracer else None
                t0 = perf_counter()
                writer.write(line)
                await writer.drain()
                response = await reader.readline()
                latency = perf_counter() - t0
                if root is not None:
                    tracer.finish_root(root, pushed=False)
                out.append((data["id"], t0, latency, response))
        finally:
            writer.close()
            await writer.wait_closed()
        return out

    def segment(self, per_client: Optional[int], stop_at=None, tracer=None):
        """Both clients, concurrently, over their next trace entries."""
        jobs = []
        for client in range(self.CLIENTS):
            start = self.cursor[client]
            end = len(self.traces[client]) if per_client is None else (
                start + per_client
            )
            entries = self.traces[client][start:end]
            tenant = f"tenant-{client}"
            jobs.append(self._client(
                [self.request(e, tenant) for e in entries], stop_at, tracer
            ))

        async def together():
            return await asyncio.gather(*jobs)

        results = self.loop.run_until_complete(together())
        for client, result in enumerate(results):
            self.cursor[client] += len(result)
        return [item for result in results for item in result]

    async def _shutdown(self) -> None:
        reader, writer = await asyncio.open_unix_connection(self.socket)
        writer.write(b'{"op": "shutdown"}\n')
        await writer.drain()
        await reader.readline()
        writer.close()
        await writer.wait_closed()
        await self.server

    def close(self) -> None:
        self.loop.run_until_complete(self._shutdown())
        self.loop.close()


def run_serve(workload: ServeMixed, job, tracer_mod=None) -> Dict[str, object]:
    records: List[Dict[str, object]] = []
    started = perf_counter()
    if tracer_mod is None:
        served = workload.segment(None, stop_at=perf_counter() + job["seconds"])
        records = [{"id": rid, "start": t0, "latency": lat, "traced": False,
                    "response": resp} for rid, t0, lat, resp in served]
        return {"records": records, "span": (started, perf_counter())}
    # Short untraced and traced segments alternate (20 of each), so a
    # drift in machine speed hits both sides of trace.overhead_frac alike.
    tracer = tracer_mod.Tracer()
    pairs = 20
    per_segment = -(-int(job["trace_ops"]) // (pairs * workload.CLIENTS))
    for s in range(2 * pairs):
        traced = s % 2 == 1
        patches = tracer_mod.install(tracer) if traced else None
        gc.collect()
        served = workload.segment(per_segment, tracer=tracer if traced else None)
        if traced:
            tracer_mod.uninstall(patches)
        records += [{"id": rid, "start": t0, "latency": lat, "traced": traced,
                     "pair": s // 2, "response": resp}
                    for rid, t0, lat, resp in served]
    return {"records": records, "span": (started, perf_counter()),
            "tracer": tracer}


def check_serve(workload: ServeMixed, records) -> None:
    """Every response is ok and verified; the first served records match
    what ``BatchEngine.run`` returns for the same requests, byte for byte
    once the ``_serve`` side channel is dropped."""
    from repro.serve.cache import ResultCache
    from repro.serve.engine import BatchEngine

    by_id = {e["id"]: e for trace in workload.traces for e in trace}
    adjacency = {}
    for record in records:
        try:
            response = json.loads(record.pop("response"))
        except ValueError:
            record["error"] = "response is not JSON"
            continue
        record["response"] = response
        record["cache"] = (response.get("_serve") or {}).get("cache")
        if response.get("status") != "ok":
            record["error"] = (
                f"status {response.get('status')}: {response.get('error')}"
            )
            continue
        name = by_id[record["id"]]["graph"]
        if name not in adjacency:
            n, edges = inputs.read_edges(workload.graphs[name]["path"])
            adjacency[name] = (n, inputs.adjacency(n, edges))
        n, adj = adjacency[name]
        defect = inputs.check_ruling_set(
            n, adj, response["members"], response["beta"]
        )
        record["error"] = f"wrong answer: {defect}" if defect else None
    # One process is enough for the identity check: it re-solves its
    # requests from a cold cache, which costs seconds.
    first = [r for r in records if r["error"] is None]
    first = first[: workload.IDENTITY_RECORDS] if workload.proc == 0 else []
    batch = BatchEngine(ResultCache()).run(
        [workload.request(by_id[r["id"]]) for r in first]
    )
    for record, expected in zip(first, batch):
        expected.pop("_serve", None)
        served = dict(record["response"])
        served.pop("_serve", None)
        if json.dumps(served, sort_keys=True) != json.dumps(
            expected, sort_keys=True
        ):
            record["error"] = "served record differs from BatchEngine.run"
    for record in records:
        record.pop("response", None)


# ---------------------------------------------------------------------------
# Trace-mode summary
# ---------------------------------------------------------------------------


def trace_summary(run: Dict[str, object], tracing, spans_path: str):
    tracer = run["tracer"]
    tracer.write_jsonl(spans_path)
    per_op = tracing.per_op_layers(tracer)
    errors = []
    for op, layers in per_op.items():
        total = tracing.self_time_total(layers)
        duration = layers["op.duration_s"]
        errors.append(abs(total - duration) / duration if duration else 0.0)
    layers = tracing.summarize(per_op)
    layers.update(tracing.serve_waits(tracer))
    # Untraced and traced work alternate in adjacent pairs (same inputs
    # for solves); the median of the per-pair ratios cancels both input
    # variation and slow drift in machine speed.
    pairs: Dict[int, Dict[bool, List[float]]] = {}
    for record in run["records"]:
        if record["error"] is None:
            sides = pairs.setdefault(record["pair"], {True: [], False: []})
            sides[record["traced"]].append(record["latency"])
    ratios = [median(p[True]) / median(p[False])
              for p in pairs.values() if p[True] and p[False]]
    layers["trace.overhead_frac"] = median(ratios) - 1 if ratios else 0.0
    return {
        "layers": layers,
        "traced_ops": len(per_op),
        "max_partition_error": max(errors, default=0.0),
        "wrappers_left": tracing.installed_count(),
    }


WORKLOADS = {
    "solve-er": SolveER,
    "solve-rmat": SolveRMAT,
    "stream-circulant": StreamCirculant,
    "serve-mixed": ServeMixed,
}


def main(job_path: str) -> int:
    with open(job_path, encoding="utf-8") as handle:
        job = json.load(handle)
    # One CPU for every thread: the probe speaks only for the CPU it runs
    # on, and the serve daemon's threads then hand off without waking
    # another CPU.  The program runs one thread at a time under the GIL.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    workload = WORKLOADS[job["workload"]](job)
    workload.load_inputs()
    # The traced run keeps its spans free of probes and reports per-layer
    # times, which are not scaled.
    probe = None if job["trace"] else hostspeed.HostSpeed()
    if probe is not None:
        probe.start()
    try:
        setup_start = perf_counter()
        workload.setup()
        setup_end = perf_counter()
        # The untraced run never imports the tracer.
        tracing = importlib.import_module("tracing") if job["trace"] else None
        serve = isinstance(workload, ServeMixed)
        try:
            run = (run_serve if serve else run_solves)(workload, job, tracing)
            peak_rss_mb = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            )
        finally:
            workload.close()
    finally:
        if probe is not None:
            probe.stop()

    def scaled(start: float, end: float) -> float:
        return probe.scaled(start, end) if probe else end - start

    for record in run["records"]:
        start = record.pop("start")
        record["wall_s"] = record["latency"]
        record["latency"] = scaled(start, start + record["latency"])
    (check_serve if serve else check_solves)(workload, run["records"])
    result = {
        "proc": workload.proc,
        "setup_s": scaled(setup_start, setup_end),
        "measured_s": scaled(*run["span"]),
        "wall_setup_s": setup_end - setup_start,
        "wall_measured_s": run["span"][1] - run["span"][0],
        "host_speed": probe.speed(*run["span"]) if probe else 1.0,
        "peak_rss_mb": peak_rss_mb,
        "records": run["records"],
    }
    if tracing is not None:
        result["trace"] = trace_summary(run, tracing, job["spans_path"])
    with open(job["result_path"], "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
