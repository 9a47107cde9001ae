"""Batched request engine: JSONL requests in, JSONL records out.

One request names a graph source, an algorithm, and solve parameters;
the engine turns a batch of them into verified results while doing the
work at most once per *distinct* solve:

1. **Lookup.**  Every request — a batch member or one daemon request
   (:meth:`BatchEngine.serve_request`) — goes through one lookup: its
   graph source is fetched through the warm graph pool (loaded once,
   shared by every later request naming the same source; an
   unloadable source becomes a failure record), its cache key
   (:func:`repro.serve.cache.cache_key` over the graph fingerprint and
   the registry's canonical parameters) is derived, and the
   :class:`ResultCache` is consulted.  A hit is served from the stored
   payload with **zero MPC rounds executed**; the daemon answers hits
   on pooled graphs at admission (:meth:`BatchEngine.answer_if_cached`),
   before they would queue.
2. **Dedup.**  Within a batch, only the first request per key reaches
   the cache — the rest are *deduplicated* onto its outcome, failures
   included.
3. **Execution.**  A batch's unique misses run through the sweep
   engine's :func:`~repro.analysis.sweep.run_cells` scheduler — the
   same bounded fan-out (``jobs``), per-request ``timeout``,
   ``retries``, and process isolation the fault-tolerant sweeps use; a
   daemon request's miss is solved in process on its worker thread.
4. **Outcome.**  Every executed miss is stored back into the cache.  A
   request that fails becomes a structured failure record in the
   output stream; it never kills the batch and is never cached.
5. **Backpressure.**  Batches above ``max_requests`` are refused up
   front with :class:`~repro.errors.ServeError` instead of being
   queued unboundedly.

Output records preserve input order.  Each record's deterministic part
(members/matching, rounds, metrics, phase attribution) is
record-for-record identical between serial and parallel engine runs and
between cold and warm cache states; per-serving observability (cache
status, wall clock, worker attribution) rides in a ``_serve`` side
channel excluded from that contract — the exact split the sweep
checkpoints use for ``_meta``.

Request schema (one JSON object per line)::

    {"id": "r1", "graph": {"family": "gnp", "n": 128, "param": 8},
     "algorithm": "...", "beta": 2, "alpha": 2,
     "regime": "sublinear", "alpha_mem": [2, 3], "seed": 0}

``graph`` is either ``{"input": "edges.txt"}`` (an edge-list file) or a
generator spec ``{"family": ..., "n": ..., "param": ..., "seed": ...}``
with the same semantics as the CLI's graph options.  Every field but
``graph`` has a default; ``id`` defaults to the request's position.
"""

from __future__ import annotations

import json
import os
import threading
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple, Union

from repro.analysis.records import RunRecord
from repro.analysis.sweep import FAILED, Cell, run_cells
from repro.core import registry
from repro.errors import ReproError, ServeError
from repro.graph.generators import build_graph
from repro.graph.graph import Graph
from repro.graph.io import read_edge_list
from repro.mpc.trace import ServiceTrace
from repro.serve.cache import ResultCache, cache_key, result_to_payload

__all__ = [
    "BatchEngine",
    "read_requests",
    "records_to_lines",
    "write_records",
]

#: The request fields the engine understands; anything else is a
#: malformed request file (raised, not recorded — see ServeError).
_REQUEST_KEYS = frozenset(
    ("id", "graph", "algorithm", "beta", "alpha", "regime", "alpha_mem",
     "seed")
)

#: Payload keys that carry wall clock — serving observability, excluded
#: from the deterministic record part (they land under ``_serve``).
_TIMING_KEYS = ("wall_time_s", "time_per_phase")


def read_requests(
    path: Union[str, Path], *, with_linenos: bool = False
) -> Union[
    List[Dict[str, object]],
    Tuple[List[Dict[str, object]], List[int]],
]:
    """Parse a JSONL request file; malformed lines raise ServeError.

    The file is streamed line by line — a large batch file never has to
    fit in memory as one string (the parsed requests themselves still
    accumulate; the serve daemon avoids even that by reading its socket
    stream one request at a time).  With ``with_linenos=True`` the
    1-based line number of each request is returned alongside, so
    errors detected later (e.g. duplicate ids) can name file positions.
    """
    requests: List[Dict[str, object]] = []
    linenos: List[int] = []
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                data = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ServeError(
                    f"{path}:{lineno}: request is not valid JSON: {exc}"
                ) from exc
            if not isinstance(data, dict):
                raise ServeError(
                    f"{path}:{lineno}: request must be a JSON object, "
                    f"got {type(data).__name__}"
                )
            requests.append(data)
            linenos.append(lineno)
    if with_linenos:
        return requests, linenos
    return requests


def records_to_lines(records: List[Dict[str, object]]) -> List[str]:
    """Serialise output records as canonical JSON lines."""
    return [json.dumps(record, sort_keys=True) for record in records]


def write_records(
    records: List[Dict[str, object]], path: Union[str, Path]
) -> None:
    """Write output records to a JSONL file, atomically.

    Same tmp-write-then-:func:`os.replace` pattern as the result
    cache's disk tier: a crash mid-write leaves either the previous
    file or the complete new one, never a torn half-batch.
    """
    target = Path(path)
    tmp = target.with_name(target.name + ".tmp")
    tmp.write_text(
        "\n".join(records_to_lines(records)) + "\n", encoding="utf-8"
    )
    os.replace(tmp, target)


def _load_graph(source: Dict[str, object]) -> Graph:
    """Materialise one graph source (edge-list file or generator spec)."""
    if "input" in source:
        return read_edge_list(str(source["input"]))
    return build_graph(
        str(source["family"]),
        int(source.get("n", 200)),
        int(source.get("param", 12)),
        int(source.get("seed", 0)),
    )


def _execute_request(graph: Graph, params: Dict[str, object]) -> RunRecord:
    """Cell runner: one verified solve, payload in the record fields.

    Module-level so it pickles for ``jobs > 1`` / ``timeout`` runs.
    """
    spec = registry.get_algorithm(str(params["algorithm"]))
    if spec.problem == registry.RULING_SET:
        from repro.core.pipeline import solve_ruling_set

        result = solve_ruling_set(
            graph,
            algorithm=spec.name,
            beta=int(params["beta"]),
            alpha=int(params["alpha"]),
            regime=str(params["regime"]),
            alpha_mem=tuple(params["alpha_mem"]),
            seed=int(params["seed"]),
        )
    else:
        from repro.core.det_matching import solve_matching

        result = solve_matching(
            graph,
            algorithm=spec.name,
            regime=str(params["regime"]),
            alpha_mem=tuple(params["alpha_mem"]),
            seed=int(params["seed"]),
        )
    return RunRecord(
        experiment="serve",
        workload=str(params["id"]),
        algorithm=spec.name,
        fields=result_to_payload(result),
    )


class BatchEngine:
    """Serve a batch of solve requests through one cache and scheduler.

    The engine owns a :class:`~repro.mpc.trace.ServiceTrace`
    (``engine.trace``) that records every cache hit / miss / store /
    eviction, dedup, and execution outcome — a pure observer, so traced
    and untraced batches produce identical output records.
    """

    def __init__(
        self,
        cache: ResultCache,
        *,
        jobs: int = 1,
        timeout: Optional[float] = None,
        retries: int = 0,
        max_requests: int = 10_000,
        graph_pool: int = 64,
        trace: Optional[ServiceTrace] = None,
    ) -> None:
        if max_requests <= 0:
            raise ServeError(
                f"max_requests must be positive, got {max_requests}"
            )
        if graph_pool <= 0:
            raise ServeError(
                f"graph_pool must be positive, got {graph_pool}"
            )
        self.cache = cache
        self.jobs = jobs
        self.timeout = timeout
        self.retries = retries
        self.max_requests = max_requests
        self.graph_pool = graph_pool
        self.trace = trace if trace is not None else ServiceTrace()
        # Warm graph pool: loaded graphs outlive a single batch, so a
        # daemon serving the same source repeatedly loads it once.
        # Insertion-ordered with FIFO eviction at ``graph_pool``.
        self._graphs: Dict[str, Graph] = {}
        # serve_request may run on daemon worker threads; the lock
        # guards the shared pools, cache, and trace — never a solve.
        self._lock = threading.RLock()

    # -- request normalisation ------------------------------------------

    def _normalize(
        self, data: Dict[str, object], index: int
    ) -> Dict[str, object]:
        unknown = sorted(set(data) - _REQUEST_KEYS)
        if unknown:
            raise ServeError(
                f"request {index}: unknown fields {unknown}; "
                f"expected a subset of {sorted(_REQUEST_KEYS)}"
            )
        source = data.get("graph")
        if not isinstance(source, dict) or not (
            "input" in source or "family" in source
        ):
            raise ServeError(
                f"request {index}: 'graph' must be an object with "
                "either 'input' (edge-list path) or 'family' "
                "(generator spec)"
            )
        return {
            "id": str(data.get("id", f"req-{index}")),
            "source": source,
            "source_key": json.dumps(
                source, sort_keys=True, separators=(",", ":")
            ),
            "algorithm": str(data.get("algorithm", registry.DET_RULING)),
            "beta": int(data.get("beta", 2)),
            "alpha": int(data.get("alpha", 2)),
            "regime": str(data.get("regime", "sublinear")),
            "alpha_mem": [int(x) for x in data.get("alpha_mem", (2, 3))],
            "seed": int(data.get("seed", 0)),
        }

    def _request_key(
        self, request: Dict[str, object], graph: Graph
    ) -> Tuple[Optional[str], Optional[Tuple[str, str]]]:
        """``(cache key, None)`` or ``(None, (error type, message))``."""
        try:
            spec = registry.get_algorithm(str(request["algorithm"]))
        except ReproError as exc:
            return None, (type(exc).__name__, str(exc))
        params = registry.canonical_cache_params(
            spec,
            beta=int(request["beta"]),
            alpha=int(request["alpha"]),
            regime=str(request["regime"]),
            alpha_mem=tuple(request["alpha_mem"]),
            seed=int(request["seed"]),
        )
        return cache_key(graph.fingerprint(), params), None

    def _check_duplicate_ids(
        self,
        normalized: List[Dict[str, object]],
        linenos: Optional[List[int]],
    ) -> None:
        """Refuse batches whose requests share an id.

        Output records, dedup resolution, and ``ServiceTrace`` events
        are all keyed by ``id`` — two requests with the same explicit
        id would be silently ambiguous everywhere downstream.  Named
        by file line when the caller read the batch from a file, by
        batch position otherwise.
        """

        def where(index: int) -> str:
            if linenos is not None and index < len(linenos):
                return f"line {linenos[index]}"
            return f"request {index}"

        first_index: Dict[str, int] = {}
        for index, request in enumerate(normalized):
            rid = str(request["id"])
            if rid in first_index:
                raise ServeError(
                    f"duplicate request id {rid!r} "
                    f"({where(first_index[rid])} and {where(index)}); "
                    "ids must be unique within a batch"
                )
            first_index[rid] = index

    def _get_graph(self, request: Dict[str, object]) -> Graph:
        """Fetch a request's graph through the warm pool (load once)."""
        source_key = str(request["source_key"])
        graph = self._graphs.get(source_key)
        if graph is None:
            graph = _load_graph(request["source"])
            self._graphs[source_key] = graph
            self.trace.record(
                "graph_load",
                source=source_key,
                fingerprint=graph.fingerprint(),
            )
            while len(self._graphs) > self.graph_pool:
                evicted = next(iter(self._graphs))
                del self._graphs[evicted]
                self.trace.record("graph_evict", source=evicted)
        return graph

    @staticmethod
    def _solve_params(request: Dict[str, object]) -> Dict[str, object]:
        """The parameter dict :func:`_execute_request` consumes."""
        return {
            field: value
            for field, value in request.items()
            if field not in ("source", "source_key")
        }

    def _cell(self, plan: Dict[str, object]) -> Cell:
        """A miss plan as one :func:`run_cells` cell."""
        request = plan["request"]
        return Cell(
            key=str(plan["key"]),
            runner=_execute_request,
            args=(plan["graph"], self._solve_params(request)),
            workload=str(request["id"]),
            algorithm=str(request["algorithm"]),
        )

    # -- one request's lifecycle ------------------------------------------

    def _lookup(
        self,
        request: Dict[str, object],
        seen: Set[str],
        *,
        hits_only: bool = False,
    ) -> Optional[Dict[str, object]]:
        """Plan one request: ``failed``, ``dedup``, ``hit`` or ``miss``.

        Warms the request's graph through the pool (an unloadable
        source becomes a failure plan), derives its cache key (an
        unresolvable request, e.g. an unknown algorithm, fails too),
        and only then first-hops the result cache.  A key already in
        ``seen`` is a ``dedup`` of an earlier request in the same
        batch and never reaches the cache.  A ``miss`` plan carries
        its ``graph`` for execution.  Call under the engine lock.

        ``hits_only`` plans a hit or nothing: the graph is read from
        the pool, never loaded, and ``None`` (with nothing counted or
        traced) stands for an unpooled source, a failing key or a key
        the cache does not hold.
        """
        plan: Dict[str, object] = {
            "request": request, "key": None, "payload": None,
            "error": None, "serve": {}, "kind": "failed",
        }
        if hits_only:
            graph = self._graphs.get(str(request["source_key"]))
            if graph is None:
                return None
            key, error = self._request_key(request, graph)
            if error is not None or key not in self.cache:
                return None
            plan["key"] = key
        else:
            try:
                graph = self._get_graph(request)
            except Exception as exc:  # unloadable source → failure record
                error = (type(exc).__name__, str(exc))
            else:
                key, error = self._request_key(request, graph)
                plan["key"] = key
        if error is not None:
            plan["error"] = error
            self.trace.record("failed", id=request["id"], error_type=error[0])
        elif key in seen:
            plan["kind"] = "dedup"
            self.trace.record("dedup", id=request["id"], key=key)
        else:
            seen.add(key)
            cached = self.cache.get(key)
            if cached is not None:
                plan["kind"] = "hit"
                plan["payload"] = cached
                self.trace.record("cache_hit", id=request["id"], key=key)
            else:
                plan["kind"] = "miss"
                plan["graph"] = graph
                self.trace.record("cache_miss", id=request["id"], key=key)
        return plan

    def _outcome(
        self,
        plan: Dict[str, object],
        payload: Optional[Dict[str, object]],
        error: Optional[Tuple[str, str]],
    ) -> None:
        """Settle an executed miss: store its payload or record its error.

        Failures are outcomes too, but they are never cached.  Call
        under the engine lock.
        """
        request, key = plan["request"], plan["key"]
        if error is not None:
            plan["error"] = error
            self.trace.record(
                "failed", id=request["id"], key=key, error_type=error[0]
            )
            return
        plan["payload"] = payload
        self.cache.put(str(key), payload)
        self.trace.record("executed", id=request["id"], key=key)
        self.trace.record("cache_store", id=request["id"], key=key)

    # -- the batch -------------------------------------------------------

    def run(
        self,
        requests: List[Dict[str, object]],
        *,
        linenos: Optional[List[int]] = None,
    ) -> List[Dict[str, object]]:
        """Serve ``requests``; returns output records in input order.

        ``linenos`` (parallel to ``requests``, from
        :func:`read_requests` with ``with_linenos=True``) lets
        duplicate-id errors name source-file lines.
        """
        if len(requests) > self.max_requests:
            raise ServeError(
                f"batch of {len(requests)} requests exceeds "
                f"max_requests={self.max_requests}; split the stream "
                "or raise the bound"
            )
        normalized = [
            self._normalize(data, index)
            for index, data in enumerate(requests)
        ]
        self._check_duplicate_ids(normalized, linenos)

        # Plan every request before executing anything; only the first
        # request per key reaches the cache, later ones are dedups.
        seen: Set[str] = set()
        with self._lock:
            plans = [self._lookup(request, seen) for request in normalized]

        # The unique misses fan out through run_cells (jobs / timeout /
        # retries), in process or one worker process per cell.
        misses = [plan for plan in plans if plan["kind"] == "miss"]
        if misses:
            records = run_cells(
                "serve",
                [self._cell(plan) for plan in misses],
                jobs=self.jobs, retries=self.retries, timeout=self.timeout,
            )
            with self._lock:
                for plan, record in zip(misses, records):
                    plan["serve"] = dict(record.meta)
                    if record.get("status") == FAILED:
                        error = (
                            str(record.get("error_type")),
                            str(record.get("error")),
                        )
                        self._outcome(plan, None, error)
                    else:
                        self._outcome(plan, dict(record.fields), None)

        # Dedup'd requests resolve to their key's outcome — payload or
        # failure alike (an error is one outcome of the shared solve).
        outcomes = {
            str(plan["key"]): plan
            for plan in plans
            if plan["kind"] in ("hit", "miss")
        }
        for plan in plans:
            if plan["kind"] == "dedup":
                primary = outcomes[str(plan["key"])]
                plan["payload"] = primary["payload"]
                plan["error"] = primary["error"]

        return [self._output_record(plan) for plan in plans]

    # -- the per-request path (daemon hot path) --------------------------

    def serve_request(
        self, data: Dict[str, object], *, index: int = 0
    ) -> Dict[str, object]:
        """Serve one request through the warm pools; returns its record.

        The per-request path the serve daemon runs on its worker
        threads: normalise, then the same lookup and outcome steps as
        :meth:`run`, with a miss solved in process in between.  The
        returned record is shaped exactly like a batch record
        (deterministic part + ``_serve`` side channel), and for the
        same request its deterministic part is byte-identical to the
        batch path's — both resolve through the same cache key and the
        same runner.

        Malformed requests (unknown fields, bad ``graph``) raise
        :class:`ServeError`, mirroring the batch path; everything past
        validation — an unloadable graph, an unknown algorithm, a solve
        fault — becomes a structured failure record, so one bad request
        can never take a daemon worker down.  Shared state (graph pool,
        cache, trace) is mutated under the engine lock; the solve
        itself runs outside it, so workers only serialise on
        bookkeeping.
        """
        request = self._normalize(data, index)
        with self._lock:
            plan = self._lookup(request, set())
        if plan["kind"] == "miss":
            try:
                record = _execute_request(
                    plan["graph"], self._solve_params(request)
                )
            except Exception as exc:
                payload, error = None, (type(exc).__name__, str(exc))
            else:
                payload, error = dict(record.fields), None
            with self._lock:
                self._outcome(plan, payload, error)
        return self._output_record(plan)

    def answer_if_cached(
        self, data: Dict[str, object], *, index: int = 0
    ) -> Optional[Dict[str, object]]:
        """The record of a request the cache answers as it stands, else None.

        The serve daemon's admission hop: the same normalise, lookup
        and record steps as :meth:`serve_request`, but it never loads a
        graph and never solves, so it is cheap enough to run on the
        event loop.  ``None`` — for an unpooled source, a key the cache
        does not hold, or a request :meth:`_normalize` rejects — leaves
        the request to :meth:`serve_request`, and nothing was counted
        or traced for it here: each request still makes one counted
        cache lookup.
        """
        try:
            request = self._normalize(data, index)
        except Exception:
            # Never raise into the daemon's read loop: the worker's
            # serve_request reports the rejection.
            return None
        with self._lock:
            plan = self._lookup(request, set(), hits_only=True)
        if plan is None or plan["kind"] != "hit":
            return None
        return self._output_record(plan)

    def _output_record(self, plan: Dict[str, object]) -> Dict[str, object]:
        request = plan["request"]
        serve: Dict[str, object] = {"cache": plan["kind"], **plan["serve"]}
        if plan["error"] is not None:
            error_type, message = plan["error"]
            return {
                "id": request["id"],
                "key": plan["key"],
                "status": FAILED,
                "error_type": error_type,
                "error": message,
                "_serve": serve,
            }
        payload = plan["payload"]
        record: Dict[str, object] = {
            "id": request["id"],
            "key": plan["key"],
            "status": "ok",
        }
        for field, value in payload.items():
            if field in _TIMING_KEYS:
                serve[field] = value  # observability, not model output
            else:
                record[field] = value
        record["_serve"] = serve
        return record
