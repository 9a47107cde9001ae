"""Persistent async solve service: ``repro-mpc serve``.

The batch engine (:mod:`repro.serve.engine`) answers one JSONL file and
exits — every client pays cold start, and a burst of clients has no
queueing, fairness, or backpressure story.  ``ServeDaemon`` promotes it
to a long-lived front end:

* **Transport.**  Newline-delimited JSON over a local unix socket (or
  stdio for subprocess embedding); both transports run one line loop
  (``ServeDaemon._serve_lines``) inside one worker-pool lifecycle
  (:meth:`ServeDaemon.running`).  One request per line in, one
  response record per line out; responses carry the request's ``id``,
  so clients may pipeline.
* **Hits at admission.**  A request whose graph is already in the
  engine's pool and whose cache key is cached is answered on the spot
  (:meth:`BatchEngine.answer_if_cached`): it never queues, never waits
  behind a solve, and is never refused by the queue bounds — only by
  shutdown.  Admission never loads a graph and never solves; anything
  else is queued for the workers.
* **Admission control.**  A bounded request queue
  (:class:`AdmissionPolicy`).  Once queue depth reaches ``max_queue``
  — or the estimated words of admitted-but-unfinished work would
  exceed ``max_inflight_words`` — new requests are *refused
  immediately* with a structured ``status: "refused"`` record naming
  the limit hit.  Refusal is always explicit: the daemon never drops a
  request silently.  Hits answered at admission do not count toward
  either bound.
* **Fairness.**  Queued requests wait per tenant (the optional
  ``tenant`` field, stripped before the engine sees the request); a
  round-robin ring serves one request per tenant per turn, so a tenant
  flooding the queue cannot starve the others — pinned by test.
* **Warm pools.**  All requests share one :class:`BatchEngine`: its
  graph pool and :class:`~repro.serve.cache.ResultCache` stay warm
  across requests, and the cache is the first hop before any solve
  runs.
* **Latency attribution.**  Every served request records queue /
  execute / total wall clock into the engine's
  :class:`~repro.mpc.trace.ServiceTrace` latency side channel, so the
  E15 gate can watch p50/p95/p99 like it watches model quantities.

Determinism contract: a served record's deterministic part is
byte-identical to the same request through ``repro-mpc batch`` — both
paths resolve through the same cache key and runner (see
``BatchEngine.serve_request``); the daemon only adds queueing around
it.  Everything the daemon itself invents (tenant, queue depth at
refusal, latency) lives in the ``_serve`` side channel or the trace's
latency records, outside the deterministic stream.

Control operations ride the same line protocol as JSON objects with an
``op`` field: ``{"op": "ping"}``, ``{"op": "stats"}``, and
``{"op": "shutdown"}`` (drain the queue, answer in-flight work, exit).
"""

from __future__ import annotations

import asyncio
import json
import sys
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from contextlib import asynccontextmanager
from dataclasses import dataclass
from functools import partial
from typing import (
    Any, AsyncIterator, Awaitable, Callable, Deque, Dict, List, Optional,
    Set, Tuple, Union,
)

from repro.errors import ServeError
from repro.mpc.config import MPCConfig
from repro.serve.engine import BatchEngine

__all__ = [
    "AdmissionPolicy",
    "ServeDaemon",
    "drive_requests",
    "estimate_request_words",
    "replay_requests",
]

#: Tenant bucket for requests that do not name one.
DEFAULT_TENANT = "default"


def _estimate_edges(family: str, n: int, param: int) -> int:
    """Expected edge count of a generator spec (admission estimate)."""
    if family == "gnp" or family == "regular":
        return max(1, n * max(1, param) // 2)
    if family in ("tree", "star"):
        return max(1, n - 1)
    if family == "cycle":
        return n
    if family == "grid":
        return 2 * n
    if family == "rmat":
        return max(1, param) * n
    if family == "powerlaw":
        return 2 * n
    if family == "barbell":
        half = max(2, n // 2)
        return half * (half - 1) + max(0, param)
    return 2 * n  # unknown family: assume sparse


def estimate_request_words(data: Dict[str, Any]) -> int:
    """Estimated input words of one request, for admission control.

    Edge-list sources are priced from the file's ``n m`` header (one
    ``readline``, never a full read); generator specs from the
    family's expected edge count — both through the same
    :meth:`~repro.mpc.config.MPCConfig.input_words` model the budget
    checks use.  Anything unpriceable returns 0: admission control
    sheds load, it does not pre-validate — a malformed request is
    refused with a real error by the engine, not a guess here.  The
    daemon substitutes its conservative price for the zero (see
    :attr:`AdmissionPolicy.default_request_words`), so unpriceable
    requests no longer bypass ``max_inflight_words`` entirely.
    """
    source = data.get("graph")
    if not isinstance(source, dict):
        return 0
    if "input" in source:
        try:
            with open(str(source["input"]), encoding="utf-8") as handle:
                header = handle.readline().split()
            n, m = int(header[0]), int(header[1])
        except (OSError, ValueError, IndexError):
            return 0
        return MPCConfig.input_words(n, m)
    try:
        family = str(source.get("family", ""))
        n = int(source.get("n", 200))
        param = int(source.get("param", 12))
    except (TypeError, ValueError):
        return 0
    if n <= 0:
        return 0
    return MPCConfig.input_words(n, _estimate_edges(family, n, param))


@dataclass(frozen=True)
class AdmissionPolicy:
    """The daemon's load-shedding contract.

    ``max_queue`` bounds admitted-but-unfinished requests (queued plus
    executing); ``max_inflight_words`` additionally bounds their
    summed :func:`estimate_request_words` (0 = unbounded).  Both are
    checked at admission; a request holds its slot and words until its
    response is ready, so the bounds cover work in flight, not just
    work waiting.

    ``default_request_words`` closes the unpriceable-request loophole:
    a request :func:`estimate_request_words` cannot price used to count
    zero words against ``max_inflight_words`` — i.e. bypass the inflight
    cap entirely.  When positive, unpriceable requests are charged
    ``max(default_request_words, peak priced estimate seen so far)`` —
    a conservative guess (an unknown request is assumed as heavy as
    the heaviest known one).  0 keeps the legacy admit-at-zero
    behaviour.
    """

    max_queue: int = 64
    max_inflight_words: int = 0
    default_request_words: int = 0

    def __post_init__(self) -> None:
        if self.max_queue <= 0:
            raise ServeError(
                f"max_queue must be positive, got {self.max_queue}"
            )
        if self.max_inflight_words < 0:
            raise ServeError(
                "max_inflight_words must be >= 0 (0 = unbounded), "
                f"got {self.max_inflight_words}"
            )
        if self.default_request_words < 0:
            raise ServeError(
                "default_request_words must be >= 0 (0 = legacy "
                f"admit-at-zero), got {self.default_request_words}"
            )


class _Pending:
    """One admitted request waiting for (or in) execution."""

    __slots__ = (
        "data", "tenant", "index", "est_words", "future", "enqueued_at"
    )

    def __init__(
        self,
        data: Dict[str, Any],
        tenant: str,
        index: int,
        est_words: int,
        future: "asyncio.Future[Dict[str, Any]]",
        enqueued_at: float,
    ) -> None:
        self.data = data
        self.tenant = tenant
        self.index = index
        self.est_words = est_words
        self.future = future
        self.enqueued_at = enqueued_at


class ServeDaemon:
    """Asyncio front end over one warm :class:`BatchEngine`.

    Single-threaded control plane: queues, the tenant ring, and the
    admission counters are only touched from the event loop, so they
    need no locks.  Cache hits on pooled graphs are answered on the
    loop itself; everything else runs on ``workers`` executor threads
    through ``BatchEngine.serve_request``.  Both lock the engine's
    shared state.
    """

    def __init__(
        self,
        engine: BatchEngine,
        *,
        policy: Optional[AdmissionPolicy] = None,
        workers: int = 1,
    ) -> None:
        if workers <= 0:
            raise ServeError(f"workers must be positive, got {workers}")
        self.engine = engine
        self.policy = policy if policy is not None else AdmissionPolicy()
        self.workers = workers
        self._queues: Dict[str, Deque[_Pending]] = {}
        self._ring: Deque[str] = deque()
        self._depth = 0
        self._inflight_words = 0
        self._index = 0
        self._served = 0
        self._hits_at_admission = 0
        self._refused = 0
        # Largest priced estimate so far: prices unpriceable requests
        # when the policy opts in via default_request_words.
        self._peak_request_words = 0
        self._unpriceable_priced = 0
        self._wake = asyncio.Event()
        self._shutdown = asyncio.Event()
        self._executor = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="repro-serve"
        )
        self._conn_tasks: Set["asyncio.Task[None]"] = set()

    # -- admission -------------------------------------------------------

    def _refusal(
        self,
        data: Dict[str, Any],
        tenant: str,
        index: int,
        reason: str,
        est_words: int,
    ) -> Dict[str, Any]:
        """A structured refusal record (never a silent drop)."""
        self._refused += 1
        rid = str(data.get("id", f"req-{index}"))
        self.engine.trace.record(
            "refused", id=rid, tenant=tenant, reason=reason
        )
        return {
            "id": rid,
            "status": "refused",
            "error_type": ServeError.__name__,
            "error": reason,
            "_serve": {
                "tenant": tenant,
                "queue_depth": self._depth,
                "inflight_words": self._inflight_words,
                "est_words": est_words,
            },
        }

    def admit(
        self, data: Dict[str, Any], *, tenant: str = DEFAULT_TENANT
    ) -> "Tuple[Optional[Dict[str, Any]], Optional[asyncio.Future]]":
        """Admission decision: ``(refusal record, None)`` or
        ``(None, future resolving to the response record)``.

        Synchronous on purpose: a connection handler admits each
        request *in arrival order* before reading the next line, so a
        later control op (e.g. ``shutdown``) can never leapfrog
        requests that were already on the wire ahead of it.

        A cache hit on a pooled graph comes back as an already resolved
        future, without queueing.  Every request consumes an admission
        index — refused, answered here or queued — so default ids
        (``req-{index}``) never repeat.
        """
        index = self._index
        self._index += 1
        loop = asyncio.get_running_loop()
        if not self._shutdown.is_set():
            arrived = time.monotonic()
            record = self.engine.answer_if_cached(data, index=index)
            if record is not None:
                self._hits_at_admission += 1
                self._settle(record, tenant, arrived, arrived)
                future = loop.create_future()
                future.set_result(record)
                return None, future
        est_words = estimate_request_words(data)
        policy = self.policy
        if est_words > 0:
            self._peak_request_words = max(
                self._peak_request_words, est_words
            )
        elif policy.default_request_words > 0:
            # Unpriceable: charge the conservative default, lifted to
            # the heaviest priced estimate seen — never a free pass
            # through max_inflight_words.
            est_words = max(
                policy.default_request_words, self._peak_request_words
            )
            self._unpriceable_priced += 1
        if self._shutdown.is_set():
            reason = "daemon is shutting down"
        elif self._depth >= policy.max_queue:
            reason = (
                f"queue depth {self._depth} is at "
                f"max_queue={policy.max_queue}; retry later"
            )
        elif (
            policy.max_inflight_words
            and self._inflight_words + est_words > policy.max_inflight_words
        ):
            reason = (
                f"estimated {est_words} words would lift in-flight "
                f"total {self._inflight_words} over "
                f"max_inflight_words={policy.max_inflight_words}; "
                "retry later"
            )
        else:
            reason = None
        if reason is not None:
            return self._refusal(data, tenant, index, reason, est_words), None
        pending = _Pending(
            data=data,
            tenant=tenant,
            index=index,
            est_words=est_words,
            future=loop.create_future(),
            enqueued_at=time.monotonic(),
        )
        self._depth += 1
        self._inflight_words += est_words
        queue = self._queues.setdefault(tenant, deque())
        if not queue and tenant not in self._ring:
            self._ring.append(tenant)
        queue.append(pending)
        self._wake.set()
        return None, pending.future

    async def submit(
        self, data: Dict[str, Any], *, tenant: str = DEFAULT_TENANT
    ) -> Dict[str, Any]:
        """Admit one request and await its response record.

        Returns a refusal record *immediately* (without enqueueing)
        when admission control rejects it or the daemon is shutting
        down, and a cache hit on a pooled graph as soon as it is
        admitted; otherwise blocks until a worker has served the
        request.
        """
        refusal, future = self.admit(data, tenant=tenant)
        if refusal is not None:
            return refusal
        assert future is not None
        return await future

    # -- the worker pool -------------------------------------------------

    def _next_pending(self) -> Optional[_Pending]:
        """Pop the next request, round-robin across tenants."""
        while self._ring:
            tenant = self._ring.popleft()
            queue = self._queues.get(tenant)
            if not queue:
                continue
            pending = queue.popleft()
            if queue:
                self._ring.append(tenant)
            return pending
        return None

    async def _worker(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            self._wake.clear()
            pending = self._next_pending()
            if pending is None:
                if self._shutdown.is_set():
                    return
                await self._wake.wait()
                continue
            started = time.monotonic()
            try:
                record = await loop.run_in_executor(
                    self._executor,
                    partial(
                        self.engine.serve_request,
                        pending.data,
                        index=pending.index,
                    ),
                )
            except Exception as exc:  # worker must survive anything
                # A malformed request (ServeError) is "invalid"; any
                # other escape is a "failed" solve.
                invalid = isinstance(exc, ServeError)
                record = {
                    "id": str(
                        pending.data.get("id", f"req-{pending.index}")
                    ),
                    "status": "invalid" if invalid else "failed",
                    "error_type": type(exc).__name__,
                    "error": str(exc),
                    "_serve": {},
                }
            self._depth -= 1
            self._inflight_words -= pending.est_words
            self._settle(record, pending.tenant, pending.enqueued_at, started)
            if not pending.future.done():
                pending.future.set_result(record)

    def _settle(
        self,
        record: Dict[str, Any],
        tenant: str,
        admitted: float,
        started: float,
    ) -> None:
        """Count one served record, tag its tenant, attribute its latency."""
        finished = time.monotonic()
        self._served += 1
        serve = record.setdefault("_serve", {})
        if isinstance(serve, dict):
            serve["tenant"] = tenant
        self.engine.trace.record_latency(
            id=record.get("id"),
            outcome=str(record.get("status", "ok")),
            queue_s=started - admitted,
            execute_s=finished - started,
            total_s=finished - admitted,
            tenant=tenant,
        )

    # -- control plane ---------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        """A point-in-time snapshot of load and service counters."""
        return {
            "queue_depth": self._depth,
            "inflight_words": self._inflight_words,
            "served": self._served,
            "hits_at_admission": self._hits_at_admission,
            "refused": self._refused,
            "tenants": sorted(
                tenant
                for tenant, queue in self._queues.items()
                if queue
            ),
            "max_queue": self.policy.max_queue,
            "max_inflight_words": self.policy.max_inflight_words,
            "default_request_words": self.policy.default_request_words,
            "peak_request_words": self._peak_request_words,
            "unpriceable_priced": self._unpriceable_priced,
            "workers": self.workers,
            "counters": dict(sorted(self.engine.trace.counters.items())),
            "latency": self.engine.trace.latency_summary(),
        }

    def request_stop(self) -> None:
        """Begin shutdown: refuse new work, drain what was admitted."""
        self._shutdown.set()
        self._wake.set()

    def _control(self, op: str) -> Dict[str, Any]:
        if op == "ping":
            return {"op": "ping", "status": "ok"}
        if op == "stats":
            return {"op": "stats", "status": "ok", "stats": self.stats()}
        if op == "shutdown":
            return {"op": "shutdown", "status": "ok"}
        return {
            "op": op,
            "status": "invalid",
            "error_type": ServeError.__name__,
            "error": f"unknown control op {op!r}; "
            "expected ping, stats, or shutdown",
        }

    # -- line protocol ---------------------------------------------------

    @staticmethod
    def _parse_line(line: Union[bytes, str]) -> Any:
        """One wire line → ``(request, None)`` or ``(None, error record)``."""
        try:
            data = json.loads(line)
        except json.JSONDecodeError as exc:
            return None, {
                "status": "invalid",
                "error_type": ServeError.__name__,
                "error": f"request is not valid JSON: {exc}",
            }
        if not isinstance(data, dict):
            return None, {
                "status": "invalid",
                "error_type": ServeError.__name__,
                "error": "request must be a JSON object, "
                f"got {type(data).__name__}",
            }
        return data, None

    async def _serve_lines(
        self,
        readline: Callable[[], Awaitable[Union[bytes, str]]],
        write: Callable[[str], Awaitable[None]],
    ) -> None:
        """The line protocol over one request stream, until EOF.

        Every transport runs this loop: ``readline()`` returns the next
        raw line (empty at EOF) and ``write(line)`` sends one response
        line.  Requests are admitted in arrival order (synchronously),
        then answered out of order as solves finish — responses carry
        ids, so clients may pipeline.  A ``shutdown`` op stops the
        daemon and ends the stream once its in-flight responses are
        written.
        """
        write_lock = asyncio.Lock()
        inflight: Set["asyncio.Task[None]"] = set()

        async def respond(record: Dict[str, Any]) -> None:
            async with write_lock:
                await write(json.dumps(record, sort_keys=True))

        async def respond_when_done(
            future: "asyncio.Future[Dict[str, Any]]",
        ) -> None:
            await respond(await future)

        while True:
            raw = await readline()
            if not raw:
                break  # EOF: answer what was admitted, then return
            line = raw.strip()
            if not line:
                continue
            data, parse_error = self._parse_line(line)
            if parse_error is not None:
                await respond(parse_error)
                continue
            op = data.get("op")
            if op is not None:
                await respond(self._control(str(op)))
                if op == "shutdown":
                    self.request_stop()
                    break
                continue
            tenant = str(data.pop("tenant", DEFAULT_TENANT))
            refusal, future = self.admit(data, tenant=tenant)
            if refusal is not None or future.done():
                await respond(refusal or future.result())
                continue
            job = asyncio.create_task(respond_when_done(future))
            inflight.add(job)
            job.add_done_callback(inflight.discard)
        if inflight:
            await asyncio.gather(*inflight, return_exceptions=True)

    async def _handle_connection(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)

        async def write(line: str) -> None:
            writer.write(line.encode() + b"\n")
            await writer.drain()

        try:
            await self._serve_lines(reader.readline, write)
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            if task is not None:
                self._conn_tasks.discard(task)

    # -- entry points ----------------------------------------------------

    @asynccontextmanager
    async def running(self) -> AsyncIterator[None]:
        """The worker pool's lifecycle, shared by every entry point.

        Spawns ``workers`` worker tasks for the body.  On exit — clean
        or not — it stops admission, lets the workers drain every
        admitted request, gives open connections a moment to flush
        their final responses (cancelling those idling in
        ``readline``), and shuts the executor down.  The daemon is
        spent afterwards: new submissions are refused.
        """
        workers = [
            asyncio.create_task(self._worker())
            for _ in range(self.workers)
        ]
        try:
            yield
        finally:
            self.request_stop()
            await asyncio.gather(*workers)
            if self._conn_tasks:
                _, stragglers = await asyncio.wait(
                    set(self._conn_tasks), timeout=5.0
                )
                for straggler in stragglers:
                    straggler.cancel()
                if stragglers:
                    await asyncio.gather(
                        *stragglers, return_exceptions=True
                    )
            self._executor.shutdown(wait=True)

    async def serve_unix(self, socket_path: str) -> None:
        """Serve on a unix socket until a shutdown op (or stop) arrives."""
        async with self.running():
            server = await asyncio.start_unix_server(
                self._handle_connection, path=socket_path
            )
            try:
                await self._shutdown.wait()
            finally:
                server.close()
                await server.wait_closed()

    async def serve_stdio(self) -> None:
        """Serve newline-delimited JSON on stdin/stdout until EOF."""
        loop = asyncio.get_running_loop()

        def readline() -> "asyncio.Future[str]":
            return loop.run_in_executor(None, sys.stdin.readline)

        async def write(line: str) -> None:
            print(line, flush=True)

        async with self.running():
            await self._serve_lines(readline, write)


async def replay_requests(
    daemon: ServeDaemon,
    requests: List[Dict[str, Any]],
    *,
    concurrency: int = 1,
) -> List[Dict[str, Any]]:
    """Replay a request list through a daemon; responses in input order.

    The in-process traffic driver the load generator and the smoke
    check share: ``concurrency=1`` awaits each response before the
    next submit (deterministic admission — nothing is ever refused by
    a bound the replay itself saturated), larger values keep that many
    submits in flight, exercising queueing and admission like real
    concurrent clients.  Tenants come from each request's ``tenant``
    field, exactly like the wire protocol.
    """
    if concurrency <= 0:
        raise ServeError(
            f"concurrency must be positive, got {concurrency}"
        )
    results: List[Optional[Dict[str, Any]]] = [None] * len(requests)
    gate = asyncio.Semaphore(concurrency)

    async def one(index: int, data: Dict[str, Any]) -> None:
        payload = dict(data)
        tenant = str(payload.pop("tenant", DEFAULT_TENANT))
        async with gate:
            results[index] = await daemon.submit(payload, tenant=tenant)

    await asyncio.gather(
        *(one(index, data) for index, data in enumerate(requests))
    )
    return [record for record in results if record is not None]


async def drive_requests(
    daemon: ServeDaemon,
    requests: List[Dict[str, Any]],
    *,
    concurrency: int = 1,
) -> List[Dict[str, Any]]:
    """One-shot replay inside :meth:`ServeDaemon.running`.

    :func:`replay_requests` assumes workers are already running (the
    transports spawn them); this wrapper owns the whole lifecycle —
    spawn the pool, replay, drain, stop — so in-process drivers (the
    E15 load generator, the serve smoke check) get daemon semantics
    without a socket.  The daemon is spent afterwards.
    """
    async with daemon.running():
        return await replay_requests(
            daemon, requests, concurrency=concurrency
        )
