"""Daemon lifecycle: admission, fairness, warm pools, bit-identity.

The load-bearing claims: (1) a served record's deterministic part is
byte-identical to the same request through the batch engine; (2) a
request is either served or *explicitly refused* with a structured
record — never silently dropped; (3) a flooding tenant cannot starve
another (round-robin fairness); (4) repeated graphs never reload (warm
pool).  Tests drive the asyncio daemon through ``asyncio.run`` inside
synchronous test functions (no asyncio pytest plugin in the toolchain).
"""

import asyncio
import io
import json
import sys
import threading

import pytest

from repro.errors import ServeError
from repro.mpc.config import MPCConfig
from repro.mpc.trace import LATENCY_WINDOW, DaemonTrace
from repro.serve import (
    AdmissionPolicy,
    BatchEngine,
    ResultCache,
    ServeDaemon,
    estimate_request_words,
    replay_requests,
)
from repro.serve import engine as engine_module


def _engine(**kwargs):
    return BatchEngine(ResultCache(memory_entries=32), **kwargs)


def _request(rid, *, n=48, param=6, seed=0, **extra):
    return {
        "id": rid,
        "graph": {"family": "gnp", "n": n, "param": param},
        "seed": seed,
        **extra,
    }


def _strip_serve(record):
    return {k: v for k, v in record.items() if k != "_serve"}


async def _with_workers(daemon, body):
    """Run ``body()`` with the daemon's worker pool alive, then drain."""
    async with daemon.running():
        return await body()


class TestBitIdentity:
    def test_served_records_match_batch_records(self):
        requests = [
            _request("a", seed=1),
            _request("b", seed=2),
            _request("c", n=32, param=4, seed=1),
        ]
        batch = _engine()
        batch_records = batch.run([dict(r) for r in requests])

        daemon = ServeDaemon(_engine(), workers=2)

        async def body():
            return await replay_requests(
                daemon, [dict(r) for r in requests], concurrency=3
            )

        served = asyncio.run(_with_workers(daemon, body))
        assert [_strip_serve(r) for r in served] == [
            _strip_serve(r) for r in batch_records
        ]
        # Canonical-JSON serialization is the byte-level contract.
        assert [
            json.dumps(_strip_serve(r), sort_keys=True) for r in served
        ] == [
            json.dumps(_strip_serve(r), sort_keys=True)
            for r in batch_records
        ]

    def test_cache_hit_path_also_identical(self):
        daemon = ServeDaemon(_engine())

        async def body():
            first = await daemon.submit(_request("a"))
            second = await daemon.submit(_request("b"))
            return first, second

        first, second = asyncio.run(_with_workers(daemon, body))
        assert first["_serve"]["cache"] == "miss"
        assert second["_serve"]["cache"] == "hit"
        # Same solve params, different id: payloads identical.
        a = {k: v for k, v in _strip_serve(first).items() if k != "id"}
        b = {k: v for k, v in _strip_serve(second).items() if k != "id"}
        assert a == b


class TestAdmissionControl:
    def test_queue_full_refusal_shape(self):
        daemon = ServeDaemon(
            _engine(), policy=AdmissionPolicy(max_queue=1)
        )

        async def body():
            # No workers running: the first admit holds the only slot.
            refusal, future = daemon.admit(_request("first"))
            assert refusal is None and future is not None
            record = await daemon.submit(_request("second"))
            return record

        async def scenario():
            return await body()

        record = asyncio.run(scenario())
        assert record["status"] == "refused"
        assert record["error_type"] == "ServeError"
        assert "max_queue=1" in record["error"]
        assert record["id"] == "second"
        serve = record["_serve"]
        assert serve["queue_depth"] == 1
        assert serve["tenant"] == "default"
        assert "est_words" in serve and "inflight_words" in serve

    def test_words_budget_refusal(self):
        est = estimate_request_words(_request("big", n=4096, param=8))
        assert est > 0
        daemon = ServeDaemon(
            _engine(),
            policy=AdmissionPolicy(
                max_queue=100, max_inflight_words=est - 1
            ),
        )

        async def scenario():
            return await daemon.submit(_request("big", n=4096, param=8))

        record = asyncio.run(scenario())
        assert record["status"] == "refused"
        assert "max_inflight_words" in record["error"]

    def test_every_submission_gets_a_record(self):
        # Saturate a 2-deep queue with 8 requests: each submission
        # resolves to either a served record or a structured refusal —
        # silent drops would show up as a short result list.
        daemon = ServeDaemon(
            _engine(), policy=AdmissionPolicy(max_queue=2)
        )
        requests = [_request(f"r{i}", seed=i) for i in range(8)]

        async def body():
            return await replay_requests(
                daemon, requests, concurrency=8
            )

        records = asyncio.run(_with_workers(daemon, body))
        assert len(records) == len(requests)
        statuses = {r["status"] for r in records}
        assert statuses <= {"ok", "refused"}
        refused = [r for r in records if r["status"] == "refused"]
        for record in refused:
            assert record["error_type"] == "ServeError"
            assert record["error"]
        assert daemon.stats()["refused"] == len(refused)

    def test_refusals_are_traced(self):
        daemon = ServeDaemon(
            _engine(), policy=AdmissionPolicy(max_queue=1)
        )

        async def scenario():
            daemon.admit(_request("held"))
            return await daemon.submit(_request("spill"))

        asyncio.run(scenario())
        refusals = [
            ev
            for ev in daemon.engine.trace.events
            if ev["type"] == "refused"
        ]
        assert len(refusals) == 1
        assert refusals[0]["id"] == "spill"
        assert daemon.engine.trace.counters["refused"] == 1

    def test_policy_validation(self):
        with pytest.raises(ServeError, match="max_queue"):
            AdmissionPolicy(max_queue=0)
        with pytest.raises(ServeError, match="max_inflight_words"):
            AdmissionPolicy(max_inflight_words=-1)
        with pytest.raises(ServeError, match="workers"):
            ServeDaemon(_engine(), workers=0)

    def test_shutdown_refuses_new_but_drains_admitted(self):
        daemon = ServeDaemon(_engine())

        async def scenario():
            refusal_a, future_a = daemon.admit(_request("queued"))
            assert refusal_a is None
            daemon.request_stop()
            late = await daemon.submit(_request("late"))
            worker = asyncio.create_task(daemon._worker())
            queued = await future_a
            await worker
            return queued, late

        queued, late = asyncio.run(scenario())
        assert queued["status"] == "ok"
        assert late["status"] == "refused"
        assert "shutting down" in late["error"]


class TestAdmissionIndex:
    def test_refused_and_served_default_ids_differ(self):
        # Every request that reaches admission consumes an index, so a
        # refusal's default id is never handed out again.
        daemon = ServeDaemon(
            _engine(), policy=AdmissionPolicy(max_queue=1)
        )
        anonymous = {"graph": {"family": "gnp", "n": 48, "param": 6}}

        async def scenario():
            refusal, first = daemon.admit(dict(anonymous, seed=1))
            assert refusal is None
            refused = await daemon.submit(dict(anonymous, seed=2))
            worker = asyncio.create_task(daemon._worker())
            first = await first
            later = await daemon.submit(dict(anonymous, seed=3))
            daemon.request_stop()
            await worker
            return first, refused, later

        first, refused, later = asyncio.run(scenario())
        assert refused["status"] == "refused"
        assert [first["id"], refused["id"], later["id"]] == [
            "req-0", "req-1", "req-2",
        ]


def _warm(daemon, request):
    """Pool ``request``'s graph and cache its answer, off the daemon."""
    record = daemon.engine.serve_request(dict(request))
    assert record["status"] == "ok"
    return record


class TestHitsAtAdmission:
    """A cache hit on a pooled graph is answered inside ``admit``: it
    never queues, so it never waits behind a solve or a queue bound."""

    def test_hit_answered_while_the_worker_is_inside_a_miss(
        self, monkeypatch
    ):
        entered, release = threading.Event(), threading.Event()
        real = engine_module._execute_request

        def gated(graph, params):
            if params["id"] == "slow":
                entered.set()
                assert release.wait(timeout=60)
            return real(graph, params)

        monkeypatch.setattr(engine_module, "_execute_request", gated)
        daemon = ServeDaemon(_engine(), workers=1)

        async def body():
            warm = await daemon.submit(_request("warm"))
            _, slow = daemon.admit(_request("slow", beta=3))
            loop = asyncio.get_running_loop()
            assert await loop.run_in_executor(None, entered.wait, 60)
            refusal, hit = daemon.admit(_request("hit"))
            answered = refusal is None and hit.done()
            release.set()
            return warm, answered, hit.result(), await slow

        warm, answered, hit, slow = asyncio.run(_with_workers(daemon, body))
        assert answered
        assert hit["_serve"]["cache"] == "hit"
        assert slow["_serve"]["cache"] == "miss"
        assert _strip_serve(hit) == dict(_strip_serve(warm), id="hit")
        assert daemon.stats()["hits_at_admission"] == 1

    def test_unpooled_source_is_queued_and_loaded_on_a_worker(
        self, monkeypatch
    ):
        threads = []
        real = engine_module._load_graph

        def recording(source):
            threads.append(threading.current_thread().name)
            return real(source)

        monkeypatch.setattr(engine_module, "_load_graph", recording)
        daemon = ServeDaemon(_engine(), workers=1)

        async def body():
            _, cold = daemon.admit(_request("cold"))
            queued = not cold.done()
            first = await cold
            _, warm = daemon.admit(_request("warm"))
            return queued, first, warm.done(), warm.result()

        queued, first, answered, second = asyncio.run(
            _with_workers(daemon, body)
        )
        assert queued and answered
        assert first["_serve"]["cache"] == "miss"
        assert second["_serve"]["cache"] == "hit"
        assert len(threads) == 1
        assert threads[0].startswith("repro-serve")

    def test_hit_answered_while_the_queue_is_full(self):
        daemon = ServeDaemon(
            _engine(), policy=AdmissionPolicy(max_queue=1)
        )
        _warm(daemon, _request("warm"))

        async def scenario():
            # No workers: the queued miss holds the only slot.
            refusal, held = daemon.admit(_request("held", beta=3))
            assert refusal is None and not held.done()
            spilled, _ = daemon.admit(_request("spill", beta=4))
            refusal, hit = daemon.admit(_request("hit"))
            assert refusal is None and hit.done()
            return spilled, hit.result()

        spilled, hit = asyncio.run(scenario())
        assert spilled["status"] == "refused"
        assert "max_queue=1" in spilled["error"]
        assert hit["status"] == "ok"
        assert hit["_serve"]["cache"] == "hit"
        assert hit["_serve"]["tenant"] == "default"
        stats = daemon.stats()
        assert stats["queue_depth"] == 1 and stats["refused"] == 1
        (latency,) = daemon.engine.trace.latencies
        assert latency["id"] == "hit" and latency["queue_s"] == 0.0

    def test_hit_after_stop_is_refused(self):
        daemon = ServeDaemon(_engine())
        _warm(daemon, _request("warm"))

        async def scenario():
            daemon.request_stop()
            return await daemon.submit(_request("late"))

        late = asyncio.run(scenario())
        assert late["status"] == "refused"
        assert late["error"] == "daemon is shutting down"
        assert daemon.stats()["hits_at_admission"] == 0

    def test_mixed_replay_counts_one_lookup_per_request(self):
        requests = [
            _request("a0"),
            _request("b0", n=32, param=4),
            _request("a1"),
            _request("a2", beta=3),
            _request("b1", n=32, param=4),
            _request("a3"),
            _request("a4", beta=3),
        ]
        daemon = ServeDaemon(_engine())

        async def body():
            return await replay_requests(
                daemon, [dict(r) for r in requests]
            )

        served = asyncio.run(_with_workers(daemon, body))
        cache = daemon.engine.cache.stats()
        counters = daemon.engine.trace.counters
        assert cache["hits"] + cache["misses"] == len(requests)
        assert counters["cache_hit"] + counters["cache_miss"] == len(
            requests
        )
        assert counters["cache_hit"] == 4 and counters["executed"] == 3
        assert daemon.stats()["hits_at_admission"] == 4
        assert [r["_serve"]["cache"] for r in served] == [
            "miss", "miss", "hit", "miss", "hit", "hit", "hit",
        ]
        batch = _engine().run([dict(r) for r in requests])
        assert [_strip_serve(r) for r in served] == [
            _strip_serve(r) for r in batch
        ]


class TestFairness:
    def test_round_robin_pop_order(self):
        daemon = ServeDaemon(_engine())

        async def scenario():
            # Tenant A floods 4 requests before tenant B's 2 arrive.
            for i in range(4):
                daemon.admit(_request(f"a{i}"), tenant="A")
            for i in range(2):
                daemon.admit(_request(f"b{i}"), tenant="B")
            order = []
            while True:
                pending = daemon._next_pending()
                if pending is None:
                    break
                order.append(str(pending.data["id"]))
            return order

        order = asyncio.run(scenario())
        assert order == ["a0", "b0", "a1", "b1", "a2", "a3"]

    def test_flooding_tenant_does_not_starve_the_other(self):
        # End to end with one worker: all requests admitted up front,
        # then execution order observed through the latency records
        # (appended at completion).  B's two requests must both finish
        # before A's flood does.
        daemon = ServeDaemon(_engine())

        async def body():
            futures = []
            for i in range(4):
                _, future = daemon.admit(
                    _request(f"a{i}", seed=i), tenant="A"
                )
                futures.append(future)
            for i in range(2):
                _, future = daemon.admit(
                    _request(f"b{i}", seed=10 + i), tenant="B"
                )
                futures.append(future)
            await asyncio.gather(*futures)

        asyncio.run(_with_workers(daemon, body))
        completion = [
            str(entry["id"])
            for entry in daemon.engine.trace.latencies
        ]
        assert completion == ["a0", "b0", "a1", "b1", "a2", "a3"]
        tenants = {
            entry["id"]: entry["tenant"]
            for entry in daemon.engine.trace.latencies
        }
        assert tenants["a0"] == "A" and tenants["b0"] == "B"


class TestWarmPools:
    def test_repeated_graph_loads_once(self):
        daemon = ServeDaemon(_engine())
        # Distinct solve params (beta) on one graph source: four real
        # executions, one load.
        requests = [
            _request(f"r{i}", beta=beta)
            for i, beta in enumerate((2, 3, 4, 5))
        ]

        async def body():
            for request in requests:
                await daemon.submit(request)

        asyncio.run(_with_workers(daemon, body))
        assert daemon.engine.trace.counters["graph_load"] == 1
        assert daemon.engine.trace.counters["executed"] == 4

    def test_latency_attribution_recorded(self):
        daemon = ServeDaemon(_engine())

        async def body():
            await daemon.submit(_request("a"))
            await daemon.submit(_request("b"))

        asyncio.run(_with_workers(daemon, body))
        latencies = daemon.engine.trace.latencies
        assert len(latencies) == 2
        for entry in latencies:
            assert entry["type"] == "latency"
            assert entry["outcome"] == "ok"
            assert entry["total_s"] >= entry["execute_s"] >= 0.0
            assert entry["queue_s"] >= 0.0
        summary = daemon.engine.trace.latency_summary()
        assert summary["count"] == 2
        for stage in ("queue_ms", "execute_ms", "total_ms"):
            assert set(summary[stage]) == {"p50", "p95", "p99"}
        # Latency rides the trace export between events and summary.
        lines = daemon.engine.trace.jsonl_lines()
        kinds = [json.loads(line)["type"] for line in lines]
        assert kinds.count("latency") == 2
        assert kinds[-1] == "summary"

    def test_failures_do_not_kill_the_worker(self):
        daemon = ServeDaemon(_engine())

        async def body():
            bad = await daemon.submit(
                {"id": "bad", "graph": {"input": "/nonexistent/g.txt"}}
            )
            good = await daemon.submit(_request("good"))
            return bad, good

        bad, good = asyncio.run(_with_workers(daemon, body))
        assert bad["status"] == "failed"
        assert bad["error_type"] == "FileNotFoundError"
        assert good["status"] == "ok"

    def test_malformed_request_is_invalid_not_fatal(self):
        daemon = ServeDaemon(_engine())

        async def body():
            invalid = await daemon.submit(
                {"id": "x", "graph": {"family": "gnp"}, "bogus": 1}
            )
            good = await daemon.submit(_request("good"))
            return invalid, good

        invalid, good = asyncio.run(_with_workers(daemon, body))
        assert invalid["status"] == "invalid"
        assert invalid["error_type"] == "ServeError"
        assert "unknown fields" in invalid["error"]
        assert good["status"] == "ok"


class TestSocketLifecycle:
    def test_clean_startup_and_shutdown(self, tmp_path):
        socket_path = str(tmp_path / "repro.sock")
        daemon = ServeDaemon(_engine(), workers=2)

        async def scenario():
            server = asyncio.create_task(daemon.serve_unix(socket_path))
            # Wait for the socket to appear.
            for _ in range(200):
                try:
                    reader, writer = await asyncio.open_unix_connection(
                        socket_path
                    )
                    break
                except (ConnectionRefusedError, FileNotFoundError):
                    await asyncio.sleep(0.01)
            else:
                raise AssertionError("daemon socket never came up")

            async def ask(payload):
                writer.write(json.dumps(payload).encode() + b"\n")
                await writer.drain()

            await ask({"op": "ping"})
            await ask(_request("a", tenant="t1"))
            await ask(_request("b", seed=7, tenant="t2"))
            writer.write(b"not json at all\n")
            await writer.drain()
            await ask({"op": "stats"})
            await ask({"op": "shutdown"})
            responses = []
            while True:
                line = await reader.readline()
                if not line:
                    break
                responses.append(json.loads(line))
            writer.close()
            await server
            return responses

        responses = asyncio.run(scenario())
        by_kind = {}
        for record in responses:
            by_kind.setdefault(
                record.get("op") or record.get("id") or "invalid", record
            )
        assert by_kind["ping"]["status"] == "ok"
        assert by_kind["a"]["status"] == "ok"
        assert by_kind["b"]["status"] == "ok"
        assert by_kind["a"]["_serve"]["tenant"] == "t1"
        assert by_kind["b"]["_serve"]["tenant"] == "t2"
        assert by_kind["invalid"]["status"] == "invalid"
        assert "not valid JSON" in by_kind["invalid"]["error"]
        stats = by_kind["stats"]["stats"]
        assert stats["max_queue"] == daemon.policy.max_queue
        assert by_kind["shutdown"]["status"] == "ok"
        # Requests on the wire before the shutdown op were served, and
        # the daemon exited cleanly (serve_unix returned).
        assert daemon.stats()["served"] == 2

    def test_stdio_matches_unix_socket(self, tmp_path, monkeypatch):
        # Both transports run the same line loop: the same wire lines
        # must produce the same records (modulo _serve) over stdio as
        # over a unix socket.
        lines = [
            json.dumps({"op": "ping"}),
            json.dumps(_request("a", tenant="t1")),
            json.dumps(_request("b", seed=7, tenant="t2")),
            "not json at all",
            json.dumps({"op": "shutdown"}),
        ]

        async def over_socket():
            daemon = ServeDaemon(_engine(), workers=2)
            socket_path = str(tmp_path / "repro.sock")
            server = asyncio.create_task(daemon.serve_unix(socket_path))
            for _ in range(200):
                try:
                    reader, writer = await asyncio.open_unix_connection(
                        socket_path
                    )
                    break
                except (ConnectionRefusedError, FileNotFoundError):
                    await asyncio.sleep(0.01)
            else:
                raise AssertionError("daemon socket never came up")
            writer.write("".join(line + "\n" for line in lines).encode())
            await writer.drain()
            responses = []
            while True:
                line = await reader.readline()
                if not line:
                    break
                responses.append(json.loads(line))
            writer.close()
            await server
            return responses

        def keyed(records):
            return {
                record.get("op") or record.get("id") or "invalid":
                    _strip_serve(record)
                for record in records
            }

        over_unix = asyncio.run(over_socket())
        stdin = io.StringIO("".join(line + "\n" for line in lines))
        stdout = io.StringIO()
        monkeypatch.setattr(sys, "stdin", stdin)
        monkeypatch.setattr(sys, "stdout", stdout)
        daemon = ServeDaemon(_engine(), workers=2)
        asyncio.run(daemon.serve_stdio())
        monkeypatch.undo()
        over_stdio = [json.loads(l) for l in stdout.getvalue().splitlines()]

        assert len(over_stdio) == len(lines)
        by_kind = keyed(over_stdio)
        assert by_kind["ping"]["status"] == "ok"
        assert by_kind["a"]["status"] == "ok"
        assert by_kind["b"]["status"] == "ok"
        assert by_kind["invalid"]["status"] == "invalid"
        assert by_kind["shutdown"]["status"] == "ok"
        assert by_kind == keyed(over_unix)
        assert daemon.stats()["served"] == 2

    def test_control_op_unknown(self):
        daemon = ServeDaemon(_engine())
        record = daemon._control("reboot")
        assert record["status"] == "invalid"
        assert "unknown control op" in record["error"]


class TestEstimates:
    def test_generator_estimate_uses_input_words_model(self):
        data = _request("x", n=100, param=10)
        assert estimate_request_words(data) == MPCConfig.input_words(
            100, 100 * 10 // 2
        )

    def test_edge_list_estimate_reads_header_only(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("100 250\n" + "0 1\n" * 250, encoding="ascii")
        data = {"id": "x", "graph": {"input": str(path)}}
        assert estimate_request_words(data) == MPCConfig.input_words(
            100, 250
        )

    def test_unpriceable_requests_are_admitted(self, tmp_path):
        assert estimate_request_words({"id": "x"}) == 0
        assert estimate_request_words({"graph": "nope"}) == 0
        assert (
            estimate_request_words(
                {"graph": {"input": str(tmp_path / "missing.txt")}}
            )
            == 0
        )
        assert (
            estimate_request_words({"graph": {"family": "gnp", "n": "?"}})
            == 0
        )


class TestUnpriceableAdmission:
    """Satellite regression: unpriceable requests must not bypass the
    inflight-words cap once a conservative default price is set."""

    def unpriceable(self, rid):
        # graph is not a dict -> estimate_request_words returns 0.
        return {"id": rid, "graph": "not-a-spec"}

    def test_estimator_still_returns_zero(self):
        assert estimate_request_words(self.unpriceable("u")) == 0

    def test_legacy_default_admits_at_zero(self):
        # default_request_words=0 keeps the historical loophole open
        # deliberately (opt-in throttling, zero-surprise upgrades).
        daemon = ServeDaemon(
            _engine(),
            policy=AdmissionPolicy(max_queue=4, max_inflight_words=10),
        )

        async def scenario():
            refusal, future = daemon.admit(self.unpriceable("u"))
            return refusal

        assert asyncio.run(scenario()) is None

    def test_default_price_is_charged_against_the_cap(self):
        daemon = ServeDaemon(
            _engine(),
            policy=AdmissionPolicy(
                max_queue=4,
                max_inflight_words=50,
                default_request_words=100,
            ),
        )

        async def scenario():
            refusal, future = daemon.admit(self.unpriceable("u"))
            assert future is None
            return refusal

        record = asyncio.run(scenario())
        assert record["status"] == "refused"
        assert "max_inflight_words" in record["error"]
        assert record["_serve"]["est_words"] == 100

    def test_peak_hold_lifts_the_unpriceable_price(self):
        heavy = _request("heavy", n=512, param=8)
        light = _request("light", n=64, param=6)
        heavy_est = estimate_request_words(heavy)
        light_est = estimate_request_words(light)
        assert heavy_est > light_est > 1
        daemon = ServeDaemon(
            _engine(),
            policy=AdmissionPolicy(
                max_queue=4,
                # Room for both priced requests plus light_est more,
                # not heavy_est more.
                max_inflight_words=heavy_est + 2 * light_est,
                default_request_words=1,
            ),
        )

        async def scenario():
            for request in (heavy, light):  # heavier first
                refusal, future = daemon.admit(request)
                assert refusal is None
            return daemon.admit(self.unpriceable("u"))[0]

        record = asyncio.run(scenario())
        # The unknown request is assumed as heavy as the heaviest known
        # one — the peak, not the latest priced estimate (light) —
        # which busts the cap.
        assert record["status"] == "refused"
        assert record["_serve"]["est_words"] == heavy_est
        assert daemon.stats()["peak_request_words"] == heavy_est
        assert daemon.stats()["unpriceable_priced"] == 1

    def test_stats_surface_the_governor_state(self):
        daemon = ServeDaemon(
            _engine(),
            policy=AdmissionPolicy(default_request_words=7),
        )

        async def scenario():
            daemon.admit(_request("p", n=64, param=6))
            daemon.admit(self.unpriceable("u"))

        asyncio.run(scenario())
        stats = daemon.stats()
        assert stats["default_request_words"] == 7
        assert stats["peak_request_words"] > 0
        assert stats["unpriceable_priced"] == 1

    def test_negative_default_rejected(self):
        with pytest.raises(ServeError, match="default_request_words"):
            AdmissionPolicy(default_request_words=-1)


class TestDaemonTrace:
    """A long-running daemon's trace keeps counters and recent
    latencies only, so its memory stays bounded."""

    def test_retention_is_bounded(self):
        trace = DaemonTrace()
        for i in range(10_000):
            trace.record("cache_hit", id=f"r{i}", key="0" * 64)
            trace.record_latency(
                id=f"r{i}", outcome="ok",
                queue_s=0.0, execute_s=0.001, total_s=0.001,
            )
        assert len(trace.events) == 0
        assert len(trace.latencies) <= LATENCY_WINDOW
        assert trace.latencies[-1]["id"] == "r9999"
        assert trace.counters["cache_hit"] == 10_000
        assert trace.summary()["events"] == 10_000
        assert trace.latency_summary()["count"] == len(trace.latencies)

    def test_serve_command_runs_on_a_daemon_trace(
        self, tmp_path, monkeypatch, capsys
    ):
        from repro.cli import main

        lines = [
            json.dumps(_request("a")),
            json.dumps(_request("b")),  # same solve: a cache hit
            json.dumps({"op": "shutdown"}),
        ]
        monkeypatch.setattr(
            sys, "stdin", io.StringIO("".join(line + "\n" for line in lines))
        )
        trace_path = tmp_path / "serve.jsonl"
        assert main(["serve", "--trace-out", str(trace_path)]) == 0
        capsys.readouterr()
        records = [json.loads(l) for l in trace_path.read_text().splitlines()]
        assert [r["type"] for r in records] == [
            "meta", "latency", "latency", "summary",
        ]
        summary = records[-1]
        assert summary["executed"] == 1 and summary["cache_hit"] == 1
        assert summary["events"] > 0
