"""BatchEngine: dedup, warm serving, parallel determinism, failures."""

import json

import pytest

from repro.core import registry
from repro.core.pipeline import solve_ruling_set
from repro.errors import ServeError
from repro.graph import generators as gen
from repro.graph.io import write_edge_list
from repro.serve import (
    BatchEngine,
    ResultCache,
    payload_to_result,
    read_requests,
    write_records,
)

GNP = {"family": "gnp", "n": 96, "param": 6, "seed": 1}
TREE = {"family": "tree", "n": 64, "seed": 2}


def _requests():
    return [
        {"id": "a", "graph": dict(GNP), "algorithm": registry.DET_RULING},
        {"id": "b", "graph": dict(GNP), "algorithm": registry.DET_RULING},
        {"id": "c", "graph": dict(GNP), "algorithm": registry.DET_LUBY},
        {"id": "d", "graph": dict(TREE), "algorithm": registry.DET_MATCHING},
    ]


def _strip_serve(records):
    return [
        {key: value for key, value in record.items() if key != "_serve"}
        for record in records
    ]


class TestPlanning:
    def test_identical_requests_dedup_to_one_execution(self):
        engine = BatchEngine(ResultCache())
        records = engine.run(_requests())
        counters = engine.trace.counters
        assert counters["executed"] == 3  # a/b collapse
        assert counters["dedup"] == 1
        shared = [
            {k: v for k, v in record.items() if k not in ("id", "_serve")}
            for record in records[:2]
        ]
        assert shared[0] == shared[1]  # b serves a's solve verbatim
        assert records[0]["_serve"]["cache"] == "miss"
        assert records[1]["_serve"]["cache"] == "dedup"

    def test_one_graph_load_per_distinct_source(self):
        engine = BatchEngine(ResultCache())
        engine.run(_requests())
        assert engine.trace.counters["graph_load"] == 2

    def test_records_preserve_input_order_and_ids(self):
        engine = BatchEngine(ResultCache())
        records = engine.run(_requests())
        assert [record["id"] for record in records] == ["a", "b", "c", "d"]

    def test_default_ids_are_positional(self):
        engine = BatchEngine(ResultCache())
        records = engine.run(
            [{"graph": dict(TREE), "algorithm": registry.GREEDY_MIS}]
        )
        assert records[0]["id"] == "req-0"

    def test_unknown_algorithm_is_a_failure_record_not_a_crash(self):
        engine = BatchEngine(ResultCache())
        records = engine.run(
            [
                {"id": "bad", "graph": dict(TREE), "algorithm": "nope"},
                {"id": "ok", "graph": dict(TREE),
                 "algorithm": registry.GREEDY_MIS},
            ]
        )
        assert records[0]["status"] == "failed"
        assert records[0]["error_type"] == "AlgorithmError"
        assert records[1]["status"] == "ok"
        assert engine.trace.counters["failed"] == 1

    def test_solve_failure_is_recorded_and_not_cached(self):
        # alpha > 2 is unsupported by the Luby MIS engine: the solve
        # raises, the batch records it, and nothing lands in the cache.
        cache = ResultCache()
        engine = BatchEngine(cache)
        records = engine.run(
            [{"id": "x", "graph": dict(TREE),
              "algorithm": registry.DET_LUBY, "alpha": 3}]
        )
        assert records[0]["status"] == "failed"
        assert cache.stats()["stores"] == 0
        # A rerun must re-fail (errors are outcomes, never cached).
        engine2 = BatchEngine(cache)
        rerun = engine2.run(
            [{"id": "x", "graph": dict(TREE),
              "algorithm": registry.DET_LUBY, "alpha": 3}]
        )
        assert rerun[0]["status"] == "failed"
        assert _strip_serve(records) == _strip_serve(rerun)

    def test_unloadable_source_is_a_failure_record_not_a_crash(self):
        # Regression: one request naming a missing edge-list file made
        # BatchEngine.run raise FileNotFoundError and abort the whole
        # batch, while serve_request already returned a failure record.
        requests = [
            {"id": "missing", "graph": {"input": "/nonexistent/g.txt"}},
            {"id": "ok", "graph": dict(TREE),
             "algorithm": registry.GREEDY_MIS},
        ]
        engine = BatchEngine(ResultCache())
        records = engine.run([dict(r) for r in requests])
        assert records[0]["status"] == "failed"
        assert records[0]["error_type"] == "FileNotFoundError"
        assert records[0]["key"] is None
        assert records[1]["status"] == "ok"
        assert engine.trace.counters["failed"] == 1
        assert engine.trace.counters["executed"] == 1
        served = BatchEngine(ResultCache())
        assert _strip_serve(
            [served.serve_request(r, index=i) for i, r in enumerate(requests)]
        ) == _strip_serve(records)

    def test_dedup_of_a_failure_shares_the_outcome(self):
        engine = BatchEngine(ResultCache())
        records = engine.run(
            [
                {"id": "x", "graph": dict(TREE),
                 "algorithm": registry.DET_LUBY, "alpha": 3},
                {"id": "y", "graph": dict(TREE),
                 "algorithm": registry.DET_LUBY, "alpha": 3},
            ]
        )
        assert engine.trace.counters["executed"] == 0
        assert engine.trace.counters["failed"] == 1
        assert records[1]["status"] == "failed"
        assert records[1]["error"] == records[0]["error"]

    def test_oversized_batch_refused(self):
        engine = BatchEngine(ResultCache(), max_requests=2)
        with pytest.raises(ServeError, match="max_requests=2"):
            engine.run(_requests())

    def test_unknown_request_field_rejected(self):
        engine = BatchEngine(ResultCache())
        with pytest.raises(ServeError, match="unknown fields"):
            engine.run([{"graph": dict(TREE), "betta": 2}])

    def test_missing_graph_rejected(self):
        engine = BatchEngine(ResultCache())
        with pytest.raises(ServeError, match="'graph'"):
            engine.run([{"algorithm": registry.DET_RULING}])


class TestWarmServing:
    def test_second_run_is_all_hits_with_zero_executions(self, tmp_path):
        cache = ResultCache(disk_dir=tmp_path)
        BatchEngine(cache).run(_requests())
        warm = BatchEngine(ResultCache(disk_dir=tmp_path))
        records = warm.run(_requests())
        assert warm.trace.counters["executed"] == 0
        assert warm.trace.counters["cache_miss"] == 0
        assert warm.trace.counters["cache_hit"] == 3
        assert all(record["status"] == "ok" for record in records)

    def test_warm_records_identical_to_cold_modulo_serve(self, tmp_path):
        cache = ResultCache(disk_dir=tmp_path)
        cold = BatchEngine(cache).run(_requests())
        warm = BatchEngine(ResultCache(disk_dir=tmp_path)).run(_requests())
        assert _strip_serve(cold) == _strip_serve(warm)

    def test_cache_hit_reconstructs_bit_identical_result(self):
        # The tentpole acceptance test: serve a request cold, then
        # rebuild the result object from the cache and compare it (==,
        # wall clock included) against a direct pipeline solve captured
        # from the same execution.
        graph = gen.gnp_random_graph(96, 6, 96, seed=1)
        direct = solve_ruling_set(graph, algorithm=registry.DET_RULING)
        cache = ResultCache()
        engine = BatchEngine(cache)
        records = engine.run(
            [{"id": "a", "graph": dict(GNP),
              "algorithm": registry.DET_RULING}]
        )
        restored = payload_to_result(cache.get(records[0]["key"]))
        assert restored.members == direct.members
        assert restored.rounds == direct.rounds
        assert restored.metrics == direct.metrics
        assert restored.phase_rounds == direct.phase_rounds
        # And the round-trip through the cache itself is exact.
        assert payload_to_result(cache.get(records[0]["key"])) == restored

    def test_hit_serves_without_entering_the_simulator(self, tmp_path):
        import repro.core.session as session_module

        cache = ResultCache(disk_dir=tmp_path)
        BatchEngine(cache).run(_requests())
        engine = BatchEngine(ResultCache(disk_dir=tmp_path))
        calls = {"n": 0}
        original = session_module.SolverSession._run_mpc

        def counting(self):
            calls["n"] += 1
            return original(self)

        session_module.SolverSession._run_mpc = counting
        try:
            engine.run(_requests())
        finally:
            session_module.SolverSession._run_mpc = original
        assert calls["n"] == 0  # zero MPC rounds executed on a warm cache


class TestParallelDeterminism:
    def test_jobs_gt_1_matches_serial_record_for_record(self):
        serial = BatchEngine(ResultCache()).run(_requests())
        parallel = BatchEngine(ResultCache(), jobs=2).run(_requests())
        assert _strip_serve(serial) == _strip_serve(parallel)

    def test_retries_do_not_change_records(self):
        plain = BatchEngine(ResultCache()).run(_requests())
        retried = BatchEngine(ResultCache(), retries=2).run(_requests())
        assert _strip_serve(plain) == _strip_serve(retried)


class TestRequestIO:
    def test_jsonl_round_trip(self, tmp_path):
        path = tmp_path / "requests.jsonl"
        path.write_text(
            "\n".join(json.dumps(req) for req in _requests()) + "\n\n"
        )
        assert read_requests(path) == _requests()

    def test_malformed_json_raises_with_line_number(self, tmp_path):
        path = tmp_path / "requests.jsonl"
        path.write_text('{"id": "a"}\nnot json\n')
        with pytest.raises(ServeError, match=":2"):
            read_requests(path)

    def test_non_object_line_rejected(self, tmp_path):
        path = tmp_path / "requests.jsonl"
        path.write_text("[1, 2]\n")
        with pytest.raises(ServeError, match="JSON object"):
            read_requests(path)

    def test_write_records_round_trips(self, tmp_path):
        records = BatchEngine(ResultCache()).run(
            [{"id": "a", "graph": dict(TREE),
              "algorithm": registry.GREEDY_MIS}]
        )
        out = tmp_path / "out.jsonl"
        write_records(records, out)
        parsed = [json.loads(line) for line in out.read_text().splitlines()]
        assert parsed == records


class TestCLI:
    def _write_requests(self, tmp_path):
        path = tmp_path / "requests.jsonl"
        path.write_text(
            "\n".join(json.dumps(req) for req in _requests()) + "\n"
        )
        return path

    def test_batch_twice_second_run_all_hits(self, tmp_path, capsys):
        from repro.cli import main

        requests = self._write_requests(tmp_path)
        args = [
            "batch", "--requests", str(requests),
            "--cache-dir", str(tmp_path / "cache"),
        ]
        assert main(args + ["--out", str(tmp_path / "run1.jsonl")]) == 0
        assert main(args + ["--out", str(tmp_path / "run2.jsonl")]) == 0
        err = capsys.readouterr().err
        assert "hits=3 misses=0 dedup=1 executed=0" in err
        first = (tmp_path / "run1.jsonl").read_text().splitlines()
        second = (tmp_path / "run2.jsonl").read_text().splitlines()
        strip = lambda lines: _strip_serve([json.loads(l) for l in lines])
        assert strip(first) == strip(second)

    def test_batch_failure_exit_code(self, tmp_path):
        from repro.cli import main

        requests = tmp_path / "requests.jsonl"
        requests.write_text(
            json.dumps({"id": "bad", "graph": dict(TREE),
                        "algorithm": "nope"}) + "\n"
        )
        assert main(
            ["batch", "--requests", str(requests),
             "--out", str(tmp_path / "out.jsonl")]
        ) == 1

    def test_cache_warm_stats_clear(self, tmp_path, capsys):
        from repro.cli import main

        requests = self._write_requests(tmp_path)
        cache_dir = str(tmp_path / "cache")
        assert main(
            ["cache", "warm", "--cache-dir", cache_dir,
             "--requests", str(requests)]
        ) == 0
        assert main(["cache", "stats", "--cache-dir", cache_dir]) == 0
        out = capsys.readouterr().out
        assert "disk entries: 3" in out
        assert main(["cache", "clear", "--cache-dir", cache_dir]) == 0
        assert "removed 3" in capsys.readouterr().out

    def test_serve_has_no_retries_flag(self, capsys):
        # The daemon solves each miss once, in process; --retries was
        # accepted and silently ignored, so it is no longer a flag.
        from repro.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--retries", "2"])
        assert excinfo.value.code == 2
        assert "--retries" in capsys.readouterr().err

    def test_cache_requires_dir(self):
        from repro.cli import main

        assert main(["cache", "stats"]) == 2  # ReproError exit path

    def test_batch_trace_out(self, tmp_path):
        from repro.cli import main

        requests = self._write_requests(tmp_path)
        trace_path = tmp_path / "trace.jsonl"
        assert main(
            ["batch", "--requests", str(requests),
             "--out", str(tmp_path / "out.jsonl"),
             "--trace-out", str(trace_path)]
        ) == 0
        lines = [json.loads(l) for l in trace_path.read_text().splitlines()]
        assert lines[0]["layer"] == "serve"
        assert lines[-1]["type"] == "summary"
        assert lines[-1]["executed"] == 3


class TestAtomicWrite:
    def test_no_tmp_file_left_behind(self, tmp_path):
        out = tmp_path / "out.jsonl"
        write_records([{"id": "a", "status": "ok"}], out)
        assert json.loads(out.read_text()) == {"id": "a", "status": "ok"}
        assert list(tmp_path.glob("*.tmp")) == []

    def test_failed_write_preserves_previous_file(self, tmp_path):
        # Regression: write_records used a plain write_text — a crash
        # mid-write left a torn, half-valid file.  With the atomic
        # tmp-then-replace pattern the previous content survives any
        # failure before the rename.
        out = tmp_path / "out.jsonl"
        write_records([{"id": "old"}], out)
        with pytest.raises(TypeError):
            write_records([{"id": object()}], out)  # unserialisable
        assert json.loads(out.read_text()) == {"id": "old"}

    def test_overwrite_is_all_or_nothing(self, tmp_path):
        out = tmp_path / "out.jsonl"
        write_records([{"id": "one"}], out)
        write_records([{"id": "two"}, {"id": "three"}], out)
        parsed = [
            json.loads(line) for line in out.read_text().splitlines()
        ]
        assert parsed == [{"id": "two"}, {"id": "three"}]


class TestDuplicateIds:
    def test_duplicate_explicit_ids_raise(self):
        engine = BatchEngine(ResultCache())
        requests = [
            {"id": "x", "graph": dict(TREE)},
            {"id": "x", "graph": dict(GNP)},
        ]
        with pytest.raises(
            ServeError, match="duplicate request id 'x'"
        ) as excinfo:
            engine.run(requests)
        assert "request 0 and request 1" in str(excinfo.value)
        # The check fires before any work: no loads, no cache traffic.
        assert engine.trace.counters.get("graph_load", 0) == 0
        assert engine.trace.counters["cache_miss"] == 0

    def test_duplicate_ids_name_file_lines(self, tmp_path):
        path = tmp_path / "requests.jsonl"
        path.write_text(
            json.dumps({"id": "x", "graph": dict(TREE)})
            + "\n\n"
            + json.dumps({"id": "x", "graph": dict(GNP)})
            + "\n"
        )
        requests, linenos = read_requests(path, with_linenos=True)
        assert linenos == [1, 3]  # the blank line is skipped, not counted
        engine = BatchEngine(ResultCache())
        with pytest.raises(ServeError, match=r"line 1 and line 3"):
            engine.run(requests, linenos=linenos)

    def test_cli_batch_reports_duplicate_ids(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "requests.jsonl"
        path.write_text(
            json.dumps({"id": "dup", "graph": dict(TREE)}) + "\n"
            + json.dumps({"id": "dup", "graph": dict(TREE)}) + "\n"
        )
        assert main(["batch", "--requests", str(path)]) == 2
        err = capsys.readouterr().err
        assert "duplicate request id 'dup'" in err
        assert "line 1 and line 2" in err

    def test_distinct_ids_still_dedup_by_key(self):
        # Distinct ids with identical solve params remain a dedup —
        # the id check must not break key-level dedup semantics.
        engine = BatchEngine(ResultCache())
        engine.run(_requests())
        assert engine.trace.counters["dedup"] == 1


class TestStreamingRead:
    def test_file_is_streamed_not_slurped(self, tmp_path, monkeypatch):
        # Regression: read_requests slurped the file via read_text.
        # Pin the streaming implementation by making whole-file reads
        # explode.
        from pathlib import Path

        path = tmp_path / "requests.jsonl"
        path.write_text(
            "\n".join(json.dumps(req) for req in _requests()) + "\n"
        )

        def boom(self, *args, **kwargs):
            raise AssertionError("read_requests must stream, not slurp")

        monkeypatch.setattr(Path, "read_text", boom)
        assert read_requests(path) == _requests()

    def test_error_messages_unchanged_by_streaming(self, tmp_path):
        path = tmp_path / "requests.jsonl"
        path.write_text('{"id": "a"}\n\nnot json\n')
        with pytest.raises(
            ServeError, match=rf"{path}:3: request is not valid JSON"
        ):
            read_requests(path)
        path.write_text('{"id": "a"}\n[1, 2]\n')
        with pytest.raises(
            ServeError,
            match=rf"{path}:2: request must be a JSON object, got list",
        ):
            read_requests(path)


class TestServeRequestPath:
    def test_matches_batch_records(self):
        batch = BatchEngine(ResultCache())
        batch_records = batch.run(_requests())
        served_engine = BatchEngine(ResultCache())
        served = [
            served_engine.serve_request(request, index=index)
            for index, request in enumerate(_requests())
        ]
        assert _strip_serve(served) == _strip_serve(batch_records)

    def test_request_b_is_hit_not_dedup(self):
        # Sequential serving has no batch-level dedup window: the
        # second identical request resolves through the cache instead,
        # with an identical deterministic record either way.
        engine = BatchEngine(ResultCache())
        for index, request in enumerate(_requests()):
            engine.serve_request(request, index=index)
        assert engine.trace.counters["executed"] == 3
        assert engine.trace.counters["cache_hit"] == 1
        assert engine.trace.counters["dedup"] == 0

    def test_unknown_algorithm_is_failure_record(self):
        engine = BatchEngine(ResultCache())
        record = engine.serve_request(
            {"id": "x", "graph": dict(TREE), "algorithm": "nope"}
        )
        assert record["status"] == "failed"
        assert "nope" in record["error"]

    def test_unknown_fields_raise_like_batch(self):
        engine = BatchEngine(ResultCache())
        with pytest.raises(ServeError, match="unknown fields"):
            engine.serve_request(
                {"id": "x", "graph": dict(TREE), "bogus": 1}
            )

    def test_small_graph_pool_reloads_without_changing_records(
        self, tmp_path
    ):
        # Three edge-list sources, interleaved A, B, C, A, B, C, ... on a
        # pool of two: every request after the second evicts a source a
        # later request needs, which is then reloaded mid-batch.  The
        # records must be byte-identical to the default pool's.
        paths = []
        for index, graph in enumerate(
            (gen.cycle_graph(24), gen.grid_graph(5, 5), gen.random_tree(30, 3))
        ):
            path = tmp_path / f"g{index}.txt"
            write_edge_list(graph, path)
            paths.append(str(path))
        requests = [
            {"id": f"{algorithm}-{index}", "graph": {"input": path},
             "algorithm": algorithm}
            for algorithm in (
                registry.DET_RULING, registry.DET_LUBY, registry.GREEDY_MIS
            )
            for index, path in enumerate(paths)
        ]
        small = BatchEngine(ResultCache(), graph_pool=2)
        default = BatchEngine(ResultCache())
        assert default.graph_pool == 64
        small_records = small.run(requests)
        default_records = default.run(requests)
        assert small.trace.counters["graph_load"] == len(requests)
        assert small.trace.counters["graph_evict"] == len(requests) - 2
        assert default.trace.counters["graph_load"] == len(paths)
        assert all(r["status"] == "ok" for r in small_records)
        assert [
            json.dumps(record, sort_keys=True)
            for record in _strip_serve(small_records)
        ] == [
            json.dumps(record, sort_keys=True)
            for record in _strip_serve(default_records)
        ]

    def test_graph_pool_eviction(self):
        engine = BatchEngine(ResultCache(), graph_pool=1)
        engine.serve_request({"id": "a", "graph": dict(TREE)})
        engine.serve_request({"id": "b", "graph": dict(GNP)})
        engine.serve_request({"id": "c", "graph": dict(TREE), "beta": 3})
        # Pool of one: TREE was evicted by GNP and reloaded for "c".
        assert engine.trace.counters["graph_load"] == 3
        assert engine.trace.counters["graph_evict"] == 2
