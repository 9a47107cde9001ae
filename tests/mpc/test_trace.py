"""Trace layer: observer purity, exports, budget audit, cross-checks."""

import json

import pytest

from repro.core import registry
from repro.core.det_luby import conditional_expectation_chooser, luby_program
from repro.core.program import run_program
from repro.core.session import SolverSession
from repro.errors import MPCViolationError
from repro.graph import generators as gen
from repro.mpc.backends import resolve_backend
from repro.mpc.config import MPCConfig
from repro.mpc.graph_store import DistributedGraph
from repro.mpc.simulator import Simulator
from repro.mpc.trace import WARN_UTILIZATION, TraceRecorder


def run_det_luby(backend_name="serial", trace=False, num_shards=2):
    graph = gen.gnp_random_graph(96, 8, 96, seed=7)
    cfg = MPCConfig.sublinear(
        graph.num_vertices, graph.num_edges, max_degree=graph.max_degree()
    )
    with Simulator(
        cfg,
        backend=resolve_backend(backend_name, num_shards),
        trace=TraceRecorder(cfg) if trace else None,
    ) as sim:
        dg = DistributedGraph.load(sim, graph)
        run_program(dg, luby_program(
            in_set_key="mis",
            chooser=conditional_expectation_chooser(chunk_bits=3),
        ))
        members = dg.collect_marked("mis")
    return members, sim.metrics, sim.trace


class TestZeroCostWhenDisabled:
    def test_trace_off_by_default(self):
        sim = Simulator(MPCConfig(num_machines=2, memory_words=256))
        assert sim.trace is None

    def test_config_enables_trace(self):
        # Tracing is a run option of the session, not of MPCConfig: the
        # traced run carries a recorder, the untraced one none.
        graph = gen.gnp_random_graph(48, 6, 48, seed=5)
        spec = registry.get_algorithm(registry.DET_LUBY)
        traced = SolverSession(graph, spec, trace=True).run()
        assert isinstance(traced.trace, TraceRecorder)
        assert traced.trace.total_words() == traced.metrics["total_words"]
        assert SolverSession(graph, spec).run().trace is None

    def test_injected_recorder_overrides_config(self):
        cfg = MPCConfig(num_machines=2, memory_words=256)
        recorder = TraceRecorder(cfg)
        sim = Simulator(cfg, trace=recorder)
        assert sim.trace is recorder


class TestObserverPurity:
    """Traced and untraced runs must be bit-identical (the tentpole pin)."""

    def test_identical_summary_and_members_serial(self):
        plain_members, plain_metrics, no_trace = run_det_luby(trace=False)
        traced_members, traced_metrics, trace = run_det_luby(trace=True)
        assert no_trace is None
        assert trace is not None
        assert traced_members == plain_members
        assert traced_metrics.summary() == plain_metrics.summary()

    def test_identical_summary_and_members_shard(self):
        plain_members, plain_metrics, _ = run_det_luby("serial", trace=False)
        traced_members, traced_metrics, trace = run_det_luby(
            "shard", trace=True
        )
        assert traced_members == plain_members
        assert traced_metrics.summary() == plain_metrics.summary()
        # Backend attribution rode along on the trace events.
        assert any(
            ev.get("backend") for ev in trace.events if ev["type"] == "round"
        )


class TestCrossChecks:
    def test_round_words_sum_to_total_words(self):
        _, metrics, trace = run_det_luby(trace=True)
        assert trace.total_words() == metrics.total_words
        assert (
            sum(ev["words"] for ev in trace.round_events())
            == metrics.total_words
        )
        assert len(trace.round_events()) == metrics.rounds

    def test_per_machine_rows_sum_to_round_words(self):
        _, _, trace = run_det_luby(trace=True)
        for ev in trace.round_events():
            assert sum(ev["sent_per_machine"]) == ev["words"]
            assert sum(ev["received_per_machine"]) == ev["words"]
            assert max(ev["sent_per_machine"]) == ev["max_sent"]
            assert max(ev["received_per_machine"]) == ev["max_received"]

    def test_memory_peaks_match_metrics(self):
        _, metrics, trace = run_det_luby(trace=True)
        assert (
            max(trace.machine_peak_words.values())
            == metrics.peak_memory_words
        )

    def test_phase_marks_recorded(self):
        _, metrics, trace = run_det_luby(trace=True)
        traced_phases = [
            ev["phase"] for ev in trace.events if ev["type"] == "phase"
        ]
        assert traced_phases == [mark.name for mark in metrics.phases]


class TestJsonlExport:
    def test_valid_jsonl_with_meta_and_summary(self, tmp_path):
        _, metrics, trace = run_det_luby(trace=True)
        path = tmp_path / "run.trace.jsonl"
        trace.write_jsonl(path)
        records = [
            json.loads(line) for line in path.read_text().splitlines()
        ]
        assert records[0]["type"] == "meta"
        assert records[0]["memory_words"] == trace.config.memory_words
        assert records[0]["warn_utilization"] == WARN_UTILIZATION == 0.9
        assert records[-1]["type"] == "summary"
        assert records[-1]["total_words"] == metrics.total_words
        round_words = sum(
            r["words"] for r in records if r["type"] == "round"
        )
        assert round_words == metrics.total_words

    @pytest.mark.parametrize("backend_name", ["serial", "shard"])
    def test_meta_names_the_backend_that_ran(self, backend_name):
        _, _, trace = run_det_luby(backend_name, trace=True)
        meta = json.loads(trace.jsonl_lines()[0])
        assert meta["backend"] == backend_name

    def test_headroom_never_exceeds_budget(self):
        _, _, trace = run_det_luby(trace=True)
        budget = trace.config.memory_words
        for ev in trace.round_events():
            assert 0 <= ev["headroom_words"] <= budget
        assert trace.min_headroom_words() <= budget


class TestChromeTraceExport:
    def test_valid_json_with_monotone_timestamps(self, tmp_path):
        _, _, trace = run_det_luby(trace=True)
        path = tmp_path / "run.trace.json"
        trace.write_chrome_trace(path)
        payload = json.loads(path.read_text())
        events = payload["traceEvents"]
        assert events, "chrome trace must not be empty"
        last_ts = -1.0
        for ev in events:
            if ev["ph"] == "M":
                continue
            assert ev["ts"] >= last_ts, "timestamps must be monotone"
            last_ts = ev["ts"]
            if ev["ph"] == "X":
                assert ev["dur"] > 0

    def test_counters_present(self):
        _, _, trace = run_det_luby(trace=True)
        counters = {
            ev["name"]
            for ev in trace.chrome_trace_events()
            if ev["ph"] == "C"
        }
        assert {"words sent", "budget headroom"} <= counters


class TestBudgetAuditor:
    def test_warns_before_hard_fault(self):
        # A 2-machine ping with S=8: 8 of 8 words in one round crosses
        # the 90% threshold but not the hard budget.
        cfg = MPCConfig(num_machines=2, memory_words=8)
        sim = Simulator(cfg, trace=TraceRecorder(cfg))
        sim.communicate(
            lambda m: [(1, tuple(range(8)))] if m.mid == 0 else []
        )
        sim.machine(1).clear_inbox()
        kinds = {(w["kind"], w["machine"]) for w in sim.trace.warnings}
        assert ("sent", 0) in kinds
        assert ("received", 1) in kinds
        for warning in sim.trace.warnings:
            assert warning["utilization"] >= WARN_UTILIZATION
            assert warning["budget"] == 8

    def test_quiet_below_threshold(self):
        cfg = MPCConfig(num_machines=2, memory_words=256)
        sim = Simulator(cfg, trace=TraceRecorder(cfg))
        sim.communicate(
            lambda m: [(1, (1,))] if m.mid == 0 else []
        )
        assert sim.trace.warnings == []

    def test_over_budget_round_never_reaches_trace(self):
        # The router faults a round past S before the simulator records
        # it, so every recorded headroom is non-negative.
        cfg = MPCConfig(num_machines=2, memory_words=8)
        sim = Simulator(cfg, trace=TraceRecorder(cfg))
        with pytest.raises(MPCViolationError):
            sim.communicate(
                lambda m: [(1, tuple(range(12)))] if m.mid == 0 else []
            )
        assert sim.trace.round_events() == []
        assert sim.trace.min_headroom_words() == 8

    def test_format_warnings_human_readable(self):
        cfg = MPCConfig(num_machines=2, memory_words=8)
        sim = Simulator(cfg, trace=TraceRecorder(cfg))
        sim.communicate(
            lambda m: [(1, tuple(range(8)))] if m.mid == 0 else []
        )
        lines = sim.trace.format_warnings()
        assert lines and all("words" in line for line in lines)


