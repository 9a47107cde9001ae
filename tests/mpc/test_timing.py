"""Wall-clock timing metrics: per-phase attribution."""

import time

from repro.core.pipeline import solve_ruling_set
from repro.graph import generators as gen
from repro.mpc.config import MPCConfig
from repro.mpc.machine import Machine
from repro.mpc.metrics import RunMetrics
from repro.mpc.shard import ShardBackend
from repro.mpc.simulator import Simulator
from repro.mpc.trace import TraceRecorder


class TestRecordElapsed:
    def test_accumulates_wall_time(self):
        metrics = RunMetrics()
        metrics.record_elapsed(0.25)
        metrics.record_elapsed(0.5)
        assert metrics.wall_time_s == 0.75

    def test_unphased_bucket(self):
        metrics = RunMetrics()
        metrics.record_elapsed(1.0)
        assert metrics.time_per_phase == {RunMetrics.UNPHASED: 1.0}

    def test_attributed_to_current_phase(self):
        metrics = RunMetrics()
        metrics.begin_phase("sparsify")
        metrics.record_elapsed(1.0)
        metrics.begin_phase("gather")
        metrics.record_elapsed(2.0)
        metrics.begin_phase("sparsify")  # repeated names accumulate
        metrics.record_elapsed(4.0)
        assert metrics.time_per_phase == {"sparsify": 5.0, "gather": 2.0}

    def test_summary_excludes_timing(self):
        # test_determinism compares summary() between identical runs;
        # wall clock would make equal runs compare unequal.
        metrics = RunMetrics()
        metrics.record_elapsed(1.0)
        assert all("time" not in key for key in metrics.summary())

    def test_timing_summary_keys(self):
        metrics = RunMetrics()
        metrics.begin_phase("scan")
        metrics.record_elapsed(0.5)
        out = metrics.timing_summary()
        assert out["wall_time_s"] == 0.5
        assert out["time_scan"] == 0.5


class TestSimulatorTiming:
    def test_rounds_are_timed(self):
        sim = Simulator(MPCConfig(num_machines=3, memory_words=256))
        sim.local(lambda m: None)
        sim.communicate(lambda m: [])
        sim.communicate(lambda m: [])
        assert sim.metrics.rounds == 2
        assert sim.metrics.wall_time_s > 0
        assert sim.metrics.time_per_phase == {
            RunMetrics.UNPHASED: sim.metrics.wall_time_s
        }

    def test_clock_covers_the_memory_audit(self, monkeypatch):
        # Regression: the superstep clock used to stop before the audit,
        # so wall_time_s and the trace left out every memory_words call
        # and the budget check itself.
        audit = Machine.memory_words
        check = Simulator._check_memory
        pause = 0.01

        def slow_audit(machine):
            time.sleep(pause)
            return audit(machine)

        def slow_check(sim, report):
            time.sleep(pause)
            return check(sim, report)

        monkeypatch.setattr(Machine, "memory_words", slow_audit)
        monkeypatch.setattr(Simulator, "_check_memory", slow_check)
        cfg = MPCConfig(num_machines=3, memory_words=256)
        sim = Simulator(cfg, trace=TraceRecorder(cfg))
        sim.begin_phase("work")
        sim.local(lambda m: None)
        sim.communicate(lambda m: [])
        # Two supersteps, each pricing three machines and then checking.
        assert sim.metrics.wall_time_s >= 8 * pause
        assert sim.metrics.time_per_phase["work"] >= 8 * pause
        durations = [
            ev["dur_us"] for ev in sim.trace.events
            if ev["type"] in ("local", "round")
        ]
        assert len(durations) == 2
        assert all(dur >= 4 * pause * 1e6 for dur in durations)

    def test_a_late_local_tail_keeps_its_phase(self, monkeypatch):
        # A deferred local step's audit runs when it reports, after the
        # next phase began; its seconds still go to the phase it was
        # issued in.
        check = Simulator._check_memory
        pause = 0.02

        def slow_check(sim, report):
            time.sleep(pause)
            return check(sim, report)

        monkeypatch.setattr(Simulator, "_check_memory", slow_check)
        cfg = MPCConfig(num_machines=4, memory_words=256)
        with Simulator(cfg, backend=ShardBackend(num_shards=2)) as sim:
            sim.begin_phase("issued")
            sim.local(lambda m: None)
            sim.begin_phase("later")
            sim.settle()
        assert sim.metrics.time_per_phase["issued"] >= pause
        assert sim.metrics.time_per_phase.get("later", 0.0) < pause

    def test_phase_attribution_follows_begin_phase(self):
        sim = Simulator(MPCConfig(num_machines=2, memory_words=256))
        sim.begin_phase("setup")
        sim.communicate(lambda m: [])
        sim.begin_phase("work")
        sim.communicate(lambda m: [])
        phases = sim.metrics.time_per_phase
        assert set(phases) == {"setup", "work"}
        assert all(seconds >= 0 for seconds in phases.values())


class TestPipelineTiming:
    def test_result_carries_wall_clock(self):
        graph = gen.gnp_random_graph(64, 8, 64, seed=3)
        result = solve_ruling_set(graph, algorithm="det-luby", beta=2)
        assert result.wall_time_s > 0
        assert "luby-seed-search" in result.time_per_phase
        # Per-phase times decompose the (rounded) total.
        assert (
            abs(sum(result.time_per_phase.values()) - result.wall_time_s)
            < 1e-3
        )

    def test_timing_stays_out_of_metrics_dict(self):
        graph = gen.gnp_random_graph(64, 8, 64, seed=3)
        result = solve_ruling_set(graph, algorithm="det-luby", beta=2)
        assert all("time" not in key for key in result.metrics)
