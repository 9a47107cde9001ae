"""Wall-clock timing metrics: per-phase and per-round attribution."""

import time

from repro.core.pipeline import solve_ruling_set
from repro.graph import generators as gen
from repro.mpc.config import MPCConfig
from repro.mpc.machine import Machine
from repro.mpc.metrics import RunMetrics
from repro.mpc.simulator import Simulator


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

    def test_round_flag_appends_per_round(self):
        metrics = RunMetrics()
        metrics.record_elapsed(0.1)
        metrics.record_elapsed(0.2, is_round=True)
        metrics.record_elapsed(0.3, is_round=True)
        assert metrics.time_per_round == [0.2, 0.3]

    def test_summary_excludes_timing(self):
        # test_determinism compares summary() between identical runs;
        # wall clock would make equal runs compare unequal.
        metrics = RunMetrics()
        metrics.record_elapsed(1.0, is_round=True)
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
        assert len(sim.metrics.time_per_round) == sim.metrics.rounds == 2
        assert sim.metrics.wall_time_s >= sum(sim.metrics.time_per_round)

    def test_clock_covers_the_memory_audit(self, monkeypatch):
        # Regression: the superstep clock used to stop before the audit,
        # so wall_time_s and the trace left out every memory_words call.
        audit = Machine.memory_words
        pause = 0.01

        def slow_audit(machine):
            time.sleep(pause)
            return audit(machine)

        monkeypatch.setattr(Machine, "memory_words", slow_audit)
        cfg = MPCConfig(num_machines=3, memory_words=256).with_trace()
        sim = Simulator(cfg)
        sim.local(lambda m: None)
        sim.communicate(lambda m: [])
        # Two supersteps, three machines audited after each.
        assert sim.metrics.wall_time_s >= 6 * pause
        assert sim.metrics.time_per_round[0] >= 3 * pause
        durations = [
            ev["dur_us"] for ev in sim.trace.events
            if ev["type"] in ("local", "round")
        ]
        assert len(durations) == 2
        assert all(dur >= 3 * pause * 1e6 for dur in durations)

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
