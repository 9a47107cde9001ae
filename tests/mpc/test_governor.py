"""Load governor: peak-hold, throttle planning, wiring, bit-identity."""

import pytest

from repro.core.alpha_ruling import alpha_program
from repro.core.exponentiation import BALLS, grow_balls
from repro.core.program import run_program
from repro.errors import MPCConfigError, MPCViolationError
from repro.graph import generators as gen
from repro.mpc.config import MPCConfig
from repro.mpc.governor import (
    CHUNK_FLOOR,
    WINDOW_FLOOR,
    LoadGovernor,
    PeakHold,
)
from repro.mpc.graph_store import DistributedGraph
from repro.mpc.simulator import Simulator


class TestPeakHold:
    def test_holds_the_maximum(self):
        ph = PeakHold()
        for value in (10, 80, 30, 79):
            ph.observe(value)
        assert ph.peak == 80
        assert ph.observations == 4

    def test_negative_observations_clamp_to_zero(self):
        ph = PeakHold()
        ph.observe(-5)
        assert ph.peak == 0


class TestLoadGovernorQueries:
    def test_target_is_a_budget_fraction(self):
        assert LoadGovernor(4096).target_words == 2048
        assert LoadGovernor(1001).target_words == 500  # floor of S/2
        assert LoadGovernor(1).target_words == 1  # never zero

    def test_invalid_budget_rejected(self):
        with pytest.raises(MPCConfigError):
            LoadGovernor(0)

    def test_headroom_tracks_round_peak_and_clamps(self):
        gov = LoadGovernor(100)
        assert gov.headroom_words() == 100
        gov.observe_round(words=200, max_sent=60, max_received=40)
        assert gov.peak_round_words() == 60
        assert gov.headroom_words() == 40
        gov.observe_round(words=500, max_sent=80, max_received=250)
        assert gov.headroom_words() == 0  # clamped, never negative

    def test_scale_chunk_is_identity_before_any_round(self):
        gov = LoadGovernor(100)
        assert gov.scale_chunk(4096) == 4096
        assert gov.stats()["chunk_scalings"] == 0

    def test_scale_chunk_shrinks_with_headroom_and_floors(self):
        gov = LoadGovernor(100)
        gov.observe_round(words=0, max_sent=75, max_received=0)
        assert gov.scale_chunk(400) == 100  # 400 * 25 // 100
        gov.observe_round(words=0, max_sent=100, max_received=0)
        assert gov.scale_chunk(400) == CHUNK_FLOOR == 32  # zero headroom
        assert gov.scale_chunk(4) == 4  # floor never exceeds base
        # the base-4 call returned the base unchanged — not a scaling
        assert gov.stats()["chunk_scalings"] == 2

    def test_scale_chunk_rejects_bad_base(self):
        with pytest.raises(MPCConfigError):
            LoadGovernor(100).scale_chunk(0)


class TestPlanBatch:
    def owner_of(self, v):
        return v // 4  # 4 vertices per machine

    def test_returns_none_when_full_window_fits(self):
        gov = LoadGovernor(100)  # target 50
        sizes = {v: 10 for v in range(8)}
        assert gov.plan_batch(8, sizes, self.owner_of) is None
        stats = gov.stats()
        assert stats["planned_steps"] == 1
        assert stats["batched_steps"] == 0

    def test_halves_until_per_machine_load_fits(self):
        gov = LoadGovernor(100)  # target 50: 4 x 20 = 80 per machine
        sizes = {v: 20 for v in range(8)}
        batch = gov.plan_batch(8, sizes, self.owner_of)
        # windows of 2 put <= 40 words on one machine; 4 would put 80.
        assert batch == 2
        assert gov.stats()["batched_steps"] == 1

    def test_floors_at_window_floor(self):
        gov = LoadGovernor(100)
        sizes = {v: 1000 for v in range(8)}  # nothing ever fits
        assert gov.plan_batch(8, sizes, self.owner_of) == WINDOW_FLOOR == 1

    def test_empty_inputs_plan_unbatched(self):
        gov = LoadGovernor(100)
        assert gov.plan_batch(0, {}, self.owner_of) is None
        assert gov.plan_batch(8, {}, self.owner_of) is None


class TestConfigWiring:
    def test_ungoverned_by_default(self):
        sim = Simulator(MPCConfig(num_machines=2, memory_words=256))
        assert sim.governor is None

    def test_with_governor_enables_and_sizes_the_target(self):
        cfg = MPCConfig(num_machines=2, memory_words=256).with_governor()
        assert cfg.governed
        sim = Simulator(cfg)
        assert isinstance(sim.governor, LoadGovernor)
        assert sim.governor.target_words == 128

    def test_simulator_feeds_round_and_memory_peaks(self):
        from repro.mpc.message import Message

        cfg = MPCConfig(num_machines=2, memory_words=256).with_governor()
        sim = Simulator(cfg)
        sim.communicate(
            lambda m: [Message(1, (1, 2, 3))] if m.mid == 0 else []
        )
        assert sim.governor.peak_round_words() == 3
        assert sim.governor.peak_memory_words() > 0

    def test_injected_governor_wins(self):
        gov = LoadGovernor(999)
        sim = Simulator(
            MPCConfig(num_machines=2, memory_words=256), governor=gov
        )
        assert sim.governor is gov


def grow_balls_radius2(graph, config, governed):
    cfg = config.with_governor() if governed else config
    with Simulator(cfg) as sim:
        dg = DistributedGraph.load(sim, graph)
        grow_balls(dg, radius=2, governor=sim.governor)
        balls = {
            v: machine.store[BALLS][v]
            for machine in sim.machines
            for v in machine.store.get(BALLS, {})
        }
    return balls, sim.metrics.rounds, sim.metrics.total_words


class TestGovernedExponentiation:
    """The tentpole contract at the engine level (DESIGN.md section 15)."""

    def test_noop_at_feasible_sizes_is_bit_identical(self):
        graph = gen.circulant_graph(96, [1, 2])
        cfg = MPCConfig(num_machines=4, memory_words=4096)
        plain = grow_balls_radius2(graph, cfg, governed=False)
        governed = grow_balls_radius2(graph, cfg, governed=True)
        assert plain == governed  # balls, rounds, and words all equal

    def test_dense_faults_ungoverned_and_completes_governed(self):
        # One machine's respond round receives (n/k) * d * (d + 2) words:
        # 20 * 16 * 18 = 5760 > 4096 — the quadratic-traffic regime.
        graph = gen.circulant_graph(240, list(range(1, 9)))
        cfg = MPCConfig(num_machines=12, memory_words=4096)
        with pytest.raises(MPCViolationError):
            grow_balls_radius2(graph, cfg, governed=False)
        governed_balls, _, governed_words = grow_balls_radius2(
            graph, cfg, governed=True
        )
        # Reference: same config, enforcement lifted — windowing must
        # reproduce its balls (and total words) exactly.
        with Simulator(cfg, enforce=False) as sim:
            dg = DistributedGraph.load(sim, graph)
            grow_balls(dg, radius=2)
            reference = {
                v: machine.store[BALLS][v]
                for machine in sim.machines
                for v in machine.store.get(BALLS, {})
            }
        assert governed_balls == reference
        assert governed_words == sim.metrics.total_words

    def test_alpha_solver_members_match_unenforced_reference(self):
        graph = gen.circulant_graph(240, list(range(1, 9)))
        cfg = MPCConfig(num_machines=12, memory_words=4096)

        def run(config, enforce=True):
            with Simulator(config, enforce=enforce) as sim:
                dg = DistributedGraph.load(sim, graph)
                run_program(dg, alpha_program(3, beta=2))
                return dg.collect_marked("alpha_rs_in_set")

        with pytest.raises(MPCViolationError):
            run(cfg)
        assert run(cfg.with_governor()) == run(cfg, enforce=False)


def test_governed_replay_is_bit_identical():
    """A feasible end-to-end solve under ``governed=True`` must not move."""
    from repro.core.pipeline import solve_ruling_set

    graph = gen.gnp_random_graph(96, 8, 96, seed=5)
    plain = solve_ruling_set(graph)
    governed = solve_ruling_set(graph, governed=True)
    assert governed.members == plain.members
    assert governed.rounds == plain.rounds
    assert governed.metrics == plain.metrics
