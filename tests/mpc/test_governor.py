"""Governed exponentiation: the window planner, wiring, bit-identity.

Plus the serve daemon's admission peak-hold, the other load governor.
"""

import pytest

from repro.core.alpha_ruling import alpha_program
from repro.core.exponentiation import (
    BALLS,
    WINDOW_FLOOR,
    grow_balls,
    plan_batch,
)
from repro.core.program import run_program
from repro.errors import MPCViolationError
from repro.graph import generators as gen
from repro.mpc.config import MPCConfig
from repro.mpc.graph_store import DistributedGraph
from repro.mpc.simulator import Simulator
from repro.serve.daemon import PeakHold


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


class TestPlanBatch:
    def owner_of(self, v):
        return v // 4  # 4 vertices per machine

    def test_target_is_a_budget_fraction(self):
        # One vertex on one machine: the full window fits up to S // 2.
        assert plan_batch(1, {0: 500}, self.owner_of, 1001) is None
        assert plan_batch(1, {0: 501}, self.owner_of, 1001) == WINDOW_FLOOR
        assert plan_batch(1, {0: 1}, self.owner_of, 1) is None  # never 0

    def test_returns_none_when_full_window_fits(self):
        sizes = {v: 10 for v in range(8)}  # target 50: 4 x 10 = 40
        assert plan_batch(8, sizes, self.owner_of, 100) is None

    def test_halves_until_per_machine_load_fits(self):
        sizes = {v: 20 for v in range(8)}  # target 50: 4 x 20 = 80
        # windows of 2 put <= 40 words on one machine; 4 would put 80.
        assert plan_batch(8, sizes, self.owner_of, 100) == 2

    def test_floors_at_window_floor(self):
        sizes = {v: 1000 for v in range(8)}  # nothing ever fits
        assert plan_batch(8, sizes, self.owner_of, 100) == WINDOW_FLOOR == 1

    def test_empty_inputs_plan_unbatched(self):
        assert plan_batch(0, {}, self.owner_of, 100) is None
        assert plan_batch(8, {}, self.owner_of, 100) is None


class TestConfigWiring:
    def test_ungoverned_by_default(self):
        assert not MPCConfig(num_machines=2, memory_words=256).governed

    def test_with_governor_enables_and_sizes_the_target(self):
        cfg = MPCConfig(num_machines=2, memory_words=256).with_governor()
        assert cfg.governed
        # The planner aims at half the config's S: 128 words fit.
        budget = cfg.memory_words
        assert plan_batch(1, {0: 128}, lambda v: 0, budget) is None
        assert plan_batch(1, {0: 129}, lambda v: 0, budget) == WINDOW_FLOOR


def grow_balls_radius2(graph, config, governed):
    cfg = config.with_governor() if governed else config
    with Simulator(cfg) as sim:
        dg = DistributedGraph.load(sim, graph)
        grow_balls(dg, radius=2, governed=cfg.governed)
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
    """A feasible in-model α = 3 solve under ``governed`` must not move."""
    graph = gen.circulant_graph(240, [1, 2, 3])
    cfg = MPCConfig(num_machines=12, memory_words=4096)

    def run(config):
        with Simulator(config) as sim:
            dg = DistributedGraph.load(sim, graph)
            run_program(dg, alpha_program(3, beta=2))
            members = dg.collect_marked("alpha_rs_in_set")
        return members, sim.metrics.summary(), sim.metrics.phase_rounds()

    plain = run(cfg)
    assert run(cfg.with_governor()) == plain
    assert plain[2]["alpha-exponentiation"] > 1  # grown in-model
