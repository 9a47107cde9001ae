"""Distributed seed selection vs the sequential reference."""

import pytest

from repro.derand.conditional import choose_seed
from repro.derand.estimator import ThresholdEstimator
from repro.derand.seed_search import (
    distributed_choose_seed,
    distributed_scan_seeds,
    flat_term_estimator,
)
from repro.errors import DerandomizationError
from repro.mpc.config import MPCConfig
from repro.mpc.simulator import Simulator
from repro.util.rng import SplitMix64


def sim_with(k=5, s=4096):
    return Simulator(MPCConfig(num_machines=k, memory_words=s))


def plant_random_terms(sim, p, seed=0):
    """Spread random estimator terms across machines; return global est."""
    rng = SplitMix64(seed=seed)
    global_est = ThresholdEstimator(p)
    for machine in sim.machines:
        vterms, pterms = [], []
        for _ in range(rng.next_below(4) + 1):
            x = rng.next_below(p)
            t = rng.next_below(p + 1)
            w = rng.next_below(9) - 4
            vterms.append((x, t, w))
            global_est.add_vertex_term(x, t, w)
        for _ in range(rng.next_below(3)):
            x1 = rng.next_below(p)
            x2 = rng.next_below(p)
            if x1 == x2:
                continue
            t1 = rng.next_below(p + 1)
            t2 = rng.next_below(p + 1)
            w = rng.next_below(9) - 4
            pterms.append((x1, t1, x2, t2, w))
            global_est.add_pair_term(x1, t1, x2, t2, w)
        machine.store["vt"] = vterms
        machine.store["pt"] = pterms
    return global_est


class TestDistributedChooseSeed:
    @pytest.mark.parametrize("trial", range(5))
    def test_meets_global_guarantee(self, trial):
        p = 31
        sim = sim_with()
        global_est = plant_random_terms(sim, p, seed=trial)
        seed, stats = distributed_choose_seed(
            sim, p, flat_term_estimator(p, "vt", "pt")
        )
        assert (
            global_est.value(seed) * p * p >= global_est.expectation_x_p2()
        )
        assert stats.candidates_scanned >= 1

    def test_matches_sequential_multiplier_guarantee(self):
        # Distributed and sequential select by the same acceptance rule,
        # so both must satisfy the same bound (seeds may differ because
        # the distributed version scans in fixed-size batches).
        p = 31
        sim = sim_with()
        global_est = plant_random_terms(sim, p, seed=9)
        dist_seed, _ = distributed_choose_seed(
            sim, p, flat_term_estimator(p, "vt", "pt")
        )
        seq_seed, _ = choose_seed(global_est)
        target = global_est.expectation_x_p2()
        assert global_est.value(dist_seed) * p * p >= target
        assert global_est.value(seq_seed) * p * p >= target

    def test_costs_rounds(self):
        sim = sim_with()
        plant_random_terms(sim, 31, seed=1)
        distributed_choose_seed(sim, 31, flat_term_estimator(31, "vt", "pt"))
        assert sim.metrics.rounds > 0

    def test_small_memory_shrinks_chunks_but_works(self):
        p = 31
        sim = sim_with(k=4, s=128)
        global_est = plant_random_terms(sim, p, seed=2)
        seed, _ = distributed_choose_seed(
            sim, p, flat_term_estimator(p, "vt", "pt"), chunk_bits=6
        )
        assert (
            global_est.value(seed) * p * p >= global_est.expectation_x_p2()
        )


class TestDistributedScanSeeds:
    def test_finds_accepting_seed(self):
        p = 31
        sim = sim_with()
        sim.local(lambda m: m.store.__setitem__("ids", [m.mid * 3 + 1]))

        def local_stats(machine, seed):
            return (
                sum(1 for x in machine.store["ids"] if seed.hash(x) < p // 2),
            )

        seed, stats, scan = distributed_scan_seeds(
            sim,
            p,
            local_stats,
            stat_width=1,
            accept=lambda s: s[0] <= 2,
        )
        total = sum(
            1
            for m in sim.machines
            for x in m.store["ids"]
            if seed.hash(x) < p // 2
        )
        assert total == stats[0] <= 2
        assert scan.candidates_scanned >= 1

    def test_impossible_target_raises(self):
        p = 11
        sim = sim_with(k=3)
        sim.local(lambda m: m.store.__setitem__("ids", [m.mid]))

        def local_stats(machine, seed):
            return (1,)

        with pytest.raises(DerandomizationError):
            distributed_scan_seeds(
                sim,
                p,
                local_stats,
                stat_width=1,
                accept=lambda s: False,
                batch=4,
                max_batches=3,
            )

    def test_stat_width_validated(self):
        sim = sim_with(k=2)
        with pytest.raises(DerandomizationError):
            distributed_scan_seeds(
                sim,
                11,
                lambda m, s: (1, 2),
                stat_width=1,
                accept=lambda s: True,
            )

    def test_broadcasts_winner(self):
        p = 11
        sim = sim_with(k=3)
        seed, _, _ = distributed_scan_seeds(
            sim,
            p,
            lambda m, s: (0,),
            stat_width=1,
            accept=lambda s: True,
        )
        for m in sim.machines:
            assert m.store["_derand_seed"] == (seed.a, seed.b)


class TestMaxABatchExhaustion:
    """Stage 1 must fail loudly when the batch allowance runs out.

    The planted instance is a single pair term over GF(11) whose
    acceptance set starts at multiplier a=4: with x1=0, T1=2, x2=3,
    T2=2 the offset must land in [0,2) ∩ [(-3a) mod 11, (-3a) mod 11+2),
    which is empty for a ∈ {1, 2, 3}.  With chunk_bits=1 the scan works
    in batches of two multipliers, so batch one {1, 2} fails and batch
    two {3, 4} accepts.
    """

    def plant(self, sim):
        sim.machines[0].store["vt"] = []
        sim.machines[0].store["pt"] = [(0, 2, 3, 2, 1)]
        for machine in sim.machines[1:]:
            machine.store["vt"] = []
            machine.store["pt"] = []

    def test_exhaustion_raises(self):
        sim = sim_with(k=3)
        self.plant(sim)
        with pytest.raises(DerandomizationError, match="batches"):
            distributed_choose_seed(
                sim,
                11,
                flat_term_estimator(11, "vt", "pt"),
                chunk_bits=1,
                max_a_batches=1,
            )

    def test_one_more_batch_succeeds(self):
        sim = sim_with(k=3)
        self.plant(sim)
        seed, stats = distributed_choose_seed(
            sim,
            11,
            flat_term_estimator(11, "vt", "pt"),
            chunk_bits=1,
            max_a_batches=2,
        )
        assert stats.batches == 2
        assert seed.a == 4


class TestEstimatorCaching:
    def test_cache_on_off_bit_identical(self):
        """Caching may only skip rebuild work, never change the run."""
        outcomes = []
        for cached in (True, False):
            sim = sim_with()
            plant_random_terms(sim, 31, seed=4)
            seed, stats = distributed_choose_seed(
                sim,
                31,
                flat_term_estimator(31, "vt", "pt"),
                cache_estimators=cached,
            )
            outcomes.append((seed, stats, sim.metrics.summary()))
        assert outcomes[0] == outcomes[1]

    def test_memoized_builder_builds_once_per_machine(self):
        from repro.derand.seed_search import MemoizedEstimatorBuilder

        calls = []

        def builder(machine):
            calls.append(machine.mid)
            return ThresholdEstimator(31)

        sim = sim_with(k=3)
        memo = MemoizedEstimatorBuilder(builder)
        for _ in range(4):
            for machine in sim.machines:
                memo(machine)
        assert sorted(calls) == [0, 1, 2]
