"""MPC primitives vs sequential references, across machine counts."""

import pytest

from repro.mpc.config import MPCConfig
from repro.mpc.primitives import (
    exclusive_prefix_counts,
    reduce_scalar,
    reduce_vector,
)
from repro.mpc.primitives.broadcast import broadcast_value
from repro.mpc.simulator import Simulator


def sim_with(k, s=4096):
    return Simulator(MPCConfig(num_machines=k, memory_words=s))


class TestReduce:
    @pytest.mark.parametrize("k", [1, 2, 3, 8, 17])
    def test_sum_of_mids(self, k):
        sim = sim_with(k)
        total = reduce_scalar(sim, lambda m: m.mid, lambda a, b: a + b)
        assert total == k * (k - 1) // 2

    @pytest.mark.parametrize("k", [2, 7])
    def test_max(self, k):
        sim = sim_with(k)
        assert reduce_scalar(sim, lambda m: m.mid * 3, max) == 3 * (k - 1)

    def test_vector_elementwise(self):
        sim = sim_with(5)
        out = reduce_vector(
            sim,
            lambda m: (m.mid, 1),
            lambda a, b: (a[0] + b[0], a[1] + b[1]),
            width=2,
        )
        assert out == (10, 5)

    def test_small_memory_forces_tree(self):
        # With tiny memory the fanout drops and multiple rounds are needed.
        sim = sim_with(16, s=64)
        total = reduce_scalar(sim, lambda m: 1, lambda a, b: a + b)
        assert total == 16
        assert sim.metrics.rounds >= 1

    def test_width_mismatch_rejected(self):
        sim = sim_with(2)
        with pytest.raises(ValueError):
            reduce_vector(sim, lambda m: (1, 2), lambda a, b: a, width=3)

    def test_no_leftover_state(self):
        sim = sim_with(4)
        reduce_scalar(sim, lambda m: 1, lambda a, b: a + b)
        for m in sim.machines:
            assert "_prim_partial" not in m.store


class TestBroadcast:
    @pytest.mark.parametrize("k", [1, 2, 5, 16])
    def test_all_receive(self, k):
        sim = sim_with(k)
        broadcast_value(sim, (7, 8), "val")
        assert all(m.store["val"] == (7, 8) for m in sim.machines)

    def test_tree_when_memory_small(self):
        sim = sim_with(32, s=64)
        broadcast_value(sim, (9,), "val")
        assert all(m.store["val"] == (9,) for m in sim.machines)
        assert sim.metrics.rounds >= 2  # fanout limited: genuine tree


class TestShuffleAndPrefix:
    def test_prefix_counts(self):
        sim = sim_with(5)
        sim.local(lambda m: m.store.__setitem__("items", [0] * (m.mid + 1)))
        total = exclusive_prefix_counts(
            sim, lambda m: len(m.store["items"]), "offset"
        )
        assert total == 15
        assert [m.store["offset"] for m in sim.machines] == [0, 1, 3, 6, 10]
