"""Tests for machine partitions (plans and compact owner maps)."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import MPCConfigError
from repro.graph import generators as gen
from repro.graph.partition import PartitionPlan, balanced_edge_partition
from repro.mpc.ownermap import (
    HashOwnerMap,
    ModOwnerMap,
    RangeOwnerMap,
    balanced_range_map,
    deserialize_owner_map,
)


class TestPartitionPlan:
    def test_validation(self):
        with pytest.raises(MPCConfigError):
            PartitionPlan(owner=[0, 5], num_machines=2)
        with pytest.raises(MPCConfigError):
            PartitionPlan(owner=[], num_machines=0)

    def test_vertices_of(self):
        plan = PartitionPlan(owner=[0, 1, 0], num_machines=2)
        assert plan.vertices_of(0) == [0, 2]
        assert plan.vertices_of(1) == [1]

    def test_loads(self, path4):
        plan = balanced_edge_partition(path4, 2)
        loads = plan.machine_loads(path4)
        assert sum(loads) == 2 * path4.num_edges


class TestBalancedPartition:
    @given(st.integers(1, 8), st.integers(5, 60))
    def test_balance_bound(self, k, n):
        g = gen.gnp_random_graph(n, 1, 4, seed=n)
        plan = balanced_edge_partition(g, k)
        total = 2 * g.num_edges + n
        loads = [
            sum(g.degree(v) + 1 for v in plan.vertices_of(m))
            for m in range(k)
        ]
        assert sum(loads) == total
        assert max(loads) <= total // k + g.max_degree() + 2

    def test_contiguous(self, small_er):
        plan = balanced_edge_partition(small_er, 4)
        assert plan.owner == sorted(plan.owner)


class TestOwnerMaps:
    def test_range_map_matches_plan(self, small_er):
        k = 5
        owner_map = balanced_range_map(small_er, k)
        plan = balanced_edge_partition(small_er, k)
        for v in small_er.vertices():
            assert owner_map.owner_of(v) == plan.owner[v]

    def test_range_owned_by(self):
        owner_map = RangeOwnerMap((0, 2, 5))
        assert list(owner_map.owned_by(0)) == [0, 1]
        assert list(owner_map.owned_by(1)) == [2, 3, 4]

    def test_range_validation(self):
        with pytest.raises(MPCConfigError):
            RangeOwnerMap((1, 2))
        with pytest.raises(MPCConfigError):
            RangeOwnerMap((0, 3, 2))

    def test_mod_map(self):
        owner_map = ModOwnerMap(num_vertices=7, num_machines=3)
        assert owner_map.owner_of(5) == 2
        assert list(owner_map.owned_by(1)) == [1, 4]

    def test_hash_map_in_range(self):
        owner_map = HashOwnerMap(num_vertices=50, num_machines=7, seed=3)
        for v in range(50):
            assert 0 <= owner_map.owner_of(v) < 7

    def test_hash_map_partition(self):
        owner_map = HashOwnerMap(num_vertices=30, num_machines=4, seed=1)
        owned = sorted(v for m in range(4) for v in owner_map.owned_by(m))
        assert owned == list(range(30))

    @pytest.mark.parametrize("factory", [
        lambda: RangeOwnerMap((0, 3, 8)),
        lambda: ModOwnerMap(num_vertices=8, num_machines=3),
        lambda: HashOwnerMap(num_vertices=8, num_machines=3, seed=5),
    ])
    def test_serialize_roundtrip(self, factory):
        owner_map = factory()
        restored = deserialize_owner_map(owner_map.serialize())
        for v in range(8):
            assert restored.owner_of(v) == owner_map.owner_of(v)

    def test_out_of_range_rejected(self):
        owner_map = ModOwnerMap(num_vertices=4, num_machines=2)
        with pytest.raises(MPCConfigError):
            owner_map.owner_of(4)

