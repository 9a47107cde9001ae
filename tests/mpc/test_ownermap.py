"""Owner maps as an input-validation boundary: properties + hostile input.

The serialized metadata travels between machines (and now to disk, via
the streaming ingest), so round-trips must be exact for every map and
every size, and malformed payloads must raise :class:`MPCConfigError` —
never ``IndexError``/``TypeError`` escaping from the parser.
"""

from itertools import accumulate

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.errors import MPCConfigError
from repro.graph.generators import star_graph
from repro.graph.partition import plan_from_owner_map
from repro.mpc.ownermap import (
    HashOwnerMap,
    ModOwnerMap,
    RangeOwnerMap,
    balanced_range_map,
    deserialize_owner_map,
    edge_id,
)

sizes = st.tuples(st.integers(0, 200), st.integers(1, 40))


class TestRoundTrip:
    @settings(max_examples=60)
    @given(sizes)
    def test_mod_roundtrip(self, nk):
        n, k = nk
        owner_map = ModOwnerMap(n, k)
        restored = deserialize_owner_map(owner_map.serialize())
        assert restored == owner_map
        for v in range(n):
            assert restored.owner_of(v) == owner_map.owner_of(v)

    @settings(max_examples=60)
    @given(sizes, st.integers(0, 2**32))
    def test_hash_roundtrip(self, nk, seed):
        n, k = nk
        owner_map = HashOwnerMap(n, k, seed=seed)
        restored = deserialize_owner_map(owner_map.serialize())
        assert restored == owner_map

    @settings(max_examples=60)
    @given(st.lists(st.integers(0, 50), min_size=1, max_size=8))
    def test_range_roundtrip(self, increments):
        bounds = [0]
        for step in increments:
            bounds.append(bounds[-1] + step)
        owner_map = RangeOwnerMap(tuple(bounds))
        restored = deserialize_owner_map(owner_map.serialize())
        assert restored == owner_map

    @settings(max_examples=60)
    @given(sizes, st.integers(0, 2**16))
    def test_partition_is_exact(self, nk, seed):
        # Every vertex owned exactly once, by a machine in range — for
        # every map kind at every size, including k = 1 and k > n.
        n, k = nk
        for owner_map in (
            ModOwnerMap(n, k),
            HashOwnerMap(n, k, seed=seed),
        ):
            owned = sorted(
                v for m in range(k) for v in owner_map.owned_by(m)
            )
            assert owned == list(range(n))
            for v in range(n):
                assert 0 <= owner_map.owner_of(v) < k


def range_maps():
    """Range maps with repeated bounds (empty machines) and n = 0."""
    return st.lists(st.integers(0, 50), min_size=1, max_size=8).map(
        lambda steps: RangeOwnerMap(tuple(accumulate(steps, initial=0)))
    )


def all_maps():
    """Every map kind, at sizes including n = 0, k = 1 and k > n."""
    return st.one_of(
        range_maps(),
        sizes.map(lambda nk: ModOwnerMap(*nk)),
        st.tuples(sizes, st.integers(0, 2**32)).map(
            lambda t: HashOwnerMap(*t[0], seed=t[1])
        ),
    )


class TestOwnerTable:
    """``owners`` is a driver-side memo of ``owner_of``, not metadata."""

    @settings(max_examples=80)
    @given(all_maps())
    @example(RangeOwnerMap((0, 0, 0)))
    @example(RangeOwnerMap((0, 3, 3, 3, 7)))
    @example(ModOwnerMap(0, 3))
    @example(HashOwnerMap(0, 1))
    @example(ModOwnerMap(3, 50))
    @example(HashOwnerMap(3, 50, seed=9))
    def test_table_equals_owner_of(self, owner_map):
        owners = owner_map.owners
        assert len(owners) == owner_map.num_vertices
        assert list(owners) == [
            owner_map.owner_of(v) for v in range(owner_map.num_vertices)
        ]
        for machine in range(owner_map.num_machines):
            assert [v for v, m in enumerate(owners) if m == machine] == list(
                owner_map.owned_by(machine)
            )

    @settings(max_examples=60)
    @given(all_maps())
    def test_table_leaves_the_metadata_alone(self, owner_map):
        serialized = owner_map.serialize()
        key = hash(owner_map)
        owner_map.owners
        assert owner_map.serialize() == serialized
        assert hash(owner_map) == key
        restored = deserialize_owner_map(serialized)
        assert restored == owner_map
        assert restored.owners == owner_map.owners

    @settings(max_examples=30)
    @given(all_maps())
    def test_built_once(self, owner_map):
        assert owner_map.owners is owner_map.owners

    @settings(max_examples=60)
    @given(all_maps())
    def test_owner_of_still_checks_its_range(self, owner_map):
        owner_map.owners
        for v in (-1, owner_map.num_vertices):
            with pytest.raises(MPCConfigError, match="out of range"):
                owner_map.owner_of(v)


class TestDegenerateSizes:
    @pytest.mark.parametrize("cls", [ModOwnerMap, HashOwnerMap])
    def test_single_machine_owns_everything(self, cls):
        owner_map = cls(10, 1)
        assert list(owner_map.owned_by(0)) == list(range(10))

    @pytest.mark.parametrize("cls", [ModOwnerMap, HashOwnerMap])
    def test_more_machines_than_vertices(self, cls):
        owner_map = cls(3, 50)
        owned = sorted(v for m in range(50) for v in owner_map.owned_by(m))
        assert owned == [0, 1, 2]

    @pytest.mark.parametrize("cls", [ModOwnerMap, HashOwnerMap])
    def test_zero_machines_rejected(self, cls):
        with pytest.raises(MPCConfigError, match="num_machines"):
            cls(10, 0)

    @pytest.mark.parametrize("cls", [ModOwnerMap, HashOwnerMap])
    def test_negative_vertex_count_rejected(self, cls):
        with pytest.raises(MPCConfigError, match="num_vertices"):
            cls(-1, 2)

    def test_empty_vertex_set(self):
        owner_map = ModOwnerMap(0, 3)
        assert list(owner_map.owned_by(0)) == []
        with pytest.raises(MPCConfigError):
            owner_map.owner_of(0)


class TestBalanceOnSkewedDegrees:
    def test_star_graph_load_bound(self):
        # One hub of degree n-1: the balanced range map must still honor
        # its load bound total/k + (Δ + 1) — the hub cannot drag a pile
        # of leaves onto its machine.
        graph = star_graph(101)
        k = 5
        owner_map = balanced_range_map(graph, k)
        plan = plan_from_owner_map(owner_map)
        loads = plan.machine_loads(graph)
        total = 2 * graph.num_edges + graph.num_vertices
        bound = total // k + graph.max_degree() + 1
        assert max(loads) <= bound

    def test_plan_matches_owner_map(self):
        graph = star_graph(40)
        owner_map = balanced_range_map(graph, 4)
        plan = plan_from_owner_map(owner_map)
        assert plan.num_machines == owner_map.num_machines
        for v in graph.vertices():
            assert plan.owner[v] == owner_map.owner_of(v)


class TestEdgeIds:
    @settings(max_examples=100)
    @given(st.integers(0, 2**40), st.integers(0, 2**40))
    def test_symmetric(self, u, v):
        assert edge_id(u, v) == edge_id(v, u)
        assert 0 <= edge_id(u, v) < 2**64

    def test_distinct_edges_distinct_ids(self):
        seen = {}
        for u in range(40):
            for v in range(u + 1, 40):
                eid = edge_id(u, v)
                assert eid not in seen, (seen.get(eid), (u, v))
                seen[eid] = (u, v)

    def test_negative_endpoint_rejected(self):
        with pytest.raises(MPCConfigError, match="out of range"):
            edge_id(-1, 3)


class TestHostilePayloads:
    @pytest.mark.parametrize(
        "payload",
        [
            (),
            [],
            None,
            42,
            "mod",
            (99, 1, 2),          # unknown kind
            (1, 4),              # mod: missing field
            (1, 4, 2, 9),        # mod: extra field
            (2, 4, 2),           # hash: missing seed
            (2, 4, 2, 0, 0),     # hash: extra field
            (0,),                # range: no bounds
            (0, 0),              # range: single bound
            (1, 4, 0),           # mod: zero machines
            (1, -1, 2),          # mod: negative n
            (0, 1, 2, 3),        # range: bounds not starting at 0
            (0, 0, 5, 3),        # range: decreasing bounds
            (1, "4", 2),         # stringly-typed field
            (1, 4.0, 2),         # float field
            (1, True, 2),        # bool is not an int here
        ],
    )
    def test_rejected_with_config_error(self, payload):
        with pytest.raises(MPCConfigError):
            deserialize_owner_map(payload)

    def test_list_payload_accepted(self):
        # Lists are fine (JSON round-trips produce them) — only the
        # contents are validated.
        restored = deserialize_owner_map([1, 6, 2])
        assert restored == ModOwnerMap(6, 2)
