"""Kernel selection contract and the flat CSR machine-state views."""

import pytest

from repro.derand.family import Seed
from repro.errors import MPCConfigError
from repro.mpc.config import MPCConfig
from repro.mpc.state_layout import (
    BoundedCache,
    KERNEL_ENV,
    KERNEL_NUMPY,
    KERNEL_PYTHON,
    MAX_VECTOR_MODULUS,
    MachineCSR,
    NO_NUMPY_ENV,
    flatten_groups,
    hash_ids,
    kernel_of,
    numpy_available,
    numpy_or_none,
    resolve_kernel,
    supports_modulus,
)

if not numpy_available():
    pytest.skip(
        "numpy kernel unavailable (missing or REPRO_NO_NUMPY)",
        allow_module_level=True,
    )
np = pytest.importorskip("numpy")


class TestResolution:
    def test_default_is_python(self, monkeypatch):
        monkeypatch.delenv(KERNEL_ENV, raising=False)
        assert resolve_kernel(None) == KERNEL_PYTHON

    def test_explicit_wins_over_env(self, monkeypatch):
        monkeypatch.setenv(KERNEL_ENV, KERNEL_NUMPY)
        assert resolve_kernel(KERNEL_PYTHON) == KERNEL_PYTHON

    def test_env_consulted_when_unset(self, monkeypatch):
        monkeypatch.setenv(KERNEL_ENV, KERNEL_NUMPY)
        assert resolve_kernel(None) == KERNEL_NUMPY

    def test_unknown_name_raises(self):
        with pytest.raises(MPCConfigError, match="unknown kernel"):
            resolve_kernel("cuda")

    def test_unknown_env_value_raises(self, monkeypatch):
        monkeypatch.setenv(KERNEL_ENV, "fortran")
        with pytest.raises(MPCConfigError, match="unknown kernel"):
            resolve_kernel(None)

    def test_numpy_without_numpy_raises(self, monkeypatch):
        monkeypatch.setenv(NO_NUMPY_ENV, "1")
        assert not numpy_available()
        assert numpy_or_none() is None
        with pytest.raises(MPCConfigError, match="NumPy is not importable"):
            resolve_kernel(KERNEL_NUMPY)
        monkeypatch.setenv(KERNEL_ENV, KERNEL_NUMPY)
        with pytest.raises(MPCConfigError, match="NumPy is not importable"):
            resolve_kernel(None)
        assert resolve_kernel(KERNEL_PYTHON) == KERNEL_PYTHON

    def test_kernel_of_reads_config(self, monkeypatch):
        monkeypatch.delenv(KERNEL_ENV, raising=False)
        cfg = MPCConfig(num_machines=2, memory_words=1024, kernel="numpy")

        class FakeSim:
            config = cfg

        assert kernel_of(FakeSim()) == KERNEL_NUMPY
        assert kernel_of(
            type("S", (), {"config": cfg.with_kernel(None)})()
        ) == KERNEL_PYTHON

    def test_config_rejects_unknown_kernel(self):
        with pytest.raises(MPCConfigError, match="unknown kernel"):
            MPCConfig(num_machines=2, memory_words=1024, kernel="gpu")

    def test_supports_modulus_bounds(self):
        assert supports_modulus(2)
        assert supports_modulus(MAX_VECTOR_MODULUS)
        assert not supports_modulus(MAX_VECTOR_MODULUS + 1)
        assert not supports_modulus(1)


class TestHashIds:
    def test_matches_seed_hash_at_large_modulus(self):
        # The Mersenne prime 2^31 - 1: the largest-practical field the
        # int64 product guard admits; exactness must hold right at it.
        p = (1 << 31) - 1
        assert supports_modulus(p)
        seed = Seed(a=p - 3, b=p - 11, p=p)
        ids = [0, 1, 2, p // 2, p - 2, p - 1]
        out = hash_ids(
            np, np.array(ids, dtype=np.int64), seed.a, seed.b, p
        )
        assert out.tolist() == [seed.hash(x) for x in ids]


class TestMachineCSR:
    def _reference(self, adj, seed, threshold):
        sampled = {
            v: tuple(u for u in nbrs if seed.hash(u) < threshold)
            for v, nbrs in adj.items()
            if seed.hash(v) < threshold
        }
        return sampled

    def test_row_order_is_insertion_order(self):
        adj = {5: (1, 9), 1: (), 9: (5,)}
        csr = MachineCSR.from_adjacency(adj, np)
        assert csr.ids.tolist() == [5, 1, 9]
        assert csr.degrees.tolist() == [2, 0, 1]
        assert csr.indices.tolist() == [1, 9, 5]
        assert csr.id_to_index == {5: 0, 1: 1, 9: 2}

    def test_empty_adjacency(self):
        csr = MachineCSR.from_adjacency({}, np)
        assert csr.num_vertices == 0
        seed = Seed(a=3, b=4, p=11)
        assert csr.sampled_subgraph(seed, 5) == {}
        assert csr.row_any(csr.hash_indices(seed) < 5).tolist() == []

    def test_isolated_vertices_report_no_coverage(self):
        adj = {0: (), 3: (7,), 7: (3,)}
        csr = MachineCSR.from_adjacency(adj, np)
        seed = Seed(a=1, b=0, p=13)
        covered = csr.row_any(csr.hash_indices(seed) < 13)
        # Every neighbour hashes below p, but the isolated row has no
        # neighbours at all — reduceat's empty-row hazard.
        assert covered.tolist() == [False, True, True]

    def test_sampled_subgraph_matches_reference(self):
        p = 101
        adj = {
            v: tuple(u for u in range(0, 40, 3) if u != v)
            for v in range(0, 40, 2)
        }
        for a, b in [(1, 0), (17, 55), (100, 3)]:
            seed = Seed(a=a, b=b, p=p)
            for threshold in (0, 1, 37, p):
                got = MachineCSR.from_adjacency(adj, np).sampled_subgraph(
                    seed, threshold
                )
                want = self._reference(adj, seed, threshold)
                assert got == want
                assert list(got) == list(want)  # same insertion order
                assert all(
                    type(v) is int for v in got
                ) and all(
                    type(u) is int for us in got.values() for u in us
                )

    def test_single_vertex(self):
        csr = MachineCSR.from_adjacency({4: ()}, np)
        seed = Seed(a=2, b=1, p=7)
        assert csr.hash_ids(seed).tolist() == [seed.hash(4)]
        assert csr.sampled_subgraph(seed, 7) == {4: ()}


class TestFlattenGroups:
    def test_roundtrip(self):
        groups = [(3, 1), (), (2,), (9, 9, 9)]
        indptr, values = flatten_groups(groups, np)
        assert indptr.tolist() == [0, 2, 2, 3, 6]
        assert values.tolist() == [3, 1, 2, 9, 9, 9]

    def test_empty(self):
        indptr, values = flatten_groups([], np)
        assert indptr.tolist() == [0]
        assert values.tolist() == []


class TestBoundedCache:
    def test_unbounded_by_default(self):
        cache = BoundedCache(None)
        for i in range(100):
            cache.put(i, i * 2)
        assert len(cache) == 100
        assert cache.get(0) == 0

    def test_lru_eviction(self):
        cache = BoundedCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh a: b is now oldest
        cache.put("c", 3)
        assert cache.get("b") is None
        assert cache.get("a") == 1
        assert cache.get("c") == 3
        assert len(cache) == 2

    def test_put_refreshes_recency(self):
        cache = BoundedCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)
        cache.put("c", 3)
        assert cache.get("b") is None
        assert cache.get("a") == 10

    def test_zero_capacity_rejected(self):
        with pytest.raises(MPCConfigError):
            BoundedCache(0)
