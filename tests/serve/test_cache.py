"""ResultCache: tiers, eviction accounting, and bit-identical round-trips."""

import dataclasses

import pytest

from repro.core import registry
from repro.core.pipeline import solve_ruling_set
from repro.core.det_matching import solve_matching
from repro.errors import ServeError
from repro.graph import generators as gen
from repro.serve import (
    ResultCache,
    payload_to_result,
    result_to_payload,
)


def _payload(tag: int) -> dict:
    return {"tag": tag}


class TestRoundTrip:
    def test_ruling_set_result_bit_identical(self):
        # The acceptance criterion: a cache hit reconstructs a result
        # equal (dataclass ==, wall clock included) to the original.
        graph = gen.gnp_random_graph(96, 6, 96, seed=3)
        result = solve_ruling_set(graph, algorithm=registry.DET_RULING)
        cache = ResultCache()
        cache.put("k", result_to_payload(result))
        assert payload_to_result(cache.get("k")) == result

    def test_matching_result_bit_identical(self):
        graph = gen.random_tree(48, seed=5)
        result = solve_matching(graph)
        cache = ResultCache()
        cache.put("k", result_to_payload(result))
        restored = payload_to_result(cache.get("k"))
        assert restored == result
        # JSON turns tuples into lists; the restore must undo that, or
        # downstream verify calls break on unhashable edge types.
        assert all(isinstance(edge, tuple) for edge in restored.matching)

    def test_disk_round_trip_survives_process_boundary(self, tmp_path):
        graph = gen.cycle_graph(32)
        result = solve_ruling_set(graph, algorithm=registry.DET_LUBY)
        ResultCache(disk_dir=tmp_path).put("k", result_to_payload(result))
        fresh = ResultCache(disk_dir=tmp_path)  # simulates a new process
        assert payload_to_result(fresh.get("k")) == result

    @pytest.mark.parametrize("solve", [solve_ruling_set, solve_matching])
    def test_payload_keys_follow_the_result_fields(self, solve):
        # Every field but the trace is cached, plus the problem kind, so
        # a run-tail field added to RunResult cannot be dropped silently.
        result = solve(gen.cycle_graph(12))
        expected = {
            field.name for field in dataclasses.fields(result)
        } - {"trace"} | {"problem"}
        assert set(result_to_payload(result)) == expected

    def test_unknown_payload_rejected(self):
        with pytest.raises(ServeError):
            payload_to_result({"problem": "sudoku"})

    def test_uncacheable_object_rejected(self):
        with pytest.raises(ServeError):
            result_to_payload(object())


class TestMemoryTier:
    def test_hit_and_miss_counted(self):
        cache = ResultCache(memory_entries=4)
        assert cache.get("absent") is None
        cache.put("k", _payload(1))
        assert cache.get("k") == _payload(1)
        stats = cache.stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert stats["stores"] == 1

    def test_lru_eviction_counted_and_oldest_first(self):
        cache = ResultCache(memory_entries=2)
        cache.put("a", _payload(1))
        cache.put("b", _payload(2))
        cache.get("a")  # refresh: b is now least-recently-used
        cache.put("c", _payload(3))
        stats = cache.stats()
        assert stats["evictions"] == 1
        assert stats["memory_entries"] == 2
        assert cache.get("b") is None  # evicted
        assert cache.get("a") == _payload(1)  # survived the refresh

    def test_zero_memory_entries_disables_tier(self, tmp_path):
        cache = ResultCache(memory_entries=0, disk_dir=tmp_path)
        cache.put("k", _payload(1))
        assert cache.stats()["memory_entries"] == 0
        assert cache.get("k") == _payload(1)  # served from disk
        assert cache.stats()["disk_hits"] == 1

    def test_negative_memory_entries_rejected(self):
        with pytest.raises(ServeError):
            ResultCache(memory_entries=-1)

    def test_membership_is_neither_counted_nor_an_lru_touch(self):
        cache = ResultCache(memory_entries=2)
        cache.put("a", _payload(1))
        cache.put("b", _payload(2))
        assert "a" in cache and "absent" not in cache
        stats = cache.stats()
        assert stats["hits"] == 0 and stats["misses"] == 0
        cache.put("c", _payload(3))  # "a" is still least recently used
        assert "a" not in cache and "b" in cache

    def test_get_returns_fresh_copies(self):
        cache = ResultCache()
        cache.put("k", {"nested": {"x": 1}})
        cache.get("k")["nested"]["x"] = 99
        assert cache.get("k") == {"nested": {"x": 1}}


class TestDiskTier:
    def test_disk_hit_promotes_to_memory(self, tmp_path):
        ResultCache(disk_dir=tmp_path).put("k", _payload(1))
        cache = ResultCache(disk_dir=tmp_path)
        cache.get("k")
        assert cache.stats()["disk_hits"] == 1
        cache.get("k")
        assert cache.stats()["memory_hits"] == 1
        # Promotion is not a store: the entry was already persistent.
        assert cache.stats()["stores"] == 0

    def test_membership_sees_the_disk_tier(self, tmp_path):
        ResultCache(disk_dir=tmp_path).put("k", _payload(1))
        cache = ResultCache(disk_dir=tmp_path)
        assert "k" in cache and "other" not in cache
        assert cache.stats()["hits"] == 0
        assert cache.stats()["memory_entries"] == 0  # not promoted

    def test_clear_drops_both_tiers(self, tmp_path):
        cache = ResultCache(disk_dir=tmp_path)
        cache.put("a", _payload(1))
        cache.put("b", _payload(2))
        assert cache.clear() == 2
        assert cache.stats()["disk_entries"] == 0
        assert cache.get("a") is None

    def test_stats_counts_entries_and_bytes(self, tmp_path):
        cache = ResultCache(disk_dir=tmp_path)
        cache.put("aa11", _payload(1))
        cache.put("bb22", _payload(2))
        stats = cache.stats()
        assert stats["disk_entries"] == 2
        assert stats["disk_bytes"] > 0

    def test_memory_and_disk_hits_byte_identical(self, tmp_path):
        payload = {"members": [3, 1, 2], "metrics": {"z": 1, "a": 2}}
        cache = ResultCache(disk_dir=tmp_path)
        cache.put("k", payload)
        from_memory = cache.get("k")
        from_disk = ResultCache(disk_dir=tmp_path).get("k")
        assert from_memory == from_disk == payload


class TestConcurrentMutation:
    """Disk-tier accounting must tolerate files vanishing mid-walk."""

    def _populated(self, tmp_path, count=3):
        cache = ResultCache(memory_entries=0, disk_dir=tmp_path)
        for tag in range(count):
            cache.put(f"key-{tag}", _payload(tag))
        return cache

    def test_disk_bytes_with_vanishing_entries(self, tmp_path, monkeypatch):
        cache = self._populated(tmp_path)
        paths = cache._disk_objects()
        assert len(paths) == 3
        survivor_bytes = paths[0].stat().st_size

        original = type(paths[1]).stat
        doomed = {str(p) for p in paths[1:]}

        def racing_stat(self, **kwargs):
            # Simulate a concurrent `cache clear` deleting the entry
            # between the rglob walk and the stat call.
            if str(self) in doomed:
                raise FileNotFoundError(str(self))
            return original(self, **kwargs)

        monkeypatch.setattr(type(paths[1]), "stat", racing_stat)
        assert cache.disk_bytes() == survivor_bytes

    def test_clear_with_vanishing_entries(self, tmp_path, monkeypatch):
        cache = self._populated(tmp_path)
        paths = cache._disk_objects()
        doomed = {str(paths[0])}
        original = type(paths[0]).unlink

        def racing_unlink(self, **kwargs):
            if str(self) in doomed:
                raise FileNotFoundError(str(self))
            return original(self, **kwargs)

        monkeypatch.setattr(type(paths[0]), "unlink", racing_unlink)
        # The racer "deleted" one entry first: clear removes the other
        # two and reports only what it actually deleted.
        assert cache.clear() == 2

    def test_counts_after_whole_tree_vanishes(self, tmp_path):
        import shutil

        cache = self._populated(tmp_path)
        shutil.rmtree(tmp_path / "objects")
        assert cache.disk_entries() == 0
        assert cache.disk_bytes() == 0
        assert cache.clear() == 0
        stats = cache.stats()
        assert stats["disk_entries"] == 0
        assert stats["disk_bytes"] == 0
