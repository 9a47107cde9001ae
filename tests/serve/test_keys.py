"""Cache-key canonicalization: semantic fields in, everything else out."""

from repro.core import registry
from repro.core.registry import canonical_cache_params
from repro.graph import generators as gen
from repro.serve import BatchEngine, ResultCache, cache_key
from repro.serve import cache as cache_module

DET = registry.get_algorithm(registry.DET_RULING)
RAND = registry.get_algorithm(registry.RAND_RULING)
MATCH = registry.get_algorithm(registry.DET_MATCHING)


class TestCanonicalParams:
    def test_regimes_fragment(self):
        assert canonical_cache_params(
            DET, regime="sublinear"
        ) != canonical_cache_params(DET, regime="near-linear")

    def test_alpha_mem_fragments(self):
        assert canonical_cache_params(
            DET, alpha_mem=(2, 3)
        ) != canonical_cache_params(DET, alpha_mem=(1, 2))

    def test_seed_ignored_for_seedless(self):
        assert canonical_cache_params(
            DET, seed=0
        ) == canonical_cache_params(DET, seed=123)

    def test_seed_kept_for_seeded(self):
        assert canonical_cache_params(
            RAND, seed=0
        ) != canonical_cache_params(RAND, seed=123)

    def test_beta_alpha_dropped_for_matching(self):
        params = canonical_cache_params(MATCH, beta=3, alpha=4)
        assert "beta" not in params
        assert "alpha" not in params
        assert params == canonical_cache_params(MATCH, beta=2, alpha=2)

    def test_beta_alpha_kept_for_ruling_set(self):
        assert canonical_cache_params(
            DET, beta=2
        ) != canonical_cache_params(DET, beta=3)
        assert canonical_cache_params(
            DET, alpha=2
        ) != canonical_cache_params(DET, alpha=3)

    def test_json_safe(self):
        import json

        for spec in (DET, RAND, MATCH):
            params = canonical_cache_params(spec)
            assert json.loads(json.dumps(params)) == params


class TestCacheKey:
    def test_stable_across_calls(self):
        params = canonical_cache_params(DET)
        fp = gen.cycle_graph(16).fingerprint()
        assert cache_key(fp, params) == cache_key(fp, params)

    def test_is_hex_sha256(self):
        key = cache_key("fp", {"a": 1})
        assert len(key) == 64
        int(key, 16)

    def test_graph_content_fragments(self):
        params = canonical_cache_params(DET)
        a = gen.cycle_graph(16).fingerprint()
        b = gen.cycle_graph(17).fingerprint()
        assert cache_key(a, params) != cache_key(b, params)

    def test_params_fragment(self):
        fp = gen.cycle_graph(16).fingerprint()
        assert cache_key(
            fp, canonical_cache_params(DET, beta=2)
        ) != cache_key(fp, canonical_cache_params(DET, beta=3))

    def test_key_independent_of_dict_insertion_order(self):
        assert cache_key("fp", {"a": 1, "b": 2}) == cache_key(
            "fp", {"b": 2, "a": 1}
        )


class TestCacheFormat:
    def test_format_is_part_of_the_key(self, monkeypatch):
        params = canonical_cache_params(DET)
        current = cache_key("fp", params)
        monkeypatch.setattr(
            cache_module, "CACHE_FORMAT", cache_module.CACHE_FORMAT + 1
        )
        assert cache_key("fp", params) != current

    def test_entry_of_another_format_is_a_miss_and_re_solved(
        self, tmp_path, monkeypatch
    ):
        request = {
            "id": "r",
            "graph": {"family": "gnp", "n": 48, "param": 6},
            "algorithm": registry.DET_RULING,
        }
        monkeypatch.setattr(
            cache_module, "CACHE_FORMAT", cache_module.CACHE_FORMAT - 1
        )
        old = BatchEngine(ResultCache(disk_dir=tmp_path))
        (stale,) = old.run([dict(request)])
        assert stale["_serve"]["cache"] == "miss"
        assert old.cache.stats()["disk_entries"] == 1
        monkeypatch.undo()

        engine = BatchEngine(ResultCache(disk_dir=tmp_path))
        (fresh,) = engine.run([dict(request)])
        assert fresh["_serve"]["cache"] == "miss"
        assert fresh["key"] != stale["key"]
        assert engine.trace.counters["executed"] == 1
        assert engine.cache.stats()["disk_entries"] == 2
        strip = ("key", "_serve")
        assert {k: v for k, v in fresh.items() if k not in strip} == {
            k: v for k, v in stale.items() if k not in strip
        }
