"""ViewCache mechanics: LRU byte budget, stats, footprints, clear."""

import numpy as np
import pytest

from repro.engine.interpreter import ViewData
from repro.engine.viewcache.cache import ViewCache, view_nbytes
from repro.engine.viewcache.signature import ViewSignature


def view(n_rows=4, value=1.0):
    return ViewData(
        ("g",),
        [np.arange(n_rows)],
        np.full((1, n_rows), float(value)),
    )


def sig(digest, relations=("R",), cacheable=True):
    return ViewSignature(
        digest=digest,
        relations=frozenset(relations),
        cacheable=cacheable,
    )


class TestGetPut:
    def test_miss_then_hit(self):
        cache = ViewCache()
        assert cache.get("a") is None
        assert cache.put(sig("a"), view())
        got = cache.get("a")
        assert got is not None and got.sums[0][0] == 1.0
        assert cache.stats().hits == 1
        assert cache.stats().misses == 1
        assert cache.stats().puts == 1

    def test_uncacheable_signature_rejected(self):
        cache = ViewCache()
        assert not cache.put(sig("a", cacheable=False), view())
        assert "a" not in cache

    def test_oversized_view_rejected(self):
        small = ViewCache(budget_bytes=64)
        assert not small.put(sig("a"), view(n_rows=1000))
        assert small.stats().rejects == 1
        assert len(small) == 0

    def test_peek_does_not_touch_stats(self):
        cache = ViewCache()
        cache.put(sig("a"), view())
        assert cache.peek("a") is not None
        assert cache.peek("b") is None
        assert cache.stats().hits == 0 and cache.stats().misses == 0


class TestLruBudget:
    def test_lru_evicts_oldest_first(self):
        one = view_nbytes(view())
        cache = ViewCache(budget_bytes=2 * one)
        cache.put(sig("a"), view())
        cache.put(sig("b"), view())
        cache.get("a")  # a is now most recently used
        cache.put(sig("c"), view())
        assert "b" not in cache, "LRU victim should be b"
        assert "a" in cache and "c" in cache
        assert cache.stats().evictions == 1

    def test_total_bytes_tracks_contents(self):
        cache = ViewCache()
        cache.put(sig("a"), view(n_rows=8))
        cache.put(sig("b"), view(n_rows=8))
        assert cache.total_bytes == 2 * view_nbytes(view(n_rows=8))
        cache.clear()
        assert cache.total_bytes == 0

    def test_overwrite_same_digest_replaces_bytes(self):
        cache = ViewCache()
        cache.put(sig("a"), view(n_rows=4))
        cache.put(sig("a"), view(n_rows=16))
        assert len(cache) == 1
        assert cache.total_bytes == view_nbytes(view(n_rows=16))


class TestFootprint:
    def test_entries_containing(self):
        cache = ViewCache()
        cache.put(sig("a", relations=("R", "S")), view())
        cache.put(sig("b", relations=("T",)), view())
        assert cache.entries_containing("R") == ["a"]
        assert cache.entries_containing("T") == ["b"]
        assert cache.entries_containing("X") == []

    def test_clear(self):
        cache = ViewCache()
        cache.put(sig("a"), view())
        cache.clear()
        assert len(cache) == 0 and cache.total_bytes == 0


class TestValidation:
    def test_budget_must_be_positive(self):
        with pytest.raises(ValueError, match="positive"):
            ViewCache(budget_bytes=0)


class TestResultsDoNotAliasTheCache:
    def test_a_write_into_a_result_raises_and_the_next_run_holds(
        self, tiny_favorita
    ):
        """A result's key columns and single-term sums are the cached
        views' own arrays; a caller's write must raise, not change what
        the next run answers."""
        from repro import LMFAO
        from repro.workloads import build

        ds = tiny_favorita
        engine = LMFAO(ds.database, ds.join_tree, view_cache=ViewCache())
        batch = build(ds, "covar")
        first = engine.run(batch)
        before = {
            (name, column): np.array(relation.column(column))
            for name, relation in first.items()
            for column in relation.schema.names
        }
        for name, column in before:
            with pytest.raises(ValueError, match="read-only"):
                first[name].column(column)[0] += 1000
        again = engine.run(batch)
        assert again.cache_report.n_misses == 0  # served from the cache
        for (name, column), want in before.items():
            np.testing.assert_array_equal(again[name].column(column), want)

    def test_without_a_cache_results_stay_writable(self, tiny_favorita):
        """Without a cache the views die with the run: nothing to guard."""
        from repro import LMFAO
        from repro.workloads import build

        ds = tiny_favorita
        engine = LMFAO(ds.database, ds.join_tree)
        result = engine.run(build(ds, "covar"))
        for relation in result.values():
            for column in relation.schema.names:
                assert relation.column(column).flags.writeable
