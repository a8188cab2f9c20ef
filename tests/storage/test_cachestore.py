"""Persistent view-cache tier: spill, warm load, corruption = miss."""

import hashlib
import os

import numpy as np
import pytest

from repro import CacheStore
from repro.engine.interpreter import ViewData
from repro.engine.viewcache.cache import ViewCache
from repro.engine.viewcache.signature import ViewSignature
from repro.storage import codec


def digest_of(text):
    return hashlib.sha256(text.encode()).hexdigest()


def keyed_view(n=5, with_count=False):
    """A keyed view; ``with_count`` names its second row its COUNT."""
    return ViewData(
        group_by=("store", "city"),
        key_cols=[
            np.arange(n, dtype=np.int64),
            np.arange(n, dtype=np.int64) % 3,
        ],
        sums=np.array([np.linspace(1, 2, n), np.full(n, 7.0)]),
        count=1 if with_count else None,
    )


def wide_view(n=6, n_aggs=5):
    """A keyed view with several aggregates, the last its COUNT."""
    rng = np.random.default_rng(3)
    return ViewData(
        group_by=("store",),
        key_cols=[np.arange(n, dtype=np.int64) * 7],
        sums=np.vstack(
            [
                rng.normal(size=(n_aggs - 1, n)),
                rng.integers(1, 5, n).astype(np.float64),
            ]
        ),
        count=n_aggs - 1,
    )


def scalar_view():
    return ViewData(
        group_by=(),
        key_cols=[],
        sums=np.array([[42.0]]),
    )


def aggless_scalar_view():
    return ViewData(group_by=(), key_cols=[], sums=np.empty((0, 1)))


def sig_for(name, relations=("Sales",), cacheable=True):
    return ViewSignature(
        digest=digest_of(name),
        relations=frozenset(relations),
        cacheable=cacheable,
    )


@pytest.fixture()
def store(tmp_path):
    return CacheStore(str(tmp_path / "cache"))


class TestRoundTrip:
    @pytest.mark.parametrize(
        "view",
        [
            keyed_view(),
            keyed_view(with_count=True),
            wide_view(),
            scalar_view(),
            aggless_scalar_view(),
        ],
        ids=["keyed", "with-count", "wide", "scalar", "aggless-scalar"],
    )
    def test_save_load_bit_exact(self, store, view):
        sig = sig_for("v1", relations=("Sales", "Stores"))
        assert store.save(sig, view)
        loaded = store.load(sig.digest)
        assert loaded is not None
        got_sig, got = loaded
        assert got_sig.digest == sig.digest
        assert got_sig.relations == sig.relations
        assert got_sig.cacheable
        assert got.group_by == view.group_by
        for mine, theirs in zip(view.key_cols, got.key_cols):
            np.testing.assert_array_equal(mine, theirs)
            assert mine.dtype == theirs.dtype
        assert got.sums.shape == view.sums.shape
        assert got.sums.dtype == np.float64
        assert got.sums.flags.c_contiguous
        np.testing.assert_array_equal(view.sums, got.sums)
        assert got.count == view.count

    def test_loaded_arrays_are_writable(self, store):
        """The cache merges into loaded views; frombuffer views are
        read-only, so the store must hand back owned copies."""
        sig = sig_for("v1")
        store.save(sig, keyed_view())
        _, got = store.load(sig.digest)
        got.sums[0][0] = 99.0  # must not raise

    def test_uncacheable_signature_never_persisted(self, store):
        sig = sig_for("v1", cacheable=False)
        assert not store.save(sig, keyed_view())
        assert store.stats()["entries"] == 0

    def test_missing_digest_is_a_miss(self, store):
        assert store.load(digest_of("nope")) is None

    def test_bad_digest_string_is_a_miss(self, store):
        assert store.load("../../etc/passwd") is None
        assert store.load("") is None


class TestCorruption:
    def corrupt(self, store, digest, mutate):
        path = store._path(digest)
        with open(path, "r+b") as handle:
            raw = bytearray(handle.read())
            mutate(raw)
            handle.seek(0)
            handle.truncate()
            handle.write(bytes(raw))

    def test_flipped_byte_is_a_miss_and_removed(self, store):
        sig = sig_for("v1")
        store.save(sig, keyed_view())

        def flip(raw):
            raw[len(raw) // 2] ^= 0xFF

        self.corrupt(store, sig.digest, flip)
        assert store.load(sig.digest) is None
        assert store.stats()["entries"] == 0  # the bad file is gone
        assert store.stats()["load_failures"] == 1

    def test_truncated_file_is_a_miss(self, store):
        sig = sig_for("v1")
        store.save(sig, keyed_view())
        self.corrupt(store, sig.digest, lambda raw: raw.__delitem__(
            slice(len(raw) - 16, None)
        ))
        assert store.load(sig.digest) is None

    def test_digest_mismatch_is_a_miss(self, store, tmp_path):
        """A file renamed to the wrong digest must not serve."""
        sig = sig_for("v1")
        store.save(sig, keyed_view())
        os.rename(
            store._path(sig.digest), store._path(digest_of("other"))
        )
        assert store.load(digest_of("other")) is None

    def test_empty_file_is_a_miss(self, store):
        sig = sig_for("v1")
        store.save(sig, keyed_view())
        with open(store._path(sig.digest), "wb"):
            pass
        assert store.load(sig.digest) is None

    def write_record(self, store, digest, magic, header, columns):
        path = store._path(digest)
        with open(path, "wb") as handle:
            codec.write(handle, codec.encode(magic, header, columns))
        return path

    def test_sums_block_of_the_wrong_size_is_a_miss(self, store):
        """A well-framed record whose block is not n_aggs x n_rows."""
        sig = sig_for("v1")
        view = keyed_view(n=5)
        header = {
            "digest": sig.digest,
            "relations": ["Sales"],
            "group_by": list(view.group_by),
            "n_aggs": 3,  # the block holds 2 x 5
            "count": None,
        }
        path = self.write_record(
            store, sig.digest, b"RVC3", header, view.key_cols + [view.sums]
        )
        assert store.load(sig.digest) is None
        assert not os.path.exists(path)

    def test_count_naming_no_row_of_the_block_is_a_miss(self, store):
        """A well-framed record whose ``count`` is past its 2 rows."""
        sig = sig_for("v1")
        view = keyed_view(n=5)
        header = {
            "digest": sig.digest,
            "relations": ["Sales"],
            "group_by": list(view.group_by),
            "n_aggs": 2,
            "count": 2,
        }
        path = self.write_record(
            store, sig.digest, b"RVC3", header, view.key_cols + [view.sums]
        )
        assert store.load(sig.digest) is None
        assert not os.path.exists(path)

    def test_key_columns_of_unequal_length_are_a_miss(self, store):
        """The first key column and the block agree on 5 rows; the
        second key column holds 4."""
        sig = sig_for("v1")
        view = keyed_view(n=5)
        header = {
            "digest": sig.digest,
            "relations": ["Sales"],
            "group_by": list(view.group_by),
            "n_aggs": 2,
            "count": None,
        }
        keys = [view.key_cols[0], view.key_cols[1][:4]]
        path = self.write_record(
            store, sig.digest, b"RVC3", header, keys + [view.sums]
        )
        assert store.load(sig.digest) is None
        assert not os.path.exists(path)

    @pytest.mark.parametrize("magic", [b"RVC1", b"RVC2"])
    def test_old_record_versions_are_a_miss(self, store, magic):
        """Neither the column-per-aggregate layout of the first record
        version nor the second's context-row support column is read: a
        multiplicity delta merged into a context-row support could
        retire a live key."""
        sig = sig_for("v1")
        view = keyed_view(n=5)
        header = {
            "digest": sig.digest,
            "relations": ["Sales"],
            "group_by": list(view.group_by),
            "n_aggs": 2,
            "support": magic == b"RVC2",
        }
        columns = (
            list(view.sums) if magic == b"RVC1" else [view.sums, np.ones(5)]
        )
        path = self.write_record(
            store, sig.digest, magic, header, view.key_cols + columns
        )
        assert store.load(sig.digest) is None
        assert not os.path.exists(path)


class TestBudget:
    def test_prune_removes_oldest_first(self, tmp_path):
        import time

        store = CacheStore(str(tmp_path / "cache"), budget_bytes=1)
        old_sig, new_sig = sig_for("old"), sig_for("new")
        # budget checks run inside save; write both, backdate one, prune
        store.budget_bytes = None
        store.save(old_sig, keyed_view())
        store.save(new_sig, keyed_view())
        past = time.time() - 3600
        os.utime(store._path(old_sig.digest), (past, past))
        single = os.path.getsize(store._path(new_sig.digest))
        # two files over budget, one file under the 90% prune target
        store.budget_bytes = 2 * single - 1
        store.prune()
        assert store.load(old_sig.digest) is None
        assert store.load(new_sig.digest) is not None

    def test_stats_report(self, store):
        sig = sig_for("v1")
        store.save(sig, keyed_view())
        store.load(sig.digest)
        stats = store.stats()
        assert stats["saves"] == 1
        assert stats["loads"] == 1
        assert stats["entries"] == 1
        assert stats["spilled_bytes"] > 0


class TestViewCacheSecondTier:
    def test_warm_hit_across_cache_instances(self, tmp_path):
        store = CacheStore(str(tmp_path / "cache"))
        first = ViewCache(budget_bytes=1 << 20, store=store)
        sig = sig_for("v1")
        view = keyed_view()
        assert first.put(sig, view)
        assert first.stats().spills == 1

        # a "restarted process": fresh in-memory cache, same store
        second = ViewCache(budget_bytes=1 << 20, store=store)
        got = second.get(sig.digest)
        assert got is not None
        np.testing.assert_array_equal(
            got.sums, view.sums
        )
        stats = second.stats()
        assert stats.warm_hits == 1
        assert stats.hits == 1
        assert stats.misses == 0
        # now resident in memory: the next get is a plain hit
        assert second.get(sig.digest) is not None
        assert second.stats().warm_hits == 1

    def test_miss_when_store_empty(self, tmp_path):
        cache = ViewCache(
            budget_bytes=1 << 20,
            store=CacheStore(str(tmp_path / "cache")),
        )
        assert cache.get(digest_of("nope")) is None
        assert cache.stats().misses == 1
        assert cache.stats().warm_hits == 0

    def test_budget_rejected_entry_still_spills(self, tmp_path):
        store = CacheStore(str(tmp_path / "cache"))
        tiny = ViewCache(budget_bytes=8, store=store)
        sig = sig_for("big")
        assert not tiny.put(sig, keyed_view(n=100))  # memory reject
        assert store.load(sig.digest) is not None  # but disk has it

    def test_no_store_behaves_as_before(self):
        cache = ViewCache(budget_bytes=1 << 20)
        assert cache.get(digest_of("x")) is None
        assert cache.stats().misses == 1
