"""ViewStore: mapping protocol, ref-counted eviction, pinned outputs."""

import numpy as np
import pytest

from repro.engine.executor import ViewStore
from repro.engine.interpreter import ViewData


def scalar_view(value, support=None):
    return ViewData(
        (),
        [],
        np.array([[float(value)]]),
        support=None if support is None else np.asarray(support, float),
    )


def grouped_view(keys, values, support=None):
    return ViewData(
        ("g",),
        [np.asarray(keys)],
        np.asarray([values], dtype=np.float64),
        support=None if support is None else np.asarray(support, float),
    )


class TestMappingProtocol:
    def test_put_get_contains_len_iter(self):
        store = ViewStore()
        store[3] = scalar_view(1.0)
        store[5] = scalar_view(2.0)
        assert 3 in store and 5 in store and 4 not in store
        assert len(store) == 2
        assert sorted(store) == [3, 5]
        assert store[5].sums[0].tolist() == [2.0]
        assert dict(store.items()).keys() == {3, 5}
        assert store.get(4) is None

    def test_missing_view_raises_plain_keyerror(self):
        with pytest.raises(KeyError):
            ViewStore()[7]


class TestEviction:
    def test_evicts_only_after_last_consumer(self):
        store = ViewStore(consumers={1: 2})
        store[1] = scalar_view(1.0)
        store.group_finished([1])
        assert 1 in store, "one of two consumers left — must survive"
        store.group_finished([1])
        assert 1 not in store
        assert store.evicted == {1}

    def test_evicted_keyerror_explains(self):
        store = ViewStore(consumers={1: 1})
        store[1] = scalar_view(1.0)
        store.group_finished([1])
        with pytest.raises(KeyError, match="evicted"):
            store[1]

    def test_pinned_views_survive(self):
        store = ViewStore(consumers={1: 1}, pinned=[1])
        store[1] = scalar_view(1.0)
        store.group_finished([1])
        assert 1 in store

    def test_views_without_consumer_entry_never_evicted(self):
        store = ViewStore(consumers={1: 1})
        store[2] = scalar_view(2.0)
        store.group_finished([2])  # no refcount entry: a no-op
        assert 2 in store

    def test_snapshot_unaffected_by_later_eviction(self):
        # a group task reads its inputs into its own dict before running;
        # evicting them afterwards must not reach into that copy
        store = ViewStore(consumers={1: 1})
        store[1] = grouped_view([0, 1], [1.0, 2.0])
        snap = {vid: store[vid] for vid in [1]}
        store.group_finished([1])
        assert 1 not in store
        assert snap[1].sums[0].tolist() == [1.0, 2.0]

    def test_view_never_stored_is_not_reported_evicted(self):
        received = []
        store = ViewStore(
            consumers={1: 1},
            on_evict=lambda vid, data: received.append(vid),
        )
        store.group_finished([1])  # its consumer ran off a cache hit
        assert store.evicted == set()
        assert received == []

    def test_pinned_view_outlives_all_its_consumers(self):
        store = ViewStore(consumers={1: 2}, pinned=[1])
        store[1] = scalar_view(7.0)
        store.group_finished([1])
        store.group_finished([1])
        assert 1 in store, "pinned view evicted at refcount zero"
        assert store.evicted == set()


class TestEvictionHandoff:
    def test_on_evict_receives_evicted_views(self):
        received = {}
        store = ViewStore(
            consumers={1: 1},
            on_evict=lambda vid, data: received.__setitem__(vid, data),
        )
        store[1] = grouped_view([0, 1], [3.0, 4.0])
        store.group_finished([1])
        assert 1 not in store
        assert received[1].sums[0].tolist() == [3.0, 4.0]

    def test_on_evict_skips_pinned_and_surviving_views(self):
        received = {}
        store = ViewStore(
            consumers={1: 2, 2: 1},
            pinned=[2],
            on_evict=lambda vid, data: received.__setitem__(vid, data),
        )
        store[1] = scalar_view(1.0)
        store[2] = scalar_view(2.0)
        store.group_finished([1, 2])  # 1 has another consumer; 2 pinned
        assert received == {}
        store.group_finished([1])
        assert set(received) == {1}

    def test_on_evict_fires_once_per_view(self):
        received = []
        store = ViewStore(
            consumers={1: 1},
            on_evict=lambda vid, data: received.append(vid),
        )
        store[1] = scalar_view(1.0)
        store.group_finished([1])
        store.group_finished([1])  # a stray extra finish: nothing to hand off
        assert received == [1]

    def test_views_are_handed_off_in_input_order(self):
        received = []
        store = ViewStore(
            consumers={1: 1, 2: 1, 3: 1},
            on_evict=lambda vid, data: received.append(vid),
        )
        for vid in (1, 2, 3):
            store[vid] = scalar_view(float(vid))
        store.group_finished([3, 1, 2])
        assert received == [3, 1, 2]
        assert len(store) == 0


class TestLegacyModules:
    def test_legacy_parallel_module_is_gone(self):
        # the deprecated repro.engine.parallel shim was removed; the one
        # home of the merge delta repair folds views with is the cache
        with pytest.raises(ModuleNotFoundError):
            import repro.engine.parallel  # noqa: F401
