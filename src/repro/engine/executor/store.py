"""The :class:`ViewStore`: materialized views with ref-counted eviction.

Execution materializes a DAG of views; most of them are *interior* —
consumed by downstream view groups and never read again once every
consumer has run.  The store tracks a remaining-consumer count per view
and evicts interior views the moment their last consumer finishes, so a
batch's peak memory is bounded by the working frontier of the DAG rather
than its total view volume.

Views that outlive execution are *pinned* at construction: the engine
pins the query-output views, which result assembly reads after the last
group has finished.  A store lives for one run; between runs
materialized views live in the cross-run
:class:`~repro.engine.viewcache.cache.ViewCache`.

Eviction need not mean the data is lost: an ``on_evict`` callback turns
the drop into a *handoff* — the engine uses it to move interior views
into the cross-run :class:`~repro.engine.viewcache.cache.ViewCache`
the moment their last in-batch consumer finishes, instead of
unconditionally discarding them.

The store is thread-safe: the dataflow scheduler publishes finished
groups from its completion loop while worker threads snapshot inputs
for groups still in flight.  :class:`ViewData` values are treated as
immutable — a put replaces the binding, never mutates the value — which
is what makes the snapshot/publish protocol race-free (the bug class
this replaces: the old engine ``dict.update``-ed a shared ``view_data``
while same-level futures were reading it).

This module also owns the distributive-SUM merge primitives
(:func:`merge_partials`, :func:`retire_dead_keys`) shared by the
domain-parallel backends and the view cache's delta repair.
"""

from __future__ import annotations

import threading
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
)

import numpy as np

from ...data import ops
from ..interpreter import ViewData


def merge_partials(partials: List[Dict[int, ViewData]]) -> Dict[int, ViewData]:
    """Merge per-partition view outputs by grouped re-aggregation.

    Valid because every view aggregate is a SUM over context rows, and
    context rows partition with the node relation's rows.  Support
    counts (when every piece tracks them) merge like any other SUM
    column; they are integer-valued, so partition counts add exactly.
    """
    merged: Dict[int, ViewData] = {}
    view_ids = {vid for partial in partials for vid in partial}
    for vid in sorted(view_ids):
        pieces = [p[vid] for p in partials if vid in p]
        first = pieces[0]
        if not first.group_by:
            agg_cols = [
                np.asarray(
                    [sum(float(p.agg_cols[i][0]) for p in pieces)],
                    dtype=np.float64,
                )
                for i in range(len(first.agg_cols))
            ]
            merged[vid] = ViewData(
                group_by=first.group_by, key_cols=[], agg_cols=agg_cols
            )
            continue
        with_support = all(p.support is not None for p in pieces)
        key_cols = [
            np.concatenate([p.key_cols[k] for p in pieces])
            for k in range(len(first.key_cols))
        ]
        value_cols = [
            np.concatenate([p.agg_cols[i] for p in pieces])
            for i in range(len(first.agg_cols))
        ]
        if with_support:
            value_cols.append(np.concatenate([p.support for p in pieces]))
        keys, sums = ops.group_aggregate(key_cols, value_cols)
        support = sums.pop() if with_support else None
        merged[vid] = ViewData(
            group_by=first.group_by,
            key_cols=list(keys),
            agg_cols=list(sums),
            support=support,
        )
    return merged


def retire_dead_keys(view: ViewData) -> ViewData:
    """Drop group keys whose support cancelled to zero.

    Supports are integer-valued floats maintained purely by addition, so
    the zero test is exact; a key's support hits zero exactly when every
    context row that produced it has been retracted — the same condition
    under which a from-scratch run would not emit the key at all.
    """
    if view.support is None or not view.group_by:
        return view
    alive = view.support > 0.5
    if bool(alive.all()):
        return view
    return ViewData(
        group_by=view.group_by,
        key_cols=[col[alive] for col in view.key_cols],
        agg_cols=[col[alive] for col in view.agg_cols],
        support=view.support[alive],
    )


class ViewStore:
    """Materialized views by id, with consumer-counted eviction.

    ``consumers`` maps each view id to the number of view groups that
    will read it; :meth:`group_finished` decrements the counts of a
    finished group's inputs, and a view whose count reaches zero is
    evicted unless it is in ``pinned``.  Views absent from ``consumers``
    are never evicted — eviction is strictly an opt-in optimization.

    ``on_evict`` (optional) is called as ``on_evict(vid, data)`` for
    every view dropped by ref-counted eviction, outside the store lock,
    from the thread that triggered the eviction.  The engine hands
    evicted interior views to the cross-run view cache this way.

    The mapping protocol (``store[vid]``, ``vid in store``, ``len``,
    iteration, ``items``) is supported so the store drops in wherever a
    plain ``Dict[int, ViewData]`` was used before.
    """

    def __init__(
        self,
        consumers: Optional[Mapping[int, int]] = None,
        pinned: Iterable[int] = (),
        *,
        on_evict: Optional[Callable[[int, ViewData], None]] = None,
    ):
        self._data: Dict[int, ViewData] = {}
        self._lock = threading.Lock()
        self._remaining: Dict[int, int] = dict(consumers or {})
        self._pinned = frozenset(pinned)
        self._on_evict = on_evict
        #: ids of views dropped by ref-counted eviction (for tests/stats)
        self.evicted: set = set()

    # -- mapping protocol -------------------------------------------------

    def __getitem__(self, vid: int) -> ViewData:
        with self._lock:
            try:
                return self._data[vid]
            except KeyError:
                if vid in self.evicted:
                    raise KeyError(
                        f"view {vid} was evicted after its last consumer "
                        "finished; list it in `pinned` to keep it"
                    ) from None
                raise

    def __setitem__(self, vid: int, data: ViewData) -> None:
        self.put(vid, data)

    def __contains__(self, vid: int) -> bool:
        with self._lock:
            return vid in self._data

    def __iter__(self) -> Iterator[int]:
        with self._lock:
            return iter(list(self._data))

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def keys(self):
        with self._lock:
            return list(self._data)

    def items(self):
        with self._lock:
            return list(self._data.items())

    def values(self):
        with self._lock:
            return list(self._data.values())

    def get(self, vid: int, default=None):
        with self._lock:
            return self._data.get(vid, default)

    # -- writes -----------------------------------------------------------

    def put(self, vid: int, data: ViewData) -> None:
        """Publish (or replace) one view's materialization."""
        with self._lock:
            self._data[vid] = data
            self.evicted.discard(vid)

    def put_group(self, produced: Mapping[int, ViewData]) -> None:
        """Publish every view a finished group produced."""
        with self._lock:
            for vid, data in produced.items():
                self._data[vid] = data
                self.evicted.discard(vid)

    # -- reads ------------------------------------------------------------

    def snapshot(self, vids: Iterable[int]) -> Dict[int, ViewData]:
        """A consistent {vid: ViewData} snapshot of the named views.

        Workers call this once at task start; later puts/evictions never
        mutate the returned dict or its (immutable) values.
        """
        with self._lock:
            return {vid: self._data[vid] for vid in vids}

    # -- eviction ----------------------------------------------------------

    def group_finished(self, input_view_ids: Iterable[int]) -> None:
        """Record that one consumer of each given view has finished.

        Called by the engine once per completed view group with that
        group's input view ids; inputs whose remaining-consumer count
        hits zero are evicted unless pinned.  Evicted views are handed
        to ``on_evict`` (when configured) after the lock is released.
        """
        handoff: List[tuple] = []
        with self._lock:
            for vid in input_view_ids:
                if vid not in self._remaining:
                    continue
                self._remaining[vid] -= 1
                if (
                    self._remaining[vid] <= 0
                    and vid not in self._pinned
                    and vid in self._data
                ):
                    data = self._data.pop(vid)
                    self.evicted.add(vid)
                    if self._on_evict is not None:
                        handoff.append((vid, data))
        for vid, data in handoff:
            self._on_evict(vid, data)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        with self._lock:
            return (
                f"ViewStore({len(self._data)} views, "
                f"{len(self._pinned)} pinned, "
                f"{len(self.evicted)} evicted)"
            )
