"""The :class:`ViewStore`: materialized views with ref-counted eviction.

Execution materializes a DAG of views; most of them are *interior* —
consumed by downstream view groups and never read again once every
consumer has run.  The store tracks a remaining-consumer count per view
and evicts interior views the moment their last consumer finishes, so a
batch's peak memory is bounded by the working frontier of the DAG rather
than its total view volume.

Views that outlive execution are *pinned* at construction: the engine
pins the query-output views, which result assembly reads after the last
group has finished.  A store lives for one run, on one thread.

Eviction need not mean the data is lost: an ``on_evict`` callback turns
the drop into a *handoff* — the engine uses it to move interior views
into the cross-run :class:`~repro.engine.viewcache.cache.ViewCache`,
where materialized views live between runs, the moment their last
in-batch consumer finishes.

This module also owns the distributive-SUM merge primitives
(:func:`merge_partials`, :func:`retire_dead_keys`) the view cache's
delta repair folds partial views with.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Mapping, Optional

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


class ViewStore(dict):
    """Materialized views by id: a dict plus consumer-counted eviction.

    ``consumers`` maps each view id to the number of view groups that
    will read it; :meth:`group_finished` decrements the counts of a
    finished group's inputs and evicts a view whose count reaches zero,
    unless it is ``pinned`` or absent from ``consumers``.
    ``on_evict(vid, data)``, when given, receives every evicted view.
    """

    def __init__(
        self,
        consumers: Optional[Mapping[int, int]] = None,
        pinned: Iterable[int] = (),
        *,
        on_evict: Optional[Callable[[int, ViewData], None]] = None,
    ):
        super().__init__()
        self._remaining: Dict[int, int] = dict(consumers or {})
        self._pinned = frozenset(pinned)
        self._on_evict = on_evict
        #: ids of views dropped by ref-counted eviction (for tests/stats)
        self.evicted: set = set()

    def __missing__(self, vid: int) -> ViewData:
        if vid in self.evicted:
            raise KeyError(
                f"view {vid} was evicted after its last consumer "
                "finished; list it in `pinned` to keep it"
            )
        raise KeyError(vid)

    def group_finished(self, input_view_ids: Iterable[int]) -> None:
        """Record that one consumer of each given view has finished.

        Called by the engine once per completed view group with that
        group's input view ids.
        """
        for vid in input_view_ids:
            if vid not in self._remaining:
                continue
            self._remaining[vid] -= 1
            if (
                self._remaining[vid] <= 0
                and vid not in self._pinned
                and vid in self
            ):
                data = self.pop(vid)
                self.evicted.add(vid)
                if self._on_evict is not None:
                    self._on_evict(vid, data)
