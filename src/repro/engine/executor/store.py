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
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Mapping, Optional

from ..interpreter import ViewData


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
