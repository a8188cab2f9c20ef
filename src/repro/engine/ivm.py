"""Incremental view maintenance (IVM): the commit facade over the view cache.

Every LMFAO view aggregate is a SUM of products over the join, linear
in the node relation and in each incoming view, so one delta rule
maintains every view (cf. Berkholz et al., "Answering FO+MOD queries
under updates"): ``δ(R ⋈ V) = R ⋈ δV``.  Run the unchanged group plan
once with one input replaced by its delta and merge the result into the
materialized view.  At the updated relation that input is the relation
(the signed delta rows, retractions weighing -1); above it, the views
from the changed child edge, replaced by the deltas their own repairs
merged, over the node rows that join a key of them.  Every keyed cached
view carries its support as a COUNT aggregate (the multiplicity of its
subtree join per key), so a key retires exactly when its count cancels
to zero.  That rule
has one implementation, ``ViewCache.on_delta``, and a materialized view
one home between runs, the ``ViewCache``.

:class:`IncrementalEngine` turns a :class:`DeltaBatch` into a commit —
apply it to the database, hand the applied delta to the cache — and
records what the cache did with it, one :class:`DeltaMaintenance` each:

* ``"incremental"`` — every affected cached view merged a delta (or,
  its inputs unchanged, was only re-keyed);
* ``"recompute"`` — the counted fallback: a view could not be repaired
  and was evicted (or no cache is attached); the next run recomputes it.
"""

import time
from dataclasses import asdict, dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from ..data.database import AppliedDelta, Database, DeltaBatch
from ..jointree.join_tree import JoinTree
from ..query.query import QueryBatch
from .engine import LMFAO, BatchResult
from .viewcache.cache import ViewCache


@dataclass
class DeltaMaintenance:
    """How the cached views absorbed one applied delta."""

    relation: str
    mode: str  # "incremental" or "recompute"
    seconds: float
    reason: Optional[str] = None  # why views were left to be recomputed


@dataclass
class DeltaReport:
    """What one ``apply_delta`` call did."""

    relations: Tuple[str, ...] = ()
    n_changes: int = 0
    #: one record per applied (non-empty) delta, in order
    maintenance: List[DeltaMaintenance] = field(default_factory=list)
    views_patched: int = 0  # cache entries repaired and re-keyed in place
    views_evicted: int = 0  # cache entries dropped, left to be recomputed

    @property
    def all_incremental(self) -> bool:
        return all(m.mode == "incremental" for m in self.maintenance)


@dataclass
class MaintenanceStats:
    """``GET /stats`` ``ivm``: incremental + fallbacks == deltas."""

    deltas: int = 0  # non-empty DeltaBatches applied
    incremental: int = 0  # every affected view merged a delta
    fallbacks: int = 0  # left views to be recomputed by the next run
    last_fallback_reason: Optional[str] = None

    def count(self, record: DeltaMaintenance) -> None:
        self.deltas += 1
        if record.mode == "incremental":
            self.incremental += 1
        else:
            self.fallbacks += 1
            self.last_fallback_reason = record.reason


class IncrementalEngine:
    """An :class:`LMFAO` facade that keeps results current under updates.

    Usage::

        engine = IncrementalEngine(dataset.database, dataset.join_tree)
        results = engine.run(batch)                  # full evaluation
        report = engine.apply_delta(DeltaBatch.insert("Sales", new_rows))
        updated = engine.run(batch)                  # served from views

    Every query is planned rooted at ``root`` (default: the largest
    relation, where updates land in practice).  Because a cache is
    attached, every keyed view carries its *support* — a COUNT
    aggregate, the multiplicity of its subtree join per group key — so a
    retraction anywhere retires a key exactly when its count cancels to
    zero, and maintained views match a from-scratch run key-for-key.  A
    delta on any relation is merged up the affected cone of the view
    DAG, each group above the updated relation running once over the
    node rows that join a key of its children's deltas.  Relations keep
    user row order, as in every engine, so ``delete_indices`` name the
    rows the caller observes.

    ``view_cache`` is where the maintained views live: pass one to share
    it, or omit it for a private default-budget :class:`ViewCache`.
    ``run`` is ``LMFAO.run`` against that cache: a post-delta run is
    assembled from the repaired entries, executing only what was lost.
    """

    def __init__(
        self,
        database: Database,
        join_tree: Optional[JoinTree] = None,
        *,
        root: Optional[str] = None,
        view_cache: Optional[ViewCache] = None,
    ):
        if root is None:
            root = max(database, key=lambda r: r.n_rows).name
        self.engine = LMFAO(
            database,
            join_tree,
            root=root,
            view_cache=ViewCache() if view_cache is None else view_cache,
        )
        self.root = root
        self._stats = MaintenanceStats()
        # what rollback() restores: the state before the last apply_delta
        self._undo = (database, replace(self._stats))

    @property
    def database(self) -> Database:
        """The current (updated) database."""
        return self.engine.database

    @property
    def view_cache(self) -> Optional[ViewCache]:
        """The engine's cache: where the maintained views live."""
        return self.engine.view_cache

    def stats(self) -> Dict:
        return asdict(self._stats)

    def run(self, batch: QueryBatch) -> BatchResult:
        """Evaluate a batch, served from maintained views where cached."""
        return self.engine.run(batch)

    def apply_delta(self, *deltas: DeltaBatch) -> DeltaReport:
        """Apply inserts/retractions and repair the cached views.

        Deltas apply to the database in order (later delete indices see
        the rows earlier deltas left), all before any view is touched,
        so a malformed delta raises with nothing changed.
        """
        live = [delta for delta in deltas if not delta.is_empty]
        applied: List[AppliedDelta] = []
        database = self.engine.database
        self._undo = (database, replace(self._stats))
        for delta in live:
            applied.append(database.apply_delta(delta))
            database = applied[-1].database
        report = DeltaReport(
            relations=tuple(dict.fromkeys(d.relation for d in live)),
            n_changes=sum(d.n_changes() for d in live),
        )
        self.engine.database = database
        cache = self.view_cache
        for step in applied:
            t0 = time.perf_counter()
            outcome = {} if cache is None else cache.on_delta(step)
            seconds = time.perf_counter() - t0
            statuses = list(outcome.values())
            evicted = statuses.count("evicted")
            mode, reason = "incremental", None
            if cache is None:
                mode, reason = "recompute", "no view cache attached"
            elif evicted:
                mode, reason = "recompute", (
                    f"{evicted} of {len(statuses)} cached views over "
                    f"{step.relation!r} evicted, not repaired"
                )
            record = DeltaMaintenance(step.relation, mode, seconds, reason)
            report.maintenance.append(record)
            report.views_evicted += evicted
            report.views_patched += len(statuses) - evicted
            self._stats.count(record)
        return report

    def rollback(self) -> None:
        """Undo the last :meth:`apply_delta`, whose commit could not be
        made durable: the database and the counters return to what they
        were before it, and the cache, whose repairs cannot be undone,
        is cleared."""
        database, stats = self._undo
        self.engine.database, self._stats = database, replace(stats)
        if self.view_cache is not None:
            self.view_cache.clear()
