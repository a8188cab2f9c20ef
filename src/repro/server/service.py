"""The long-running analytics service: epochs, coalescing, deltas.

One :class:`AnalyticsService` owns, per registered dataset, exactly one
loaded :class:`~repro.data.database.Database`, one
:class:`~repro.engine.viewcache.cache.ViewCache`, and one
:class:`~repro.engine.ivm.IncrementalEngine` — the shared engine state
that one-shot CLI invocations rebuild (and throw away) on every call.

**Epoch-snapshot isolation.**  The database is versioned by *epochs*:
an immutable :class:`Epoch` pairs a monotonically increasing number
with the database version it names (``Database.apply_delta`` is
functional, so versions share unchanged relations structurally).  A
query captures the current epoch once at execution start and pins the
whole run to that snapshot through the engine's ``database=`` hook;
a delta commit builds the next version under the dataset's write lock
and publishes it as a new epoch with a single atomic reference swap.
In-flight queries therefore always answer exactly one committed
epoch — never a torn mix of pre- and post-delta rows (cf. Berkholz et
al. on maintaining answers under updates, and Huang et al. on checking
snapshot isolation).

The shared :class:`ViewCache` stays consistent across epochs *by
construction*: its keys are content addresses over relation
fingerprints, so a reader pinned to an old epoch simply misses entries
the delta commit re-keyed (and recomputes from its own snapshot), while
readers at the new epoch hit the delta-patched views immediately.

**Request coalescing.**  Queries are admitted through a
:class:`~repro.server.coalescer.RequestCoalescer`: concurrent requests
against the same dataset are drained as one batch, their distinct
workloads fused into one deduplicated
:class:`~repro.engine.viewcache.fusion.WorkloadSession` DAG, executed
once, and fanned back out per request — PR 3's fusion win becomes a
throughput multiplier under load.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..data.database import Database, DeltaBatch
from ..engine.engine import LMFAO, BatchResult
from ..engine.ivm import DeltaReport, IncrementalEngine
from ..engine.viewcache.cache import ViewCache
from ..engine.viewcache.fusion import WorkloadSession
from ..jointree.join_tree import JoinTree
from ..query.query import QueryBatch
from ..storage.manager import DatasetStorage, RecoveryStats
from .coalescer import RequestCoalescer

#: default per-dataset view-cache budget (MiB)
DEFAULT_CACHE_MB = 64.0


class UnknownWorkloadError(ValueError):
    """A query named a workload the dataset does not serve.

    Carries the valid names so the HTTP layer can answer 400 with an
    actionable body (a misspelled workload is a malformed request, not
    a missing resource — the dataset route itself exists).
    """

    def __init__(self, dataset: str, workload: str, valid: Sequence[str]):
        self.dataset = dataset
        self.workload = workload
        self.valid = list(valid)
        super().__init__(
            f"no workload {workload!r} on dataset {dataset!r}; "
            f"valid workloads: {self.valid}"
        )


@dataclass(frozen=True)
class Epoch:
    """One committed database version.

    Immutable: readers capture the whole object with one atomic
    reference read and keep a consistent (number, database) pair for
    the lifetime of their query, no matter how many deltas commit
    meanwhile.
    """

    number: int
    database: Database


@dataclass
class QueryResponse:
    """One served query request.

    ``epoch`` names the committed database version every value in
    ``results`` was computed from; ``batch_size`` is how many requests
    shared the (possibly fused) execution that produced it.
    """

    dataset: str
    workloads: Tuple[str, ...]
    epoch: int
    results: Dict[str, BatchResult]
    batch_size: int = 1
    seconds: float = 0.0


@dataclass
class DeltaResponse:
    """One committed delta batch: the new epoch plus the IVM report."""

    dataset: str
    epoch: int
    report: DeltaReport


class _DatasetState:
    """Everything the service owns for one registered dataset."""

    def __init__(
        self,
        name: str,
        database: Database,
        join_tree: Optional[JoinTree],
        *,
        cache_mb: float,
        backend,
        n_threads: int,
        storage: Optional[DatasetStorage] = None,
        initial_epoch: int = 0,
        recovery: Optional[RecoveryStats] = None,
    ):
        self.name = name
        self.storage = storage
        self.recovery = recovery
        self.cache: Optional[ViewCache] = (
            ViewCache(
                budget_bytes=int(cache_mb * (1 << 20)),
                store=storage.cache_store if storage is not None else None,
            )
            if cache_mb
            else None
        )
        self.ivm = IncrementalEngine(
            database,
            join_tree,
            n_threads=n_threads,
            view_cache=self.cache,
            backend=backend,
        )
        self.engine: LMFAO = self.ivm.engine
        if self.cache is None:
            # cache_mb=0 means cache nothing: detach the facade's
            # default cache, so there is nothing to maintain and every
            # delta counts as a recompute in the ``ivm`` section
            self.engine.view_cache = None
        self.join_tree = self.engine.join_tree
        self.workloads: Dict[str, QueryBatch] = {}
        # swapped atomically under write_lock; readers take one
        # reference read and never lock
        self.epoch = Epoch(initial_epoch, self.engine.database)
        self.write_lock = threading.Lock()
        self.n_queries = 0  # mutated only on the coalescer worker
        self.n_deltas = 0  # mutated only under write_lock


class AnalyticsService:
    """A thread-safe, long-running analytics engine over live data.

    Usage::

        service = AnalyticsService(coalesce_ms=5)
        service.register_dataset("retailer", db, tree)
        service.register_workload("retailer", "covar", covar_batch)
        response = service.query("retailer", ["covar"])   # blocking
        service.apply_delta("retailer", DeltaBatch.insert(...))
        service.close()

    ``query`` may be called from any number of threads; requests are
    admitted through the coalescer (see the module docstring).
    ``apply_delta`` may also be called concurrently — commits serialize
    per dataset on its write lock while queries keep reading their
    captured epochs.
    """

    def __init__(
        self,
        *,
        coalesce_ms: float = 5.0,
        max_batch: int = 16,
        max_queue: int = 64,
        cache_mb: float = DEFAULT_CACHE_MB,
        backend=None,
        n_threads: int = 1,
        data_dir: Optional[str] = None,
        compact_wal: int = 0,
        spill_mb: float = 512.0,
        fsync: bool = True,
    ):
        self._states: Dict[str, _DatasetState] = {}
        self._registering: set = set()
        self._registry_lock = threading.Lock()
        self._cache_mb = float(cache_mb)
        self._backend = backend
        self._n_threads = int(n_threads)
        self._data_dir = data_dir
        self._compact_wal = max(0, int(compact_wal))
        # disk budget for the persistent cache tier: without one,
        # re-keyed (stale-digest) spill files accumulate forever under
        # a delta stream; 0 disables the bound
        self._spill_budget_bytes = (
            int(spill_mb * (1 << 20)) if spill_mb else None
        )
        self._fsync = fsync
        self._started = time.time()
        self.coalescer = RequestCoalescer(
            self._execute_coalesced,
            window_ms=coalesce_ms,
            max_batch=max_batch,
            max_queue=max_queue,
        )

    # -- registry ----------------------------------------------------------

    def register_dataset(
        self,
        name: str,
        database: Database,
        join_tree: Optional[JoinTree] = None,
        *,
        workloads: Optional[Dict[str, QueryBatch]] = None,
    ) -> "AnalyticsService":
        """Load one dataset into the service; returns self for chaining.

        With a ``data_dir`` configured, registration is where durability
        engages: an existing snapshot is **restored** — the base
        snapshot is loaded, then every WAL commit replays through the
        dataset's own :meth:`IncrementalEngine.apply_delta`, i.e. the
        exact delta-propagation code live commits use, so the recovered
        engine, epoch, and view-cache state match what a never-crashed
        server would hold.  The recovered database *replaces* the one
        passed in and the last replayed epoch becomes the serving
        epoch.  A first boot persists the passed database as the base
        snapshot.  Either way the dataset's view cache gains the
        persistent second tier, so warm starts serve spilled views from
        disk.
        """
        # reserve the name before any storage side effect: two
        # concurrent registrations of the same dataset must not both
        # initialize the same data directory
        with self._registry_lock:
            if name in self._states or name in self._registering:
                raise ValueError(f"dataset {name!r} already registered")
            self._registering.add(name)
        try:
            storage: Optional[DatasetStorage] = None
            snapshot_info = None
            load_seconds = 0.0
            replay = False
            try:
                if self._data_dir is not None:
                    storage = DatasetStorage(
                        os.path.join(self._data_dir, name),
                        fsync=self._fsync,
                        cache_budget_bytes=self._spill_budget_bytes,
                    )
                    if storage.has_snapshot():
                        database, snapshot_info, load_seconds = (
                            storage.load_base()
                        )
                        replay = True
                    else:
                        storage.initialize(database, epoch=0)
                state = _DatasetState(
                    name,
                    database,
                    join_tree,
                    cache_mb=self._cache_mb,
                    backend=self._backend,
                    n_threads=self._n_threads,
                    storage=storage,
                    initial_epoch=(
                        snapshot_info.epoch if snapshot_info else 0
                    ),
                )
                if replay:
                    self._replay_wal(
                        state, snapshot_info, load_seconds
                    )
            except BaseException:
                if storage is not None:
                    storage.close()  # don't leak the WAL handle
                raise
            with self._registry_lock:
                self._states[name] = state
        finally:
            with self._registry_lock:
                self._registering.discard(name)
        for workload_name, batch in (workloads or {}).items():
            self.register_workload(name, workload_name, batch)
        return self

    def _replay_wal(
        self,
        state: _DatasetState,
        snapshot_info,
        load_seconds: float,
    ) -> None:
        """Replay WAL commits through the dataset's own IVM engine.

        Each logged commit flows through ``state.ivm.apply_delta`` — the
        exact code path live commits take — so recovery exercises delta
        propagation (interior view patches, cache re-keying) instead of
        a database-level fold.  The replayed epochs advance
        ``state.epoch`` exactly as the original commits did.
        """
        assert state.storage is not None
        t0 = time.perf_counter()
        replayed = 0
        changes = 0
        for commit in state.storage.pending_commits(snapshot_info.epoch):
            live = [d for d in commit.deltas if not d.is_empty]
            if live:
                state.ivm.apply_delta(*live)
                changes += sum(d.n_changes() for d in live)
            state.epoch = Epoch(commit.epoch, state.ivm.database)
            replayed += 1
        state.recovery = RecoveryStats(
            snapshot_epoch=snapshot_info.epoch,
            epoch=state.epoch.number,
            replayed_commits=replayed,
            replayed_changes=changes,
            wal_tail_truncated=state.storage.wal.tail_truncated,
            snapshot_load_seconds=load_seconds,
            replay_seconds=time.perf_counter() - t0,
            cache_entries=len(state.storage.cache_store),
            cache_bytes=state.storage.cache_store.spilled_bytes,
        )

    def register_workload(
        self, dataset: str, name: str, batch: QueryBatch
    ) -> "AnalyticsService":
        """Register one named query batch servable on a dataset.

        The batch object is reused across every request naming it, so
        plans (and their compiled functions) are built once and shared.
        """
        state = self._state(dataset)
        if name in state.workloads:
            raise ValueError(
                f"workload {name!r} already registered on {dataset!r}"
            )
        state.workloads[name] = batch
        return self

    def datasets(self) -> List[str]:
        with self._registry_lock:
            return list(self._states)

    def workload_names(self, dataset: str) -> List[str]:
        return list(self._state(dataset).workloads)

    def epoch(self, dataset: str) -> int:
        """The number of the latest committed epoch."""
        return self._state(dataset).epoch.number

    def snapshot(self, dataset: str) -> Epoch:
        """The latest committed epoch (number + database version)."""
        return self._state(dataset).epoch

    def prepare(
        self,
        dataset: str,
        workload_sets: Optional[Sequence[Sequence[str]]] = None,
    ) -> "AnalyticsService":
        """Pre-plan (and compile) workload combinations before traffic.

        By default every single workload plus the full union is planned;
        pass explicit ``workload_sets`` to warm other combinations a
        coalesced batch might fuse.  Serving threads then never pay
        planning/compilation inline.
        """
        state = self._state(dataset)
        if workload_sets is None:
            workload_sets = [[name] for name in state.workloads]
            if len(state.workloads) > 1:
                workload_sets.append(list(state.workloads))
        for names in workload_sets:
            distinct = [w for w in state.workloads if w in set(names)]
            if not distinct:
                continue
            if len(distinct) == 1:
                state.engine.plan(state.workloads[distinct[0]])
            else:
                session = WorkloadSession(
                    state.epoch.database, engine=state.engine
                )
                for name in distinct:
                    session.add_workload(name, state.workloads[name])
                state.engine.plan(session.fused_batch())
        return self

    def _state(self, dataset: str) -> _DatasetState:
        with self._registry_lock:
            state = self._states.get(dataset)
        if state is None:
            raise KeyError(
                f"no dataset {dataset!r}; registered: {self.datasets()}"
            )
        return state

    # -- queries -----------------------------------------------------------

    def query(
        self,
        dataset: str,
        workloads: Sequence[str],
        timeout: Optional[float] = None,
    ) -> QueryResponse:
        """Submit one request; blocks until its (coalesced) batch ran.

        Raises :class:`KeyError` for unknown datasets,
        :class:`UnknownWorkloadError` for unknown workload names,
        :class:`~repro.server.coalescer.ServiceOverloaded` when shed by
        admission control, and :class:`TimeoutError` on timeout.
        """
        state = self._state(dataset)
        names = tuple(workloads)
        if not names:
            raise ValueError("query needs at least one workload name")
        for name in names:
            if name not in state.workloads:
                raise UnknownWorkloadError(
                    dataset, name, list(state.workloads)
                )
        return self.coalescer.submit(dataset, names, timeout=timeout)

    def _execute_coalesced(
        self, dataset: str, payloads: List[Tuple[str, ...]]
    ) -> List[QueryResponse]:
        """Run one drained batch of requests as a single fused DAG.

        Runs on the coalescer worker.  The epoch is captured *once* for
        the whole batch, so every coalesced request answers the same
        committed database version.
        """
        state = self._state(dataset)
        epoch = state.epoch  # atomic snapshot; pins the entire batch
        # canonical order (registration order) so every request mix
        # over the same workload set fuses to one plan-cache entry
        requested = {name for payload in payloads for name in payload}
        distinct = [w for w in state.workloads if w in requested]
        start = time.perf_counter()
        if len(distinct) == 1:
            results = {
                distinct[0]: state.engine.run(
                    state.workloads[distinct[0]], database=epoch.database
                )
            }
        else:
            session = WorkloadSession(epoch.database, engine=state.engine)
            for name in distinct:
                session.add_workload(name, state.workloads[name])
            results = dict(session.run(database=epoch.database))
        seconds = time.perf_counter() - start
        state.n_queries += len(payloads)
        return [
            QueryResponse(
                dataset=dataset,
                workloads=payload,
                epoch=epoch.number,
                results={name: results[name] for name in payload},
                batch_size=len(payloads),
                seconds=seconds,
            )
            for payload in payloads
        ]

    # -- updates -----------------------------------------------------------

    def apply_delta(
        self, dataset: str, *deltas: DeltaBatch
    ) -> DeltaResponse:
        """Commit inserts/retractions as one new epoch.

        The IVM facade applies the deltas and hands each to
        ``ViewCache.on_delta`` — cached views (leaf *and* interior) are
        repaired bottom-up and re-keyed under their new content
        addresses, with eviction only as a fallback; the returned
        :class:`~repro.engine.ivm.DeltaReport` carries one maintenance
        record per delta plus the per-view outcome counts
        (``views_patched`` / ``views_evicted``).  The new
        database version then becomes the next epoch with one atomic
        swap.  Queries already in flight keep reading their captured
        epoch.

        With durable storage attached, the commit is appended to the
        write-ahead log (and fsynced) *before* the epoch swap: no epoch
        is ever published that a crash-restart could not reconstruct.
        When the WAL reaches ``compact_wal`` commits it is folded into
        a fresh snapshot.
        """
        state = self._state(dataset)
        with state.write_lock:
            report = state.ivm.apply_delta(*deltas)
            if report.n_changes:
                next_epoch = state.epoch.number + 1
                if state.storage is not None:
                    try:
                        state.storage.log_commit(next_epoch, deltas)
                    except BaseException:
                        # the commit cannot be made durable, so it must
                        # not be served: restore the published epoch's
                        # database and drop every in-memory artifact
                        # derived from the unlogged version, then tell
                        # the caller.  Recovery and memory agree again.
                        state.engine.database = state.epoch.database
                        if state.cache is not None:
                            state.cache.clear()
                        raise
                state.epoch = Epoch(next_epoch, state.ivm.database)
                state.n_deltas += 1
                if (
                    state.storage is not None
                    and self._compact_wal
                    and state.storage.wal_len >= self._compact_wal
                ):
                    # note: compaction runs under the write lock — it
                    # must, because truncating the WAL is only sound
                    # while no commit can append behind the snapshot.
                    # The stall is bounded by one snapshot write;
                    # auto-compaction is opt-in (compact_wal=0 default)
                    state.storage.compact(
                        state.epoch.database, state.epoch.number
                    )
            return DeltaResponse(
                dataset=dataset, epoch=state.epoch.number, report=report
            )

    def compact(self, dataset: str) -> None:
        """Fold a dataset's WAL into a fresh snapshot now (no-op without
        durable storage)."""
        state = self._state(dataset)
        with state.write_lock:
            if state.storage is not None:
                state.storage.compact(
                    state.epoch.database, state.epoch.number
                )

    def recovery(self, dataset: str):
        """Boot-time :class:`RecoveryStats` for a dataset, or None
        (fresh boot / no durable storage)."""
        return self._state(dataset).recovery

    def sync(self) -> None:
        """Fsync every dataset's WAL (graceful-shutdown hook)."""
        with self._registry_lock:
            states = list(self._states.values())
        for state in states:
            if state.storage is not None:
                state.storage.sync()

    # -- introspection -----------------------------------------------------

    def stats(self) -> Dict:
        """One JSON-ready report over the whole service.

        Cache counters come from the snapshot-consistent
        ``ViewCache.stats()``; coalescer counters likewise.
        """
        datasets = {}
        with self._registry_lock:
            states = list(self._states.values())
        for state in states:
            epoch = state.epoch
            datasets[state.name] = {
                "epoch": epoch.number,
                "relations": {
                    rel.name: rel.n_rows for rel in epoch.database
                },
                "workloads": list(state.workloads),
                "queries": state.n_queries,
                "deltas": state.n_deltas,
                "ivm": state.ivm.stats(),
                "cache": (
                    None
                    if state.cache is None
                    else {
                        **state.cache.stats().as_dict(),
                        "resident_bytes": state.cache.total_bytes,
                        "budget_bytes": state.cache.budget_bytes,
                        "entries": len(state.cache),
                    }
                ),
                "storage": (
                    None
                    if state.storage is None
                    else {
                        **state.storage.stats(),
                        "warm_hits": (
                            state.cache.stats().warm_hits
                            if state.cache is not None
                            else 0
                        ),
                        "recovery": (
                            None
                            if state.recovery is None
                            else state.recovery.as_dict()
                        ),
                    }
                ),
            }
        return {
            "uptime_seconds": round(time.time() - self._started, 3),
            "coalescer": self.coalescer.stats().as_dict(),
            "datasets": datasets,
        }

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Drain the coalescer, fsync+close storage, release engines.

        Idempotent.  The coalescer drains first so in-flight batches
        finish before the WAL handle closes.
        """
        self.coalescer.close()
        with self._registry_lock:
            states = list(self._states.values())
        for state in states:
            state.engine.close()
            if state.storage is not None:
                state.storage.close()

    def __enter__(self) -> "AnalyticsService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
