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

**The answer memo.**  Between two commits an answer cannot change, and
the :class:`Epoch` object already marks exactly when it stops being
valid.  So each published epoch carries, per registered workload, the
assembled :class:`~repro.engine.engine.BatchResult` the coalesced path
computed *at that epoch* (an :class:`Answer`) and — filled lazily by
:mod:`repro.server.http` — its serialised ``results`` fragment per
``include_data`` flag.  :meth:`AnalyticsService.query` captures
``state.epoch`` once; when every requested workload is resident there
it answers on the caller's thread (``batch_size=1``, ``seconds=0.0``:
nothing ran) — no coalescer window, plan probe, signatures, cache gets
or assemble, and a fused request is the concatenation of its members'
answers, its fused plan never run.  Anything else — a cold workload,
the first read after a delta, a partially resident request — goes
through the coalescer whole, where the window has execution to share;
that is the one miss path and it is what fills the memo.

The memo needs no invalidation, budget or TTL because it is reachable
only from its epoch: it dies with the epoch object, a reader pinned to
epoch *k* can only ever see epoch *k*'s answers, ``_execute_coalesced``
stores on the epoch it *captured* (a commit that lands mid-run gets
nothing), and a rolled-back commit never had an epoch to hang answers
on.  It holds at most one answer per registered workload.  Batches
whose dynamic functions can be re-bound in place stay correct because
an entry is only served while :func:`answer_binding` still equals the
key it was stored under.  ``cache_mb=0`` ("cache nothing") disables it
along with the view cache; there is no other switch.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..data.database import Database, DeltaBatch
from ..engine.engine import LMFAO, BatchResult
from ..engine.ivm import DeltaReport, IncrementalEngine
from ..engine.viewcache.cache import ViewCache
from ..engine.viewcache.fusion import WorkloadSession
from ..engine.viewcache.signature import dyn_binding_key
from ..jointree.join_tree import JoinTree
from ..query.functions import Udf
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


class Answer:
    """One registered workload's answer at one epoch.

    ``result`` is the assembled :class:`BatchResult`; ``binding`` is
    what it depended on besides the epoch's data (see
    :func:`answer_binding`); ``encoded`` maps an ``include_data`` flag
    to the serialised ``results`` fragment, filled by the HTTP layer the
    first time that form is asked for.
    """

    __slots__ = ("result", "binding", "encoded")

    def __init__(self, result: BatchResult, binding: tuple):
        self.result = result
        self.binding = binding
        self.encoded: Dict[bool, bytes] = {}


def answer_binding(batch: QueryBatch) -> tuple:
    """What a registered batch's answer depends on besides the data.

    A batch's dynamic functions may be re-bound in place between two
    requests (a ``Delta``'s value or operator, a ``Udf``'s callable), so
    a memoized answer is only served while this key is unchanged.  The
    callables ride along because ``dyn_binding_key`` identifies a UDF by
    name alone — enough to call its views uncacheable, not enough to
    call an answer current.
    """
    dyn = batch.dynamic_functions()
    return dyn_binding_key(dyn), tuple(
        f.fn for f in dyn if isinstance(f, Udf)
    )


@dataclass(frozen=True)
class Epoch:
    """One committed database version.

    Immutable: readers capture the whole object with one atomic
    reference read and keep a consistent (number, database) pair for
    the lifetime of their query, no matter how many deltas commit
    meanwhile.  ``answers`` is the epoch's answer memo (module
    docstring), the one field that is written after construction: an
    entry is only ever computed from this epoch's database, so nothing
    in it can go stale while the epoch is reachable.
    """

    number: int
    database: Database
    answers: Dict[str, Answer] = field(
        default_factory=dict, compare=False, repr=False
    )


@dataclass
class QueryResponse:
    """One served query request.

    ``epoch`` names the committed database version every value in
    ``results`` was computed from; ``batch_size`` is how many requests
    shared the (possibly fused) execution that produced it and
    ``seconds`` how long that execution took — ``1`` and ``0.0`` when
    the request was answered from the epoch's memo and nothing ran.
    ``answers`` holds one :class:`Answer` per distinct requested
    workload, in request order.
    """

    dataset: str
    workloads: Tuple[str, ...]
    epoch: int
    answers: Dict[str, Answer]
    batch_size: int = 1
    seconds: float = 0.0

    @property
    def results(self) -> Dict[str, BatchResult]:
        return {name: a.result for name, a in self.answers.items()}


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
            view_cache=self.cache,
        )
        self.engine: LMFAO = self.ivm.engine
        if self.cache is None:
            # cache_mb=0 means cache nothing: detach the facade's
            # default cache, so there is nothing to maintain and every
            # delta counts as a recompute in the ``ivm`` section
            self.engine.view_cache = None
        self.join_tree = self.engine.join_tree
        self.workloads: Dict[str, QueryBatch] = {}
        # one fused session per distinct workload set (registration
        # order), so a coalesced batch re-uses its fused QueryBatch and
        # the plan-cache key memoized on it
        self.sessions: Dict[Tuple[str, ...], WorkloadSession] = {}
        # swapped atomically under write_lock; readers take one
        # reference read and never lock
        self.epoch = Epoch(initial_epoch, self.engine.database)
        self.write_lock = threading.Lock()
        # requests answered from an epoch's memo (handler threads) and
        # through ``_execute_coalesced`` (coalescer worker)
        self.count_lock = threading.Lock()
        self.memo_hits = 0
        self.executed = 0
        self.n_deltas = 0  # mutated only under write_lock

    def session(self, names: Tuple[str, ...]) -> WorkloadSession:
        """The fused session over ``names``, built on first use."""
        session = self.sessions.get(names)
        if session is None:
            session = WorkloadSession(
                self.engine.database, engine=self.engine
            )
            for name in names:
                session.add_workload(name, self.workloads[name])
            self.sessions[names] = session
        return session


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

    Every view group runs through the interpreter.  ``backend``
    accepts ``"interpret"`` or ``"compiled"`` and both interpret; it is
    kept only so callers that still pass it (``bench/traced.py``) keep
    working.
    """

    def __init__(
        self,
        *,
        coalesce_ms: float = 5.0,
        max_batch: int = 16,
        max_queue: int = 64,
        cache_mb: float = DEFAULT_CACHE_MB,
        backend: str = "interpret",
        data_dir: Optional[str] = None,
        compact_wal: int = 0,
        spill_mb: float = 512.0,
        fsync: bool = True,
    ):
        self._states: Dict[str, _DatasetState] = {}
        self._registering: set = set()
        self._registry_lock = threading.Lock()
        self._cache_mb = float(cache_mb)
        if backend not in ("interpret", "compiled"):
            raise ValueError(
                f"unknown backend {backend!r}; use 'interpret' or 'compiled'"
            )
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
        plans are built once and shared.
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
        """Pre-plan workload combinations before traffic.

        By default every single workload plus the full union is planned;
        pass explicit ``workload_sets`` to warm other combinations a
        coalesced batch might fuse.  Serving threads then never pay
        planning inline.
        """
        state = self._state(dataset)
        if workload_sets is None:
            workload_sets = [[name] for name in state.workloads]
            if len(state.workloads) > 1:
                workload_sets.append(list(state.workloads))
        for names in workload_sets:
            distinct = tuple(w for w in state.workloads if w in set(names))
            if len(distinct) == 1:
                state.engine.plan(state.workloads[distinct[0]])
            elif distinct:
                state.engine.plan(state.session(distinct).fused_batch())
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
        """Answer one request from the current epoch.

        When the epoch's memo holds every requested workload the answer
        is assembled from it on the caller's thread; otherwise the whole
        request is submitted to the coalescer and blocks until its
        (coalesced) batch ran.

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
        epoch = state.epoch  # atomic snapshot: one epoch's answers only
        answers = {}
        for name in names:
            answer = epoch.answers.get(name)
            if answer is None or answer.binding != answer_binding(
                state.workloads[name]
            ):
                return self.coalescer.submit(
                    dataset, names, timeout=timeout
                )
            answers[name] = answer
        with state.count_lock:
            state.memo_hits += 1
        return QueryResponse(dataset, names, epoch.number, answers)

    def _execute_coalesced(
        self, dataset: str, payloads: List[Tuple[str, ...]]
    ) -> List[QueryResponse]:
        """Run one drained batch of requests as a single fused DAG.

        Runs on the coalescer worker.  The epoch is captured *once* for
        the whole batch, so every coalesced request answers the same
        committed database version — and that captured epoch, never
        ``state.epoch``, is the one whose memo receives the answers.
        """
        state = self._state(dataset)
        epoch = state.epoch  # atomic snapshot; pins the entire batch
        # canonical order (registration order) so every request mix
        # over the same workload set fuses to one plan-cache entry
        requested = {name for payload in payloads for name in payload}
        distinct = tuple(w for w in state.workloads if w in requested)
        # read before the run: a re-binding that lands mid-run leaves a
        # key no later request can match
        bindings = {
            name: answer_binding(state.workloads[name]) for name in distinct
        }
        start = time.perf_counter()
        if len(distinct) == 1:
            results = {
                distinct[0]: state.engine.run(
                    state.workloads[distinct[0]], database=epoch.database
                )
            }
        else:
            results = state.session(distinct).run(database=epoch.database)
        seconds = time.perf_counter() - start
        answers = {
            name: Answer(results[name], bindings[name]) for name in distinct
        }
        if state.cache is not None:  # cache_mb=0 caches nothing
            epoch.answers.update(answers)
        with state.count_lock:
            state.executed += len(payloads)
        return [
            QueryResponse(
                dataset=dataset,
                workloads=payload,
                epoch=epoch.number,
                answers={name: answers[name] for name in payload},
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
            with state.count_lock:
                memo_hits, executed = state.memo_hits, state.executed
            resident = list(epoch.answers.values())
            datasets[state.name] = {
                "epoch": epoch.number,
                "relations": {
                    rel.name: rel.n_rows for rel in epoch.database
                },
                "workloads": list(state.workloads),
                "queries": memo_hits + executed,
                "answers": {
                    "memo_hits": memo_hits,
                    "executed": executed,
                    "resident": len(resident),
                    "encoded_bytes": sum(
                        len(fragment)
                        for answer in resident
                        for fragment in list(answer.encoded.values())
                    ),
                },
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
        """Drain the coalescer, then fsync+close storage.

        Idempotent.  The coalescer drains first so in-flight batches
        finish before the WAL handle closes.
        """
        self.coalescer.close()
        with self._registry_lock:
            states = list(self._states.values())
        for state in states:
            if state.storage is not None:
                state.storage.close()

    def __enter__(self) -> "AnalyticsService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
