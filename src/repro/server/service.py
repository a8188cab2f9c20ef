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
the delta commit re-keyed (and recomputes from its own snapshot, or
reads its disk tier without admitting what it finds there), while
readers at the new epoch hit the delta-patched views immediately.

**Request coalescing.**  Queries are admitted through a
:class:`~repro.server.coalescer.RequestCoalescer`, which batches by
backlog: a request that finds the worker idle runs at once, and the
requests against the same dataset that queue up while a batch executes
are drained together as the next one.  Each distinct answer in the
batch is computed once and fans back out to every request that named
it.

**One fused batch per dataset.**  LMFAO's Merge Views layer shares
views only within one batch, so the service plans every registered
workload whose answer is cacheable (no ``Udf`` views, see
:func:`answer_binding`) as one
:class:`~repro.engine.viewcache.fusion.FusedBatch`: the union of their
queries, rebuilt by :meth:`AnalyticsService.register_workload` and
planned by :meth:`AnalyticsService.prepare`.  A coalesced batch or a
commit runs it at most once, and each member's answer is its own
queries, under its own names, assembled from that run's views.  Views
the workloads share are computed, cached and repaired once: on retailer
``covar``, ``trees`` and ``mutual_information`` need half the views
fused that they need planned apart, and a commit repairs and publishes
one DAG instead of three.  A ``Udf`` workload runs on its own, once per
distinct batch and binding.  Fusing pays only through the cache: a
fused run computes every member's views, which only a cache keeps for
the next member's read or repairs at a commit.  So with ``cache_mb=0``
there is no fused batch, and every workload runs alone, once per
distinct batch and binding: a lone request computes its own views only.

**The answer memo.**  Between two commits an answer cannot change, and
the :class:`Epoch` object already marks exactly when it stops being
valid.  So each published epoch carries, per registered workload, the
assembled :class:`~repro.engine.engine.BatchResult` computed *at that
epoch* (an :class:`Answer`) and — filled by :mod:`repro.server.http`
when first served, or at the commit that published it — its serialised
``results`` fragment per ``include_data`` flag.
:meth:`AnalyticsService.query` captures ``state.epoch`` once; when
every requested workload is resident there it answers on the caller's
thread (``batch_size=1``, ``seconds=0.0``: nothing ran) — no
coalescer, plan probe, signatures, cache gets or assemble, and a
multi-workload request is the concatenation of its members' answers.
Anything else — a cold workload, a partially resident request — goes
through the coalescer whole, where a backlog has execution to share;
that is the one miss path.

**Answers are published at commit.**  A delta does not empty the memo:
:meth:`AnalyticsService.apply_delta` computes the next epoch's answer
for every workload resident in the previous epoch's memo, after the WAL
append and view repair and before the epoch swap, so the first read
after a delta is a memo hit like any other.  The commit computes an
answer the way the coalescer does (:meth:`AnalyticsService._answer`:
one run of the fused batch, over views the repair just re-keyed).  Two
kinds of workload are left to the miss path: one whose dynamic
functions were re-bound since its answer was stored, and one with
``Udf`` views, which no cache holds, so publishing it would re-run it
from scratch inside every commit.  A workload whose answer fails to
compute stays a miss too, and the commit stands.  A failing fused run
fails every member's answer (it is tried once per commit); a failure
in one member's assembly fails that member alone.

The memo needs no invalidation, budget or TTL because it is reachable
only from its epoch: it dies with the epoch object, a reader pinned to
epoch *k* can only ever see epoch *k*'s answers, ``_execute_coalesced``
stores on the epoch it *captured* (a commit that lands mid-run gets
nothing), and a failed commit changes nothing.  It holds at most one
answer per registered workload.  Batches whose dynamic functions can be
re-bound in place stay correct because an entry is only served while
:func:`answer_binding` still equals the key it was stored under.  ``cache_mb=0`` ("cache nothing") disables it
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
from ..engine.viewcache.fusion import FusedBatch
from ..engine.viewcache.signature import dyn_binding_key
from ..jointree.join_tree import JoinTree
from ..obs import GcPauses
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
    shared the coalesced execution that produced it and
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
    """One committed delta batch: the new epoch plus the IVM report.

    ``encode`` holds the answers the commit published, grouped by each
    ``include_data`` form their predecessors had been served in: what
    the HTTP layer serialises before it acknowledges the commit, so
    that no read of the new epoch pays for it.
    """

    dataset: str
    epoch: int
    report: DeltaReport
    encode: Dict[bool, Dict[str, Answer]] = field(default_factory=dict)


class _CommitPhases:
    """How many commits of one kind a dataset took, and the total time
    of each phase under the write lock: ``repair``
    (``IncrementalEngine.apply_delta`` less the append inside it),
    ``wal`` (the durable append) and ``publish`` (the next epoch's
    answers)."""

    __slots__ = ("count", "repair", "wal", "publish")

    def __init__(self):
        self.count = 0
        self.repair = self.wal = self.publish = 0.0

    def add(self, repair: float, wal: float, publish: float) -> None:
        self.count += 1
        self.repair += repair
        self.wal += wal
        self.publish += publish

    def as_dict(self) -> Dict[str, float]:
        return {
            "count": self.count,
            "repair_ms": round(self.repair * 1e3, 3),
            "wal_ms": round(self.wal * 1e3, 3),
            "publish_ms": round(self.publish * 1e3, 3),
        }


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
        # with a view cache, every registered workload whose answer is
        # cacheable, as one batch (module docstring); rebuilt, never
        # mutated, so a reader takes one reference
        self.fused: Optional[FusedBatch] = None
        # swapped atomically under write_lock; readers take one
        # reference read and never lock
        self.epoch = Epoch(initial_epoch, self.engine.database)
        self.write_lock = threading.Lock()
        # requests answered from an epoch's memo (handler threads) and
        # through ``_execute_coalesced`` (coalescer worker)
        self.count_lock = threading.Lock()
        self.memo_hits = 0
        self.executed = 0
        self.published = 0  # answers computed at commit (write_lock)
        # commits whose deltas all hit the IVM root, and the others
        # (write_lock)
        self.commits = {"root": _CommitPhases(), "other": _CommitPhases()}


class AnalyticsService:
    """A thread-safe, long-running analytics engine over live data.

    Usage::

        service = AnalyticsService()
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
        max_queue: int = 64,
        cache_mb: float = DEFAULT_CACHE_MB,
        backend: str = "interpret",
        data_dir: Optional[str] = None,
        compact_wal: int = 0,
        spill_mb: float = 512.0,
    ):
        self._states: Dict[str, _DatasetState] = {}
        self._registering: set = set()
        self._registry_lock = threading.Lock()
        self._cache_mb = float(cache_mb)
        if backend not in ("interpret", "compiled"):
            raise ValueError(
                f"unknown backend {backend!r}; use 'interpret' or 'compiled'"
            )
        if spill_mb < 0:
            raise ValueError(f"spill_mb must be >= 0, got {spill_mb}")
        self._data_dir = data_dir
        self._compact_wal = max(0, int(compact_wal))
        # disk budget for the persistent cache tier: without one,
        # re-keyed (stale-digest) spill files accumulate forever under
        # a delta stream; 0 disables the bound
        self._spill_budget_bytes = (
            int(spill_mb * (1 << 20)) if spill_mb else None
        )
        self._started = time.time()
        # the interpreter's full collections while this service runs
        self._gc = GcPauses()
        self._gc.install()
        self.coalescer = RequestCoalescer(
            self._execute_coalesced, max_queue=max_queue
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
        engages: an existing snapshot is **restored** by
        :meth:`DatasetStorage.recover` — the snapshot is loaded and the
        WAL's commits are folded into it, the same recovery ``repro
        restore`` runs.  The recovered database *replaces* the one
        passed in and the last replayed epoch becomes the serving
        epoch.  The in-memory view cache starts empty, so the ``ivm``
        counters start at zero; the replay is counted in the
        ``recovery`` stats.  A first boot persists the passed database
        as the base snapshot.  Either way the dataset's view cache
        gains the persistent second tier, so views spilled before a
        restart are served from disk (``warm_hits``).
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
            epoch = 0
            recovery: Optional[RecoveryStats] = None
            try:
                if self._data_dir is not None:
                    storage = DatasetStorage(
                        os.path.join(self._data_dir, name),
                        cache_budget_bytes=self._spill_budget_bytes,
                    )
                    if storage.has_snapshot():
                        recovered = storage.recover()
                        database = recovered.database
                        epoch = recovered.epoch
                        recovery = recovered.stats
                    else:
                        storage.initialize(database, epoch=0)
                state = _DatasetState(
                    name,
                    database,
                    join_tree,
                    cache_mb=self._cache_mb,
                    storage=storage,
                    initial_epoch=epoch,
                    recovery=recovery,
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

    def register_workload(
        self, dataset: str, name: str, batch: QueryBatch
    ) -> "AnalyticsService":
        """Register one named query batch servable on a dataset.

        The batch object is reused across every request naming it, so
        plans are built once and shared.  On a dataset with a view
        cache, a batch whose answer is cacheable (no ``Udf``) joins the
        dataset's fused batch, which is rebuilt here (module docstring).
        """
        state = self._state(dataset)
        with self._registry_lock:
            if name in state.workloads:
                raise ValueError(
                    f"workload {name!r} already registered on {dataset!r}"
                )
            if state.cache is not None and not answer_binding(batch)[1]:
                # published before the name: a request that finds the
                # name finds it fused
                workloads = {**state.workloads, name: batch}
                state.fused = FusedBatch(
                    {
                        member: member_batch
                        for member, member_batch in workloads.items()
                        if not answer_binding(member_batch)[1]
                    }
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

    def prepare(self, dataset: str) -> "AnalyticsService":
        """Plan the fused batch and every workload outside it before
        traffic, so serving threads never pay planning inline."""
        state = self._state(dataset)
        fused = state.fused
        if fused is not None:
            state.engine.plan(fused.batch)
        for name, batch in state.workloads.items():
            if fused is None or name not in fused.members:
                state.engine.plan(batch)
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
        """Run one drained batch of requests: each distinct answer once.

        Runs on the coalescer worker.  The epoch is captured *once* for
        the whole batch, so every coalesced request answers the same
        committed database version — and that captured epoch, never
        ``state.epoch``, is the one whose memo receives the answers.
        """
        state = self._state(dataset)
        epoch = state.epoch  # atomic snapshot; pins the entire batch
        distinct = dict.fromkeys(
            name for payload in payloads for name in payload
        )
        # read before the run: a re-binding that lands mid-run leaves a
        # key no later request can match
        bindings = {
            name: answer_binding(state.workloads[name]) for name in distinct
        }
        start = time.perf_counter()
        results: Dict[object, object] = {}
        answers = {
            name: self._answer(
                state, name, bindings[name], epoch.database, results
            )
            for name in distinct
        }
        seconds = time.perf_counter() - start
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

    @staticmethod
    def _answer(
        state: _DatasetState,
        name: str,
        binding: tuple,
        database: Database,
        results: Dict[object, object],
    ) -> Answer:
        """One workload's answer at ``database``: the one way both the
        coalescer and a commit compute answers.

        ``results`` holds the runs the caller made so far.  A member of
        the fused batch reads its answer off the one run of that batch,
        kept under the :class:`FusedBatch` itself (or the exception it
        raised, which every member then raises).  Any other workload
        runs alone, keyed by what identifies an answer: the batch's
        plan-cache key (``structural_signature``), its aggregate names
        (the result's column names, which that key leaves out) and its
        :func:`answer_binding` — not its workload name, so one batch
        registered under two names runs once.
        """
        fused = state.fused
        if fused is not None and name in fused.members:
            run = results.get(fused)
            if run is None:
                try:
                    run = fused.run(state.engine, database=database)
                except Exception as exc:
                    run = exc
                results[fused] = run
            if isinstance(run, Exception):
                raise run
            return Answer(run.result(name), binding)
        batch = state.workloads[name]
        key = (
            batch.structural_signature(),
            batch.aggregate_names(),
            binding,
        )
        result = results.get(key)
        if result is None:
            result = results[key] = state.engine.run(
                batch, database=database
            )
        return Answer(result, binding)

    def _publish(
        self, state: _DatasetState, previous: Epoch, epoch: Epoch
    ) -> Dict[bool, Dict[str, Answer]]:
        """Fill ``epoch``'s memo before it is published (module
        docstring); returns the new answers grouped by the serialised
        forms of their predecessors (:attr:`DeltaResponse.encode`)."""
        results: Dict[object, object] = {}
        encode: Dict[bool, Dict[str, Answer]] = {}
        for name, old in list(previous.answers.items()):
            binding = answer_binding(state.workloads[name])
            if binding != old.binding or binding[1]:
                continue  # re-bound since, or holds Udf views
            try:
                answer = self._answer(
                    state, name, binding, epoch.database, results
                )
            except Exception:  # noqa: BLE001 - the read will retry it
                continue
            epoch.answers[name] = answer
            for include_data in list(old.encoded):
                encode.setdefault(include_data, {})[name] = answer
        with state.count_lock:
            state.published += len(epoch.answers)
        return encode

    # -- updates -----------------------------------------------------------

    def apply_delta(
        self, dataset: str, *deltas: DeltaBatch
    ) -> DeltaResponse:
        """Commit inserts/retractions as one new epoch, in order:
        validate the deltas, append the commit to the WAL (with durable
        storage; a failed append raises with nothing changed), repair
        the cached views (``IncrementalEngine.apply_delta``; the
        :class:`~repro.engine.ivm.DeltaReport` says how), compute the
        next epoch's answers for every workload resident in the current
        epoch's memo (module docstring), then publish the new database
        version with them in one atomic swap.  No epoch is ever
        published that a crash-restart could not reconstruct; queries
        in flight keep reading their captured epoch.  When the WAL
        reaches ``compact_wal`` commits it is folded into a fresh
        snapshot.
        """
        state = self._state(dataset)
        with state.write_lock:
            next_epoch = state.epoch.number + 1
            wal = 0.0

            def log() -> None:
                nonlocal wal
                t0 = time.perf_counter()
                state.storage.log_commit(next_epoch, deltas)
                wal = time.perf_counter() - t0

            start = time.perf_counter()
            report = state.ivm.apply_delta(
                *deltas, log=None if state.storage is None else log
            )
            repaired = time.perf_counter()
            encode: Dict[bool, Dict[str, Answer]] = {}
            if report.n_changes:
                epoch = Epoch(next_epoch, state.ivm.database)
                encode = self._publish(state, state.epoch, epoch)
                state.epoch = epoch
                kind = (
                    "root"
                    if all(d.relation == state.ivm.root for d in deltas)
                    else "other"
                )
                state.commits[kind].add(
                    repaired - start - wal, wal, time.perf_counter() - repaired
                )
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
                dataset=dataset,
                epoch=state.epoch.number,
                report=report,
                encode=encode,
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
        ``ViewCache.stats()``; coalescer counters likewise.  ``commit``
        counts the commits whose deltas all hit the IVM root (``root``)
        apart from the others, with each kind's total milliseconds of
        repair, WAL append and publish.  ``gc`` counts the process's full
        garbage collections since this service started
        (:class:`repro.obs.GcPauses`).
        """
        datasets = {}
        with self._registry_lock:
            states = list(self._states.values())
        for state in states:
            epoch = state.epoch
            with state.count_lock:
                memo_hits, executed = state.memo_hits, state.executed
                published = state.published
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
                    "published": published,
                    "resident": len(resident),
                    "encoded_bytes": sum(
                        len(fragment)
                        for answer in resident
                        for fragment in list(answer.encoded.values())
                    ),
                },
                "deltas": sum(p.count for p in state.commits.values()),
                "commit": {
                    kind: phases.as_dict()
                    for kind, phases in state.commits.items()
                },
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
            "gc": self._gc.as_dict(),
            "datasets": datasets,
        }

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Drain the coalescer, spill the views only memory holds, then
        fsync+close storage.

        Idempotent.  The coalescer drains first so in-flight batches
        finish before the WAL handle closes.  Views repaired by a
        commit live in memory only (:class:`ViewCache`); writing them
        out here is what lets a restart after a graceful shutdown serve
        them warm.
        """
        self.coalescer.close()
        self._gc.uninstall()
        with self._registry_lock:
            states = list(self._states.values())
        for state in states:
            if state.storage is not None:
                with state.write_lock:
                    if state.cache is not None:
                        state.cache.flush()
                state.storage.close()

    def __enter__(self) -> "AnalyticsService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
