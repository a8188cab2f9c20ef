"""Cross-workload fusion: execute several query batches as one DAG.

LMFAO's sharing (paper §3.4) stops at the boundary of one
:class:`QueryBatch`: covar, linear-regression, and decision-tree
batches over the same dataset each rebuild near-identical view DAGs
from scratch.  A :class:`FusedBatch` removes that boundary: every query
is renamed ``workload::query`` and the union is planned as one
mega-batch, so the Merge Views layer's own memo/bucketing deduplicates
structurally equal views **across** workloads.  Shared views execute
once; each workload's answer is then assembled from the run's views
under its own query names.  :class:`WorkloadSession` (the library and
``repro run --fuse``) and the analytics service both fuse this way.

A :class:`~repro.engine.viewcache.cache.ViewCache` attached to the
engine extends the sharing across *runs*: the fused plan's views are
content-addressed, so a warm re-run (or a later session over the same
data) serves them from cache instead of recomputing.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional

from ...data.database import Database
from ...jointree.join_tree import JoinTree
from ...query.query import Query, QueryBatch
from ..engine import LMFAO, BatchResult, EnginePlan
from ..interpreter import ViewData
from .cache import CacheRunReport, ViewCache

#: joins workload and query names in the fused batch
WORKLOAD_SEPARATOR = "::"


@dataclass
class FusionReport:
    """How much the fused plan shares versus independent plans."""

    n_workloads: int
    n_queries: int
    views_fused: int
    views_independent: int
    groups_fused: int
    groups_independent: int

    @property
    def views_saved(self) -> int:
        return self.views_independent - self.views_fused

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"FusionReport({self.n_workloads} workloads, "
            f"{self.n_queries} queries: {self.views_fused} fused views vs "
            f"{self.views_independent} independent, "
            f"{self.views_saved} saved)"
        )


class SessionResult(dict):
    """Workload name -> :class:`BatchResult`, plus session-level timing."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.plan_seconds: float = 0.0
        self.execute_seconds: float = 0.0
        self.fused: bool = False
        self.cache_report = None


class FusedBatch:
    """Named batches as one: the union of their queries, each renamed
    ``workload::query``, and the position of each member's first query
    in it.

    Aggregate objects are shared with the member batches, so dynamic
    functions keep their identities and plan-cache slots, and re-binding
    one in place re-binds the union too.
    """

    def __init__(self, workloads: Mapping[str, QueryBatch]):
        if not workloads:
            raise ValueError("no workloads to fuse")
        self.members: Dict[str, QueryBatch] = dict(workloads)
        self.offsets: Dict[str, int] = {}
        queries: List[Query] = []
        for workload, batch in self.members.items():
            _check_name(workload)
            self.offsets[workload] = len(queries)
            queries.extend(
                Query(
                    f"{workload}{WORKLOAD_SEPARATOR}{query.name}",
                    query.group_by,
                    query.aggregates,
                )
                for query in batch
            )
        self.batch = QueryBatch(queries)

    def run(
        self, engine: LMFAO, *, database: Optional[Database] = None
    ) -> "FusedRun":
        """Plan and execute the union once through ``engine``;
        ``database`` pins the run to one version (:meth:`LMFAO.run`)."""
        db = database if database is not None else engine.database
        t0 = time.perf_counter()
        plan = engine.plan(self.batch)
        t1 = time.perf_counter()
        views, report = engine.execute(
            plan, self.batch.dynamic_functions(), database=db
        )
        return FusedRun(
            self, engine, plan, views, db, report,
            plan_seconds=t1 - t0,
            execute_seconds=time.perf_counter() - t1,
        )


@dataclass
class FusedRun:
    """One execution of a :class:`FusedBatch`: its output views, from
    which :meth:`result` assembles any member's answer."""

    fused: FusedBatch
    engine: LMFAO
    plan: EnginePlan
    views: Dict[int, ViewData]
    database: Database
    cache_report: Optional[CacheRunReport]
    plan_seconds: float
    execute_seconds: float

    def result(self, workload: str) -> BatchResult:
        """One member's :class:`BatchResult`, under its own query names."""
        result = self.engine.assemble(
            self.fused.members[workload],
            self.plan,
            self.views,
            database=self.database,
            first=self.fused.offsets[workload],
        )
        result.plan_seconds = self.plan_seconds
        result.execute_seconds = self.execute_seconds
        result.cache_report = self.cache_report
        return result


def _check_name(workload: str) -> None:
    if WORKLOAD_SEPARATOR in workload:
        raise ValueError(
            f"workload name {workload!r} may not contain "
            f"{WORKLOAD_SEPARATOR!r}"
        )


class WorkloadSession:
    """Several query batches sharing one engine, one DAG, one cache.

    Usage::

        session = WorkloadSession(db, tree, cache=ViewCache(64 << 20))
        session.add_workload("covar", covar_batch)
        session.add_workload("linreg", linreg_batch)
        session.add_workload("trees", tree_node_batch)
        results = session.run()          # fused: shared views run once
        covar_results = results["covar"]  # plain BatchResult per workload

    ``run_independent()`` executes each batch separately through the
    same engine (and cache, if any) — the baseline fusion is measured
    against, and a way to share views across workloads purely through
    the content-addressed cache.
    """

    def __init__(
        self,
        database: Database,
        join_tree: Optional[JoinTree] = None,
        *,
        cache: Optional[ViewCache] = None,
        **engine_kwargs,
    ):
        self.engine = LMFAO(
            database, join_tree, view_cache=cache, **engine_kwargs
        )
        self._workloads: Dict[str, QueryBatch] = {}
        self._fused: Optional[FusedBatch] = None

    @property
    def cache(self) -> Optional[ViewCache]:
        return self.engine.view_cache

    @property
    def workload_names(self) -> List[str]:
        return list(self._workloads)

    # a session holds nothing to release; ``with`` merely scopes it
    def __enter__(self) -> "WorkloadSession":
        return self

    def __exit__(self, *exc) -> None:
        return None

    # -- workload registry -------------------------------------------------

    def add_workload(self, name: str, batch: QueryBatch) -> "WorkloadSession":
        """Register one named batch; returns self for chaining."""
        _check_name(name)
        if name in self._workloads:
            raise ValueError(f"duplicate workload name {name!r}")
        self._workloads[name] = batch
        self._fused = None  # invalidate the memoized fused batch
        return self

    def fused_batch(self) -> QueryBatch:
        """The union of all workloads, queries renamed ``workload::query``
        (:class:`FusedBatch`)."""
        return self._fusion().batch

    def _fusion(self) -> FusedBatch:
        if not self._workloads:
            raise ValueError("session has no workloads")
        if self._fused is None:
            self._fused = FusedBatch(self._workloads)
        return self._fused

    # -- execution ---------------------------------------------------------

    def run(self) -> SessionResult:
        """Execute all workloads as one fused DAG; fan results back out."""
        run = self._fusion().run(self.engine)
        result = SessionResult(
            (workload, run.result(workload)) for workload in self._workloads
        )
        result.plan_seconds = run.plan_seconds
        result.execute_seconds = run.execute_seconds
        result.cache_report = run.cache_report
        result.fused = True
        return result

    def run_independent(self) -> SessionResult:
        """Execute each workload as its own batch (no DAG-level fusion)."""
        result = SessionResult()
        for workload, batch in self._workloads.items():
            batch_result = self.engine.run(batch)
            result[workload] = batch_result
            result.plan_seconds += batch_result.plan_seconds
            result.execute_seconds += batch_result.execute_seconds
            result.cache_report = batch_result.cache_report
        return result

    # -- reporting -----------------------------------------------------------

    def fusion_report(self) -> FusionReport:
        """Plan-level sharing statistics: fused vs independent view DAGs."""
        fused_plan = self.engine.plan(self.fused_batch())
        views_independent = 0
        groups_independent = 0
        for batch in self._workloads.values():
            plan = self.engine.plan(batch)
            views_independent += plan.decomposed.n_views
            groups_independent += plan.grouped.n_groups
        return FusionReport(
            n_workloads=len(self._workloads),
            n_queries=len(self.fused_batch()),
            views_fused=fused_plan.decomposed.n_views,
            views_independent=views_independent,
            groups_fused=fused_plan.grouped.n_groups,
            groups_independent=groups_independent,
        )
