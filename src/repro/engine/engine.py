"""The LMFAO engine facade: all layers wired together (paper Figure 1).

    Aggregates -> Join Tree -> Find Roots -> Aggregate Pushdown
    -> Merge Views -> Group Views -> Multi-Output Optimization
    -> Parallelization -> Compilation

Planning (this module + the layers it calls) produces an
:class:`EnginePlan`; execution is delegated to the executor subsystem
(:mod:`repro.engine.executor`): a :class:`DataflowScheduler` runs the
view groups one at a time in topological order, the
:class:`InterpreterBackend` evaluates each group by walking its step
IR, and materialized views live in a :class:`ViewStore` with
ref-counted eviction of interior views.  The Compilation layer renders
each group's steps as specialized source for reading
(:meth:`EnginePlan.generated_source`); nothing executes it.

Usage::

    engine = LMFAO(database)
    results = engine.run(batch)               # query name -> Relation
    stats = engine.plan(batch).statistics
    print(engine.plan(batch).generated_source())
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..data.database import Database
from ..data.relation import Relation
from ..data.schema import Attribute, Schema
from ..jointree.join_tree import JoinTree, join_tree_from_database
from ..query.query import QueryBatch
from . import codegen
from .executor import (
    DataflowScheduler,
    GroupTask,
    InterpreterBackend,
    ViewStore,
)
from .grouping import GroupedPlan, group_views
from .interpreter import ViewData
from .plan import GroupPlan, build_group_plan
from .pushdown import DecomposedBatch, Decomposer
from .roots import assign_roots
from .stats import PlanStatistics, compute_statistics
from .viewcache.cache import CacheRunReport, PatchRecipe, ViewCache
from .viewcache.signature import (
    ViewSignature,
    dyn_binding_key,
    view_signatures,
)


@dataclass
class EnginePlan:
    """A fully planned batch."""

    decomposed: DecomposedBatch
    grouped: GroupedPlan
    group_plans: List[GroupPlan]
    statistics: PlanStatistics
    n_dynamic: int
    #: planning-time ``id(function) -> dyn slot`` (content signatures
    #: resolve dynamic functions to their runtime bindings through it)
    dyn_slots: Dict[int, int]

    def describe(self) -> str:
        """Dump all group plans (Figure 4 analog)."""
        return "\n\n".join(p.describe() for p in self.group_plans)

    def generated_source(self) -> str:
        """The generated specialized code (Figure 7 analog)."""
        return "\n\n".join(
            codegen.render_source(p, fn_name=f"group_fn_{p.group.id}")
            for p in self.group_plans
        )

    def dependencies(self) -> Dict[int, set]:
        """Group id -> ids of the groups it reads views from."""
        return {g.id: set(g.depends_on) for g in self.grouped.groups}

    def view_consumers(self) -> Dict[int, int]:
        """View id -> number of groups that read it (for eviction)."""
        consumers: Dict[int, int] = {}
        for group_plan in self.group_plans:
            for vid in group_plan.input_view_ids:
                consumers[vid] = consumers.get(vid, 0) + 1
        return consumers

    def output_view_ids(self) -> set:
        """Ids of views referenced by query outputs (never evictable)."""
        return {
            ref.view_id
            for output in self.decomposed.outputs
            for refs in output.term_refs
            for ref in refs
        }


class BatchResult(dict):
    """Query name -> result Relation, plus timing metadata.

    ``cache_report`` is a
    :class:`~repro.engine.viewcache.cache.CacheRunReport` (per-view
    hit/miss events) when the engine ran with a view cache attached,
    else None.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.plan_seconds: float = 0.0
        self.execute_seconds: float = 0.0
        self.cache_report: Optional[CacheRunReport] = None


class LMFAO:
    """Layered multiple functional aggregate optimization engine.

    Parameters mirror the paper's optimization layers so ablations
    (Figure 5) can switch each one off:

    * ``multi_root`` — Find Roots uses per-query roots (§3.3);
    * ``merge_mode`` — ``"full"`` / ``"dedup"`` / ``"none"`` (§3.4);
    * ``group_views`` — Multi-Output groups (§3.5) vs one view per plan.

    The paper's Parallelization layer is not reproduced: groups run
    serially, one at a time.  Nor is its Compilation step: every group
    runs through the interpreter.  Nor is its join-attribute order
    (§3.5): joins are dictionary-code lookups and group keys radix
    bitmaps, so no kernel reads rows in order, and ``self.database`` is
    the database the caller passed.  ``compile`` and ``sort_inputs``
    select nothing; they are accepted only because
    ``bench/workloads.py`` still passes them.

    Two extra knobs serve the incremental-maintenance layer
    (:mod:`repro.engine.ivm`):

    * ``root`` — force every query to root at one named join-tree node
      (so that node's view groups become sinks whose outputs merge under
      deltas);
    * ``track_support`` — plans additionally maintain a per-group
      context-row count per view, letting delta merges retire group keys
      whose support drops to zero.

    ``view_cache`` (optional) attaches a cross-run
    :class:`~repro.engine.viewcache.cache.ViewCache`: before execution
    every planned view's content signature is probed, groups whose
    outputs are all cached are skipped, and newly materialized views
    are admitted back into the cache (interior views via the store's
    eviction handoff).  The cache may be shared between engines and
    sessions — keys are content addresses, so a hit is always the data
    the engine would have recomputed.
    """

    def __init__(
        self,
        database: Database,
        join_tree: Optional[JoinTree] = None,
        *,
        multi_root: bool = True,
        merge_mode: str = "full",
        group_views: bool = True,
        compile: bool = False,
        sort_inputs: bool = False,
        root: Optional[str] = None,
        track_support: bool = False,
        view_cache: Optional[ViewCache] = None,
    ):
        self.join_tree = join_tree or join_tree_from_database(database)
        self.database = database
        if root is not None and root not in self.join_tree.nodes:
            raise ValueError(
                f"root {root!r} is not a join-tree node; nodes are "
                f"{list(self.join_tree.nodes)}"
            )
        self.multi_root = multi_root
        self.merge_mode = merge_mode
        self.group_views_enabled = group_views
        self.root = root
        self.track_support = track_support
        self.backend = InterpreterBackend()
        self.view_cache = view_cache
        self._plan_cache: Dict[tuple, EnginePlan] = {}
        # id(plan) -> (plan, database, signatures); both identities are
        # re-checked so IVM database swaps invalidate stale signatures
        self._sig_memo: Dict[int, tuple] = {}

    # -- planning -----------------------------------------------------------

    def plan(self, batch: QueryBatch) -> EnginePlan:
        """Plan a batch; cached on structural signature."""
        cache_key = (
            batch.structural_signature(),
            self.multi_root,
            self.merge_mode,
            self.group_views_enabled,
            self.root,
            self.track_support,
        )
        cached = self._plan_cache.get(cache_key)
        if cached is not None:
            return cached
        dyn_functions = batch.dynamic_functions()
        dyn_slots = {id(f): i for i, f in enumerate(dyn_functions)}
        if self.root is not None:
            roots = {query.name: self.root for query in batch}
        else:
            roots = assign_roots(
                batch,
                self.join_tree,
                self.database,
                multi_root=self.multi_root,
            )
        decomposer = Decomposer(
            self.join_tree, merge_mode=self.merge_mode, dyn_slots=dyn_slots
        )
        decomposed = decomposer.decompose(batch, roots)
        grouped = group_views(
            decomposed, group_enabled=self.group_views_enabled
        )
        # support counts only matter where delta merges happen: groups no
        # other group consumes (the sinks).  Interior groups skip the
        # extra per-view bincount.
        consumed = {
            dep for group in grouped.groups for dep in group.depends_on
        }
        group_plans = [
            build_group_plan(
                group,
                decomposed.views,
                self.database.relation(group.node),
                dyn_slots,
                track_support=(
                    self.track_support and group.id not in consumed
                ),
            )
            for group in grouped.groups
        ]
        plan = EnginePlan(
            decomposed=decomposed,
            grouped=grouped,
            group_plans=group_plans,
            statistics=compute_statistics(batch, decomposed, grouped),
            n_dynamic=len(dyn_functions),
            dyn_slots=dyn_slots,
        )
        self._plan_cache[cache_key] = plan
        return plan

    # -- execution -----------------------------------------------------------

    def run(
        self, batch: QueryBatch, *, database: Optional[Database] = None
    ) -> BatchResult:
        """Evaluate a batch; returns query name -> result Relation.

        ``database`` (optional) pins the run to an explicit database
        version — the *epoch hook*: every relation read, content
        signature, and result column of this run comes from that one
        snapshot, even if ``self.database`` is swapped mid-run by a
        concurrent delta commit.  Defaults to the engine's current
        database.
        """
        # snapshot once: everything below reads this one version
        db = database if database is not None else self.database
        t0 = time.perf_counter()
        plan = self.plan(batch)
        t1 = time.perf_counter()
        dyn = batch.dynamic_functions()
        if len(dyn) != plan.n_dynamic:
            raise ValueError(
                "batch dynamic-function count changed between planning "
                "and execution"
            )
        store, report = self._execute_impl(plan, dyn, database=db)
        result = self.assemble(batch, plan, store, database=db)
        result.plan_seconds = t1 - t0
        result.execute_seconds = time.perf_counter() - t1
        result.cache_report = report
        return result

    def view_signatures_for(
        self,
        plan: EnginePlan,
        dyn: Sequence = (),
        *,
        database: Optional[Database] = None,
    ) -> Dict[int, ViewSignature]:
        """Content signatures of a plan's views against one database version.

        ``dyn`` is this run's dynamic-function binding (slot order);
        signatures hash those values, not the planning-time ones, so a
        plan-cache-shared plan re-bound to new thresholds gets fresh
        digests.  ``database`` defaults to the engine's current one;
        epoch-pinned runs pass their snapshot so signatures address that
        version's data.  Memoized per (plan, database, binding); an IVM
        database swap or re-binding recomputes on the next run.
        """
        db = database if database is not None else self.database
        dyn_key = dyn_binding_key(dyn)
        memo = self._sig_memo.get(id(plan))
        if (
            memo is not None
            and memo[0] is plan
            and memo[1] is db
            and memo[2] == dyn_key
        ):
            return memo[3]
        sigs = view_signatures(
            plan.decomposed.views, db, plan.dyn_slots, dyn
        )
        self._sig_memo[id(plan)] = (plan, db, dyn_key, sigs)
        return sigs

    def execute(
        self,
        plan: EnginePlan,
        dyn: Sequence,
        *,
        database: Optional[Database] = None,
    ) -> ViewStore:
        """Materialize the output views of a planned batch.

        The scheduler runs each view group once its input views are
        published; the backend evaluates each group.
        Interior views are evicted once their last consumer
        finishes (output views are pinned and always survive).
        ``database`` pins execution to an explicit database version (see
        :meth:`run`).
        """
        store, _ = self._execute_impl(plan, dyn, database=database)
        return store

    def _execute_impl(
        self,
        plan: EnginePlan,
        dyn: Sequence,
        *,
        database: Optional[Database] = None,
    ) -> Tuple[ViewStore, Optional[CacheRunReport]]:
        db = database if database is not None else self.database
        cache = self.view_cache
        report: Optional[CacheRunReport] = None
        sigs: Dict[int, ViewSignature] = {}
        preloaded: Dict[int, ViewData] = {}
        recipes: Dict[int, PatchRecipe] = {}
        skip: set = set()
        if cache is not None:
            sigs = self.view_signatures_for(plan, dyn, database=db)
            report = CacheRunReport(total_groups=len(plan.group_plans))
            for view in plan.decomposed.views:
                report.names[view.id] = view.name
                sig = sigs[view.id]
                if not sig.cacheable:
                    report.events[view.id] = "uncacheable"
                    continue
                data = cache.get(sig.digest)
                if data is None:
                    report.events[view.id] = "miss"
                else:
                    report.events[view.id] = "hit"
                    preloaded[view.id] = data
            for group_plan in plan.group_plans:
                if all(
                    report.events.get(vid) == "hit"
                    for vid in group_plan.group.view_ids
                ):
                    skip.add(group_plan.group.id)
                    continue
                # remember how to repair this group's views after
                # updates: leaf groups re-run over delta partitions,
                # interior groups re-run over their node relation with
                # the re-keyed child views (a cacheable view's inputs
                # are all cacheable, so every input has a digest)
                for vid in group_plan.group.view_ids:
                    sig = sigs[vid]
                    if sig.cacheable and sig.structure is not None:
                        recipes[vid] = PatchRecipe(
                            plan=group_plan,
                            view_id=vid,
                            dyn=tuple(dyn),
                            structure=sig.structure,
                            input_digests=tuple(
                                (ivid, sigs[ivid].digest)
                                for ivid in group_plan.input_view_ids
                            ),
                        )
            report.skipped_groups = len(skip)

        def handoff(vid: int, data: ViewData) -> None:
            # an interior view just lost its last in-batch consumer:
            # admit it to the cross-run cache instead of dropping it
            if report is not None and report.events.get(vid) == "miss":
                cache.put(
                    sigs[vid], data, recipe=recipes.get(vid), database=db
                )

        store = ViewStore(
            consumers=plan.view_consumers(),
            pinned=plan.output_view_ids(),
            on_evict=handoff if cache is not None else None,
        )
        store.update(preloaded)

        def task(group_id: int) -> Dict[int, ViewData]:
            if group_id in skip:
                return {}  # every output of this group came from cache
            group_plan = plan.group_plans[group_id]
            return self.backend.run_group(
                GroupTask(
                    plan=group_plan,
                    relation=db.relation(group_plan.node),
                    incoming={
                        vid: store[vid] for vid in group_plan.input_view_ids
                    },
                    dyn=dyn,
                )
            )

        def publish(group_id: int, produced: Dict[int, ViewData]) -> None:
            store.update(produced)
            store.group_finished(
                plan.group_plans[group_id].input_view_ids
            )

        DataflowScheduler().run(plan.dependencies(), task, publish)
        if cache is not None:
            # views still resident (the pinned outputs) that were cache
            # misses are admitted too
            for vid, data in store.items():
                if report.events.get(vid) == "miss":
                    cache.put(
                        sigs[vid],
                        data,
                        recipe=recipes.get(vid),
                        database=db,
                    )
        return store, report

    # -- output assembly ------------------------------------------------------

    def assemble(
        self,
        batch: QueryBatch,
        plan: EnginePlan,
        view_data: Mapping[int, ViewData],
        *,
        database: Optional[Database] = None,
    ) -> BatchResult:
        """Assemble per-query result relations from materialized views."""
        db = database if database is not None else self.database
        result = BatchResult()
        outputs_by_name = {o.query_name: o for o in plan.decomposed.outputs}
        for query in batch:
            output = outputs_by_name[query.name]
            result[query.name] = self._assemble_query(
                query, output, view_data, db
            )
        return result

    def _assemble_query(self, query, output, view_data, database) -> Relation:
        # key columns come from any referenced output view (all are
        # lexicographically aligned over the same group-by tuple set)
        first_ref = output.term_refs[0][0]
        base = view_data[first_ref.view_id]
        sorted_group_by = base.group_by
        columns: Dict[str, np.ndarray] = {}
        attrs: List[Attribute] = []
        for attr_name in query.group_by:
            pos = sorted_group_by.index(attr_name)
            columns[attr_name] = base.key_cols[pos]
            attrs.append(
                self._attribute(attr_name, base.key_cols[pos], database)
            )
        # group-by columns reserve their names; colliding aggregate names
        # get suffixed like duplicates
        used_names: Dict[str, int] = {name: 0 for name in query.group_by}
        for agg, refs in zip(query.aggregates, output.term_refs):
            total = None
            for ref in refs:
                col = view_data[ref.view_id].agg_cols[ref.agg_index]
                total = col if total is None else total + col
            name = agg.name or "agg"
            if name in used_names:
                used_names[name] += 1
                name = f"{name}_{used_names[name]}"
            else:
                used_names[name] = 0
            columns[name] = np.asarray(total, dtype=np.float64)
            attrs.append(Attribute(name, "continuous", np.float64))
        return Relation(query.name, Schema(attrs), columns)

    def _attribute(
        self, name: str, column: np.ndarray, database: Database
    ) -> Attribute:
        try:
            kind = database.attribute_kind(name)
        except KeyError:
            kind = "categorical"
        return Attribute(name, kind, column.dtype)
