"""The LMFAO engine facade: all layers wired together (paper Figure 1).

    Aggregates -> Join Tree -> Find Roots -> Aggregate Pushdown
    -> Merge Views -> Group Views -> Multi-Output Optimization
    -> Parallelization -> Compilation

Planning (this module + the layers it calls) produces an
:class:`EnginePlan`; execution is one loop (:mod:`repro.engine.executor`):
the :class:`DataflowScheduler` runs the view groups front to back in the
order ``group_views`` lists them, the :class:`InterpreterBackend`
evaluates each group by walking its step IR, and the views live in a
plain dict that drops each one after the last group that reads it.
Which views those are is read off once per plan
(:attr:`EnginePlan.view_frees`), by the same ``step_liveness`` that
frees a group's vars after their last step.  The Compilation layer
renders each group's steps as specialized source for reading
(:meth:`EnginePlan.generated_source`); nothing executes it.

Usage::

    engine = LMFAO(database)
    results = engine.run(batch)               # query name -> Relation
    stats = engine.plan(batch).statistics
    print(engine.plan(batch).generated_source())
"""

from __future__ import annotations

import copy
import time
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..data.database import Database
from ..data.relation import Relation
from ..data.schema import Attribute, Schema
from ..jointree.join_tree import JoinTree, join_tree_from_database
from ..query.query import QueryBatch
from . import codegen
from .executor import DataflowScheduler, InterpreterBackend
from .grouping import GroupedPlan, group_views
from .interpreter import ViewData
from .plan import GroupPlan, build_group_plan, step_liveness
from .pushdown import DecomposedBatch, Decomposer
from .roots import assign_roots
from .stats import PlanStatistics, compute_statistics
from .viewcache.cache import CacheRunReport, PatchRecipe, ViewCache
from .viewcache.signature import (
    ViewSignature,
    dyn_binding_key,
    view_shapes,
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
    #: ``view_frees[i]``: ids of the views no group after group ``i``
    #: reads and no query output holds, dropped after group ``i`` runs
    view_frees: Tuple[Tuple[int, ...], ...] = field(init=False, repr=False)
    #: (first query, aggregate names of the batch assembled from it:
    #: :meth:`QueryBatch.aggregate_names`, which the plan-cache key
    #: leaves out) -> one :class:`AnswerLayout` per query, built by the
    #: first :meth:`LMFAO.assemble` under that key
    layouts: Dict[tuple, Tuple[AnswerLayout, ...]] = field(
        default_factory=dict, init=False, repr=False
    )

    def __post_init__(self) -> None:
        # a group reads its input views and writes its own; result
        # assembly reads the output views after the last group, so they
        # never die
        accesses = [
            _ViewAccess(p.input_view_ids, tuple(p.group.view_ids))
            for p in self.group_plans
        ]
        outputs = tuple(
            ref.view_id
            for output in self.decomposed.outputs
            for refs in output.term_refs
            for ref in refs
        )
        frees, _ = step_liveness([*accesses, _ViewAccess(outputs, ())])
        self.view_frees = frees[:-1]

    def describe(self) -> str:
        """Dump all group plans (Figure 4 analog)."""
        return "\n\n".join(p.describe() for p in self.group_plans)

    def generated_source(self) -> str:
        """The generated specialized code (Figure 7 analog)."""
        return "\n\n".join(
            codegen.render_source(p, fn_name=f"group_fn_{p.group.id}")
            for p in self.group_plans
        )


@dataclass(frozen=True)
class _ViewAccess:
    """The views one group (or result assembly) reads and writes: a
    step, as :func:`step_liveness` sees it."""

    reads: Tuple[int, ...]
    writes: Tuple[int, ...]


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

    ``root`` forces every query to root at one named join-tree node, as
    the incremental-maintenance layer (:mod:`repro.engine.ivm`) does.

    ``view_cache`` (optional) attaches a cross-run
    :class:`~repro.engine.viewcache.cache.ViewCache`: before execution
    every planned view's content signature is probed, groups whose
    outputs are all cached are skipped, and newly materialized views
    are admitted back into the cache (interior views the moment the
    last group that reads them has run).  The cache may be shared
    between engines and sessions — keys are content addresses, so a hit
    is always the data the engine would have recomputed.  With a cache
    attached, every keyed view also carries its *support*: a COUNT
    aggregate, the multiplicity of its subtree join per group key (an
    existing COUNT column where the batch has one), so
    :meth:`ViewCache.on_delta` can retire a key whose count cancels to
    zero under a retraction; without one, plans count nothing extra.  A
    result's columns may then be a cached view's memory, so they are
    read-only (:meth:`assemble`).
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
        self.backend = InterpreterBackend()
        self.view_cache = view_cache
        self._plan_cache: Dict[tuple, EnginePlan] = {}
        # id(plan) -> (plan, binding, shapes, database, signatures); the
        # identities are re-checked so a database swap re-hashes digests
        # and a re-binding rebuilds shapes
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
            self.view_cache is not None,
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
        # support counts only matter where delta merges happen: in the
        # cache's views
        decomposer = Decomposer(
            self.join_tree,
            merge_mode=self.merge_mode,
            dyn_slots=dyn_slots,
            track_support=self.view_cache is not None,
        )
        decomposed = decomposer.decompose(batch, roots)
        grouped = group_views(
            decomposed, group_enabled=self.group_views_enabled
        )
        group_plans = [
            build_group_plan(
                group,
                decomposed.views,
                self.database.relation(group.node),
                dyn_slots,
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
        views, report = self.execute(plan, dyn, database=db)
        result = self.assemble(batch, plan, views, database=db)
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
        version's data.  Memoized per (plan, database, binding).  The
        views' shapes are kept per (plan, binding): a new database
        version re-hashes only fingerprints and one digest per view, and a
        re-binding rebuilds the shapes.
        """
        db = database if database is not None else self.database
        dyn_key = dyn_binding_key(dyn)
        memo = self._sig_memo.get(id(plan))
        if memo is not None and memo[0] is plan and memo[1] == dyn_key:
            shapes = memo[2]
            if memo[3] is db:
                return memo[4]
        else:
            shapes = view_shapes(
                plan.decomposed.views, plan.dyn_slots, dyn
            )
        sigs = view_signatures(plan.decomposed.views, db, shapes=shapes)
        self._sig_memo[id(plan)] = (plan, dyn_key, shapes, db, sigs)
        return sigs

    def execute(
        self,
        plan: EnginePlan,
        dyn: Sequence,
        *,
        database: Optional[Database] = None,
    ) -> Tuple[Dict[int, ViewData], Optional[CacheRunReport]]:
        """Materialize the output views of a planned batch.

        The scheduler runs the groups front to back and drops each view
        after the last group that reads it, so what is returned is the
        output views, by id.  With a view cache attached, a group whose
        views are all cache hits does not run, a dropped or output view
        that was a miss is admitted to the cache, and the second value
        is the run's cache report (else None).  ``database`` pins
        execution to an explicit database version (see :meth:`run`).
        """
        db = database if database is not None else self.database
        cache = self.view_cache
        report: Optional[CacheRunReport] = None
        views: Dict[int, ViewData] = {}
        skip: set = set()
        # view id -> (signature, repair recipe) of this run's cache misses
        misses: Dict[int, Tuple[ViewSignature, Optional[PatchRecipe]]] = {}
        if cache is not None:
            sigs = self.view_signatures_for(plan, dyn, database=db)
            report = CacheRunReport(total_groups=len(plan.group_plans))
            for view in plan.decomposed.views:
                report.names[view.id] = view.name
                sig = sigs[view.id]
                if not sig.cacheable:
                    report.events[view.id] = "uncacheable"
                    continue
                data = cache.get(sig.digest, database=db)
                if data is None:
                    report.events[view.id] = "miss"
                    misses[view.id] = (sig, None)
                else:
                    report.events[view.id] = "hit"
                    views[view.id] = data
            binding = tuple(copy.copy(f) for f in dyn)
            for group_plan in plan.group_plans:
                if all(
                    report.events.get(vid) == "hit"
                    for vid in group_plan.group.view_ids
                ):
                    skip.add(group_plan.group.id)
                    continue
                # fix how to repair this group's views after updates:
                # its plan, a copy of this run's binding, and each input
                # by shape (a cacheable view's inputs are all cacheable)
                inputs = tuple(
                    (ivid, sigs[ivid].shape, sigs[ivid].relations)
                    for ivid in group_plan.input_view_ids
                )
                for vid in group_plan.group.view_ids:
                    if vid in misses:
                        misses[vid] = (
                            sigs[vid],
                            PatchRecipe(group_plan, vid, binding, inputs),
                        )
            report.skipped_groups = len(skip)
        DataflowScheduler().run(
            plan, views, self.backend, db, dyn, skip, cache, misses
        )
        # the output views outlive the loop; a miss among them is
        # admitted here
        for vid, data in views.items():
            if vid in misses:
                sig, recipe = misses[vid]
                cache.put(sig, data, recipe=recipe, database=db)
        return views, report

    # -- output assembly ------------------------------------------------------

    def assemble(
        self,
        batch: QueryBatch,
        plan: EnginePlan,
        view_data: Mapping[int, ViewData],
        *,
        database: Optional[Database] = None,
        first: int = 0,
    ) -> BatchResult:
        """Assemble per-query result relations from materialized views.

        ``batch`` is the planned batch, or a run of its queries starting
        at query ``first`` under names of their own: one member of a
        fused batch (:class:`~repro.engine.viewcache.fusion.FusedBatch`).
        Each query's :class:`AnswerLayout` is built once per plan, first
        query and aggregate names.  Where a query's aggregates are one
        contiguous run of single terms of one view, its aggregate
        columns are the rows of one slice of that view's sums block;
        other aggregates add up their terms.  With a view cache attached
        every result column is a read-only view (the block slice is
        flagged once): a key column or a block row is a cached view's
        own memory, so a write into a result raises instead of changing
        the next run's answer.  Without one the views die with the run,
        and the columns stay writable.
        """
        key = (first, batch.aggregate_names())
        layouts = plan.layouts.get(key)
        if layouts is None:
            # two threads may both build it; they build equal layouts
            db = database if database is not None else self.database
            outputs = plan.decomposed.outputs[first : first + len(batch)]
            assert len(outputs) == len(batch), (first, len(batch))
            layouts = plan.layouts[key] = tuple(
                _layout(query, output, view_data, db)
                for query, output in zip(batch, outputs)
            )
        shared = self.view_cache is not None
        result = BatchResult()
        for query, layout in zip(batch, layouts):
            result[query.name] = _assemble_query(
                query.name, layout, view_data, shared
            )
        return result


@dataclass(frozen=True)
class AnswerLayout:
    """Where one query's result columns live in the output views (the
    query's name is the assembled batch's, not the layout's).

    ``key_positions`` index ``key_view``'s group-by in the query's
    group-by order.  ``block`` is ``(view_id, lo, hi)`` when aggregate
    ``i`` is the single term at row ``lo + i`` of one view's sums, so
    the aggregate columns are the rows of ``sums[lo:hi]``; otherwise it
    is None and ``terms`` lists each aggregate's ``(view_id, row)``
    terms, which are added up.
    """

    names: Tuple[str, ...]
    schema: Schema
    key_view: int
    key_positions: Tuple[int, ...]
    block: Optional[Tuple[int, int, int]]
    terms: Tuple[Tuple[Tuple[int, int], ...], ...]


def _layout(query, output, view_data, database: Database) -> AnswerLayout:
    assert len(output.term_refs) == query.n_aggregates, (
        output.query_name, query.name,
    )
    key_view = output.term_refs[0][0].view_id
    # key columns come from any referenced output view (all are
    # lexicographically aligned over the same group-by tuple set)
    base = view_data[key_view]
    key_positions = tuple(base.group_by.index(a) for a in query.group_by)
    attrs = [
        Attribute(name, _kind(name, database), base.key_cols[pos].dtype)
        for name, pos in zip(query.group_by, key_positions)
    ]
    # group-by columns reserve their names; colliding aggregate names
    # get suffixed like duplicates
    used_names: Dict[str, int] = {name: 0 for name in query.group_by}
    for agg in query.aggregates:
        name = agg.name or "agg"
        if name in used_names:
            used_names[name] += 1
            name = f"{name}_{used_names[name]}"
        else:
            used_names[name] = 0
        attrs.append(Attribute(name, "continuous", np.float64))
    terms = tuple(
        tuple((ref.view_id, ref.agg_index) for ref in refs)
        for refs in output.term_refs
    )
    (view_id, lo), block = terms[0][0], None
    if all(t == ((view_id, lo + i),) for i, t in enumerate(terms)):
        block = (view_id, lo, lo + len(terms))
    schema = Schema(attrs)
    return AnswerLayout(
        schema.names, schema, key_view, key_positions, block, terms
    )


def _kind(name: str, database: Database) -> str:
    try:
        return database.attribute_kind(name)
    except KeyError:
        return "categorical"


def _assemble_query(
    name: str,
    layout: AnswerLayout,
    view_data: Mapping[int, ViewData],
    shared: bool,
) -> Relation:
    key_cols = view_data[layout.key_view].key_cols
    columns = [key_cols[pos] for pos in layout.key_positions]
    if shared:
        columns = [_read_only(column) for column in columns]
    if layout.block is not None:
        view_id, lo, hi = layout.block
        block = view_data[view_id].sums[lo:hi]
        if shared:
            block.flags.writeable = False
        columns.extend(block)
    else:
        for refs in layout.terms:
            total = view_data[refs[0][0]].sums[refs[0][1]]
            for view_id, row in refs[1:]:
                total = total + view_data[view_id].sums[row]
            columns.append(_read_only(total) if shared else total)
    return Relation(name, layout.schema, dict(zip(layout.names, columns)))


def _read_only(column: np.ndarray) -> np.ndarray:
    """A view of ``column`` that raises on write; no copy."""
    view = column.view()
    view.flags.writeable = False
    return view
