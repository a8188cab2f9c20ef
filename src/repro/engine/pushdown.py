"""Aggregate Pushdown + Merge Views (paper §3.2 and §3.4).

Each product term of each query aggregate is decomposed into one
directional view per join-tree edge on the path from the leaves to the
query's root.  The decomposition partially pushes aggregates past joins
(eager aggregation) and exposes sharing:

* **Case 3 merging** (identical views) happens through a memo table — a
  term re-using an existing (edge, group-by, aggregate) triple gets a
  reference to the existing column instead of a new view.
* **Case 2/1 merging** (same group-by, same or different body) happens
  through bucketing: views on the same edge with the same group-by become
  one multi-aggregate view.  Correctness of case-1 merging is guaranteed
  by the executor, which joins each aggregate only with the views it
  references (fan-out views never pollute sibling aggregates).

``merge_mode`` selects how much consolidation happens:

* ``"full"``   — dedup + bucketing (LMFAO);
* ``"dedup"``  — only identical-view sharing (case 3);
* ``"none"``   — one view per (query, term, edge): the unconsolidated
  3,256-view regime the paper describes before merging.

``track_support`` (set when a view cache is attached) gives every keyed
view a COUNT aggregate, its *support*: delta repair retires a key whose
count cancels to zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from ..jointree.join_tree import JoinTree, RootedView
from ..query.aggregates import Product
from ..query.query import Query, QueryBatch
from .views import AggregateSpec, QueryOutput, View, ViewRef

MERGE_MODES = ("full", "dedup", "none")


@dataclass
class DecomposedBatch:
    """The full set of views plus per-query output assembly recipes."""

    views: List[View]
    outputs: List[QueryOutput]
    roots: Dict[str, str]

    def view(self, view_id: int) -> View:
        return self.views[view_id]

    @property
    def n_views(self) -> int:
        return len(self.views)

    @property
    def n_total_aggregates(self) -> int:
        return sum(len(v.aggregates) for v in self.views)


class Decomposer:
    """Decomposes a query batch into directional views over a join tree."""

    def __init__(
        self,
        tree: JoinTree,
        merge_mode: str = "full",
        dyn_slots: Optional[Dict[int, int]] = None,
        track_support: bool = False,
    ):
        if merge_mode not in MERGE_MODES:
            raise ValueError(
                f"merge_mode must be one of {MERGE_MODES}, got {merge_mode!r}"
            )
        self.tree = tree
        self.merge_mode = merge_mode
        self.dyn_slots = dyn_slots or {}
        self.track_support = track_support
        self.views: List[View] = []
        # (source, target, group_by) -> View   [case 2/1 bucketing]
        self._buckets: Dict[tuple, View] = {}
        # (source, target, group_by, agg signature) -> ViewRef  [case 3]
        self._memo: Dict[tuple, ViewRef] = {}

    # -- public API ---------------------------------------------------------

    def decompose(
        self, batch: QueryBatch, roots: Dict[str, str]
    ) -> DecomposedBatch:
        outputs: List[QueryOutput] = []
        for query in batch:
            root = roots[query.name]
            outputs.append(self._decompose_query(query, root))
        return DecomposedBatch(views=self.views, outputs=outputs, roots=roots)

    # -- internals ------------------------------------------------------------

    def _decompose_query(self, query: Query, root: str) -> QueryOutput:
        rooted = self.tree.rooted(root)
        self._check_attrs(query)
        out_group_by = tuple(sorted(query.group_by))
        term_refs: List[List[ViewRef]] = []
        for aggregate in query.aggregates:
            refs_for_agg: List[ViewRef] = []
            for term in aggregate.terms:
                spec = self._decompose_term(term, rooted, query)
                ref = self._place(root, None, out_group_by, spec)
                refs_for_agg.append(ref)
            term_refs.append(refs_for_agg)
        # with "full" merging all terms of a query land in the same output
        # view (the bucket key (root, None, group_by) is constant per
        # query); in other modes term_refs point at individual views
        view_id = term_refs[0][0].view_id if term_refs and term_refs[0] else -1
        return QueryOutput(
            query_name=query.name,
            group_by=query.group_by,
            view_id=view_id,
            term_refs=term_refs,
        )

    def _check_attrs(self, query: Query) -> None:
        known = self.tree.all_attrs()
        for attr in query.referenced_attrs():
            if attr not in known:
                raise ValueError(
                    f"query {query.name!r} references unknown attribute "
                    f"{attr!r}"
                )

    def _decompose_term(
        self, term: Product, rooted: RootedView, query: Query
    ) -> AggregateSpec:
        """Build the view hierarchy for one product term; returns the spec
        to be placed in the root output view."""
        factors_by_node = self._assign_eval_nodes(term, rooted)
        needed = frozenset(query.group_by)
        root = rooted.root
        spec = self._build_node(
            root, None, needed, factors_by_node, rooted, term.coefficient
        )
        return spec

    def _assign_eval_nodes(
        self, term: Product, rooted: RootedView
    ) -> Dict[str, List]:
        """Each factor is evaluated at the deepest node that sees all of
        its attributes — in its own schema if possible, otherwise in its
        subtree (attributes are then carried up as group-bys)."""
        tree = self.tree
        by_node: Dict[str, List] = {}
        for factor in term.factors:
            attrs = set(factor.attrs)
            local = [
                n for n in tree.nodes if attrs <= tree.attrs_of(n)
            ]
            if local:
                node = max(local, key=lambda n: (rooted.depth[n], n))
            else:
                spanning = [
                    n
                    for n in tree.nodes
                    if attrs <= rooted.subtree_attrs[n]
                ]
                if not spanning:
                    raise ValueError(
                        f"factor {factor!r} references attributes outside "
                        "the join tree"
                    )
                node = max(spanning, key=lambda n: (rooted.depth[n], n))
            by_node.setdefault(node, []).append(factor)
        return by_node

    def _build_node(
        self,
        node: str,
        parent: Optional[str],
        needed_above: FrozenSet[str],
        factors_by_node: Dict[str, List],
        rooted: RootedView,
        coefficient: float,
    ) -> AggregateSpec:
        """Recursively build child views; return this node's spec.

        For non-root nodes the caller places the spec into a directional
        view; for the root the caller places it into the output view.
        """
        own_factors = tuple(factors_by_node.get(node, ()))
        child_needed = needed_above | frozenset(
            a for f in own_factors for a in f.attrs
        )
        refs: List[ViewRef] = []
        for child in rooted.children[node]:
            child_spec = self._build_node(
                child, node, child_needed, factors_by_node, rooted, 1.0
            )
            group_by = self._view_group_by(child, node, child_needed, rooted)
            refs.append(self._place(child, node, group_by, child_spec))
        return AggregateSpec(
            coefficient=coefficient,
            functions=own_factors,
            refs=tuple(refs),
        )

    def _view_group_by(
        self,
        node: str,
        parent: str,
        needed_above: FrozenSet[str],
        rooted: RootedView,
    ) -> Tuple[str, ...]:
        keys = set(self.tree.join_keys(node, parent))
        carried = needed_above & rooted.subtree_attrs[node]
        return tuple(sorted(keys | carried))

    def _place(
        self,
        source: str,
        target: Optional[str],
        group_by: Tuple[str, ...],
        spec: AggregateSpec,
    ) -> ViewRef:
        """Insert an aggregate spec into the view store, merging per mode.

        With ``track_support``, the first spec placed in a view — any
        but a scalar query output — brings the view's COUNT along: the
        product of the COUNT columns of the child views the spec reads,
        i.e. the multiplicity of the view's subtree join per key.  The
        memo merges it with an identical COUNT term.
        """
        ref = self._insert(source, target, group_by, spec)
        view = self.views[ref.view_id]
        if (
            self.track_support
            and view.count is None
            and (group_by or target is not None)
        ):
            count = AggregateSpec(
                1.0,
                (),
                tuple(
                    ViewRef(r.view_id, self.views[r.view_id].count)
                    for r in spec.refs
                ),
            )
            if self.merge_mode == "full":
                view.count = self._insert(
                    source, target, group_by, count
                ).agg_index
            else:
                view.count = view.add_aggregate(count)
        return ref

    def _insert(
        self,
        source: str,
        target: Optional[str],
        group_by: Tuple[str, ...],
        spec: AggregateSpec,
    ) -> ViewRef:
        if self.merge_mode == "none":
            view = View(
                id=len(self.views),
                source=source,
                target=target,
                group_by=group_by,
            )
            self.views.append(view)
            return ViewRef(view.id, view.add_aggregate(spec))
        memo_key = (source, target, group_by, spec.signature(self.dyn_slots))
        if memo_key in self._memo:
            return self._memo[memo_key]
        if self.merge_mode == "full":
            bucket_key = (source, target, group_by)
            view = self._buckets.get(bucket_key)
            if view is None:
                view = View(
                    id=len(self.views),
                    source=source,
                    target=target,
                    group_by=group_by,
                )
                self.views.append(view)
                self._buckets[bucket_key] = view
        else:  # dedup: a fresh single-aggregate view per distinct spec
            view = View(
                id=len(self.views),
                source=source,
                target=target,
                group_by=group_by,
            )
            self.views.append(view)
        ref = ViewRef(view.id, view.add_aggregate(spec))
        self._memo[memo_key] = ref
        return ref
