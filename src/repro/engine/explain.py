"""Human-readable plan explanation (EXPLAIN for LMFAO plans).

Shows what each optimization layer produced: the join tree, per-query
roots, the directional views per edge with their aggregate counts, the
view groups with their dependency levels, and a summary of the sharing
achieved (the Figure 3 picture, as text).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..jointree.join_tree import JoinTree
from .engine import EnginePlan
from .plan import DotStep, GroupSumStep, MulStep


def explain(plan: EnginePlan, tree: JoinTree) -> str:
    """Render a full textual explanation of an engine plan."""
    lines: List[str] = []
    lines.append("LMFAO plan")
    lines.append("==========")
    lines.extend(_explain_tree(tree))
    lines.extend(_explain_roots(plan))
    lines.extend(_explain_views(plan))
    lines.extend(_explain_groups(plan))
    lines.extend(_explain_sharing(plan))
    return "\n".join(lines)


def _explain_tree(tree: JoinTree) -> List[str]:
    lines = ["", "join tree:"]
    for a, b in tree.edges:
        keys = ", ".join(tree.join_keys(a, b))
        lines.append(f"  {a} -- {b}  on ({keys})")
    return lines


def _explain_roots(plan: EnginePlan) -> List[str]:
    lines = ["", "roots (Find Roots layer):"]
    by_root: Dict[str, List[str]] = {}
    for query_name, root in plan.statistics.roots.items():
        by_root.setdefault(root, []).append(query_name)
    for root in sorted(by_root):
        queries = by_root[root]
        shown = ", ".join(queries[:6])
        suffix = f", ... ({len(queries)} total)" if len(queries) > 6 else ""
        lines.append(f"  {root}: {shown}{suffix}")
    return lines


def _explain_views(plan: EnginePlan) -> List[str]:
    lines = ["", "directional views (Aggregate Pushdown + Merge Views):"]
    by_edge: Dict[str, List] = {}
    for view in plan.decomposed.views:
        edge = (
            f"{view.source} -> {view.target}"
            if view.target
            else f"{view.source} (output)"
        )
        by_edge.setdefault(edge, []).append(view)
    for edge in sorted(by_edge):
        views = by_edge[edge]
        n_aggs = sum(len(v.aggregates) for v in views)
        lines.append(
            f"  {edge}: {len(views)} view(s), {n_aggs} aggregate column(s)"
        )
        for view in views:
            group_by = ", ".join(view.group_by) or "<scalar>"
            lines.append(
                f"    {view.name}  group by [{group_by}]  "
                f"{len(view.aggregates)} agg(s)"
            )
    return lines


def _explain_groups(plan: EnginePlan) -> List[str]:
    lines = ["", "view groups (Group Views / Multi-Output):"]
    # dependency depth, for display only — execution itself is dataflow
    # scheduled, not level-stepped
    level_of: Dict[int, int] = {}
    for group in plan.grouped.groups:  # topological order
        level_of[group.id] = max(
            (level_of[dep] + 1 for dep in group.depends_on), default=0
        )
    views = plan.decomposed.views
    for group in plan.grouped.groups:
        group_plan = plan.group_plans[group.id]
        # what the post-sum factoring of ``plan.py`` left to do row by
        # row, and how many arrays its liveness lets a run hold at once
        n_aggregates = sum(len(views[v].aggregates) for v in group.view_ids)
        n_sums, n_products = _row_level_work(group_plan.steps)
        dots = [s for s in group_plan.steps if isinstance(s, DotStep)]
        lines.append(
            f"  level {level_of[group.id]}: group {group.id} @ "
            f"{group.node} computes views {sorted(group.view_ids)}  "
            f"steps: {len(group_plan.steps)}, "
            f"peak live arrays: {group_plan.peak_live}  "
            f"row-level products: {n_products}  "
            f"dot products: {len(dots)} folding "
            f"{sum(len(s.outs) for s in dots)} sums  "
            f"aggregates -> row-level sums: {n_aggregates} -> {n_sums}"
        )
    return lines


def _row_level_work(steps) -> Tuple[int, int]:
    """How many sums and multiplies of a group run over context rows.

    A :class:`DotStep` folds several sums, one per output.  A
    :class:`MulStep` whose left operand is a sum, or a product of one,
    multiplies per group, after the sum; every other one multiplies
    rows.
    """
    n_sums, n_products, per_group = 0, 0, set()
    for step in steps:
        if isinstance(step, (GroupSumStep, DotStep)):
            n_sums += len(step.writes)
            per_group.update(step.writes)
        elif isinstance(step, MulStep):
            if step.a in per_group:
                per_group.add(step.out)
            else:
                n_products += 1
    return n_sums, n_products


def _explain_sharing(plan: EnginePlan) -> List[str]:
    stats = plan.statistics
    lines = ["", "sharing summary:"]
    lines.append(
        f"  {stats.n_application_aggregates} application aggregates "
        f"+ {stats.n_intermediate_aggregates} intermediates "
        f"in {stats.n_views} views / {stats.n_groups} groups"
    )
    if stats.n_application_aggregates:
        per_view = stats.n_total_aggregates / max(1, stats.n_views)
        lines.append(
            f"  average {per_view:.1f} aggregates share each view's scan"
        )
    return lines
