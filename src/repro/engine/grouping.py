"""The Group Views layer (paper §3.4, Figure 3 right).

Views going out of the same join-tree node are clustered into *view
groups* such that no view in a group depends (transitively) on another
view of the same group.  A group is LMFAO's computational unit: the
Multi-Output Optimization evaluates all of a group's views in one shared
pass over the node's relation.

We assign each view a *rank* — the length of the longest reference chain
below it — and group by ``(source node, rank)``.  Ranks strictly increase
along dependency chains, so same-rank views at a node are independent.
Groups are listed by rank, so every group comes after the groups it
reads from, and the executor runs them in that order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Set, Tuple

from .pushdown import DecomposedBatch
from .views import View


@dataclass
class ViewGroup:
    """A set of independent views computed together at one node."""

    id: int
    node: str
    view_ids: List[int]
    #: ids of groups this group reads views from
    depends_on: Set[int] = field(default_factory=set)


@dataclass
class GroupedPlan:
    """All view groups in a topological execution order.

    ``groups`` is ordered so that every group appears after all groups
    it depends on, and a group's ``id`` is its position in the list: the
    engine's group loop simply iterates it front to back.
    """

    groups: List[ViewGroup]
    #: group id per view id
    group_of: Dict[int, int]

    @property
    def n_groups(self) -> int:
        return len(self.groups)


def group_views(
    decomposed: DecomposedBatch, group_enabled: bool = True
) -> GroupedPlan:
    """Cluster views into groups; ``group_enabled=False`` puts every view
    in its own group (the no-MOO ablation)."""
    views = decomposed.views
    ranks = _ranks(views)
    groups: List[ViewGroup] = []
    group_of: Dict[int, int] = {}
    if group_enabled:
        bucket: Dict[Tuple[str, int], ViewGroup] = {}
        # iterate in rank order so groups come out topological
        for view in sorted(views, key=lambda v: (ranks[v.id], v.id)):
            key = (view.source, ranks[view.id])
            group = bucket.get(key)
            if group is None:
                group = ViewGroup(id=len(groups), node=view.source, view_ids=[])
                groups.append(group)
                bucket[key] = group
            group.view_ids.append(view.id)
            group_of[view.id] = group.id
    else:
        for view in sorted(views, key=lambda v: (ranks[v.id], v.id)):
            group = ViewGroup(
                id=len(groups), node=view.source, view_ids=[view.id]
            )
            groups.append(group)
            group_of[view.id] = group.id
    for group in groups:
        for vid in group.view_ids:
            for ref_vid in views[vid].referenced_view_ids():
                dep = group_of[ref_vid]
                if dep != group.id:
                    group.depends_on.add(dep)
    return GroupedPlan(groups=groups, group_of=group_of)


def _ranks(views: Sequence[View]) -> Dict[int, int]:
    """Longest reference-chain length per view (0 for leaf views)."""
    ranks: Dict[int, int] = {}

    def rank(view_id: int) -> int:
        if view_id in ranks:
            return ranks[view_id]
        refs = views[view_id].referenced_view_ids()
        value = 0 if not refs else 1 + max(rank(r) for r in refs)
        ranks[view_id] = value
        return value

    for view in views:
        rank(view.id)
    return ranks
