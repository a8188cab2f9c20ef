"""Directional views: the intermediate representation of LMFAO plans.

A :class:`View` flows along a join-tree edge from ``source`` to ``target``
(§3.2).  Views with ``target=None`` are *output* views computed at a query
root.  Each view groups by ``group_by`` and carries a list of
:class:`AggregateSpec` columns; each spec is a product of

* a scalar ``coefficient`` (constants folded at plan time),
* ``functions`` evaluated at the source node, and
* ``refs`` — one aggregate column of a view incoming from a child edge.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..query.functions import Function


@dataclass(frozen=True)
class ViewRef:
    """A reference to aggregate column ``agg_index`` of view ``view_id``."""

    view_id: int
    agg_index: int


@dataclass
class AggregateSpec:
    """One aggregate column of a view: ``coeff * prod(functions) * prod(refs)``."""

    coefficient: float
    functions: Tuple[Function, ...]
    refs: Tuple[ViewRef, ...]

    def signature(self, dyn_slots: Optional[Dict[int, int]] = None) -> tuple:
        """Identity used for view merging.

        ``dyn_slots`` maps ``id(function)`` to the batch slot of dynamic
        functions; two dynamic functions are never merged even when their
        current values coincide, so cached plans can re-bind each slot
        independently.
        """
        func_sigs = []
        for f in self.functions:
            if f.dynamic:
                # unknown slot -> fall back to object identity, which is
                # unique and therefore never wrongly merges two dynamic
                # functions
                slot = (dyn_slots or {}).get(id(f), id(f))
                func_sigs.append(f.structural_signature(slot))
            else:
                func_sigs.append(f.signature())
        return (
            self.coefficient,
            tuple(sorted(func_sigs)),
            tuple(sorted((r.view_id, r.agg_index) for r in self.refs)),
        )

    def referenced_view_ids(self) -> Tuple[int, ...]:
        return tuple(sorted({r.view_id for r in self.refs}))


@dataclass
class View:
    """A directional view with one or more aggregate columns."""

    id: int
    source: str
    target: Optional[str]
    group_by: Tuple[str, ...]
    aggregates: List[AggregateSpec] = field(default_factory=list)

    @property
    def is_output(self) -> bool:
        return self.target is None

    @property
    def name(self) -> str:
        if self.is_output:
            return f"Q{self.id}@{self.source}"
        return f"V{self.id}[{self.source}->{self.target}]"

    def referenced_view_ids(self) -> Tuple[int, ...]:
        seen: Dict[int, None] = {}
        for spec in self.aggregates:
            for ref in spec.refs:
                seen.setdefault(ref.view_id, None)
        return tuple(seen)

    def add_aggregate(self, spec: AggregateSpec) -> int:
        """Append an aggregate column; returns its index."""
        self.aggregates.append(spec)
        return len(self.aggregates) - 1

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"View({self.name}, group_by={list(self.group_by)}, "
            f"aggs={len(self.aggregates)})"
        )


@dataclass
class QueryOutput:
    """How to assemble one query's result from output views.

    ``term_refs[i]`` lists, for the query's i-th aggregate, the output-view
    columns whose sum is the aggregate's value (one entry per product
    term).
    """

    query_name: str
    group_by: Tuple[str, ...]
    view_id: int
    term_refs: List[List[ViewRef]]
