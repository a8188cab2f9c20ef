"""Queries of the paper's form (1):

    Q(F1, ..., Ff; alpha_1, ..., alpha_l) += R1(w1), ..., Rm(wm)

A query has group-by attributes and a list of aggregates; the body is
always the natural join of the whole database, so it is left implicit.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from .aggregates import Aggregate


class Query:
    """One group-by aggregate query over the natural join."""

    def __init__(
        self,
        name: str,
        group_by: Sequence[str],
        aggregates: Sequence[Aggregate],
    ):
        if not aggregates:
            raise ValueError(f"query {name!r} has no aggregates")
        group_list = list(group_by)
        if len(set(group_list)) != len(group_list):
            raise ValueError(
                f"query {name!r} has duplicate group-by attributes"
            )
        self.name = name
        self.group_by: Tuple[str, ...] = tuple(group_list)
        self.aggregates: Tuple[Aggregate, ...] = tuple(aggregates)

    @property
    def n_aggregates(self) -> int:
        return len(self.aggregates)

    def signature(self) -> tuple:
        return (
            "query",
            self.group_by,
            tuple(a.signature() for a in self.aggregates),
        )

    def referenced_attrs(self) -> Tuple[str, ...]:
        seen = dict.fromkeys(self.group_by)
        for agg in self.aggregates:
            for attr in agg.attrs:
                seen.setdefault(attr, None)
        return tuple(seen)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        gb = ", ".join(self.group_by)
        return f"Query({self.name!r}: [{gb}; {len(self.aggregates)} aggs])"


class QueryBatch:
    """A batch of queries sharing the same join — LMFAO's unit of work."""

    def __init__(self, queries: Sequence[Query]):
        names = [q.name for q in queries]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate query names in batch: {names}")
        self.queries: Tuple[Query, ...] = tuple(queries)
        # ``queries`` and everything below it (aggregates, terms,
        # factors) are tuples fixed here, so which functions are dynamic
        # and the value-free signature are computed once per batch
        self._dynamic: Optional[Tuple] = None
        self._structural_signature: Optional[tuple] = None

    def __iter__(self):
        return iter(self.queries)

    def __len__(self) -> int:
        return len(self.queries)

    @property
    def n_application_aggregates(self) -> int:
        """The paper's "A" statistic (Table 2)."""
        return sum(q.n_aggregates for q in self.queries)

    def dynamic_functions(self) -> List:
        """All dynamic functions in deterministic batch order.

        The order defines the *slots* used by cached plans: re-running a
        structurally identical batch binds new function values by slot.
        """
        if self._dynamic is None:
            dyn = {}
            for query in self.queries:
                for agg in query.aggregates:
                    for term in agg.terms:
                        for func in term.factors:
                            if func.dynamic:
                                dyn.setdefault(id(func), func)
            self._dynamic = tuple(dyn.values())
        return list(self._dynamic)

    def structural_signature(self) -> tuple:
        """Value-free batch identity: the plan-cache key.

        Dynamic function values are abstracted to slot numbers, so CART's
        per-node batches (same shape, new thresholds) hit the plan cache.
        Query names are part of the identity: a plan's outputs are bound
        to them, so two same-shaped batches with different names need
        two plans.  (Aggregate names are not — they are read off the
        batch being assembled, never off the plan.)  Memoized: a
        plan-cache hit costs one hash of the tuple, not a walk over
        every factor of the batch.
        """
        if self._structural_signature is None:
            self._structural_signature = self._compute_signature()
        return self._structural_signature

    def _compute_signature(self) -> tuple:
        slots = {id(f): i for i, f in enumerate(self.dynamic_functions())}
        parts = []
        for query in self.queries:
            agg_sigs = []
            for agg in query.aggregates:
                term_sigs = []
                for term in agg.terms:
                    factor_sigs = tuple(
                        sorted(
                            f.structural_signature(slots.get(id(f), -1))
                            for f in term.factors
                        )
                    )
                    term_sigs.append((term.coefficient, factor_sigs))
                agg_sigs.append(tuple(term_sigs))
            parts.append((query.name, query.group_by, tuple(agg_sigs)))
        return tuple(parts)

    def referenced_attrs(self) -> Tuple[str, ...]:
        seen = {}
        for query in self.queries:
            for attr in query.referenced_attrs():
                seen.setdefault(attr, None)
        return tuple(seen)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"QueryBatch({len(self.queries)} queries, "
            f"{self.n_application_aggregates} aggregates)"
        )
