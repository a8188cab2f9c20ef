"""The database catalog: a set of relations plus cardinality statistics.

The Join Tree layer of LMFAO takes "the database schema and cardinality
constraints (e.g., sizes of relations and attribute domains)" as input;
:class:`Database` is where those live.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Tuple

import numpy as np

from .relation import Relation


@dataclass(frozen=True)
class DeltaBatch:
    """A batch of inserts and/or retractions against one relation.

    ``inserts`` maps attribute names to equal-length arrays of new rows;
    ``delete_indices`` are row positions (in the relation's current row
    order) to retract.  Either part may be absent.  Use
    :meth:`Relation.match_rows` to turn value tuples into indices for
    deletion by value.
    """

    relation: str
    inserts: Optional[Mapping[str, np.ndarray]] = None
    delete_indices: Optional[np.ndarray] = None

    @classmethod
    def insert(cls, relation: str, columns: Mapping[str, np.ndarray]) -> "DeltaBatch":
        return cls(relation=relation, inserts=columns)

    @classmethod
    def delete(cls, relation: str, indices: np.ndarray) -> "DeltaBatch":
        return cls(relation=relation, delete_indices=indices)

    @property
    def is_empty(self) -> bool:
        no_ins = self.inserts is None or all(
            len(np.asarray(c)) == 0 for c in self.inserts.values()
        )
        no_del = (
            self.delete_indices is None
            or len(np.asarray(self.delete_indices)) == 0
        )
        return no_ins and no_del

    def n_changes(self) -> int:
        n = 0
        if self.inserts:
            n += max(
                (len(np.asarray(c)) for c in self.inserts.values()),
                default=0,
            )
        if self.delete_indices is not None:
            n += len(np.unique(np.asarray(self.delete_indices)))
        return n


@dataclass(frozen=True)
class AppliedDelta:
    """The result of applying a :class:`DeltaBatch` to a database.

    ``inserted``/``deleted`` are the delta partitions as relations with
    the original schema — exactly what delta re-evaluation needs.
    ``previous`` is the database the delta was applied *to*: consumers
    that patch cached state forward (``ViewCache.on_delta``) use it to
    check a cached entry really holds the pre-delta version before
    patching, instead of assuming every entry is current.
    """

    database: "Database"
    relation: str
    inserted: Optional[Relation]
    deleted: Optional[Relation]
    previous: Optional["Database"] = None


class Database:
    """A named collection of relations joined by natural join."""

    def __init__(self, relations: Iterable[Relation], name: str = "db"):
        self.name = name
        self._relations: Dict[str, Relation] = {}
        for rel in relations:
            if rel.name in self._relations:
                raise ValueError(f"duplicate relation name {rel.name!r}")
            self._relations[rel.name] = rel

    # -- catalog ----------------------------------------------------------

    @property
    def relation_names(self) -> Tuple[str, ...]:
        return tuple(self._relations)

    def relation(self, name: str) -> Relation:
        try:
            return self._relations[name]
        except KeyError:
            raise KeyError(
                f"no relation {name!r}; database has {list(self._relations)}"
            ) from None

    def __iter__(self) -> Iterator[Relation]:
        return iter(self._relations.values())

    def __len__(self) -> int:
        return len(self._relations)

    def __contains__(self, name: object) -> bool:
        return name in self._relations

    def replace(self, relation: Relation) -> "Database":
        """A new database with one relation replaced (same name)."""
        if relation.name not in self._relations:
            raise KeyError(f"no relation {relation.name!r} to replace")
        rels = [
            relation if r.name == relation.name else r for r in self
        ]
        return Database(rels, name=self.name)

    def with_relation(self, relation: Relation) -> "Database":
        """A new database with an extra relation."""
        return Database(list(self) + [relation], name=self.name)

    # -- updates -----------------------------------------------------------

    def apply_delta(self, delta: DeltaBatch) -> AppliedDelta:
        """Apply inserts and retractions to one relation.

        Deletions are taken against the *current* row order, before the
        inserts are appended, so a single batch can both retract old rows
        and add new ones.  Returns the updated database plus the inserted
        and deleted partitions for incremental re-evaluation.
        """
        relation = self.relation(delta.relation)
        deleted: Optional[Relation] = None
        inserted: Optional[Relation] = None
        if delta.delete_indices is not None and len(
            np.asarray(delta.delete_indices)
        ):
            relation, deleted = relation.delete_rows(delta.delete_indices)
        if delta.inserts is not None:
            before = relation.n_rows
            relation = relation.append_rows(delta.inserts)
            n_new = relation.n_rows - before
            if n_new:
                inserted = relation.take(
                    np.arange(before, relation.n_rows)
                )
        return AppliedDelta(
            database=self.replace(relation),
            relation=delta.relation,
            inserted=inserted,
            deleted=deleted,
            previous=self,
        )

    # -- statistics --------------------------------------------------------

    def total_tuples(self) -> int:
        return sum(r.n_rows for r in self)

    def total_bytes(self) -> int:
        return sum(r.nbytes() for r in self)

    def attributes(self) -> List[str]:
        """All attribute names in the database, deduplicated, in order."""
        seen: Dict[str, None] = {}
        for rel in self:
            for name in rel.schema.names:
                seen.setdefault(name, None)
        return list(seen)

    def relations_with_attribute(self, attr: str) -> List[str]:
        return [r.name for r in self if r.has_column(attr)]

    def attribute_kind(self, attr: str) -> str:
        """Kind of an attribute (first relation that carries it wins)."""
        for rel in self:
            if attr in rel.schema:
                return rel.schema[attr].kind
        raise KeyError(f"attribute {attr!r} not in database")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        parts = ", ".join(f"{r.name}({r.n_rows})" for r in self)
        return f"Database({self.name!r}: {parts})"


def materialize_join(
    database: Database, order: Optional[List[str]] = None
) -> Relation:
    """The full natural join of all relations (the paper's training dataset).

    This is what the two-step baselines pay for; LMFAO never builds it.
    Relations are joined greedily along shared attributes so that no
    accidental cross products appear for connected schemas.
    """
    remaining = list(order) if order is not None else list(
        database.relation_names
    )
    if not remaining:
        raise ValueError("cannot join an empty database")
    result = database.relation(remaining.pop(0))
    while remaining:
        # pick the next relation sharing attributes with the current result
        for i, name in enumerate(remaining):
            rel = database.relation(name)
            if result.schema.intersection(rel.schema):
                remaining.pop(i)
                break
        else:
            name = remaining.pop(0)
            rel = database.relation(name)
        result = result.join(rel)
    return result.rename(f"join({database.name})")
