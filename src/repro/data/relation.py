"""Columnar in-memory relations.

A :class:`Relation` stores one NumPy array per attribute.  Relations are
immutable from the engine's point of view: every operation returns a new
relation sharing column arrays where possible.  That is what lets a
relation keep the dictionary encoding of a key column for as long as it
lives: nothing can change under it, and an update is a new relation
with an empty memo.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from . import ops
from .schema import Attribute, Schema


class Relation:
    """A named relation with a :class:`Schema` and columnar payload."""

    def __init__(
        self,
        name: str,
        schema: Schema,
        columns: Mapping[str, np.ndarray],
    ):
        self.name = name
        self.schema = schema
        cols: Dict[str, np.ndarray] = {}
        n_rows: Optional[int] = None
        for attr in schema:
            if attr.name not in columns:
                raise ValueError(
                    f"relation {name!r} missing column {attr.name!r}"
                )
            col = np.asarray(columns[attr.name])
            if n_rows is None:
                n_rows = len(col)
            elif len(col) != n_rows:
                raise ValueError(
                    f"relation {name!r}: column {attr.name!r} has "
                    f"{len(col)} rows, expected {n_rows}"
                )
            cols[attr.name] = col
        self._columns = cols
        self._n_rows = n_rows if n_rows is not None else 0
        self._encodings = ops.ColumnEncodings(cols)

    def __getstate__(self) -> dict:
        # the encodings rebuild from the columns; never ship or store them
        state = dict(self.__dict__)
        del state["_encodings"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._encodings = ops.ColumnEncodings(self._columns)

    # -- construction helpers ------------------------------------------

    @classmethod
    def from_dict(
        cls,
        name: str,
        columns: Mapping[str, np.ndarray],
        attributes: Optional[Sequence[Attribute]] = None,
    ) -> "Relation":
        """Build a relation, inferring a schema when none is given.

        Integer columns are treated as categorical/key-like, float columns
        as continuous.
        """
        if attributes is None:
            attributes = []
            for col_name, values in columns.items():
                arr = np.asarray(values)
                if np.issubdtype(arr.dtype, np.integer):
                    attributes.append(
                        Attribute(col_name, "categorical", arr.dtype)
                    )
                else:
                    attributes.append(
                        Attribute(col_name, "continuous", arr.dtype)
                    )
        return cls(name, Schema(attributes), columns)

    # -- basic accessors ------------------------------------------------

    def __len__(self) -> int:
        return self._n_rows

    @property
    def n_rows(self) -> int:
        return self._n_rows

    @property
    def attribute_names(self) -> Tuple[str, ...]:
        return self.schema.names

    def column(self, name: str) -> np.ndarray:
        try:
            return self._columns[name]
        except KeyError:
            raise KeyError(
                f"relation {self.name!r} has no column {name!r}; "
                f"columns are {list(self._columns)}"
            ) from None

    def columns(self, names: Iterable[str]) -> List[np.ndarray]:
        return [self.column(n) for n in names]

    def has_column(self, name: str) -> bool:
        return name in self._columns

    def nbytes(self) -> int:
        """Approximate in-memory size of the payload in bytes."""
        return int(sum(c.nbytes for c in self._columns.values()))

    @property
    def encodings(self) -> ops.ColumnEncodings:
        """Attribute -> ``(codes, uniques)``, encoded on first use.

        The executor's joins and group-bys run on these codes; an entry
        is computed once per relation object and never changes.
        """
        return self._encodings

    # -- row-level operations -------------------------------------------

    def take(self, indices: np.ndarray) -> "Relation":
        """Relation restricted/reordered to the given row indices."""
        return Relation(
            self.name,
            self.schema,
            {n: c[indices] for n, c in self._columns.items()},
        )

    def filter(self, mask: np.ndarray) -> "Relation":
        """Relation restricted to rows where ``mask`` is true."""
        return Relation(
            self.name,
            self.schema,
            {n: c[mask] for n, c in self._columns.items()},
        )

    def project(self, names: Sequence[str], name: Optional[str] = None) -> "Relation":
        """Projection (no dedup) onto the named attributes."""
        return Relation(
            name or self.name,
            self.schema.project(names),
            {n: self._columns[n] for n in names},
        )

    def rename(self, name: str) -> "Relation":
        return Relation(name, self.schema, self._columns)

    def sorted_by(self, names: Sequence[str]) -> "Relation":
        """Relation sorted lexicographically by the given attributes."""
        order = ops.lexsort_rows(self.columns(names))
        return self.take(order)

    # -- updates ---------------------------------------------------------

    def append_rows(self, columns: Mapping[str, np.ndarray]) -> "Relation":
        """Relation with extra rows appended (same schema).

        ``columns`` must provide one equal-length array per attribute.
        Each is cast to its column's dtype, and a value the cast would
        change (``2.5`` into an integer column, a bool into a numeric
        one) raises :class:`ValueError`; an integral ``5.0`` into an
        integer column is accepted.
        """
        n_new: Optional[int] = None
        new_cols: Dict[str, np.ndarray] = {}
        for attr in self.schema:
            if attr.name not in columns:
                raise ValueError(
                    f"append to {self.name!r} missing column {attr.name!r}"
                )
            col = np.asarray(columns[attr.name])
            if n_new is None:
                n_new = len(col)
            elif len(col) != n_new:
                raise ValueError(
                    f"append to {self.name!r}: column {attr.name!r} has "
                    f"{len(col)} rows, expected {n_new}"
                )
            existing = self._columns[attr.name]
            new_cols[attr.name] = np.concatenate(
                [existing, self._exact_cast(attr.name, col, existing.dtype)]
            )
        return Relation(self.name, self.schema, new_cols)

    def _exact_cast(
        self, name: str, col: np.ndarray, dtype: np.dtype
    ) -> np.ndarray:
        """``col`` as ``dtype``, or ValueError if any value would change.

        A value survives only if it compares equal after the cast *and*
        casts back to itself: the comparison alone would promote an int
        above 2**53 to the same float its cast rounded it to.
        """
        if col.dtype == dtype:
            return col
        try:
            with np.errstate(invalid="ignore"):
                cast = col.astype(dtype)
                back = cast.astype(col.dtype)
            lossless = (
                (col.dtype.kind == "b") == (dtype.kind == "b")
                and np.array_equal(cast, col, equal_nan=dtype.kind == "f")
                and np.array_equal(
                    back, col, equal_nan=col.dtype.kind == "f"
                )
            )
        except (TypeError, ValueError):  # e.g. "abc" into a number
            lossless = False
        if not lossless:
            raise ValueError(
                f"append to {self.name!r}: column {name!r} holds "
                f"{col.dtype} values that do not fit its dtype {dtype}"
            )
        return cast

    def delete_rows(self, indices: np.ndarray) -> Tuple["Relation", "Relation"]:
        """Split off the rows at ``indices``.

        Returns ``(remaining, deleted)``; the deleted partition preserves
        this relation's schema so it can be re-evaluated as a delta.
        Indices must be integers (not floats, not bools) and in range;
        they are deduplicated.
        """
        idx = np.asarray(indices)
        if idx.size and idx.dtype.kind not in "iu":
            raise ValueError(
                f"delete indices for {self.name!r} must be integers, "
                f"got {idx.dtype}"
            )
        idx = np.unique(idx.astype(np.int64))
        if len(idx) and (idx[0] < 0 or idx[-1] >= self.n_rows):
            raise IndexError(
                f"delete indices out of range for {self.name!r} "
                f"({self.n_rows} rows)"
            )
        keep = np.ones(self.n_rows, dtype=bool)
        keep[idx] = False
        return self.filter(keep), self.take(idx)

    def match_rows(self, columns: Mapping[str, np.ndarray]) -> np.ndarray:
        """Indices of all rows equal to any of the given key tuples.

        ``columns`` maps a subset of attributes to equal-length arrays of
        wanted values; every stored row matching one of the value tuples
        is returned (set semantics over the provided tuples).
        """
        if not columns:
            raise ValueError("match_rows requires at least one column")
        names = list(columns)
        lcodes, rcodes = ops.shared_codes(
            [self._encodings[n] for n in names],
            [np.asarray(columns[n]) for n in names],
        )
        return np.flatnonzero(ops.semijoin_mask(lcodes, rcodes))

    # -- joins and aggregation ------------------------------------------

    def join(self, other: "Relation", name: Optional[str] = None) -> "Relation":
        """Natural join with ``other`` (full fan-out)."""
        shared = self.schema.intersection(other.schema)
        if shared:
            lcodes, rcodes = ops.shared_codes(
                [self._encodings[n] for n in shared], other.columns(shared)
            )
            li, ri = ops.join_indices(lcodes, rcodes)
        else:
            # cross product
            li = np.repeat(np.arange(self.n_rows), other.n_rows)
            ri = np.tile(np.arange(other.n_rows), self.n_rows)
        cols = {n: c[li] for n, c in self._columns.items()}
        for attr in other.schema:
            if attr.name not in cols:
                cols[attr.name] = other.column(attr.name)[ri]
        return Relation(
            name or f"({self.name}⋈{other.name})",
            self.schema.union(other.schema),
            cols,
        )

    def distinct(self, names: Sequence[str], name: Optional[str] = None) -> "Relation":
        """Distinct projection onto the named attributes."""
        if not names:
            raise ValueError("distinct requires at least one attribute")
        _, uniques = ops.factorize_rows([self._encodings[n] for n in names])
        cols = dict(zip(names, uniques))
        return Relation(
            name or f"δ({self.name})", self.schema.project(names), cols
        )

    # -- conversion -------------------------------------------------------

    def to_rows(self) -> List[tuple]:
        """Materialize as a list of Python tuples (tests/small data only)."""
        arrays = [self._columns[n] for n in self.schema.names]
        return list(zip(*(a.tolist() for a in arrays))) if arrays else []

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Relation({self.name!r}, rows={self.n_rows}, "
            f"attrs={list(self.schema.names)})"
        )
