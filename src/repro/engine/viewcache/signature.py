"""Canonical content signatures for materialized views.

A view aggregates over the join of the relations in one subtree of the
join tree, so its materialization is fully determined by

* its *shape*: its group-by attributes and aggregate columns
  (coefficient, factor functions, references into child views by the
  children's shapes) — which, through the children, fix the definition
  of the whole subtree — and
* the *data* of its *footprint*: the base relations of that subtree.

Hashing exactly those inputs, ``H(shape digest, (name, fingerprint) of
each footprint relation)`` (:func:`view_digest`), yields a **content
address**: two views with equal digests hold bitwise-interchangeable
:class:`ViewData`, no matter which batch, plan, or engine produced
them.  That is what lets the
:class:`~repro.engine.viewcache.cache.ViewCache` share materialized
views across batches, models, and sessions, and what lets it compute a
repaired view's new address from the updated database's fingerprints
alone.

Canonicalization choices:

* a digest has two halves: the view's shape (:func:`view_shapes`),
  which depends only on the plan and the dyn binding, and per database
  version its footprint's fingerprints in relation-name order.  A shape
  is built once per plan and binding, so a new database version costs
  one short hash per view;
* view ids never enter a signature — a :class:`ViewRef` contributes the
  shape of the referenced view plus the referenced column position, so
  two plans built independently (with different id spaces) agree on
  structurally equal views;
* the view's ``target`` node is deliberately excluded: the edge a view
  flows along affects where its data is *consumed*, not what the data
  *is*, so views from differently-rooted plans can still share;
* factor functions use their value-inclusive :meth:`Function.signature`
  (a cached view computed for ``1_{X<=5}`` must never serve
  ``1_{X<=7}``, even though the plan cache treats both as one slot);
* *dynamic* functions are hashed through the **runtime** dyn table
  (``dyn_slots`` maps planning-time function identity to its batch
  slot, ``dyn`` holds the functions bound for this run) — the stored
  plan's function objects carry planning-time values, and execution
  substitutes the slot binding, so hashing the stored objects would
  alias every re-bound run onto the first one's digests.  A dynamic
  function with no known binding makes its view uncacheable;
* :class:`~repro.query.functions.Udf` factors make a view *uncacheable*
  — an arbitrary Python callable has no trustworthy content identity.

Relation fingerprints hash schema + raw column bytes and are memoized
per :class:`Relation` object (relations are immutable by convention),
so repeated runs over an unchanged database hash each relation once.
"""

from __future__ import annotations

import hashlib
import weakref
from dataclasses import dataclass
from typing import Dict, Iterable, Mapping, Optional, Sequence, Tuple

from ...data.database import Database
from ...data.relation import Relation
from ...query.functions import Function, Udf
from ..views import View

#: memoized relation content hashes; entries die with their relation
_RELATION_FP_CACHE: "weakref.WeakKeyDictionary[Relation, str]" = (
    weakref.WeakKeyDictionary()
)


def relation_fingerprint(relation: Relation) -> str:
    """Content hash of one relation: schema plus raw column bytes."""
    cached = _RELATION_FP_CACHE.get(relation)
    if cached is not None:
        return cached
    digest = hashlib.sha256()
    digest.update(
        repr(
            [
                (attr.name, attr.kind, str(attr.dtype))
                for attr in relation.schema
            ]
        ).encode()
    )
    for name in relation.schema.names:
        column = relation.column(name)
        digest.update(name.encode())
        digest.update(str(column.dtype).encode())
        digest.update(column.tobytes())
    fingerprint = digest.hexdigest()
    _RELATION_FP_CACHE[relation] = fingerprint
    return fingerprint


def database_fingerprint(database: Database) -> str:
    """Content hash of a whole database (order-insensitive)."""
    parts = sorted(
        (rel.name, relation_fingerprint(rel)) for rel in database
    )
    return hashlib.sha256(repr(parts).encode()).hexdigest()


def function_content_signature(
    function: Function,
) -> Tuple[bool, tuple]:
    """(cacheable, value-inclusive signature) of one factor function."""
    if isinstance(function, Udf):
        # a UDF's behavior lives in an opaque callable; its name is not
        # a content identity, so views built on it are never cached
        return False, ("udf", function.name, function.attrs)
    return True, function.signature()


def dyn_binding_key(dyn: Sequence[Function]) -> tuple:
    """Hashable identity of one run's dynamic-function bindings."""
    return tuple(function_content_signature(f) for f in dyn)


@dataclass(frozen=True)
class ViewShape:
    """The data-independent half of a view's content address.

    ``digest`` hashes the view's source, group-by and aggregate columns
    (coefficient, factor functions under this run's dyn binding, and
    references into child views by the *children's shape digests*), so
    it fixes the definition of the whole subtree the view aggregates
    over; ``relations`` is that subtree's set of base relations, the
    view's *footprint*.  A shape depends only on the plan and the dyn
    binding: it is built once and reused for every database version.
    """

    digest: str
    relations: frozenset
    cacheable: bool


@dataclass(frozen=True)
class ViewSignature:
    """The content address of one view.

    ``digest`` is the cache key, :func:`view_digest` of ``shape`` (the
    shape digest) over the fingerprints of ``relations``, the base
    relations the view's data depends on (its footprint, and its
    invalidation set); ``cacheable`` is False when any factor in the
    view's subtree has no trustworthy content identity (UDFs).  A
    signature read back from disk carries no ``shape``.
    """

    digest: str
    relations: frozenset
    cacheable: bool
    shape: Optional[str] = None


def view_digest(
    shape: str, relations: Iterable[str], fingerprints: Mapping[str, str]
) -> str:
    """The digest formula: H(shape digest, (name, fingerprint) of each
    footprint relation in name order).

    One formula for :func:`view_signatures` and for re-addressing views
    a delta repaired: ``fingerprints`` maps a relation name to the
    fingerprint of the database version the view's data reflects.
    """
    parts = ["view", shape]
    for name in sorted(relations):
        parts += (name, fingerprints[name])
    return hashlib.sha256("\0".join(parts).encode()).hexdigest()


def view_shapes(
    views: Sequence[View],
    dyn_slots: Optional[Mapping[int, int]] = None,
    dyn: Sequence[Function] = (),
) -> Dict[int, ViewShape]:
    """The shape of every view of a decomposed batch under one binding.

    ``dyn_slots`` (planning-time ``id(function) -> slot``) and ``dyn``
    (this run's slot bindings) resolve dynamic functions to the values
    execution will actually use; a dynamic function whose binding is
    unknown poisons its view's cacheability rather than risking a
    stale-value hit.  A view's ``relations`` set is the union of its
    node relation and its children's sets (the subtree of the join tree
    it aggregates over).
    """
    memo: Dict[int, ViewShape] = {}
    slots = dict(dyn_slots or {})

    def function_sig(function: Function) -> Tuple[bool, tuple]:
        if function.dynamic:
            slot = slots.get(id(function))
            if slot is None or not 0 <= slot < len(dyn):
                return False, (
                    "dyn-unbound",
                    type(function).__name__,
                    function.attrs,
                )
            # hash the runtime binding: the stored plan's function
            # object carries planning-time values the executor ignores
            return function_content_signature(dyn[slot])
        return function_content_signature(function)

    def shape(view_id: int) -> ViewShape:
        cached = memo.get(view_id)
        if cached is not None:
            return cached
        view = views[view_id]
        cacheable = True
        relations = {view.source}
        agg_parts = []
        for spec in view.aggregates:
            func_sigs = []
            for function in spec.functions:
                func_ok, func_sig = function_sig(function)
                cacheable = cacheable and func_ok
                func_sigs.append(func_sig)
            ref_parts = []
            for ref in spec.refs:
                child = shape(ref.view_id)
                cacheable = cacheable and child.cacheable
                relations |= child.relations
                ref_parts.append((child.digest, ref.agg_index))
            # sort refs by content, never by plan-local view id — two
            # plans assigning flipped ids to equal children must agree
            agg_parts.append(
                (
                    spec.coefficient,
                    tuple(sorted(func_sigs)),
                    tuple(sorted(ref_parts)),
                )
            )
        payload = repr(
            ("shape", view.source, view.group_by, tuple(agg_parts))
        )
        memo[view_id] = ViewShape(
            digest=hashlib.sha256(payload.encode()).hexdigest(),
            relations=frozenset(relations),
            cacheable=cacheable,
        )
        return memo[view_id]

    for view in views:
        shape(view.id)
    return memo


def view_signatures(
    views: Sequence[View],
    database: Database,
    dyn_slots: Optional[Mapping[int, int]] = None,
    dyn: Sequence[Function] = (),
    *,
    shapes: Optional[Mapping[int, ViewShape]] = None,
) -> Dict[int, ViewSignature]:
    """Content signatures for every view of a decomposed batch.

    A view's digest is :func:`view_digest` over its shape and the
    fingerprints of its footprint's relations in ``database``.
    ``shapes`` are the views' shapes under this run's binding
    (:func:`view_shapes`, built from ``dyn_slots`` and ``dyn`` when
    omitted); a caller that keeps them hashes only fingerprints and one
    short digest per view per database version.
    """
    if shapes is None:
        shapes = view_shapes(views, dyn_slots, dyn)
    fingerprints = {
        name: relation_fingerprint(database.relation(name))
        for name in frozenset().union(*(s.relations for s in shapes.values()))
    }
    sigs: Dict[int, ViewSignature] = {}
    for view in views:
        shape = shapes[view.id]
        sigs[view.id] = ViewSignature(
            digest=view_digest(shape.digest, shape.relations, fingerprints),
            relations=shape.relations,
            cacheable=shape.cacheable,
            shape=shape.digest,
        )
    return sigs
