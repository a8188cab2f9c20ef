"""Canonical content signatures for materialized views.

A view's materialization is fully determined by

* the *data* of the relations in its subtree (captured transitively:
  every view hashes its own node relation and the signatures of the
  views it consumes), and
* its *structure*: group-by attributes plus the ordered list of
  aggregate columns (coefficient, factor functions, references into
  child views).

Hashing exactly those inputs yields a **content address**: two views
with equal digests hold bitwise-interchangeable :class:`ViewData`, no
matter which batch, plan, or engine produced them.  That is what lets
the :class:`~repro.engine.viewcache.cache.ViewCache` share materialized
views across batches, models, and sessions.

Canonicalization choices:

* view ids never enter a signature — a :class:`ViewRef` contributes the
  *digest* of the referenced view plus the referenced column position,
  so two plans built independently (with different id spaces) agree on
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
from typing import Dict, Mapping, Optional, Sequence, Tuple

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
class ViewSignature:
    """The content address of one view.

    ``digest`` is the cache key; ``relations`` names every base relation
    the view's data depends on (the invalidation footprint);
    ``cacheable`` is False when any factor in the view's subtree has no
    trustworthy content identity (UDFs).  ``structure`` is the
    structural half of the digest — ``(source, group_by, agg_parts)``
    with child views embedded by digest — which lets the cache *re-key*
    a delta-patched view against the updated relation fingerprint (and,
    for interior views, the re-keyed child digests) without replanning.
    """

    digest: str
    relations: frozenset
    cacheable: bool
    structure: Optional[tuple] = None


def view_digest(
    source: str,
    relation_fp: str,
    group_by: Tuple[str, ...],
    agg_parts: tuple,
) -> str:
    """The digest formula, shared with re-keying after deltas."""
    payload = repr(("view", source, relation_fp, group_by, agg_parts))
    return hashlib.sha256(payload.encode()).hexdigest()


def structure_digest(structure: tuple, relation_fp: str) -> str:
    """Digest of a view's structure against a node fingerprint."""
    source, group_by, agg_parts = structure
    return view_digest(source, relation_fp, group_by, agg_parts)


def rekey_structure(structure: tuple, rekey: Mapping[str, str]) -> tuple:
    """Substitute re-keyed child digests into a view structure.

    After a delta patches child views in place, their digests change;
    a parent's structure embeds them inside its ``agg_parts``, so the
    parent's new content address is the digest of this substituted
    structure.  Child references stay sorted by content, matching what
    :func:`view_signatures` would compute from scratch.
    """
    source, group_by, agg_parts = structure
    new_parts = []
    for coefficient, func_sigs, ref_parts in agg_parts:
        new_refs = tuple(
            sorted(
                (rekey.get(digest, digest), agg_index)
                for digest, agg_index in ref_parts
            )
        )
        new_parts.append((coefficient, func_sigs, new_refs))
    return (source, group_by, tuple(new_parts))


def view_signatures(
    views: Sequence[View],
    database: Database,
    dyn_slots: Optional[Mapping[int, int]] = None,
    dyn: Sequence[Function] = (),
) -> Dict[int, ViewSignature]:
    """Content signatures for every view of a decomposed batch.

    Signatures are computed bottom-up over the reference DAG; a view's
    ``relations`` set is the union of its node relation and its
    children's sets (the subtree of the join tree it aggregates over).

    ``dyn_slots`` (planning-time ``id(function) -> slot``) and ``dyn``
    (this run's slot bindings) resolve dynamic functions to the values
    execution will actually use; a dynamic function whose binding is
    unknown poisons its view's cacheability rather than risking a
    stale-value hit.
    """
    memo: Dict[int, ViewSignature] = {}
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

    def signature(view_id: int) -> ViewSignature:
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
                child = signature(ref.view_id)
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
        structure = (view.source, view.group_by, tuple(agg_parts))
        digest = view_digest(
            view.source,
            relation_fingerprint(database.relation(view.source)),
            view.group_by,
            tuple(agg_parts),
        )
        memo[view_id] = ViewSignature(
            digest=digest,
            relations=frozenset(relations),
            cacheable=cacheable,
            structure=structure,
        )
        return memo[view_id]

    for view in views:
        signature(view.id)
    return memo
