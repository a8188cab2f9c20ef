"""The cross-workload view cache: content-addressed materialized views.

A :class:`ViewCache` maps content digests
(:mod:`~repro.engine.viewcache.signature`) to materialized
:class:`~repro.engine.interpreter.ViewData` under a byte budget with
LRU eviction.  Because keys are content addresses, the cache is safe to
share across batches, models, engines, and sessions: a hit is *by
construction* the same data the engine would recompute.

Consistency under updates is event-driven: the incremental-maintenance
layer forwards every applied :class:`~repro.data.database.DeltaBatch`
to :meth:`ViewCache.on_delta`, which touches exactly the entries whose
relation footprint contains the updated relation, in one pass, smallest
footprint first (a child's footprint is a strict subset of its
parent's, so every child is repaired before its parents) —

* every affected entry **merges a delta** its cached group plan
  computes in one run, with one input replaced by that input's delta —
  ``δ(R ⋈ V) = δR ⋈ V = R ⋈ δV``, since every aggregate is a SUM of
  products, linear in each input.  *At* the updated relation the input
  is the relation, replaced by the inserted and retracted rows weighted
  +1 and -1; *above* it, every view from the changed child edge is
  replaced by the delta its own repair merged, and the run covers only
  the node rows that join a key of those deltas.  :func:`merge` adds
  the result, and the delta, less its all-zero rows, is handed to the
  parents;
* a view's support is its COUNT aggregate — the multiplicity of its
  subtree join per key, linear like every other SUM — so :func:`merge`
  retires exactly the keys whose count cancels to zero, at the updated
  relation and above it;
* entries that cannot be repaired — no recipe (revived from disk),
  stale epoch, a child view missing from both cache tiers or changed
  without a delta merged in this pass, a COUNT past float64's exact
  integers — are **evicted**.

A view's address is its shape plus its footprint's fingerprints
(:func:`~repro.engine.viewcache.signature.view_digest`), so every
repaired entry is re-keyed under the digest the next run's signatures
will compute by hashing its shape over the updated fingerprints, and
patches replace evictions throughout the DAG.  A parent finds its
inputs by shape the same way, and a group's plan runs once per pass
for all of its views.  Entries whose footprint does not contain the
updated relation keep their digests — their content addresses still
match — and survive.  A
repaired entry lives in memory only: the next delta re-keys it again,
so writing it to the second tier would only leave garbage there.  It
reaches disk when the LRU evicts it or at :meth:`ViewCache.flush`.

Admission is epoch-gated: each delta advances a per-relation
fingerprint watermark, and a :meth:`ViewCache.put` offered from an
older database version (a reader pinned to a pre-delta epoch snapshot
finishing after the commit) is rejected — counted as a
``stale_reject`` — rather than admitted only to be evicted, unpatchable,
by the next delta.  The same holds for a disk hit such a reader finds
through :meth:`ViewCache.get`: it is served, not admitted.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

import numpy as np

from ...data import ops
from ...data.database import AppliedDelta
from ...data.relation import Relation
from ..interpreter import ViewData, execute_plan
from ..plan import GroupPlan
from .signature import ViewSignature, relation_fingerprint, view_digest

#: default cache budget: 64 MiB of view payload
DEFAULT_BUDGET_BYTES = 64 << 20


def view_nbytes(data: ViewData) -> int:
    """Approximate in-memory size of one materialized view."""
    return int(sum(col.nbytes for col in data.key_cols) + data.sums.nbytes)


@dataclass(frozen=True)
class PatchRecipe:
    """How to repair a cached view after a delta, fixed at admission.

    ``plan`` is the multi-output group plan that produced the view;
    ``dyn`` a copy of the binding it ran with (a function re-bound in
    place later changes no repair); ``inputs`` names each input view by
    ``(view id, shape digest, footprint)``, its address over any
    database version's fingerprints (:func:`view_digest`).  The views
    of one group run share all three, and a pass runs the group once.
    """

    plan: GroupPlan
    view_id: int
    dyn: tuple
    inputs: Tuple[Tuple[int, str, frozenset], ...] = ()


@dataclass
class CacheStats:
    """Counters over the life of one :class:`ViewCache`."""

    hits: int = 0
    misses: int = 0
    puts: int = 0
    evictions: int = 0  # LRU byte-budget evictions
    invalidations: int = 0  # delta-driven evictions
    patches: int = 0  # delta-repaired (and re-keyed) entries
    rejects: int = 0  # entries larger than the whole budget
    stale_rejects: int = 0  # admissions from a pre-delta database version
    warm_hits: int = 0  # hits served from the persistent second tier
    spills: int = 0  # entries written to the second tier

    def as_dict(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "puts": self.puts,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
            "patches": self.patches,
            "rejects": self.rejects,
            "stale_rejects": self.stale_rejects,
            "warm_hits": self.warm_hits,
            "spills": self.spills,
        }


@dataclass
class _Entry:
    sig: ViewSignature
    data: ViewData
    nbytes: int
    recipe: Optional[PatchRecipe] = None
    on_disk: bool = False  # the second tier holds this digest's data


@dataclass
class CacheRunReport:
    """Per-view cache outcome of one engine run.

    ``events`` maps view id to ``"hit"``, ``"miss"`` or
    ``"uncacheable"``; ``names`` carries the views' display names for
    reports.
    """

    events: Dict[int, str] = field(default_factory=dict)
    names: Dict[int, str] = field(default_factory=dict)
    skipped_groups: int = 0
    total_groups: int = 0

    @property
    def n_hits(self) -> int:
        return sum(1 for e in self.events.values() if e == "hit")

    @property
    def n_misses(self) -> int:
        return sum(1 for e in self.events.values() if e == "miss")

    def lines(self) -> List[str]:
        """One ``status  view-name`` line per view, hits first."""
        order = {"hit": 0, "miss": 1, "uncacheable": 2}
        return [
            f"  {event:11} {self.names.get(vid, f'view {vid}')}"
            for vid, event in sorted(
                self.events.items(),
                key=lambda kv: (order[kv[1]], kv[0]),
            )
        ]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CacheRunReport({self.n_hits} hits, {self.n_misses} misses, "
            f"{self.skipped_groups}/{self.total_groups} groups skipped)"
        )


@dataclass
class _Reconciliation:
    """The working state of one :meth:`ViewCache.on_delta` pass."""

    applied: AppliedDelta
    #: relation name -> fingerprint before and after the delta
    old_fps: Dict[str, str]
    new_fps: Dict[str, str]
    #: the delta's rows as one relation (None if empty), and their signs:
    #: inserted rows +1, retracted rows -1 (None: nothing retracted)
    delta: Optional[Relation]
    signs: Optional[np.ndarray]
    #: repaired digest -> the delta merged into it, all-zero rows dropped
    deltas: Dict[str, ViewData] = field(default_factory=dict)
    #: (id of a recipe's plan, id of its dyn; the affected entries keep
    #: both alive) -> view id -> delta (absent: zero), None: unrepairable
    runs: Dict[tuple, Optional[dict]] = field(default_factory=dict)
    #: (relation, repaired digests) -> the rows joining their deltas
    _rows: Dict[tuple, Relation] = field(default_factory=dict)


def _signed_rows(
    applied: AppliedDelta,
) -> Tuple[Optional[Relation], Optional[np.ndarray]]:
    """The inserted then the retracted rows, and their signs."""
    inserted, deleted = applied.inserted, applied.deleted
    if inserted is not None and not inserted.n_rows:
        inserted = None
    if deleted is None or not deleted.n_rows:
        return inserted, None
    if inserted is None:
        return deleted, np.full(deleted.n_rows, -1.0)
    rows = Relation(
        deleted.name,
        deleted.schema,
        {
            name: np.concatenate([inserted.column(name), deleted.column(name)])
            for name in deleted.schema.names
        },
    )
    signs = np.concatenate(
        [np.ones(inserted.n_rows), np.full(deleted.n_rows, -1.0)]
    )
    return rows, signs


def _rows_joining(relation: Relation, deltas: List[ViewData]) -> Relation:
    """The rows of ``relation`` that join a key of one of ``deltas``.

    A delta's key is matched on the attributes it shares with the
    relation only, so the rows are a superset of those whose join
    partner changed; a keyless delta joins every row.
    """
    mask = np.zeros(relation.n_rows, dtype=bool)
    for delta in deltas:
        shared = [
            pos for pos, attr in enumerate(delta.group_by)
            if relation.has_column(attr)
        ]
        if not shared:
            return relation
        left, right = ops.shared_codes(
            [relation.encodings[delta.group_by[pos]] for pos in shared],
            [delta.key_cols[pos] for pos in shared],
        )
        mask |= ops.semijoin_mask(left, right[right >= 0])
    return relation.filter(mask)


def _rows(data: ViewData, keep: np.ndarray) -> ViewData:
    """The rows of a keyed view where ``keep`` holds."""
    if keep.all():
        return data
    return ViewData(
        data.group_by,
        [key[keep] for key in data.key_cols],
        data.sums[:, keep],
        data.count,
    )


def _nonzero(delta: ViewData) -> ViewData:
    """A delta less its all-zero rows (a keyless delta keeps its row).

    A key whose every aggregate, its count included, is unchanged
    changes nothing above it, so its rows need not join the parents'
    runs.
    """
    if not delta.group_by:
        return delta
    return _rows(delta, delta.sums.any(axis=0))


def merge(data: ViewData, *deltas: ViewData) -> ViewData:
    """``data`` plus partial views of the same view, summed per key.

    Valid because every view aggregate is a SUM over the join, and the
    join's tuples partition with the node relation's rows and with each
    incoming view's keys.  The deltas come from ``data``'s own plan, so
    carry its COUNT row exactly when it does; counts are integer-valued,
    so the zero test is exact, and a key whose count cancels to zero —
    every join tuple that produced it gone, when a from-scratch run
    would not emit it — is retired.

    A delta that only touches keys the view holds is added in place at
    those keys' rows, piece by piece as a regrouping would add it, and
    the view's key encodings carry over; a new key regroups every piece.
    """
    pieces = (data,) + deltas
    if not data.group_by:  # one row per piece
        return data.with_sums(np.add.reduce([p.sums for p in pieces]))
    positions = _positions(data, deltas)
    if positions is None:
        return _regrouped(pieces)
    sums = data.sums.copy()
    for delta, at in zip(deltas, positions):
        sums[:, at] += delta.sums
    return _live(data.with_sums(sums))


def _live(data: ViewData) -> ViewData:
    """``data`` less the keys whose count cancelled to zero."""
    if data.count is None:
        return data
    return _rows(data, data.sums[data.count] > 0.5)


#: float64 holds every integer below this exactly; a COUNT at or past
#: it may not cancel to zero when its key's last join tuple goes
EXACT_COUNT = 2.0**53


def _exact_counts(data: ViewData) -> bool:
    """Whether every COUNT of ``data`` is small enough that merging a
    delta into it retires exactly the keys it empties."""
    if data.count is None or not data.group_by or not data.n_rows:
        return True
    return bool(np.abs(data.sums[data.count]).max() < EXACT_COUNT)


def _positions(
    data: ViewData, deltas: Tuple[ViewData, ...]
) -> Optional[List[np.ndarray]]:
    """Each delta's keys as row positions in ``data``; None if a delta
    holds a key ``data`` lacks."""
    encoded = [data.encoded(pos) for pos in range(len(data.key_cols))]
    positions = []
    for delta in deltas:
        held, wanted = ops.shared_codes(encoded, delta.key_cols)
        if len(wanted) and not len(held):
            return None
        # rows are in key order, so ``held`` ascends
        at = np.minimum(np.searchsorted(held, wanted), len(held) - 1)
        if not (held[at] == wanted).all():
            return None
        positions.append(at)
    return positions


def _regrouped(pieces: Tuple[ViewData, ...]) -> ViewData:
    """The pieces' rows grouped and summed by key afresh."""
    codes, keys = ops.factorize_rows(
        [
            ops.factorize(np.concatenate([p.key_cols[k] for p in pieces]))
            for k in range(len(pieces[0].key_cols))
        ]
    )
    n_keys = len(keys[0])
    rows = np.concatenate([p.sums for p in pieces], axis=1)
    sums = np.empty((len(rows), n_keys))
    for j, row in enumerate(rows):
        sums[j] = ops.group_sums(codes, row, n_keys)
    return _live(
        ViewData(pieces[0].group_by, list(keys), sums, pieces[0].count)
    )


class ViewCache:
    """A byte-budget LRU cache of materialized views, by content digest.

    Thread-safe: one cache is shared by every thread that runs or
    repairs views over its dataset (a service's coalescer worker probes
    and admits while its writer repairs under ``on_delta``).

    ``store`` (optional) attaches a persistent second tier — any object
    with ``save(sig, data) -> bool`` and ``load(digest) ->
    Optional[(sig, data)]``, e.g. a
    :class:`~repro.storage.cachestore.CacheStore`.  A cold admission
    through :meth:`put` is written through, so a process killed right
    after it computed a view restarts warm.  A view repaired by
    :meth:`on_delta` stays in memory until the LRU evicts it or
    :meth:`flush` runs.  An in-memory miss probes the store before
    reporting a miss: a disk hit is admitted back into memory and
    counted as a *warm hit*.  Entries revived from disk carry no patch
    recipe, so a later delta evicts rather than repairs them — always
    safe, merely less incremental.
    """

    def __init__(
        self, budget_bytes: int = DEFAULT_BUDGET_BYTES, *, store=None
    ):
        if budget_bytes <= 0:
            raise ValueError(
                f"cache budget must be positive, got {budget_bytes}"
            )
        self.budget_bytes = int(budget_bytes)
        self._entries: "OrderedDict[str, _Entry]" = OrderedDict()
        self._bytes = 0
        self._lock = threading.Lock()
        self._stats = CacheStats()
        self._store = store
        # relation name -> fingerprint of the latest delta'd database;
        # admissions from runs pinned to older versions are rejected
        # (see :meth:`put`).  Empty until the first delta: before any
        # update there is only one database version to admit from.
        self._current_fp: Dict[str, str] = {}

    # -- introspection -----------------------------------------------------

    def stats(self) -> CacheStats:
        """One snapshot-consistent copy of the counters.

        Taken atomically under the cache lock, so a reader never
        observes (say) ``hits`` from before a concurrent update and
        ``misses`` from after it — which is what ``GET /stats`` on the
        analytics service reports.  The returned object is a copy;
        mutating it does not touch the cache.
        """
        with self._lock:
            return replace(self._stats)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, digest: str) -> bool:
        with self._lock:
            return digest in self._entries

    @property
    def total_bytes(self) -> int:
        with self._lock:
            return self._bytes

    def digests(self) -> List[str]:
        """All cached digests, least recently used first."""
        with self._lock:
            return list(self._entries)

    def entries_containing(self, relation: str) -> List[str]:
        """Digests of entries whose relation footprint includes ``relation``."""
        with self._lock:
            return [
                digest
                for digest, entry in self._entries.items()
                if relation in entry.sig.relations
            ]

    # -- lookup / insert ---------------------------------------------------

    def get(self, digest: str, *, database=None) -> Optional[ViewData]:
        """The cached view for a digest, or None (counts hit/miss).

        An in-memory miss probes the persistent second tier when one is
        attached; a disk hit is admitted back into memory and counted
        as both a hit and a ``warm_hit``.  ``database`` (optional) names
        the version the caller reads, as in :meth:`put`: a disk hit
        that predates the last applied delta is served but not
        admitted, and counts as a ``stale_reject``.
        """
        with self._lock:
            entry = self._entries.get(digest)
            if entry is not None:
                self._entries.move_to_end(digest)
                self._stats.hits += 1
                return entry.data
            if self._store is None:
                self._stats.misses += 1
                return None
        loaded = self._store.load(digest)
        if loaded is None:
            with self._lock:
                self._stats.misses += 1
            return None
        sig, data = loaded
        stale = database is not None and self._stale_admission(sig, database)
        if not stale:
            self._admit(sig, data, on_disk=True)
        with self._lock:
            self._stats.hits += 1
            self._stats.warm_hits += 1
            self._stats.stale_rejects += stale
        return data

    def peek(self, digest: str) -> Optional[ViewData]:
        """Like :meth:`get` but without touching LRU order or stats."""
        with self._lock:
            entry = self._entries.get(digest)
            return None if entry is None else entry.data

    def put(
        self,
        sig: ViewSignature,
        data: ViewData,
        recipe: Optional[PatchRecipe] = None,
        *,
        database=None,
    ) -> bool:
        """Admit one materialized view; returns whether it was cached.

        Uncacheable signatures and views larger than the whole budget
        are rejected; admitting evicts least-recently-used entries
        until the budget holds.  With a second tier attached,
        cacheable entries are also written through to disk — including
        budget-rejected ones, since the disk tier is typically larger
        than memory and a spilled entry still serves warm restarts.
        (:meth:`on_delta` admits repaired views to memory only.)

        ``database`` (optional) names the database version the view was
        computed from.  When given, the admission is rejected — counted
        as a ``stale_reject`` — if any relation in the view's footprint
        has since been delta'd past that version: a reader pinned to an
        older epoch must not publish entries the next delta could only
        evict.  Callers that guarantee currency themselves (the repair
        path) omit it.
        """
        if not sig.cacheable:
            return False
        if database is not None and self._stale_admission(sig, database):
            with self._lock:
                self._stats.stale_rejects += 1
            return False
        on_disk = self._spill([(sig, data)]) > 0
        return self._admit(sig, data, recipe=recipe, on_disk=on_disk)

    def _stale_admission(self, sig: ViewSignature, database) -> bool:
        """Whether an offered entry predates the last applied delta.

        Exact, not heuristic: the entry is stale iff some relation in
        its footprint carries a different fingerprint in the offering
        run's database than in the latest delta'd database.  Interior
        views are covered through their footprint — a stale child cone
        stales the parent even when the parent's own node relation is
        unchanged.  Fingerprints are memoized per relation object, so
        the common all-current case costs dictionary lookups only.
        """
        with self._lock:
            if not self._current_fp:
                return False
            current = {
                name: self._current_fp[name]
                for name in sig.relations
                if name in self._current_fp
            }
        for name, fingerprint in current.items():
            if relation_fingerprint(database.relation(name)) != fingerprint:
                return True
        return False

    def _admit(
        self,
        sig: ViewSignature,
        data: ViewData,
        recipe: Optional[PatchRecipe] = None,
        *,
        on_disk: bool = False,
    ) -> bool:
        """Insert into the in-memory tier (no write-through).

        ``on_disk`` says whether the second tier already holds the
        entry; LRU victims it does not hold are spilled on the way out.
        """
        nbytes = view_nbytes(data)
        with self._lock:
            if nbytes > self.budget_bytes:
                self._stats.rejects += 1
                return False
            old = self._entries.pop(sig.digest, None)
            if old is not None:
                self._bytes -= old.nbytes
            self._entries[sig.digest] = _Entry(
                sig=sig,
                data=data,
                nbytes=nbytes,
                recipe=recipe,
                on_disk=on_disk,
            )
            self._bytes += nbytes
            self._stats.puts += 1
            victims = []
            while self._bytes > self.budget_bytes:
                _, victim = self._entries.popitem(last=False)
                self._bytes -= victim.nbytes
                self._stats.evictions += 1
                if not victim.on_disk:
                    victims.append((victim.sig, victim.data))
        self._spill(victims)
        return True

    def _spill(self, views: List[Tuple[ViewSignature, ViewData]]) -> int:
        """Write views to the second tier; returns how many it took."""
        if self._store is None:
            return 0
        saved = sum(1 for sig, data in views if self._store.save(sig, data))
        if saved:
            with self._lock:
                self._stats.spills += saved
        return saved

    def flush(self) -> int:
        """Write every entry the second tier does not hold yet.

        The graceful-shutdown hook: views repaired since they were
        admitted live in memory only, and a restart after a flush serves
        them warm.  Returns how many entries were written; the cache
        stays usable.
        """
        if self._store is None:
            return 0
        with self._lock:
            dirty = [e for e in self._entries.values() if not e.on_disk]
            for entry in dirty:
                entry.on_disk = True
        return self._spill([(entry.sig, entry.data) for entry in dirty])

    # -- invalidation ------------------------------------------------------

    def clear(self) -> None:
        """Drop every entry and forget the admission watermark.

        The watermark goes too: a caller clears the cache to disown
        whatever database version the entries (and the last delta)
        belonged to — the service does after a commit it could not make
        durable — and a watermark left pointing at that version would
        reject every later admission from the surviving one.
        """
        with self._lock:
            self._entries.clear()
            self._bytes = 0
            self._current_fp.clear()

    def on_delta(self, applied: AppliedDelta) -> Dict[str, str]:
        """Reconcile the cache with one applied delta.

        Affected entries (footprint contains the updated relation) are
        repaired in one pass, smallest footprint first.  A child's
        footprint is a strict subset of its parent's — the parent's node
        relation lies outside the child's subtree — so every child is
        repaired before the views that read it.  Each entry merges the
        delta its group plan computes in one run: at the updated
        relation over the signed delta rows, above it over the node
        relation's rows that join a key of the children's deltas, with
        those deltas in place of the children.  An entry whose
        children's deltas join no row merges nothing and is only
        re-keyed.  A key whose COUNT cancels to zero retires.  Every
        repaired entry is re-keyed under :func:`view_digest` over the
        updated fingerprints, the digest the next run's signatures
        compute.  Entries that cannot be repaired — no recipe, stale
        epoch, an unchanged child view missing from both tiers, a
        changed one no repair of this pass merged a delta into, a COUNT
        of 2**53 or more — are evicted.

        Returns {old digest: "merged" | "evicted"} for the affected
        entries — repaired by merging a delta (or re-keyed unchanged), or
        dropped; untouched entries (footprint disjoint from the updated
        relation) do not appear.
        """
        relation = applied.relation
        new_fps = {
            rel.name: relation_fingerprint(rel) for rel in applied.database
        }
        # patching is only sound for entries that hold the *pre-delta*
        # version: ``_repair`` evicts an entry whose digest is not its
        # address under these fingerprints (say, one a reader pinned to
        # an older epoch admitted)
        old_fps = dict(new_fps)
        old_fps[relation] = relation_fingerprint(
            applied.previous.relation(relation)
        )
        # advance the admission watermark FIRST: from here on, puts by
        # readers still pinned to the pre-delta database are rejected
        # (stale_rejects) instead of entering only to be evicted by the
        # next delta — see :meth:`put`
        with self._lock:
            self._current_fp.update(new_fps)
            affected = sorted(
                (
                    (digest, entry)
                    for digest, entry in self._entries.items()
                    if relation in entry.sig.relations
                ),
                key=lambda item: len(item[1].sig.relations),
            )
        repair = _Reconciliation(
            applied, old_fps, new_fps, *_signed_rows(applied)
        )
        return {
            digest: self._repair(digest, entry, repair)
            for digest, entry in affected
        }

    def _evict_entry(self, digest: str, *, count: bool = True) -> None:
        """Drop one entry by digest (``count``: as an invalidation)."""
        with self._lock:
            victim = self._entries.pop(digest, None)
            if victim is None:
                return
            self._bytes -= victim.nbytes
            if count:
                self._stats.invalidations += 1

    def _resolve_input(self, digest: str) -> Optional[ViewData]:
        """A repair input by digest: in-memory first, then the disk
        tier."""
        with self._lock:
            entry = self._entries.get(digest)
            if entry is not None:
                return entry.data
        loaded = None if self._store is None else self._store.load(digest)
        return None if loaded is None else loaded[1]

    def _group_deltas(
        self, recipe: PatchRecipe, repair: _Reconciliation
    ) -> Optional[Dict[int, ViewData]]:
        """The deltas of a group's views, all-zero rows dropped: its plan
        run once with one input replaced by that input's delta, or None
        if the group cannot be repaired.

        Each input's address is its shape over the updated
        fingerprints.  An input whose footprint holds the updated
        relation is replaced by the delta its repair merged in this
        pass — a zero one too, as a 0-row view: a context joining it
        adds nothing.  With no such delta (evicted, or changed without
        a repair: only on disk, no recipe, outgrew the budget) its data
        predates the delta and, beside its siblings' deltas, would add
        its whole value again.  Any other input is resolved from either
        tier.  At the updated relation the run reads the signed delta
        rows (no input can have changed: a view's children cover only
        relations below its node); above it, the node rows that join a
        key of the changed inputs' deltas.  Nothing to run is a zero
        delta for every view, none returned.  The aggregates of a cached
        view read the same view of each child edge (its factors each
        read one attribute, so its group-by fixes its children's), so
        their contexts still share one key set.
        """
        applied = repair.applied
        incoming: Dict[int, ViewData] = {}
        changed: List[str] = []
        for vid, shape, footprint in recipe.inputs:
            digest = view_digest(shape, footprint, repair.new_fps)
            if applied.relation in footprint:
                data = repair.deltas.get(digest)
                changed.append(digest)
            else:
                data = self._resolve_input(digest)
            if data is None:
                return None
            incoming[vid] = data
        relation = applied.database.relation(recipe.plan.node)
        weights = None
        if relation.name == applied.relation:
            relation, weights = repair.delta, repair.signs
        elif changed:
            digests = tuple(sorted(set(changed)))
            if (relation.name, digests) not in repair._rows:
                repair._rows[relation.name, digests] = _rows_joining(
                    relation, [repair.deltas[d] for d in digests]
                )
            relation = repair._rows[relation.name, digests]
        else:
            relation = None
        if relation is None or not relation.n_rows:
            return {}
        return {
            vid: _nonzero(view)
            for vid, view in execute_plan(
                recipe.plan, relation, incoming, recipe.dyn, weights
            ).items()
        }

    def _repair(
        self, digest: str, entry: _Entry, repair: _Reconciliation
    ) -> str:
        """Repair one affected entry in place by merging its delta.

        Every affected input was repaired (or evicted) earlier in the
        pass.  The entry's group runs once per pass for all its views
        (:meth:`_group_deltas`), and its recipe carries over unchanged.
        Returns ``"merged"`` or ``"evicted"``.
        """
        recipe, sig = entry.recipe, entry.sig
        if recipe is None or digest != view_digest(
            sig.shape, sig.relations, repair.old_fps
        ):
            # no recipe (revived from disk), or stale: admitted against
            # an older database version; its children resolve elsewhere
            # (or nowhere), and repairing it would publish data under an
            # address no current run asks for.  Content addressing makes
            # eviction always correct.
            self._evict_entry(digest)
            return "evicted"
        key = (id(recipe.plan), id(recipe.dyn))
        if key not in repair.runs:
            repair.runs[key] = self._group_deltas(recipe, repair)
        deltas = repair.runs[key]
        if deltas is None:
            self._evict_entry(digest)
            return "evicted"
        delta = deltas.get(recipe.view_id)
        if delta is None:  # zero
            delta = (
                _rows(entry.data, np.zeros(entry.data.n_rows, dtype=bool))
                if entry.data.group_by
                else entry.data.with_sums(np.zeros_like(entry.data.sums))
            )
        data = merge(entry.data, delta) if delta.n_rows else entry.data
        if not (_exact_counts(entry.data) and _exact_counts(data)):
            self._evict_entry(digest)
            return "evicted"
        new_sig = replace(
            sig, digest=view_digest(sig.shape, sig.relations, repair.new_fps)
        )
        self._evict_entry(digest, count=False)
        # memory only: the next delta re-keys it again (see the module
        # docstring); it reaches disk on LRU eviction or flush()
        if not self._admit(new_sig, data, recipe=recipe):
            # e.g. the repaired view outgrew the budget
            with self._lock:
                self._stats.invalidations += 1
            return "evicted"
        with self._lock:
            self._stats.patches += 1
        repair.deltas[new_sig.digest] = delta
        return "merged"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        with self._lock:
            return (
                f"ViewCache({len(self._entries)} views, "
                f"{self._bytes / (1 << 20):.1f}/"
                f"{self.budget_bytes / (1 << 20):.1f} MiB, "
                f"hits={self._stats.hits} misses={self._stats.misses})"
            )
