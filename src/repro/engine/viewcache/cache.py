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
relation footprint contains the updated relation, bottom-up through
the reference DAG —

* entries *at* the updated relation **merge the signed delta**: the
  cached group plan runs once over the inserted and retracted rows,
  weighted +1 and -1, and the result is folded in with :func:`merge`;
* *interior* entries above them **merge a child delta**: a view is
  linear in each incoming view, so its change is ``plan(R', V_new) -
  plan(R', V_old)``, where ``R'`` holds the node relation's rows whose
  shared key values match a child key whose aggregates or support
  changed (every row, for a child key sharing no attribute with the
  relation).  Every other row reads the same child rows in both runs
  and cancels.  An entry whose children did not change is only re-keyed;
* every keyed view carries support counts — its context rows per key,
  summed like any aggregate — so :func:`merge` retires exactly the keys
  whose support cancels to zero, at the updated relation and above it;
* entries that cannot be repaired — no recipe (revived from disk),
  stale epoch, a child view missing from both cache tiers — are
  **evicted**.

Every repaired entry is re-keyed under the digest the next run's
signatures will compute (updated relation fingerprint at the changed
node, substituted child digests above it), so patches replace
evictions throughout the DAG.  Entries whose footprint does not
contain the updated relation keep their digests — their content
addresses still match — and survive.  A repaired entry lives in memory
only: the next delta re-keys it again, so writing it to the second
tier would only leave garbage there.  It reaches disk when the LRU
evicts it or at :meth:`ViewCache.flush`.

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
from .signature import (
    ViewSignature,
    rekey_structure,
    relation_fingerprint,
    structure_digest,
)

#: default cache budget: 64 MiB of view payload
DEFAULT_BUDGET_BYTES = 64 << 20


def view_nbytes(data: ViewData) -> int:
    """Approximate in-memory size of one materialized view."""
    total = sum(col.nbytes for col in data.key_cols) + data.sums.nbytes
    if data.support is not None:
        total += data.support.nbytes
    return int(total)


@dataclass
class PatchRecipe:
    """How to repair a cached view in place after a delta.

    ``plan`` is the multi-output group plan that produced the view;
    ``dyn`` is the dynamic-function table it was executed with.
    ``structure`` is what the view's digest hashes besides its node
    relation's fingerprint — ``(source, shape digest, child digests)``
    — used to detect stale entries and to re-key the repaired entry;
    ``input_digests`` maps the plan's input view ids to the digests
    their data was read under, so re-execution can resolve the same (or
    re-keyed) children from the cache.
    """

    plan: GroupPlan
    view_id: int
    dyn: tuple
    structure: tuple
    input_digests: Tuple[Tuple[int, str], ...] = ()


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
    old_fp: Optional[str]
    new_fp: str
    pending: Dict[str, _Entry]
    #: the delta's rows as one relation (None if empty), and their signs:
    #: inserted rows +1, retracted rows -1 (None: nothing retracted)
    delta: Optional[Relation]
    signs: Optional[np.ndarray]
    #: old digest -> the digest its repaired entry was re-keyed under
    rekey: Dict[str, str] = field(default_factory=dict)
    #: repaired digest -> the entry's data (before, after) the delta
    repaired: Dict[str, Tuple[ViewData, ViewData]] = field(
        default_factory=dict
    )
    #: group-run memo (see :meth:`ViewCache._run_plan`)
    runs: Dict[tuple, Dict[int, ViewData]] = field(default_factory=dict)
    _changes: Dict[str, List[np.ndarray]] = field(default_factory=dict)
    _rows: Dict[tuple, Relation] = field(default_factory=dict)

    def changes(self, digest: str) -> List[np.ndarray]:
        """A repaired entry's changed keys."""
        found = self._changes.get(digest)
        if found is None:
            found = self._changes[digest] = changed_keys(
                *self.repaired[digest]
            )
        return found

    def restricted(
        self, relation: Relation, changed: Tuple[str, ...]
    ) -> Relation:
        """The rows of ``relation`` that join a key the repaired entries
        ``changed`` changed.  Computed once per pass and relation."""
        key = (relation.name, changed)
        if key not in self._rows:
            self._rows[key] = _rows_joining(
                relation,
                [
                    (self.repaired[digest][1].group_by,
                     self.changes(digest))
                    for digest in changed
                ],
            )
        return self._rows[key]


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


def changed_keys(old: ViewData, new: ViewData) -> List[np.ndarray]:
    """The keys whose row differs between two versions of a keyed view.

    A key differs when only one version holds it or when an aggregate or
    its support differs.  Returns the differing keys' columns; a scalar
    view has no keys to return.
    """
    if not new.group_by:
        return []
    codes, keys = ops.factorize_rows(
        [
            ops.factorize(np.concatenate([was, now]))
            for was, now in zip(old.key_cols, new.key_cols)
        ]
    )
    before, after = codes[: old.n_rows], codes[old.n_rows :]
    n_keys = len(keys[0])
    held = np.zeros(n_keys, dtype=bool)
    held[before] = True
    holds = np.zeros(n_keys, dtype=bool)
    holds[after] = True
    differs = held != holds
    blocks = [(old.sums, new.sums)]
    if old.support is not None and new.support is not None:
        blocks.append((old.support[None], new.support[None]))
    for was, now in blocks:
        by_key = np.zeros((2, len(was), n_keys))
        by_key[0][:, before] = was
        by_key[1][:, after] = now
        differs |= (by_key[0] != by_key[1]).any(axis=0)
    return [key[differs] for key in keys]


def _rows_joining(
    relation: Relation,
    changed: List[Tuple[Tuple[str, ...], List[np.ndarray]]],
) -> Relation:
    """The rows of ``relation`` whose shared key values match a changed key.

    ``changed`` holds each changed view's group-by and changed keys.  A
    view's key is matched on the attributes it shares with the relation
    only, so the rows are a superset of those whose join partner
    changed; a key sharing no attribute (a keyless view) joins every row.
    """
    mask = np.zeros(relation.n_rows, dtype=bool)
    for group_by, keys in changed:
        shared = [
            pos for pos, attr in enumerate(group_by)
            if relation.has_column(attr)
        ]
        if not shared:
            return relation
        left, right = ops.shared_codes(
            [relation.encodings[group_by[pos]] for pos in shared],
            [keys[pos] for pos in shared],
        )
        mask |= ops.semijoin_mask(left, right[right >= 0])
    return relation.filter(mask)


def merge(data: ViewData, *deltas: ViewData) -> ViewData:
    """``data`` plus partial views of the same view, summed per key.

    Valid because every view aggregate is a SUM over context rows, and
    context rows partition with the node relation's rows.  The deltas
    come from ``data``'s own plan, so carry support exactly when it does;
    supports sum like any aggregate and are integer-valued, so the zero
    test is exact, and a key whose support cancels to zero — every
    context row that produced it retracted, when a from-scratch run
    would not emit it — is retired.

    A delta that only touches keys the view holds is added in place at
    those keys' rows, piece by piece as a regrouping would add it, and
    the view's key encodings carry over; a new key regroups every piece.
    """
    pieces = (data,) + deltas
    if not data.group_by:  # one row per piece
        return data.with_sums(np.add.reduce([p.sums for p in pieces]))
    with_support = data.support is not None
    positions = _positions(data, deltas)
    if positions is None:
        return _regrouped(pieces, with_support)
    sums = data.sums.copy()
    support = data.support.copy() if with_support else None
    for delta, at in zip(deltas, positions):
        sums[:, at] += delta.sums
        if with_support:
            support[at] += delta.support
    return _live(data.with_sums(sums, support))


def _live(data: ViewData) -> ViewData:
    """``data`` less the keys whose support cancelled to zero."""
    if data.support is None:
        return data
    alive = data.support > 0.5
    if alive.all():
        return data
    return ViewData(
        data.group_by,
        [key[alive] for key in data.key_cols],
        data.sums[:, alive],
        data.support[alive],
    )


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


def _regrouped(pieces: Tuple[ViewData, ...], with_support: bool) -> ViewData:
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
    support = (
        ops.group_sums(
            codes, np.concatenate([p.support for p in pieces]), n_keys
        )
        if with_support
        else None
    )
    return _live(ViewData(pieces[0].group_by, list(keys), sums, support))


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
        repaired bottom-up through the reference DAG, each by merging a
        delta: an entry at the updated relation runs its group plan once
        over the signed delta; an entry above it runs its plan over the
        node relation's rows that join a changed child key, once with the
        children's new data and once with their old, and merges the
        difference; an entry whose children did not change is only
        re-keyed.  Support counts retire the keys a delta empties.
        Every repaired entry is re-keyed under its new content digest so
        the next run's signatures find it.  Entries that cannot be
        repaired — no recipe, stale epoch, a child view missing from both
        tiers — are evicted.

        Returns {old digest: "merged" | "evicted"} for the affected
        entries — repaired by merging a delta (or re-keyed unchanged), or
        dropped; untouched entries (footprint disjoint from the updated
        relation) do not appear.
        """
        relation = applied.relation
        new_fp = relation_fingerprint(applied.database.relation(relation))
        # patching is only sound for entries that hold the *pre-delta*
        # version of the relation's data: an entry admitted by a reader
        # pinned to an older epoch (its digest hangs off an older
        # fingerprint) must be evicted, not patched forward past the
        # deltas it never saw
        old_fp = (
            None
            if applied.previous is None
            else relation_fingerprint(applied.previous.relation(relation))
        )
        # advance the admission watermark FIRST: from here on, puts by
        # readers still pinned to the pre-delta database are rejected
        # (stale_rejects) instead of entering only to be evicted by the
        # next delta — see :meth:`put`
        fingerprints = {
            rel.name: relation_fingerprint(rel) for rel in applied.database
        }
        with self._lock:
            self._current_fp.update(fingerprints)
            pending: Dict[str, _Entry] = {
                digest: entry
                for digest, entry in self._entries.items()
                if relation in entry.sig.relations
            }
        repair = _Reconciliation(
            applied, old_fp, new_fp, pending, *_signed_rows(applied)
        )
        outcome: Dict[str, str] = {}
        progress = True
        while pending and progress:
            progress = False
            for digest in list(pending):
                status = self._repair(digest, pending[digest], repair)
                if status is None:  # a child is still pending: defer
                    continue
                del pending[digest]
                progress = True
                outcome[digest] = status
        for digest in pending:  # reference cycles cannot happen; be safe
            self._evict_entry(digest)
            outcome[digest] = "evicted"
        return outcome

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
        """A repair input by digest: in-memory first, then the disk tier."""
        data = self.peek(digest)
        if data is None and self._store is not None:
            loaded = self._store.load(digest)
            if loaded is not None:
                data = loaded[1]
        return data

    def _repair(
        self, digest: str, entry: _Entry, repair: _Reconciliation
    ) -> Optional[str]:
        """Repair one affected entry in place by merging a delta.

        Returns ``"merged"`` or ``"evicted"``, or None when the entry
        must wait for a still-pending child to be re-keyed first.  At the
        updated relation the delta is the group run over the signed
        delta rows (no child of it can have changed: a view's children
        cover only relations below its node); above it, the group run
        over the rows joining a changed child key, new minus old.
        """
        applied = repair.applied
        recipe = entry.recipe
        if recipe is None or recipe.structure is None:
            self._evict_entry(digest)
            return "evicted"
        source = recipe.structure[0]
        node_changed = source == applied.relation
        if node_changed and repair.old_fp is None:
            self._evict_entry(digest)
            return "evicted"
        node_old_fp = (
            repair.old_fp
            if node_changed
            else relation_fingerprint(applied.database.relation(source))
        )
        if digest != structure_digest(recipe.structure, node_old_fp):
            # stale: admitted against an older database version; its
            # children resolve elsewhere (or nowhere), and repairing it
            # would publish data under an address no current run asks
            # for.  Content addressing makes eviction always correct.
            self._evict_entry(digest)
            return "evicted"
        incoming: Dict[int, ViewData] = {}
        new_inputs: List[Tuple[int, str]] = []
        changed: Dict[int, str] = {}  # input view id -> repaired digest
        for vid, child in recipe.input_digests:
            if child in repair.pending:
                return None  # repair children first
            current = repair.rekey.get(child, child)
            data = self._resolve_input(current)
            if data is None:  # child evicted (delta or LRU): give up
                self._evict_entry(digest)
                return "evicted"
            incoming[vid] = data
            new_inputs.append((vid, current))
            if current != child:
                changed[vid] = current
        input_key = tuple(new_inputs)
        if node_changed:
            data = self._merge_signed_delta(
                entry, recipe, repair, incoming, input_key
            )
        else:
            data = self._merge_interior_delta(
                entry,
                recipe,
                repair,
                applied.database.relation(source),
                incoming,
                changed,
                input_key,
            )
        new_structure = rekey_structure(recipe.structure, repair.rekey)
        new_digest = structure_digest(
            new_structure, repair.new_fp if node_changed else node_old_fp
        )
        new_sig = ViewSignature(
            digest=new_digest,
            relations=entry.sig.relations,
            cacheable=True,
            structure=new_structure,
        )
        new_recipe = PatchRecipe(
            plan=recipe.plan,
            view_id=recipe.view_id,
            dyn=recipe.dyn,
            structure=new_structure,
            input_digests=input_key,
        )
        self._evict_entry(digest, count=False)
        # memory only: the next delta re-keys it again (see the module
        # docstring); it reaches disk on LRU eviction or flush()
        if not self._admit(new_sig, data, recipe=new_recipe):
            # e.g. the repaired view outgrew the budget
            with self._lock:
                self._stats.invalidations += 1
            return "evicted"
        with self._lock:
            self._stats.patches += 1
        repair.rekey[digest] = new_digest
        repair.repaired[new_digest] = (entry.data, data)
        return "merged"

    def _merge_signed_delta(
        self,
        entry: _Entry,
        recipe: PatchRecipe,
        repair: _Reconciliation,
        incoming: Dict[int, ViewData],
        input_key: tuple,
    ) -> ViewData:
        """The entry with its group run once over the signed delta merged in.

        For an entry at the updated relation.
        """
        data = entry.data
        if repair.delta is None:  # empty delta: data unchanged
            return data
        produced = self._run_plan(
            recipe,
            repair.delta,
            incoming,
            repair,
            ("signed", input_key),
            repair.signs,
        )
        return merge(data, produced[recipe.view_id])

    def _merge_interior_delta(
        self,
        entry: _Entry,
        recipe: PatchRecipe,
        repair: _Reconciliation,
        relation: Relation,
        incoming: Dict[int, ViewData],
        changed: Dict[int, str],
        input_key: tuple,
    ) -> ViewData:
        """The entry plus ``plan(R', new) - plan(R', old)``.

        For an entry above the updated relation.  ``R'`` holds the node
        relation's rows whose shared key values match a changed child
        key; every other row reads the same child rows in both runs, so
        its contribution cancels and need not be computed.  Support
        counts difference the same way, so keys whose last context row
        lost its partner retire.
        """
        data = entry.data
        if not changed:  # children unchanged: re-keyed only
            return data
        rows_key = tuple(sorted(changed.values()))
        rows = repair.restricted(relation, rows_key)
        if rows.n_rows == 0:  # no row joins a changed key
            return data
        before = dict(incoming)
        for vid, digest in changed.items():
            before[vid] = repair.repaired[digest][0]
        new = self._run_plan(
            recipe, rows, incoming, repair, ("new", input_key, rows_key)
        )
        old = self._run_plan(
            recipe, rows, before, repair, ("old", input_key, rows_key)
        )
        view_id = recipe.view_id
        return merge(data, new[view_id], old[view_id].negated())

    def _run_plan(
        self,
        recipe: PatchRecipe,
        relation: Relation,
        incoming: Dict[int, ViewData],
        repair: _Reconciliation,
        run: tuple,
        weights: Optional[np.ndarray] = None,
    ) -> Dict[int, ViewData]:
        """Run a recipe's group plan once per reconciliation pass.

        Sibling views of one multi-output group share a plan object and
        dyn binding, so the memo collapses their repairs into a single
        execution per delta.  ``run`` names what the run reads: its kind
        (the ``"signed"`` delta, or ``"new"`` or ``"old"`` children over
        the restricted rows), the input digests and, for a restricted
        run, the changed children that chose its rows.
        """
        key = (id(recipe.plan), tuple(id(f) for f in recipe.dyn)) + run
        produced = repair.runs.get(key)
        if produced is None:
            produced = execute_plan(
                recipe.plan, relation, incoming, recipe.dyn, weights
            )
            repair.runs[key] = produced
        return produced

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        with self._lock:
            return (
                f"ViewCache({len(self._entries)} views, "
                f"{self._bytes / (1 << 20):.1f}/"
                f"{self.budget_bytes / (1 << 20):.1f} MiB, "
                f"hits={self._stats.hits} misses={self._stats.misses})"
            )
