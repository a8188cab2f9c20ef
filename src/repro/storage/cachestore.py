"""The persistent second tier of the content-addressed view cache.

A :class:`CacheStore` spills materialized views to disk, one file per
content digest, and serves them back across process restarts: a fresh
:class:`~repro.engine.viewcache.cache.ViewCache` wired to a populated
store answers its first probes from disk (*warm hits*) instead of
recomputing.

Because keys are content addresses over relation fingerprints, disk
entries need **no invalidation protocol**: after a delta commit the new
epoch's signatures hash the new fingerprints, so stale entries are
simply never asked for again.  They are garbage, not hazards — an
optional byte budget prunes the oldest files when the tier grows.

Corruption safety is absolute by construction: any failure to read,
parse, or checksum an entry is a *miss* (and the bad file is removed),
never an exception escaping to the engine.  A half-written file cannot
exist — writes land in a temp file and ``os.replace`` into place.

One view per file, ``<digest>.view``: a :mod:`~repro.storage.codec`
record (magic ``RVC3``) whose header names the digest, the relations,
the group-by, ``n_aggs`` and ``count``, the row of the block holding
the view's COUNT (its support; null if none); its columns are the key
columns, then the sums block as one raw column (reshaped on load).
Every key column holds one entry per row, the block ``n_aggs`` x rows,
and ``count`` names one of the block's rows; a record that breaks
either is corrupt.
"""

from __future__ import annotations

import os
import threading
from typing import Dict, List, Optional, Tuple

from ..engine.interpreter import ViewData
from ..engine.viewcache.signature import ViewSignature
from . import codec

#: RVC1 records held one column per aggregate, RVC2 ones a separate
#: context-row support column: either is a miss
_MAGIC = b"RVC3"

_SUFFIX = ".view"


def _encode_entry(sig: ViewSignature, data: ViewData) -> List:
    header = {
        "digest": sig.digest,
        "relations": sorted(sig.relations),
        "group_by": list(data.group_by),
        "n_aggs": len(data.sums),
        "count": data.count,
    }
    return codec.encode(_MAGIC, header, list(data.key_cols) + [data.sums])


def _decode_entry(handle, digest: str) -> Tuple[ViewSignature, ViewData]:
    record = codec.read_record(handle, _MAGIC)
    if record is None:
        raise codec.FrameError("empty entry")
    header, columns = record
    if header["digest"] != digest:
        raise ValueError("digest mismatch")
    n_keys = len(header["group_by"])
    if len(columns) != n_keys + 1:
        raise ValueError("column count mismatch")
    n_rows = len(columns[0]) if n_keys else 1
    n_aggs, count = header["n_aggs"], header["count"]
    if columns[n_keys].size != n_aggs * n_rows:
        raise ValueError("sums block is not n_aggs x n_rows")
    if any(len(column) != n_rows for column in columns[:n_keys]):
        raise ValueError("a key column is not n_rows long")
    if count is not None and not 0 <= count < n_aggs:
        raise ValueError("count names no row of the sums block")
    sig = ViewSignature(
        digest=digest,
        relations=frozenset(header["relations"]),
        cacheable=True,
    )
    data = ViewData(
        group_by=tuple(header["group_by"]),
        key_cols=columns[:n_keys],
        sums=columns[n_keys].reshape(n_aggs, n_rows),
        count=count,
    )
    return sig, data


class CacheStore:
    """A directory of spilled views, keyed by content digest.

    Implements the duck-typed second-tier protocol the in-memory
    :class:`~repro.engine.viewcache.cache.ViewCache` probes: ``save``
    and ``load``.  ``budget_bytes`` (optional) bounds the tier — when
    exceeded, the oldest entries (by mtime) are pruned.
    """

    def __init__(
        self,
        directory: str,
        *,
        budget_bytes: Optional[int] = None,
    ):
        self.directory = os.path.abspath(directory)
        self.budget_bytes = budget_bytes
        os.makedirs(self.directory, exist_ok=True)
        self._lock = threading.Lock()
        self._saves = 0
        self._loads = 0
        self._load_failures = 0
        self._pruned = 0
        # running totals so budget checks (every save) and stats
        # (every GET /stats) are O(1), not a directory scan; one scan
        # at construction, bookkept by save/load, re-anchored to the
        # exact scan by every prune()
        self._tracked_bytes = 0
        self._tracked_entries = 0
        self._rescan_tracked()

    def _rescan_tracked(self) -> None:
        total = 0
        count = 0
        try:
            with os.scandir(self.directory) as entries:
                for entry in entries:
                    if not entry.name.endswith(_SUFFIX):
                        continue
                    try:
                        total += entry.stat().st_size
                    except OSError:
                        continue
                    count += 1
        except OSError:
            pass
        with self._lock:
            self._tracked_bytes = total
            self._tracked_entries = count

    # -- paths -------------------------------------------------------------

    def _path(self, digest: str) -> str:
        if not digest or any(c in digest for c in "/\\.") or len(digest) > 128:
            raise ValueError(f"bad digest {digest!r}")
        return os.path.join(self.directory, digest + _SUFFIX)

    # -- the second-tier protocol ------------------------------------------

    def save(self, sig: ViewSignature, data: ViewData) -> bool:
        """Spill one view to disk; returns whether it was persisted."""
        if not sig.cacheable:
            return False
        try:
            record = _encode_entry(sig, data)
            path = self._path(sig.digest)
            try:
                replaced_bytes = os.path.getsize(path)
            except OSError:
                replaced_bytes = None
            tmp = f"{path}.tmp-{os.getpid()}-{threading.get_ident()}"
            with open(tmp, "wb") as handle:
                nbytes = codec.write(handle, record)
            os.replace(tmp, path)
        except (OSError, ValueError):
            return False
        over_budget = False
        with self._lock:
            self._saves += 1
            self._tracked_bytes += nbytes - (replaced_bytes or 0)
            if replaced_bytes is None:
                self._tracked_entries += 1
            over_budget = (
                self.budget_bytes is not None
                and self._tracked_bytes > self.budget_bytes
            )
        if over_budget:
            self.prune()
        return True

    def load(
        self, digest: str
    ) -> Optional[Tuple[ViewSignature, ViewData]]:
        """The spilled view for a digest, or None.

        Never raises: a missing, torn, or corrupt file is a miss, and
        corrupt files are deleted so they are not re-probed forever.
        """
        try:
            path = self._path(digest)
        except ValueError:
            return None
        try:
            handle = open(path, "rb")
        except OSError:
            return None
        try:
            with handle:
                size = os.fstat(handle.fileno()).st_size
                sig, data = _decode_entry(handle, digest)
        except Exception:  # noqa: BLE001 - bad entry => miss, never crash
            with self._lock:
                self._load_failures += 1
            try:
                os.remove(path)
            except OSError:
                pass
            else:
                with self._lock:
                    self._tracked_bytes -= size
                    self._tracked_entries -= 1
            return None
        with self._lock:
            self._loads += 1
        # refresh mtime so warm-served entries survive budget pruning
        try:
            os.utime(path)
        except OSError:
            pass
        return sig, data

    # -- maintenance -------------------------------------------------------

    def prune(self) -> int:
        """Remove oldest entries until the byte budget holds.

        Prunes down to 90% of the budget, not to the line: without the
        hysteresis, a tier sitting at its budget would pay this full
        directory scan on every subsequent save.
        """
        if self.budget_bytes is None:
            return 0
        target = int(self.budget_bytes * 0.9)
        entries: List[Tuple[float, int, str]] = []
        try:
            with os.scandir(self.directory) as scan:
                for entry in scan:
                    if not entry.name.endswith(_SUFFIX):
                        continue
                    try:
                        stat = entry.stat()
                    except OSError:
                        continue
                    entries.append(
                        (stat.st_mtime, stat.st_size, entry.path)
                    )
        except OSError:
            return 0
        total = sum(size for _, size, _ in entries)
        removed = 0
        for _, size, path in sorted(entries):
            if total <= target:
                break
            try:
                os.remove(path)
            except OSError:
                continue
            total -= size
            removed += 1
        with self._lock:
            self._pruned += removed
            # re-anchor the running totals to this scan's exact values
            self._tracked_bytes = total
            self._tracked_entries = len(entries) - removed
        return removed

    # -- introspection -----------------------------------------------------

    def stats(self) -> Dict[str, int]:
        """O(1) counters (no directory scan — safe to poll).

        ``entries``/``spilled_bytes`` are the bookkept running totals;
        they track the scanned truth exactly except across external
        file-system mutation, and every :meth:`prune` re-anchors them.
        """
        with self._lock:
            return {
                "saves": self._saves,
                "loads": self._loads,
                "load_failures": self._load_failures,
                "pruned": self._pruned,
                "entries": self._tracked_entries,
                "spilled_bytes": self._tracked_bytes,
            }
