"""Durable storage & recovery: a snapshot, a delta WAL, a cache tier.

Everything the in-memory engine stack computes — the loaded
:class:`~repro.data.database.Database`, the epoch history of committed
deltas, and the content-addressed view cache — can be persisted and
recovered by this package.  All of it is stored in one format:

* :mod:`~repro.storage.codec` — the one record: a CRC frame around a
  JSON header and raw NumPy columns;
* :mod:`~repro.storage.snapshot` — a database as one record in one
  file, its header carrying schema, row counts and relation content
  fingerprints, so a reloaded relation re-keys to identical cache
  digests;
* :mod:`~repro.storage.wal` — an append-only, fsync'd log of
  :class:`~repro.data.database.DeltaBatch` commits, one record per
  epoch (torn tails truncate, corruption never propagates past the
  first bad frame);
* :mod:`~repro.storage.cachestore` — the persistent second tier of the
  :class:`~repro.engine.viewcache.cache.ViewCache`: one record per view,
  keyed by content digest, serving cross-process warm starts, with
  corruption-safe loads (bad entry = miss, never a crash);
* :mod:`~repro.storage.manager` — :class:`DatasetStorage`, the per-
  dataset directory: atomic snapshot replacement, the one recovery
  (snapshot load + WAL fold), and compaction.
"""

from .cachestore import CacheStore
from .manager import (
    DatasetStorage,
    RecoveredState,
    RecoveryStats,
    StorageError,
    dataset_dirs,
)
from .snapshot import (
    SnapshotError,
    SnapshotInfo,
    load_snapshot,
    write_snapshot,
)
from .wal import WalCommit, WalError, WriteAheadLog

__all__ = [
    "CacheStore",
    "DatasetStorage",
    "RecoveredState",
    "RecoveryStats",
    "SnapshotError",
    "SnapshotInfo",
    "StorageError",
    "WalCommit",
    "WalError",
    "WriteAheadLog",
    "dataset_dirs",
    "load_snapshot",
    "write_snapshot",
]
