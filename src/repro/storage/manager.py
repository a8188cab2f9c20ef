"""One durable data directory per dataset: snapshot + WAL + cache tier.

:class:`DatasetStorage` owns the on-disk layout and the recovery
protocol the serving layer uses::

    <dir>/snapshot    # the database at the snapshot epoch, one file
    <dir>/wal.log     # the delta write-ahead log
    <dir>/cache/      # spilled content-addressed views

All three hold :mod:`~repro.storage.codec` records.  A new snapshot is
streamed to a temp file, fsynced, renamed over ``snapshot`` and
published by fsyncing the directory, so a crash at any point leaves
either the old or the new snapshot live — never neither.

**Recovery** (:meth:`DatasetStorage.recover`, the only one: ``repro
restore`` and the serving layer both call it) = load the snapshot, then
fold every WAL commit with an epoch greater than the snapshot's into
it.  Because the serving layer logs each commit *before* publishing its
epoch, the recovered database is byte-identical (and therefore
fingerprint-identical) to the last published epoch — reloaded
relations re-key to the same content digests, so the spilled cache
tier serves warm hits immediately.

**Compaction** folds the WAL into a fresh snapshot at the current
epoch and truncates the log, bounding replay time after the next
restart.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

from ..data.database import Database
from .cachestore import CacheStore
from .snapshot import SnapshotInfo, load_snapshot, write_snapshot
from .wal import WriteAheadLog

SNAPSHOT_NAME = "snapshot"
WAL_NAME = "wal.log"
CACHE_DIR_NAME = "cache"


class StorageError(RuntimeError):
    """The data directory is unusable (no snapshot, old layout, ...)."""


@dataclass
class RecoveryStats:
    """What one boot-time recovery did (logged and exposed in /stats)."""

    snapshot_epoch: int
    epoch: int
    replayed_commits: int
    replayed_changes: int
    wal_tail_truncated: bool
    snapshot_load_seconds: float
    replay_seconds: float
    cache_entries: int
    cache_bytes: int

    def as_dict(self) -> Dict:
        return {
            "snapshot_epoch": self.snapshot_epoch,
            "epoch": self.epoch,
            "replayed_commits": self.replayed_commits,
            "replayed_changes": self.replayed_changes,
            "wal_tail_truncated": self.wal_tail_truncated,
            "snapshot_load_seconds": round(self.snapshot_load_seconds, 6),
            "replay_seconds": round(self.replay_seconds, 6),
            "cache_entries": self.cache_entries,
            "cache_bytes": self.cache_bytes,
        }


@dataclass
class RecoveredState:
    """The result of :meth:`DatasetStorage.recover`."""

    database: Database
    epoch: int
    stats: RecoveryStats


class DatasetStorage:
    """Durable storage for one dataset: snapshot, WAL, cache tier.

    Typical lifecycles::

        storage = DatasetStorage(path)
        if storage.has_snapshot():
            recovered = storage.recover()      # snapshot + WAL fold
        else:
            storage.initialize(database)       # first boot
        ...
        storage.log_commit(epoch, deltas)      # on every delta commit
        storage.compact(database, epoch)       # fold WAL away
        storage.close()

    Opening a directory removes the temp file of a snapshot write that
    a crash interrupted.  A directory in the layout of an earlier
    version (a pointer file to a snapshot directory, no ``snapshot``
    file) is refused with a :class:`StorageError` rather than mistaken
    for an empty one.
    """

    def __init__(
        self, directory: str, *, cache_budget_bytes: Optional[int] = None
    ):
        self.directory = os.path.abspath(directory)
        self.snapshot_path = os.path.join(self.directory, SNAPSHOT_NAME)
        if not self.has_snapshot() and os.path.exists(
            os.path.join(self.directory, "CURRENT")
        ):
            raise StorageError(
                f"{self.directory!r} holds storage in the old layout "
                "(a CURRENT pointer file naming a snapshot directory); "
                "this version reads only a single 'snapshot' file and "
                "will not overwrite it"
            )
        os.makedirs(self.directory, exist_ok=True)
        for name in os.listdir(self.directory):
            if name.startswith(SNAPSHOT_NAME + ".tmp-"):
                os.remove(os.path.join(self.directory, name))
        #: epoch of the live snapshot, once initialize/recover/compact ran
        self.snapshot_epoch: Optional[int] = None
        self.last_compaction: Optional[Dict] = None
        self.cache_store = CacheStore(
            os.path.join(self.directory, CACHE_DIR_NAME),
            budget_bytes=cache_budget_bytes,
        )
        self.wal = WriteAheadLog(os.path.join(self.directory, WAL_NAME))

    def has_snapshot(self) -> bool:
        return os.path.isfile(self.snapshot_path)

    # -- lifecycle ---------------------------------------------------------

    def initialize(
        self, database: Database, *, epoch: int = 0
    ) -> SnapshotInfo:
        """First boot: persist the loaded database as the base snapshot.

        Any pre-existing WAL is truncated *before* the new base goes
        live: ``initialize`` establishes a new base, and commits logged
        against an earlier one must never replay over it (they may not
        even refer to the same rows).  Truncate-first makes the bad
        crash window benign — a crash between truncate and snapshot
        leaves the old base with an empty WAL, i.e. a state the
        operator explicitly asked to abandon, rather than old commits
        silently corrupting the new base.
        """
        if self.wal.n_commits or self.wal.nbytes:
            self.wal.truncate()
        info = write_snapshot(database, self.snapshot_path, epoch=epoch)
        self.snapshot_epoch = info.epoch
        return info

    def recover(self) -> RecoveredState:
        """Load the snapshot and fold the WAL's newer commits into it.

        The monotonic guard skips every commit whose epoch is not above
        the last one applied.  That covers two cases with one test:
        commits already folded into the snapshot (a crash between a
        compaction's rename and its WAL truncate), and a resurrected
        duplicate of an epoch a later commit reused (possible only if a
        failed append's scrub was lost to a power cut) — never apply an
        epoch twice.
        """
        if not self.has_snapshot():
            raise StorageError(
                f"no snapshot to recover in {self.directory!r}"
            )
        t0 = time.perf_counter()
        database, info = load_snapshot(self.snapshot_path)
        t1 = time.perf_counter()
        self.snapshot_epoch = info.epoch
        epoch = info.epoch
        replayed = 0
        changes = 0
        for commit in self.wal.replay():
            if commit.epoch <= epoch:
                continue
            for delta in commit.deltas:
                database = database.apply_delta(delta).database
            changes += commit.n_changes()
            epoch = commit.epoch
            replayed += 1
        cache = self.cache_store.stats()
        stats = RecoveryStats(
            snapshot_epoch=info.epoch,
            epoch=epoch,
            replayed_commits=replayed,
            replayed_changes=changes,
            wal_tail_truncated=self.wal.tail_truncated,
            snapshot_load_seconds=t1 - t0,
            replay_seconds=time.perf_counter() - t1,
            cache_entries=cache["entries"],
            cache_bytes=cache["spilled_bytes"],
        )
        return RecoveredState(database=database, epoch=epoch, stats=stats)

    def log_commit(self, epoch: int, deltas) -> None:
        """Durably record one commit before its epoch is published."""
        self.wal.append(epoch, [d for d in deltas if not d.is_empty])

    def compact(self, database: Database, epoch: int) -> SnapshotInfo:
        """Fold the WAL into a fresh snapshot of ``database`` at ``epoch``.

        The WAL is truncated only after the new snapshot is durable, so
        a crash mid-compaction recovers from the old snapshot + full WAL
        or from the new snapshot + a WAL whose commits it already holds.
        """
        info = write_snapshot(database, self.snapshot_path, epoch=epoch)
        self.wal.truncate()
        self.snapshot_epoch = info.epoch
        self.last_compaction = {"epoch": info.epoch, "unix_time": time.time()}
        return info

    def sync(self) -> None:
        """Fsync the WAL (used by graceful-shutdown handlers)."""
        self.wal.sync()

    def close(self) -> None:
        self.wal.close()

    def __enter__(self) -> "DatasetStorage":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- introspection -----------------------------------------------------

    @property
    def wal_len(self) -> int:
        return self.wal.n_commits

    def stats(self) -> Dict:
        """The ``storage`` section of ``GET /stats`` for one dataset."""
        cache = self.cache_store.stats()
        return {
            "data_dir": self.directory,
            "wal_len": self.wal_len,
            "wal_bytes": self.wal.nbytes,
            "snapshot_epoch": self.snapshot_epoch,
            "last_compaction": self.last_compaction,
            "spilled_entries": cache["entries"],
            "spilled_bytes": cache["spilled_bytes"],
            "cache_loads": cache["loads"],
            "cache_load_failures": cache["load_failures"],
        }


def dataset_dirs(data_dir: str) -> List[str]:
    """Sub-directories of ``data_dir`` that hold dataset storage.

    A directory with a ``wal.log`` *is* a dataset storage dir (the
    single-dataset layout); otherwise every child with one is returned.
    """
    data_dir = os.path.abspath(data_dir)
    if os.path.isfile(os.path.join(data_dir, WAL_NAME)):
        return [data_dir]
    try:
        names = sorted(os.listdir(data_dir))
    except OSError:
        return []
    return [
        os.path.join(data_dir, name)
        for name in names
        if os.path.isfile(os.path.join(data_dir, name, WAL_NAME))
    ]


__all__ = [
    "DatasetStorage",
    "RecoveredState",
    "RecoveryStats",
    "StorageError",
    "dataset_dirs",
]
