"""DatasetStorage: recovery protocol, compaction, crash points, layout."""

import os
import pathlib

import numpy as np
import pytest

from repro import DatasetStorage
from repro.data import DeltaBatch
from repro.engine.viewcache.signature import database_fingerprint
from repro.storage import SnapshotError
from repro.storage.manager import StorageError, dataset_dirs

from .test_snapshot import rewrite_header


def insert_rows(db, n=3):
    sales = db.relation("Sales")
    return DeltaBatch.insert(
        "Sales",
        {name: sales.column(name)[:n] for name in sales.schema.names},
    )


@pytest.fixture()
def data_dir(tmp_path):
    return str(tmp_path / "data")


class TestRecovery:
    def test_initialize_then_recover_round_trips(self, toy_db, data_dir):
        storage = DatasetStorage(data_dir)
        assert not storage.has_snapshot()
        storage.initialize(toy_db)
        assert storage.has_snapshot()
        storage.close()

        recovered = DatasetStorage(data_dir).recover()
        assert recovered.epoch == 0
        assert database_fingerprint(recovered.database) == (
            database_fingerprint(toy_db)
        )
        assert recovered.stats.replayed_commits == 0

    def test_wal_replay_reconstructs_epochs(self, toy_db, data_dir):
        storage = DatasetStorage(data_dir)
        storage.initialize(toy_db)
        expected = toy_db
        for epoch in (1, 2, 3):
            delta = insert_rows(expected, n=epoch)
            storage.log_commit(epoch, [delta])
            expected = expected.apply_delta(delta).database
        storage.close()

        recovered = DatasetStorage(data_dir).recover()
        assert recovered.epoch == 3
        assert recovered.stats.replayed_commits == 3
        assert recovered.stats.replayed_changes == 1 + 2 + 3
        assert database_fingerprint(recovered.database) == (
            database_fingerprint(expected)
        )

    def test_deletes_replay_against_running_row_order(
        self, toy_db, data_dir
    ):
        storage = DatasetStorage(data_dir)
        storage.initialize(toy_db)
        expected = toy_db
        first = insert_rows(expected, n=4)
        storage.log_commit(1, [first])
        expected = expected.apply_delta(first).database
        second = DeltaBatch.delete(
            "Sales", np.array([0, expected.relation("Sales").n_rows - 1])
        )
        storage.log_commit(2, [second])
        expected = expected.apply_delta(second).database
        storage.close()

        recovered = DatasetStorage(data_dir).recover()
        assert database_fingerprint(recovered.database) == (
            database_fingerprint(expected)
        )

    def test_replay_skips_non_monotonic_epochs(self, toy_db, data_dir):
        """A resurrected duplicate frame (a failed append's scrub lost
        to a power cut) must never apply an epoch twice."""
        storage = DatasetStorage(data_dir)
        storage.initialize(toy_db)
        first = insert_rows(toy_db, n=2)
        storage.log_commit(1, [first])
        storage.log_commit(1, [insert_rows(toy_db, n=5)])  # duplicate
        second = insert_rows(toy_db, n=3)
        storage.log_commit(2, [second])
        storage.close()

        recovered = DatasetStorage(data_dir).recover()
        assert recovered.epoch == 2
        assert recovered.stats.replayed_commits == 2
        expected = toy_db.apply_delta(first).database
        expected = expected.apply_delta(second).database
        assert database_fingerprint(recovered.database) == (
            database_fingerprint(expected)
        )

    def test_recover_without_snapshot_raises(self, data_dir):
        with pytest.raises(StorageError, match="no snapshot"):
            DatasetStorage(data_dir).recover()

    def test_initialize_truncates_a_stale_wal(self, toy_db, data_dir):
        """Re-initializing a dir establishes a NEW base: commits logged
        against the old base must not replay over it."""
        storage = DatasetStorage(data_dir)
        storage.initialize(toy_db)
        storage.log_commit(1, [insert_rows(toy_db)])
        storage.log_commit(2, [insert_rows(toy_db)])
        storage.close()

        fresh = DatasetStorage(data_dir)
        fresh.initialize(toy_db, epoch=0)
        assert fresh.wal_len == 0
        fresh.close()

        recovered = DatasetStorage(data_dir).recover()
        assert recovered.epoch == 0
        assert recovered.stats.replayed_commits == 0
        assert database_fingerprint(recovered.database) == (
            database_fingerprint(toy_db)
        )


class TestCompaction:
    def test_compact_folds_wal_and_truncates(self, toy_db, data_dir):
        storage = DatasetStorage(data_dir)
        storage.initialize(toy_db)
        delta = insert_rows(toy_db)
        storage.log_commit(1, [delta])
        updated = toy_db.apply_delta(delta).database
        assert storage.wal_len == 1
        storage.compact(updated, 1)
        assert storage.wal_len == 0
        assert storage.last_compaction["epoch"] == 1
        assert storage.snapshot_epoch == 1
        storage.close()

        recovered = DatasetStorage(data_dir).recover()
        assert recovered.epoch == 1
        assert recovered.stats.replayed_commits == 0
        assert database_fingerprint(recovered.database) == (
            database_fingerprint(updated)
        )

    def test_stale_wal_commits_skipped_after_compaction(
        self, toy_db, data_dir, monkeypatch
    ):
        """A crash between the snapshot rename and the WAL truncate
        must not double-apply: commits at or below the snapshot epoch
        are skipped on replay."""
        storage = DatasetStorage(data_dir)
        storage.initialize(toy_db)
        first = insert_rows(toy_db)
        storage.log_commit(1, [first])
        updated = toy_db.apply_delta(first).database
        second = insert_rows(updated, n=2)
        storage.log_commit(2, [second])
        # the crash point: the new snapshot is live, the truncate never ran
        monkeypatch.setattr(storage.wal, "truncate", lambda: None)
        storage.compact(updated, 1)
        storage.close()

        recovered = DatasetStorage(data_dir).recover()
        assert recovered.stats.snapshot_epoch == 1
        assert recovered.epoch == 2
        assert recovered.stats.replayed_commits == 1
        expected = updated.apply_delta(second).database
        assert database_fingerprint(recovered.database) == (
            database_fingerprint(expected)
        )

    def test_leftover_temp_snapshot_is_ignored_and_removed(
        self, toy_db, data_dir
    ):
        """A crash mid-write leaves a temp file beside the live
        snapshot: recovery loads the live one and leaves no litter."""
        storage = DatasetStorage(data_dir)
        storage.initialize(toy_db)
        storage.close()
        with open(os.path.join(data_dir, "snapshot.tmp-99999"), "wb") as f:
            f.write(b"half a snapshot")

        recovered = DatasetStorage(data_dir).recover()
        assert database_fingerprint(recovered.database) == (
            database_fingerprint(toy_db)
        )
        assert sorted(os.listdir(data_dir)) == ["cache", "snapshot", "wal.log"]

    @pytest.mark.parametrize("damage", ["flip", "truncate", "fingerprint"])
    def test_damaged_snapshot_raises(self, toy_db, data_dir, damage):
        storage = DatasetStorage(data_dir)
        storage.initialize(toy_db)
        storage.close()
        path = pathlib.Path(data_dir, "snapshot")
        raw = bytearray(path.read_bytes())
        if damage == "flip":
            raw[len(raw) // 2] ^= 0xFF
            path.write_bytes(raw)
        elif damage == "truncate":
            path.write_bytes(raw[:-8])
        else:
            rewrite_header(
                path,
                lambda header: header["relations"][0].update(
                    fingerprint="0" * 64
                ),
            )
        with pytest.raises(SnapshotError):
            DatasetStorage(data_dir).recover()


class TestLayout:
    def test_stats_shape(self, toy_db, data_dir):
        storage = DatasetStorage(data_dir)
        storage.initialize(toy_db)
        storage.log_commit(1, [insert_rows(toy_db)])
        stats = storage.stats()
        assert stats["wal_len"] == 1
        assert stats["wal_bytes"] > 0
        assert stats["snapshot_epoch"] == 0
        assert stats["last_compaction"] is None
        assert stats["spilled_entries"] == 0
        storage.close()

    def test_data_dir_holds_snapshot_wal_and_cache_only(
        self, toy_db, data_dir
    ):
        storage = DatasetStorage(data_dir)
        storage.initialize(toy_db)
        storage.log_commit(1, [insert_rows(toy_db)])
        assert sorted(os.listdir(data_dir)) == ["cache", "snapshot", "wal.log"]
        storage.compact(toy_db.apply_delta(insert_rows(toy_db)).database, 1)
        assert sorted(os.listdir(data_dir)) == ["cache", "snapshot", "wal.log"]
        storage.close()

    def test_old_layout_is_refused_not_overwritten(self, toy_db, data_dir):
        """A data dir written by the CURRENT-pointer layout looks empty
        to this version; opening it must fail instead of initializing
        over it and truncating its WAL."""
        os.makedirs(os.path.join(data_dir, "snap-00000000-1"))
        with open(os.path.join(data_dir, "CURRENT"), "w") as handle:
            handle.write("snap-00000000-1\n")
        with open(os.path.join(data_dir, "wal.log"), "wb") as handle:
            handle.write(b"old commits")
        with pytest.raises(StorageError, match="old layout"):
            DatasetStorage(data_dir)
        with open(os.path.join(data_dir, "wal.log"), "rb") as handle:
            assert handle.read() == b"old commits"

    def test_dataset_dirs_discovery(self, toy_db, tmp_path):
        root = str(tmp_path / "data")
        for name in ("alpha", "beta"):
            storage = DatasetStorage(os.path.join(root, name))
            storage.initialize(toy_db)
            storage.close()
        found = dataset_dirs(root)
        assert [os.path.basename(d) for d in found] == ["alpha", "beta"]
        # a dataset dir given directly is itself the storage dir
        assert dataset_dirs(found[0]) == [found[0]]
        assert dataset_dirs(str(tmp_path / "missing")) == []
