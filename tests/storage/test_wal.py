"""Write-ahead log: framing, replay, torn tails, corruption bounds."""

import os

import numpy as np
import pytest

from repro import WriteAheadLog
from repro.data import DeltaBatch
from repro.storage.wal import WalError


def insert_delta(n=3, base=0):
    return DeltaBatch.insert(
        "Sales",
        {
            "date": np.arange(base, base + n, dtype=np.int64),
            "store": np.zeros(n, dtype=np.int64),
            "units": np.full(n, 1.5),
        },
    )


def delete_delta(indices):
    return DeltaBatch.delete("Sales", np.asarray(indices, dtype=np.int64))


@pytest.fixture()
def wal_path(tmp_path):
    return str(tmp_path / "wal.log")


class TestAppendReplay:
    def test_round_trip_inserts_and_deletes(self, wal_path):
        wal = WriteAheadLog(wal_path)
        wal.append(1, [insert_delta(3)])
        wal.append(2, [delete_delta([0, 2]), insert_delta(1, base=9)])
        wal.close()

        replayed = list(WriteAheadLog(wal_path).replay())
        assert [c.epoch for c in replayed] == [1, 2]
        first = replayed[0].deltas[0]
        np.testing.assert_array_equal(
            first.inserts["date"], np.arange(3, dtype=np.int64)
        )
        assert first.delete_indices is None
        second = replayed[1]
        assert len(second.deltas) == 2
        np.testing.assert_array_equal(
            second.deltas[0].delete_indices, [0, 2]
        )
        np.testing.assert_array_equal(
            second.deltas[1].inserts["date"], [9]
        )

    def test_replayed_deltas_apply_cleanly(self, toy_db, wal_path):
        wal = WriteAheadLog(wal_path)
        wal.append(1, [insert_delta(4)])
        wal.append(2, [delete_delta([1, 2])])
        wal.close()
        database = toy_db
        for commit in WriteAheadLog(wal_path).replay():
            for delta in commit.deltas:
                database = database.apply_delta(delta).database
        assert (
            database.relation("Sales").n_rows
            == toy_db.relation("Sales").n_rows + 4 - 2
        )

    def test_counters_survive_reopen(self, wal_path):
        wal = WriteAheadLog(wal_path)
        wal.append(1, [insert_delta()])
        wal.append(2, [insert_delta()])
        nbytes = wal.nbytes
        wal.close()
        reopened = WriteAheadLog(wal_path)
        assert reopened.n_commits == 2
        assert reopened.last_epoch == 2
        assert reopened.nbytes == nbytes
        assert not reopened.tail_truncated
        reopened.append(3, [insert_delta()])
        assert reopened.n_commits == 3
        reopened.close()

    def test_empty_deltas_are_dropped_from_commit(self, wal_path):
        wal = WriteAheadLog(wal_path)
        wal.append(1, [insert_delta(2)])
        wal.close()
        (commit,) = WriteAheadLog(wal_path).replay()
        assert commit.n_changes() == 2

    def test_truncate_resets(self, wal_path):
        wal = WriteAheadLog(wal_path)
        wal.append(1, [insert_delta()])
        wal.truncate()
        assert wal.n_commits == 0
        assert wal.nbytes == 0
        wal.append(5, [insert_delta()])
        wal.close()
        (commit,) = WriteAheadLog(wal_path).replay()
        assert commit.epoch == 5

    def test_append_after_close_raises(self, wal_path):
        wal = WriteAheadLog(wal_path)
        wal.close()
        with pytest.raises(WalError, match="closed"):
            wal.append(1, [insert_delta()])


class TestCrashTails:
    def test_torn_tail_is_truncated_on_open(self, wal_path):
        wal = WriteAheadLog(wal_path)
        wal.append(1, [insert_delta()])
        wal.append(2, [insert_delta()])
        wal.close()
        size = os.path.getsize(wal_path)
        # simulate a crash mid-write: chop the last record in half
        with open(wal_path, "ab") as handle:
            handle.truncate(size - 10)
        reopened = WriteAheadLog(wal_path)
        assert reopened.tail_truncated
        assert reopened.n_commits == 1
        assert [c.epoch for c in reopened.replay()] == [1]
        # the log is clean again: appends extend it normally
        reopened.append(2, [insert_delta()])
        assert [c.epoch for c in reopened.replay()] == [1, 2]
        reopened.close()

    def test_garbage_tail_is_truncated(self, wal_path):
        wal = WriteAheadLog(wal_path)
        wal.append(1, [insert_delta()])
        wal.close()
        with open(wal_path, "ab") as handle:
            handle.write(b"this is not a WAL record")
        reopened = WriteAheadLog(wal_path)
        assert reopened.tail_truncated
        assert reopened.n_commits == 1
        reopened.close()

    def test_corrupt_middle_record_stops_replay_there(self, wal_path):
        wal = WriteAheadLog(wal_path)
        wal.append(1, [insert_delta()])
        first_end = wal.nbytes
        wal.append(2, [insert_delta()])
        wal.append(3, [insert_delta()])
        wal.close()
        with open(wal_path, "r+b") as handle:
            handle.seek(first_end + 20)
            handle.write(b"\xff\xff")
        reopened = WriteAheadLog(wal_path)
        # everything from the first bad frame on is discarded
        assert reopened.n_commits == 1
        assert [c.epoch for c in reopened.replay()] == [1]
        reopened.close()

    def test_empty_and_missing_files_open_clean(self, wal_path):
        wal = WriteAheadLog(wal_path)
        assert wal.n_commits == 0
        assert list(wal.replay()) == []
        assert not wal.tail_truncated
        wal.close()

    def test_failed_append_scrubs_the_partial_frame(
        self, wal_path, monkeypatch
    ):
        """An append whose fsync fails must leave NO trace on disk:
        a complete-but-unacknowledged frame would replay a commit the
        service never applied, a torn one would orphan every later
        commit."""
        import repro.storage.wal as wal_module

        wal = WriteAheadLog(wal_path)
        wal.append(1, [insert_delta()])
        good_bytes = wal.nbytes

        # transient failure: the append's fsync dies, the scrub's works
        real_fsync = os.fsync
        calls = []

        def flaky_fsync(fd):
            if not calls:
                calls.append(1)
                raise OSError("disk on fire")
            return real_fsync(fd)

        monkeypatch.setattr(wal_module.os, "fsync", flaky_fsync)
        with pytest.raises(OSError, match="disk on fire"):
            wal.append(2, [insert_delta()])
        monkeypatch.undo()
        # nothing of the failed frame remains, in memory or on disk
        assert wal.n_commits == 1
        assert wal.nbytes == good_bytes
        assert os.path.getsize(wal_path) == good_bytes
        # the log extends normally afterwards, and replay agrees
        wal.append(2, [insert_delta()])
        assert [c.epoch for c in wal.replay()] == [1, 2]
        wal.close()
        reopened = WriteAheadLog(wal_path)
        assert reopened.n_commits == 2
        assert not reopened.tail_truncated
        reopened.close()
