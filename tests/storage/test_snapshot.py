"""Snapshot format: one CRC-framed file; round-trip, integrity, atomicity."""

import os

import numpy as np
import pytest

from repro import load_snapshot, write_snapshot
from repro.data import Database, Relation
from repro.data.schema import Schema, categorical, continuous, key
from repro.engine.viewcache.signature import (
    database_fingerprint,
    relation_fingerprint,
)
from repro.storage import codec, snapshot
from repro.storage.snapshot import SnapshotError


def read_header(path):
    with open(path, "rb") as handle:
        header, _columns = codec.read_record(handle, snapshot._MAGIC)
    return header


def rewrite_header(path, change):
    """Re-frame the snapshot with ``change`` applied to its header and a
    fresh, valid CRC, so only the semantic checks can catch it."""
    with open(path, "rb") as handle:
        header, columns = codec.read_record(handle, snapshot._MAGIC)
    change(header)
    with open(path, "wb") as handle:
        codec.write(handle, codec.encode(snapshot._MAGIC, header, columns))


class TestRoundTrip:
    def test_database_round_trips_bit_exact(self, toy_db, tmp_path):
        write_snapshot(toy_db, str(tmp_path / "snapshot"), epoch=7)
        loaded, info = load_snapshot(str(tmp_path / "snapshot"))
        assert info.epoch == 7
        assert info.database_name == toy_db.name
        assert set(loaded.relation_names) == set(toy_db.relation_names)
        for relation in toy_db:
            other = loaded.relation(relation.name)
            assert other.schema == relation.schema
            for name in relation.schema.names:
                np.testing.assert_array_equal(
                    other.column(name), relation.column(name)
                )

    def test_fingerprints_identical_after_reload(self, toy_db, tmp_path):
        """The property the warm cache depends on: reloaded relations
        re-key to exactly the digests the original produced."""
        info = write_snapshot(toy_db, str(tmp_path / "snapshot"))
        loaded, loaded_info = load_snapshot(str(tmp_path / "snapshot"))
        for relation in toy_db:
            assert info.fingerprints[
                relation.name
            ] == relation_fingerprint(relation)
            assert relation_fingerprint(
                loaded.relation(relation.name)
            ) == relation_fingerprint(relation)
        assert database_fingerprint(loaded) == database_fingerprint(toy_db)
        assert loaded_info.fingerprints == info.fingerprints

    def test_manifest_carries_schema_and_counts(self, toy_db, tmp_path):
        """The record's header carries what a manifest would: format,
        version, epoch, schema, row counts and fingerprints."""
        write_snapshot(toy_db, str(tmp_path / "snapshot"), epoch=3)
        header = read_header(str(tmp_path / "snapshot"))
        assert header["format"] == "repro-snapshot"
        assert header["epoch"] == 3
        by_name = {spec["name"]: spec for spec in header["relations"]}
        sales = by_name["Sales"]
        assert sales["n_rows"] == toy_db.relation("Sales").n_rows
        assert sales["fingerprint"] == relation_fingerprint(
            toy_db.relation("Sales")
        )
        kinds = {name: kind for name, kind, _ in sales["attributes"]}
        assert kinds["units"] == "continuous"
        assert kinds["date"] == "key"

    def test_loaded_columns_are_aligned_and_writable(self, toy_db, tmp_path):
        write_snapshot(toy_db, str(tmp_path / "snapshot"))
        loaded, _info = load_snapshot(str(tmp_path / "snapshot"))
        for relation in loaded:
            for name in relation.schema.names:
                column = relation.column(name)
                assert column.flags.aligned and column.flags.writeable

    def test_overwrite_replaces_previous_snapshot(self, toy_db, tmp_path):
        target = str(tmp_path / "snapshot")
        write_snapshot(toy_db, target, epoch=1)
        smaller = Database(
            [toy_db.relation("Oil")], name="just-oil"
        )
        write_snapshot(smaller, target, epoch=2)
        loaded, info = load_snapshot(target)
        assert info.epoch == 2
        assert list(loaded.relation_names) == ["Oil"]


class TestIntegrity:
    def test_flipped_byte_fails_checksum(self, toy_db, tmp_path):
        path = tmp_path / "snapshot"
        write_snapshot(toy_db, str(path))
        raw = bytearray(path.read_bytes())
        raw[-3] ^= 0xFF  # inside the last column
        path.write_bytes(bytes(raw))
        with pytest.raises(SnapshotError, match="checksum"):
            load_snapshot(str(path))

    def test_truncated_column_detected(self, toy_db, tmp_path):
        path = tmp_path / "snapshot"
        write_snapshot(toy_db, str(path))
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(SnapshotError, match="truncated"):
            load_snapshot(str(path))

    def test_tampered_fingerprint_detected(self, toy_db, tmp_path):
        path = str(tmp_path / "snapshot")
        write_snapshot(toy_db, path)

        def tamper(header):
            header["relations"][0]["fingerprint"] = "0" * 64

        rewrite_header(path, tamper)
        with pytest.raises(SnapshotError, match="fingerprint"):
            load_snapshot(path)

    def test_missing_directory_raises(self, tmp_path):
        with pytest.raises(SnapshotError, match="no snapshot"):
            load_snapshot(str(tmp_path / "nowhere"))

    def test_wrong_format_rejected(self, toy_db, tmp_path):
        path = str(tmp_path / "snapshot")
        write_snapshot(toy_db, path)
        rewrite_header(path, lambda header: header.update(format="other"))
        with pytest.raises(SnapshotError, match="not a repro-snapshot"):
            load_snapshot(path)

    def test_no_tmp_litter_after_write(self, toy_db, tmp_path):
        write_snapshot(toy_db, str(tmp_path / "snapshot"))
        write_snapshot(toy_db, str(tmp_path / "snapshot"))
        assert os.listdir(tmp_path) == ["snapshot"]


class TestMixedDtypes:
    def test_int32_and_float32_columns_survive(self, tmp_path):
        relation = Relation(
            "Mixed",
            Schema(
                [
                    key("k"),
                    categorical("c"),
                    continuous("f"),
                ]
            ),
            {
                "k": np.arange(10, dtype=np.int64),
                "c": np.arange(10, dtype=np.int64) % 3,
                "f": np.linspace(0, 1, 10, dtype=np.float64),
            },
        )
        db = Database([relation], name="mixed")
        write_snapshot(db, str(tmp_path / "snapshot"))
        loaded, _ = load_snapshot(str(tmp_path / "snapshot"))
        other = loaded.relation("Mixed")
        for name in relation.schema.names:
            assert other.column(name).dtype == relation.column(name).dtype
