"""The ``repro snapshot`` and ``repro restore`` CLI verbs."""

import os

import pytest

from repro.__main__ import main
from repro.storage import StorageError


class TestSnapshotVerb:
    def test_snapshot_writes_a_servable_data_dir(self, tmp_path, capsys):
        out = str(tmp_path / "data")
        assert (
            main(
                ["--scale", "0.05", "snapshot", "favorita", "--out", out]
            )
            == 0
        )
        printed = capsys.readouterr().out
        assert "snapshot of favorita" in printed
        assert "--data-dir" in printed
        dataset_dir = os.path.join(out, "favorita")
        assert sorted(os.listdir(dataset_dir)) == [
            "cache",
            "snapshot",
            "wal.log",
        ]

    def test_snapshot_refuses_to_overwrite_without_force(
        self, tmp_path, capsys
    ):
        out = str(tmp_path / "data")
        main(["--scale", "0.05", "snapshot", "favorita", "--out", out])
        with pytest.raises(SystemExit, match="--force"):
            main(
                ["--scale", "0.05", "snapshot", "favorita", "--out", out]
            )
        capsys.readouterr()
        assert (
            main(
                [
                    "--scale",
                    "0.05",
                    "snapshot",
                    "favorita",
                    "--out",
                    out,
                    "--force",
                ]
            )
            == 0
        )
        assert "snapshot of favorita" in capsys.readouterr().out

    def test_snapshot_unknown_dataset_rejected(self, tmp_path):
        # argparse choices reject before cmd_snapshot even runs
        with pytest.raises(SystemExit):
            main(
                [
                    "snapshot",
                    "not-a-dataset",
                    "--out",
                    str(tmp_path / "x"),
                ]
            )


class TestRestoreVerb:
    def test_restore_reports_relations_and_epoch(self, tmp_path, capsys):
        out = str(tmp_path / "data")
        main(["--scale", "0.05", "snapshot", "favorita", "--out", out])
        capsys.readouterr()
        assert main(["restore", out]) == 0
        printed = capsys.readouterr().out
        assert "favorita: epoch 0" in printed
        assert "Sales" in printed
        assert "snapshot load" in printed

    def test_restore_accepts_the_dataset_dir_itself(
        self, tmp_path, capsys
    ):
        out = str(tmp_path / "data")
        main(["--scale", "0.05", "snapshot", "favorita", "--out", out])
        capsys.readouterr()
        assert main(["restore", os.path.join(out, "favorita")]) == 0
        assert "epoch 0" in capsys.readouterr().out

    def test_restore_empty_dir_rejected(self, tmp_path):
        with pytest.raises(SystemExit, match="no dataset storage"):
            main(["restore", str(tmp_path)])

    def test_restore_refuses_the_old_layout(self, tmp_path):
        dataset_dir = tmp_path / "favorita"
        (dataset_dir / "snap-00000000-1").mkdir(parents=True)
        (dataset_dir / "CURRENT").write_text("snap-00000000-1\n")
        (dataset_dir / "wal.log").write_bytes(b"old commits")
        with pytest.raises(StorageError, match="old layout"):
            main(["restore", str(tmp_path)])
        assert (dataset_dir / "wal.log").read_bytes() == b"old commits"
