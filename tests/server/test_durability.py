"""AnalyticsService durability: WAL'd epochs, restarts, warm caches."""

import numpy as np
import pytest

from repro import (
    Aggregate,
    AnalyticsService,
    DatasetStorage,
    Delta,
    DeltaBatch,
    Query,
    QueryBatch,
)
from repro.engine.viewcache.signature import database_fingerprint

from ..engine.helpers import WORKLOADS, assert_results_equal
from .helpers import assert_stats_identities

pytestmark = pytest.mark.timeout(120)


def make_service(data_dir, toy_db, **kwargs):
    service = AnalyticsService(
        cache_mb=8, data_dir=data_dir, **kwargs
    )
    service.register_dataset("toy", toy_db)
    for name, factory in WORKLOADS.items():
        service.register_workload("toy", name, factory())
    return service


def cheaper_than(price):
    """Units sold below one oil price: views of their own per price."""
    return QueryBatch(
        [
            Query(
                "cheap_units",
                [],
                [Aggregate.of(Delta("price", "<", price), "units", name="cu")],
            )
        ]
    )


def insert_delta(db, n=3):
    sales = db.relation("Sales")
    return DeltaBatch.insert(
        "Sales",
        {name: sales.column(name)[:n] for name in sales.schema.names},
    )


def dimension_delta(db, n=2):
    """Insert + retract rows on the Stores *dimension* relation."""
    stores = db.relation("Stores")
    return DeltaBatch(
        "Stores",
        inserts={
            name: stores.column(name)[:n] for name in stores.schema.names
        },
        delete_indices=np.array([0]),
    )


class TestServiceDurability:
    def test_restart_restores_epoch_and_data(self, toy_db, tmp_path):
        data_dir = str(tmp_path / "data")
        with make_service(data_dir, toy_db) as service:
            service.apply_delta("toy", insert_delta(toy_db))
            service.apply_delta(
                "toy", DeltaBatch.delete("Sales", np.array([0]))
            )
            assert service.epoch("toy") == 2
            live_db = service.snapshot("toy").database
            before = service.query("toy", ["groupbys"], timeout=60)

        # "restart": a brand-new service over the same data dir; the
        # (stale) generator database passed in is replaced by recovery
        with make_service(data_dir, toy_db) as revived:
            assert revived.epoch("toy") == 2
            recovery = revived.recovery("toy")
            assert recovery is not None
            assert recovery.replayed_commits == 2
            assert database_fingerprint(
                revived.snapshot("toy").database
            ) == database_fingerprint(live_db)
            after = revived.query("toy", ["groupbys"], timeout=60)
        assert after.epoch == before.epoch == 2
        assert_results_equal(
            after.results["groupbys"],
            before.results["groupbys"],
            WORKLOADS["groupbys"](),
        )

    def test_warm_cache_served_from_disk_on_restart(
        self, toy_db, tmp_path
    ):
        data_dir = str(tmp_path / "data")
        with make_service(data_dir, toy_db) as service:
            service.query("toy", ["covar_style"], timeout=60)
            spilled = service.stats()["datasets"]["toy"]["storage"][
                "spilled_entries"
            ]
            assert spilled > 0

        with make_service(data_dir, toy_db) as revived:
            revived.query("toy", ["covar_style"], timeout=60)
            stats = revived.stats()["datasets"]["toy"]
            assert stats["cache"]["warm_hits"] > 0
            assert stats["cache"]["misses"] == 0
            assert stats["storage"]["warm_hits"] == (
                stats["cache"]["warm_hits"]
            )

    def test_wal_written_before_epoch_swap(self, toy_db, tmp_path):
        data_dir = str(tmp_path / "data")
        with make_service(data_dir, toy_db) as service:
            service.apply_delta("toy", insert_delta(toy_db))
            storage_stats = service.stats()["datasets"]["toy"]["storage"]
            assert storage_stats["wal_len"] == 1
            # an empty delta commits nothing and logs nothing
            service.apply_delta(
                "toy", DeltaBatch.insert("Sales", {})
            )
            assert service.epoch("toy") == 1
            storage_stats = service.stats()["datasets"]["toy"]["storage"]
            assert storage_stats["wal_len"] == 1

    def test_auto_compaction_bounds_the_wal(self, toy_db, tmp_path):
        data_dir = str(tmp_path / "data")
        with make_service(data_dir, toy_db, compact_wal=2) as service:
            for _ in range(5):
                service.apply_delta("toy", insert_delta(toy_db, n=1))
            stats = service.stats()["datasets"]["toy"]["storage"]
            assert stats["wal_len"] < 2
            assert stats["last_compaction"] is not None
            assert stats["snapshot_epoch"] >= 2
            live_db = service.snapshot("toy").database
            epoch = service.epoch("toy")

        with make_service(data_dir, toy_db) as revived:
            assert revived.epoch("toy") == epoch
            assert database_fingerprint(
                revived.snapshot("toy").database
            ) == database_fingerprint(live_db)

    def test_manual_compact(self, toy_db, tmp_path):
        data_dir = str(tmp_path / "data")
        with make_service(data_dir, toy_db) as service:
            service.apply_delta("toy", insert_delta(toy_db))
            service.compact("toy")
            stats = service.stats()["datasets"]["toy"]["storage"]
            assert stats["wal_len"] == 0
            assert stats["snapshot_epoch"] == 1

    def test_stats_storage_section_shape(self, toy_db, tmp_path):
        data_dir = str(tmp_path / "data")
        with make_service(data_dir, toy_db) as service:
            service.query("toy", ["counts"], timeout=60)
            service.apply_delta("toy", insert_delta(toy_db))
            storage = service.stats()["datasets"]["toy"]["storage"]
        for field in (
            "wal_len",
            "wal_bytes",
            "snapshot_epoch",
            "last_compaction",
            "spilled_bytes",
            "spilled_entries",
            "warm_hits",
            "recovery",
        ):
            assert field in storage
        assert storage["recovery"] is None  # first boot

    def test_without_data_dir_storage_is_none(self, toy_db):
        service = AnalyticsService(cache_mb=8)
        service.register_dataset("toy", toy_db)
        try:
            assert service.recovery("toy") is None
            assert (
                service.stats()["datasets"]["toy"]["storage"] is None
            )
        finally:
            service.close()

    def test_sync_flushes_wal(self, toy_db, tmp_path):
        data_dir = str(tmp_path / "data")
        with make_service(data_dir, toy_db) as service:
            service.apply_delta("toy", insert_delta(toy_db))
            service.sync()  # must not raise; WAL already durable

    def test_failed_wal_append_rolls_the_commit_back(
        self, toy_db, tmp_path
    ):
        """A commit that cannot be made durable must not be served:
        memory is rolled back to the published epoch, so recovery and
        the live service never diverge."""
        data_dir = str(tmp_path / "data")
        with make_service(data_dir, toy_db) as service:
            service.apply_delta("toy", insert_delta(toy_db))
            before = service.query("toy", ["groupbys"], timeout=60)
            state = service._state("toy")
            ivm = service.stats()["datasets"]["toy"]["ivm"]

            def broken(epoch, deltas):
                raise OSError("disk full")

            original = state.storage.log_commit
            state.storage.log_commit = broken
            try:
                with pytest.raises(OSError, match="disk full"):
                    service.apply_delta("toy", insert_delta(toy_db))
            finally:
                state.storage.log_commit = original
            # epoch and ivm counters unchanged: the rolled-back repair is
            # counted nowhere
            assert service.epoch("toy") == 1

            def stats():
                return service.stats()["datasets"]["toy"]

            assert stats()["ivm"] == ivm
            assert_stats_identities(service.stats())
            # the served data matches the epoch: the repeat read is
            # answered from the (still published) epoch's memo without
            # touching the cleared view cache ...
            start = stats()
            after = service.query("toy", ["groupbys"], timeout=60)
            assert after.epoch == 1
            assert after.answers["groupbys"] is before.answers["groupbys"]
            assert stats()["answers"]["memo_hits"] == (
                start["answers"]["memo_hits"] + 1
            )
            assert stats()["cache"] == start["cache"]
            # ... and a read the memo cannot answer — the same batch
            # under a new name — is served from the restored database
            service.register_workload(
                "toy", "groupbys_twin", WORKLOADS["groupbys"]()
            )
            twin = service.query("toy", ["groupbys_twin"], timeout=60)
            assert twin.epoch == 1 and twin.seconds > 0
            assert_results_equal(
                twin.results["groupbys_twin"],
                before.results["groupbys"],
                WORKLOADS["groupbys"](),
            )
            # the rollback also rewinds the cache's admission watermark:
            # a workload first served after it is admitted (not
            # stale-rejected against the rolled-back version), so the
            # same batch under a second name — a read its memo entry
            # cannot answer — is all view-cache hits.  Its threshold is
            # one no registered workload has, so the twin's read above,
            # which ran the whole fused batch, cached none of its views
            for name in ("fresh", "fresh_twin"):
                service.register_workload("toy", name, cheaper_than(45.0))
            start = stats()["cache"]
            service.query("toy", ["fresh"], timeout=60)
            first = stats()["cache"]
            assert first["misses"] > start["misses"]
            service.query("toy", ["fresh_twin"], timeout=60)
            second = stats()["cache"]
            assert second["misses"] == first["misses"]
            assert second["hits"] > first["hits"]
            assert second["stale_rejects"] == start["stale_rejects"]
            # the WAL can still take the next commit normally
            response = service.apply_delta("toy", insert_delta(toy_db))
            assert response.epoch == 2
            live_db = service.snapshot("toy").database

        with make_service(data_dir, toy_db) as revived:
            assert revived.epoch("toy") == 2
            assert database_fingerprint(
                revived.snapshot("toy").database
            ) == database_fingerprint(live_db)

    def test_recovery_replays_dimension_deltas_through_ivm(
        self, toy_db, tmp_path
    ):
        """A crash-restart over a WAL holding *dimension-table* deltas
        recovers by folding them into the snapshot (the one recovery,
        ``DatasetStorage.recover``) and answers exactly like the
        pre-crash service.  The replay is counted where it happened —
        ``recovery.replayed_commits`` — and not in the ``ivm`` section:
        nothing was cached in memory to maintain at boot, and the first
        query is served from the disk tier."""
        from repro import IncrementalEngine

        data_dir = str(tmp_path / "data")
        deltas = [
            insert_delta(toy_db, n=2),
            dimension_delta(toy_db),
            DeltaBatch.delete("Oil", np.array([1, 3])),
        ]
        with make_service(data_dir, toy_db) as service:
            for delta in deltas:
                service.apply_delta("toy", delta)
            assert service.epoch("toy") == 3
            live_db = service.snapshot("toy").database
            before = service.query("toy", ["groupbys"], timeout=60)

        with make_service(data_dir, toy_db) as revived:
            assert revived.epoch("toy") == 3
            stats = revived.stats()["datasets"]["toy"]
            assert stats["storage"]["recovery"]["replayed_commits"] == 3
            assert stats["ivm"]["deltas"] == 0
            assert stats["ivm"]["incremental"] == 0
            assert database_fingerprint(
                revived.snapshot("toy").database
            ) == database_fingerprint(live_db)
            after = revived.query("toy", ["groupbys"], timeout=60)
            assert revived.stats()["datasets"]["toy"]["storage"][
                "warm_hits"
            ] > 0
        assert_results_equal(
            after.results["groupbys"],
            before.results["groupbys"],
            WORKLOADS["groupbys"](),
        )

        # offline ground truth over the same delta sequence
        ground = IncrementalEngine(toy_db)
        batch = WORKLOADS["groupbys"]()
        ground.run(batch)
        for delta in deltas:
            ground.apply_delta(delta)
        expected = ground.run(batch)
        assert_results_equal(after.results["groupbys"], expected, batch)

    def test_stats_has_ivm_section(self, toy_db, tmp_path):
        data_dir = str(tmp_path / "data")
        with make_service(data_dir, toy_db) as service:
            service.query("toy", ["groupbys"], timeout=60)
            service.apply_delta("toy", insert_delta(toy_db))
            service.apply_delta("toy", dimension_delta(toy_db))
            ivm = service.stats()["datasets"]["toy"]["ivm"]
        # the counters say what the commits did to the served views:
        # the root delta and the dimension delta both merged
        assert ivm == {
            "deltas": 2,
            "incremental": 2,
            "fallbacks": 0,
            "last_fallback_reason": None,
        }

    def test_spill_budget_prunes_stale_entries(self, toy_db, tmp_path):
        data_dir = str(tmp_path / "data")
        # a tiny disk budget: the tier must prune rather than grow
        with make_service(data_dir, toy_db, spill_mb=0.01) as service:
            service.query("toy", ["covar_style"], timeout=60)
            service.apply_delta("toy", insert_delta(toy_db))
            service.query("toy", ["covar_style"], timeout=60)
            storage = service.stats()["datasets"]["toy"]["storage"]
            assert storage["spilled_bytes"] <= int(0.01 * (1 << 20))

    def test_recovered_equals_offline_ground_truth(
        self, toy_db, tmp_path
    ):
        """The isolation-test invariant, extended across a restart:
        the recovered epoch answers exactly what an offline engine
        computes over the same delta sequence."""
        from repro import IncrementalEngine

        data_dir = str(tmp_path / "data")
        deltas = [insert_delta(toy_db, n=2) for _ in range(3)]
        with make_service(data_dir, toy_db) as service:
            for delta in deltas:
                service.apply_delta("toy", delta)

        with make_service(data_dir, toy_db) as revived:
            served = revived.query("toy", ["groupbys"], timeout=60)

        ground = IncrementalEngine(toy_db)
        batch = WORKLOADS["groupbys"]()
        ground.run(batch)
        for delta in deltas:
            ground.apply_delta(delta)
        expected = ground.run(batch)
        assert_results_equal(served.results["groupbys"], expected, batch)
