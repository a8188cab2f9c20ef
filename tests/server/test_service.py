"""AnalyticsService: registry, queries, epochs, delta commits, stats."""

import threading

import numpy as np
import pytest

from repro import LMFAO, AnalyticsService, DeltaBatch
from repro.server.service import Epoch, QueryResponse

from ..engine.helpers import WORKLOADS, assert_results_equal


@pytest.fixture()
def service(toy_db):
    svc = AnalyticsService(coalesce_ms=2, cache_mb=8)
    svc.register_dataset("toy", toy_db)
    for name, factory in WORKLOADS.items():
        svc.register_workload("toy", name, factory())
    yield svc
    svc.close()


def sales_delta(database, rng, n=5):
    """A small insert+retract batch against the toy fact relation."""
    fact = database.relation("Sales")
    idx = rng.integers(0, fact.n_rows, n)
    inserts = {a: fact.column(a)[idx] for a in fact.schema.names}
    deletes = rng.choice(fact.n_rows, n, replace=False)
    return DeltaBatch("Sales", inserts=inserts, delete_indices=deletes)


class TestRegistry:
    def test_duplicate_dataset_rejected(self, service, toy_db):
        with pytest.raises(ValueError, match="already registered"):
            service.register_dataset("toy", toy_db)

    def test_duplicate_workload_rejected(self, service):
        with pytest.raises(ValueError, match="already registered"):
            service.register_workload("toy", "counts", WORKLOADS["counts"]())

    def test_unknown_dataset_raises(self, service):
        with pytest.raises(KeyError, match="no dataset"):
            service.query("nope", ["counts"])

    def test_unknown_workload_raises(self, service):
        from repro.server.service import UnknownWorkloadError

        with pytest.raises(UnknownWorkloadError, match="no workload") as e:
            service.query("toy", ["nope"])
        assert e.value.valid == service.workload_names("toy")

    def test_empty_workloads_raises(self, service):
        with pytest.raises(ValueError, match="at least one"):
            service.query("toy", [])

    def test_catalog(self, service):
        assert service.datasets() == ["toy"]
        assert service.workload_names("toy") == list(WORKLOADS)
        assert service.epoch("toy") == 0
        snapshot = service.snapshot("toy")
        assert isinstance(snapshot, Epoch) and snapshot.number == 0


@pytest.mark.timeout(120)
class TestQueries:
    def test_results_match_oneshot_engine(self, service, toy_db):
        response = service.query("toy", ["counts", "groupbys"], timeout=60)
        assert isinstance(response, QueryResponse)
        assert response.epoch == 0
        assert set(response.results) == {"counts", "groupbys"}
        for name in ("counts", "groupbys"):
            batch = service._state("toy").workloads[name]
            expected = LMFAO(toy_db).run(batch)
            assert_results_equal(
                response.results[name], expected, batch, rtol=1e-8
            )

    def test_concurrent_requests_coalesce_onto_one_epoch(self, toy_db):
        # a generous window so even a slow CI machine gets every thread
        # submitted before the first batch drains
        with AnalyticsService(coalesce_ms=250, max_batch=6) as svc:
            svc.register_dataset("toy", toy_db)
            for name in ("counts", "covar_style"):
                svc.register_workload("toy", name, WORKLOADS[name]())
            responses = [None] * 6

            def go(i):
                names = ["counts"] if i % 2 else ["counts", "covar_style"]
                responses[i] = svc.query("toy", names, timeout=60)

            threads = [
                threading.Thread(target=go, args=(i,)) for i in range(6)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
            assert all(r is not None for r in responses)
            # every coalesced answer names one committed epoch
            assert {r.epoch for r in responses} == {0}
            assert max(r.batch_size for r in responses) >= 2

    def test_requested_subset_is_what_comes_back(self, service):
        response = service.query("toy", ["conditional"], timeout=60)
        assert list(response.results) == ["conditional"]


@pytest.mark.timeout(120)
class TestDeltas:
    def test_delta_commits_new_epoch_and_updates_answers(
        self, service, toy_db
    ):
        rng = np.random.default_rng(7)
        before = service.query("toy", ["counts"], timeout=60)
        delta = sales_delta(toy_db, rng)
        committed = service.apply_delta("toy", delta)
        assert committed.epoch == 1
        assert service.epoch("toy") == 1
        after = service.query("toy", ["counts"], timeout=60)
        assert after.epoch == 1
        batch = service._state("toy").workloads["counts"]
        expected = LMFAO(service.snapshot("toy").database).run(batch)
        assert_results_equal(after.results["counts"], expected, batch,
                             rtol=1e-8)
        # the pre-delta response is untouched: it answered epoch 0
        assert before.epoch == 0

    def test_empty_delta_does_not_bump_the_epoch(self, service):
        response = service.apply_delta(
            "toy", DeltaBatch("Sales", inserts=None, delete_indices=None)
        )
        assert response.epoch == 0
        assert response.report.n_changes == 0

    def test_epoch_snapshot_survives_later_commits(self, service, toy_db):
        rng = np.random.default_rng(11)
        old = service.snapshot("toy")
        service.apply_delta("toy", sales_delta(toy_db, rng))
        new = service.snapshot("toy")
        assert old.number == 0 and new.number == 1
        assert old.database is not new.database
        # the captured epoch still reads the pre-delta row count
        assert old.database.relation("Sales").n_rows == 300


class TestStats:
    def test_stats_shape(self, service):
        service.query("toy", ["counts"], timeout=60)
        stats = service.stats()
        assert stats["coalescer"]["submitted"] == 1
        toy = stats["datasets"]["toy"]
        assert toy["epoch"] == 0
        assert toy["relations"]["Sales"] == 300
        assert toy["workloads"] == list(WORKLOADS)
        assert toy["queries"] == 1 and toy["deltas"] == 0
        assert toy["cache"]["budget_bytes"] == 8 << 20
        assert set(toy["cache"]) >= {
            "hits", "misses", "evictions", "resident_bytes", "entries",
        }

    def test_cache_disabled(self, toy_db):
        with AnalyticsService(coalesce_ms=0, cache_mb=0) as svc:
            svc.register_dataset("toy", toy_db)
            svc.register_workload("toy", "counts", WORKLOADS["counts"]())
            response = svc.query("toy", ["counts"], timeout=60)
            assert response.epoch == 0
            assert response.results["counts"].cache_report is None
            assert svc._state("toy").engine.view_cache is None
            assert svc.stats()["datasets"]["toy"]["cache"] is None
            # nothing cached, so nothing maintained: a delta is an
            # honest recompute, and the next answer is still right
            rng = np.random.default_rng(3)
            committed = svc.apply_delta("toy", sales_delta(toy_db, rng))
            (record,) = committed.report.maintenance
            assert record.mode == "recompute"
            assert record.reason == "no view cache attached"
            ivm = svc.stats()["datasets"]["toy"]["ivm"]
            assert ivm["deltas"] == ivm["fallbacks"] == 1
            after = svc.query("toy", ["counts"], timeout=60)
            batch = svc._state("toy").workloads["counts"]
            expected = LMFAO(svc.snapshot("toy").database).run(batch)
            assert_results_equal(
                after.results["counts"], expected, batch, rtol=1e-8
            )
