"""A warm restart — snapshot load plus the disk tier — answers like a
cold start, and serves every view from disk."""

import pytest

from repro import CacheStore, LMFAO, ViewCache, load_snapshot, write_snapshot
from repro.engine.viewcache.signature import database_fingerprint

from ..engine.helpers import WORKLOADS, assert_results_equal

CACHE_BUDGET = 1 << 20


@pytest.fixture()
def restarted(toy_db, tmp_path):
    """The snapshot-loaded database and a disk tier populated by an
    earlier process that ran ``covar_style`` over it."""
    path = str(tmp_path / "snapshot")
    write_snapshot(toy_db, path)
    database, _info = load_snapshot(path)
    store = CacheStore(str(tmp_path / "cache"))
    LMFAO(
        database, view_cache=ViewCache(budget_bytes=CACHE_BUDGET, store=store)
    ).run(WORKLOADS["covar_style"]())
    assert store.stats()["entries"] > 0
    return database, store


def test_snapshot_round_trip_is_fingerprint_identical(toy_db, restarted):
    database, _store = restarted
    assert database_fingerprint(database) == database_fingerprint(toy_db)


def test_populated_tier_serves_a_fresh_cache_without_misses(restarted):
    database, store = restarted
    cache = ViewCache(budget_bytes=CACHE_BUDGET, store=store)
    result = LMFAO(database, view_cache=cache).run(WORKLOADS["covar_style"]())
    assert result.cache_report.n_misses == 0
    assert cache.stats().warm_hits > 0


def test_warm_answers_equal_cold_answers(toy_db, restarted):
    database, store = restarted
    batch = WORKLOADS["covar_style"]()
    cold = LMFAO(toy_db).run(batch)
    warm = LMFAO(
        database, view_cache=ViewCache(budget_bytes=CACHE_BUDGET, store=store)
    ).run(batch)
    assert_results_equal(warm, cold, batch)
