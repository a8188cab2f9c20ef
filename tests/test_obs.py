"""The GC pause counter behind ``/stats`` ``gc``."""

import gc

from repro import AnalyticsService
from repro.obs import GcPauses


def test_counts_full_collections_only():
    pauses = GcPauses()
    pauses.install()
    pauses.install()  # once is enough
    # no automatic collection inside the counted window: only the
    # explicit gc.collect(2) calls count
    enabled = gc.isenabled()
    gc.disable()
    try:
        assert gc.callbacks.count(pauses._callback) == 1
        gc.collect(0)
        gc.collect(1)
        assert pauses.as_dict() == {
            "gen2_passes": 0, "gen2_ms": 0.0, "gen2_max_ms": 0.0,
        }
        garbage = [[] for _ in range(10_000)]
        for a, b in zip(garbage, garbage[1:]):
            a.append(b)  # something to walk
        del garbage
        gc.collect(2)
        gc.collect(2)
    finally:
        pauses.uninstall()
        if enabled:
            gc.enable()
    assert pauses._callback not in gc.callbacks
    assert pauses.passes == 2
    assert 0.0 < pauses.longest <= pauses.total
    counted = pauses.as_dict()
    assert counted["gen2_passes"] == 2
    assert counted["gen2_max_ms"] <= counted["gen2_ms"]
    gc.collect(2)  # uninstalled: no longer counted
    assert pauses.passes == 2


def test_stats_count_collections_while_the_service_runs():
    service = AnalyticsService(cache_mb=8)
    enabled = gc.isenabled()
    gc.disable()
    try:
        before = service.stats()["gc"]
        gc.collect(2)
        after = service.stats()["gc"]
    finally:
        service.close()
        if enabled:
            gc.enable()
    assert set(after) == {"gen2_passes", "gen2_ms", "gen2_max_ms"}
    assert after["gen2_passes"] == before["gen2_passes"] + 1
    assert after["gen2_ms"] >= before["gen2_ms"]
    gc.collect(2)  # closed: no longer counted
    assert service.stats()["gc"] == after
