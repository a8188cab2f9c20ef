"""Durable storage benchmark: warm restart vs cold load + recompute.

The scenario the subsystem exists for: ``repro serve`` restarts.  A
*cold* boot pays a CSV load of the database plus a full recompute of
the workload's view DAG; a *warm* boot loads the columnar snapshot and
serves the view DAG from the persistent cache tier.  Measured on
retailer at benchmark scale:

* ``warm_restart_speedup`` — (CSV load + full compute) / (snapshot
  load + cache-served compute); acceptance bar >= 3x;
* ``snapshot_vs_csv_load`` — pure data-load ratio, recorded.

Numbers land in ``results/storage.txt`` *before* the bar asserts, so
a regression still leaves the measurement behind.
Correctness rides along: warm results must equal cold results.
"""

import json
import os
import shutil
import tempfile
import time

import pytest

from repro import CacheStore, LMFAO, ViewCache, load_snapshot, write_snapshot
from repro.data.loader import load_database, save_database

from tests.engine.helpers import assert_results_equal

from .common import BENCH_SCALE, Report, covar_workload, dataset

pytestmark = pytest.mark.slow

REPEATS = 3
WARM_RESTART_BAR = 3.0
CACHE_BUDGET = 512 << 20


def best_of(repeats, fn):
    best, value = float("inf"), None
    for _ in range(repeats):
        start = time.perf_counter()
        value = fn()
        best = min(best, time.perf_counter() - start)
    return best, value


def test_storage_benchmark():
    ds = dataset("retailer")
    batch = covar_workload(ds)
    workdir = tempfile.mkdtemp(prefix="repro-bench-storage-")
    csv_dir = os.path.join(workdir, "csv")
    snap_dir = os.path.join(workdir, "snap")
    cache_dir = os.path.join(workdir, "cache")
    try:
        save_database(ds.database, csv_dir)
        write_snapshot(ds.database, snap_dir)

        # -- data-load comparison: CSV vs columnar snapshot -----------
        t_csv, db_csv = best_of(
            REPEATS, lambda: load_database(csv_dir, name="retailer")
        )
        t_snap, (db_snap, _info) = best_of(
            REPEATS, lambda: load_snapshot(snap_dir)
        )

        # -- cold boot: full recompute over the CSV-loaded database ---
        engine_cold = LMFAO(db_csv, ds.join_tree)
        engine_cold.plan(batch)  # plan+compile untimed on both sides
        t_cold_exec, cold_results = best_of(
            REPEATS, lambda: engine_cold.run(batch)
        )

        # -- warm boot: snapshot + persistent cache tier ---------------
        store = CacheStore(cache_dir)
        engine_warm = LMFAO(db_snap, ds.join_tree)
        engine_warm.plan(batch)
        # populate the tier once (the previous process's lifetime)
        engine_warm.view_cache = ViewCache(
            budget_bytes=CACHE_BUDGET, store=store
        )
        engine_warm.run(batch)
        spilled_entries = len(store)
        spilled_bytes = store.spilled_bytes
        assert spilled_entries > 0

        def warm_run():
            # a restarted process: empty memory tier, populated disk
            engine_warm.view_cache = ViewCache(
                budget_bytes=CACHE_BUDGET, store=store
            )
            return engine_warm.run(batch)

        t_warm_exec, warm_results = best_of(REPEATS, warm_run)
        warm_report = warm_results.cache_report
        assert warm_report is not None
        assert warm_report.n_misses == 0, warm_report
        assert engine_warm.view_cache.stats().warm_hits > 0

        # correctness rides along
        assert_results_equal(warm_results, cold_results, batch)

        t_cold = t_csv + t_cold_exec
        t_warm = t_snap + t_warm_exec
        warm_speedup = t_cold / t_warm
        load_ratio = t_csv / t_snap

        payload = {
            "dataset": "retailer",
            "scale": BENCH_SCALE,
            "workload": "covar",
            "csv_load_s": round(t_csv, 4),
            "snapshot_load_s": round(t_snap, 4),
            "snapshot_vs_csv_load": round(load_ratio, 2),
            "cold_exec_s": round(t_cold_exec, 4),
            "warm_exec_s": round(t_warm_exec, 4),
            "cold_restart_s": round(t_cold, 4),
            "warm_restart_s": round(t_warm, 4),
            "warm_restart_speedup": round(warm_speedup, 2),
            "warm_restart_bar": WARM_RESTART_BAR,
            "spilled_entries": spilled_entries,
            "spilled_bytes": spilled_bytes,
            "warm_hits": warm_report.n_hits,
        }
        report = Report(
            "storage",
            f"Durable storage: warm restart vs cold (retailer, "
            f"scale {BENCH_SCALE})",
        )
        report.add(
            f"data load: CSV {t_csv:.4f}s vs snapshot {t_snap:.4f}s "
            f"= {load_ratio:.1f}x"
        )
        report.add(
            f"cold restart (CSV + recompute): {t_cold:.4f}s"
        )
        report.add(
            f"warm restart (snapshot + cache tier): {t_warm:.4f}s "
            f"({warm_report.n_hits} warm hits, "
            f"{spilled_bytes / (1 << 20):.2f} MiB spilled)"
        )
        report.add(
            f"warm restart speedup: {warm_speedup:.1f}x "
            f"(bar >= {WARM_RESTART_BAR}x)"
        )
        path = report.write()
        print(f"\n[storage] report: {path}")
        print(json.dumps(payload, indent=2))

        assert warm_speedup >= WARM_RESTART_BAR, (
            f"warm restart only {warm_speedup:.2f}x over cold "
            f"(bar {WARM_RESTART_BAR}x): {payload}"
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
