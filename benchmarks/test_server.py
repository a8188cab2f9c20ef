"""Concurrent analytics service benchmark.

Measures, on the retailer dataset, the two serving-layer numbers the
server subsystem exists for:

* **coalescing throughput** — a storm of concurrent single-workload
  requests over a fusion-friendly covar/linreg/trees mix, served with
  the micro-batching coalescer on (requests fused into shared view
  DAGs) versus off (every request executes alone).  Acceptance bar:
  coalescing on sustains >= 1.2x the request throughput;
* **latency under writes** — p50/p95 query latency while a background
  delta stream commits epochs on the root *and* on dimension relations
  (recorded, no bar on latency: the point is that reads keep flowing
  against consistent snapshots during commits).  The delta propagation
  bar rides here: under the mixed stream the view cache must *patch*
  at least as many entries as it invalidates — dimension deltas repair
  interior views in place instead of evicting them.

Everything is recorded in ``results/server.txt`` *before* the
throughput bar is asserted, so a regression still leaves
the measurement behind.  Correctness rides along: both modes must
return identical epoch-0 results.
"""

import itertools
import os
import threading
import time

import numpy as np
import pytest

from repro import AnalyticsService, DeltaBatch

from tests.engine.helpers import assert_results_equal

from .common import (
    BENCH_SCALE,
    RESULTS_DIR,
    covar_workload,
    dataset,
    rt_node_workload,
)
from .test_viewcache import linreg_workload

pytestmark = [pytest.mark.slow, pytest.mark.timeout(900)]

N_CLIENTS = 6
REQUESTS_PER_CLIENT = 8
COALESCE_MS = 25.0
SPEEDUP_BAR = 1.2

LATENCY_REQUESTS = 30
DELTA_INTERVAL_S = 0.03
DELTA_FRACTION = 0.005


def build_workloads(ds):
    from repro import LMFAO

    planner = LMFAO(ds.database, ds.join_tree)
    return {
        "covar": covar_workload(ds),
        "linreg": linreg_workload(ds),
        "trees": rt_node_workload(ds, planner),
    }


def make_service(ds, workloads, *, coalesce_ms, cache_mb):
    service = AnalyticsService(
        coalesce_ms=coalesce_ms,
        max_batch=N_CLIENTS * 2,
        max_queue=N_CLIENTS * REQUESTS_PER_CLIENT * 2,
        cache_mb=cache_mb,
    )
    service.register_dataset("retailer", ds.database, ds.join_tree)
    for name, batch in workloads.items():
        service.register_workload("retailer", name, batch)
    # every subset a partially filled batch might fuse, planned up
    # front — the measurement below is pure serving
    names = list(workloads)
    service.prepare(
        "retailer",
        [
            list(combo)
            for size in range(1, len(names) + 1)
            for combo in itertools.combinations(names, size)
        ],
    )
    return service


def request_storm(service, workload_names):
    """Fire the mixed request pattern; returns (seconds, responses)."""
    responses = [
        [None] * REQUESTS_PER_CLIENT for _ in range(N_CLIENTS)
    ]
    errors = []
    barrier = threading.Barrier(N_CLIENTS + 1)

    def client(slot):
        try:
            barrier.wait(timeout=60)
            for i in range(REQUESTS_PER_CLIENT):
                name = workload_names[(slot + i) % len(workload_names)]
                responses[slot][i] = service.query(
                    "retailer", [name], timeout=300
                )
        except Exception as exc:  # noqa: BLE001 - surfaced after join
            errors.append(exc)

    threads = [
        threading.Thread(target=client, args=(slot,))
        for slot in range(N_CLIENTS)
    ]
    for thread in threads:
        thread.start()
    barrier.wait(timeout=60)
    start = time.perf_counter()
    for thread in threads:
        thread.join(600)
    seconds = time.perf_counter() - start
    assert not errors, errors
    return seconds, responses


def test_server_benchmark():
    ds = dataset("retailer")
    workloads = build_workloads(ds)
    names = list(workloads)
    n_requests = N_CLIENTS * REQUESTS_PER_CLIENT

    # -- throughput: coalescing on vs off (no cache; the comparison
    # isolates the coalescer's fusion dedup, not warm-cache serving) ---
    measurements = {}
    sample_results = {}
    for mode, window in (("on", COALESCE_MS), ("off", 0.0)):
        service = make_service(
            ds, workloads, coalesce_ms=window, cache_mb=0
        )
        seconds, responses = request_storm(service, names)
        stats = service.coalescer.stats()
        measurements[mode] = {
            "seconds": round(seconds, 6),
            "requests_per_second": round(n_requests / seconds, 3),
            "mean_batch": stats.as_dict()["mean_batch"],
            "max_batch": stats.max_batch,
            "batches": stats.batches,
        }
        sample_results[mode] = {
            name: next(
                response.results[name]
                for per_client in responses
                for response in per_client
                if name in response.results
            )
            for name in names
        }
        service.close()

    # correctness rides along: both modes answered epoch 0 identically
    for name in names:
        assert_results_equal(
            sample_results["on"][name],
            sample_results["off"][name],
            workloads[name],
            rtol=1e-8,
        )

    speedup = (
        measurements["on"]["requests_per_second"]
        / measurements["off"]["requests_per_second"]
    )

    # -- p50 latency under a background delta stream -------------------
    service = make_service(
        ds, workloads, coalesce_ms=5.0, cache_mb=256
    )
    root = service._state("retailer").ivm.root
    # mixed write stream: the root fact table plus every dimension
    # relation in rotation — dimension deltas exercise interior-DAG
    # propagation, the case that used to evict instead of patch
    targets = [root] + [
        rel.name
        for rel in service.snapshot("retailer").database
        if rel.name != root
    ]
    stop = threading.Event()
    deltas_committed = [0]

    def delta_stream():
        rng = np.random.default_rng(5)
        for step in itertools.count():
            if stop.is_set():
                return
            name = targets[step % len(targets)]
            rel = service.snapshot("retailer").database.relation(name)
            if name == root:
                n_delta = max(1, int(rel.n_rows * DELTA_FRACTION))
            else:
                n_delta = max(1, min(3, rel.n_rows // 4))
            idx = rng.integers(0, rel.n_rows, n_delta)
            inserts = {
                a: rel.column(a)[idx] for a in rel.schema.names
            }
            deletes = rng.choice(rel.n_rows, n_delta, replace=False)
            service.apply_delta(
                "retailer",
                DeltaBatch(
                    name, inserts=inserts, delete_indices=deletes
                ),
            )
            deltas_committed[0] += 1
            stop.wait(DELTA_INTERVAL_S)

    writer = threading.Thread(target=delta_stream)
    writer.start()
    latencies = []
    epochs_seen = set()
    try:
        for i in range(LATENCY_REQUESTS):
            name = names[i % len(names)]
            start = time.perf_counter()
            response = service.query("retailer", [name], timeout=300)
            latencies.append(time.perf_counter() - start)
            epochs_seen.add(response.epoch)
    finally:
        stop.set()
        writer.join(60)
    dataset_stats = service.stats()["datasets"]["retailer"]
    cache_stats = dataset_stats["cache"]
    ivm_stats = dataset_stats["ivm"]
    service.close()
    p50, p95 = np.percentile(np.asarray(latencies) * 1000.0, [50, 95])

    # record everything BEFORE asserting the bar
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(os.path.join(RESULTS_DIR, "server.txt"), "w") as handle:
        handle.write(
            f"analytics service — covar+linreg+trees on retailer "
            f"(scale {BENCH_SCALE})\n"
            f"coalescing on   {measurements['on']['seconds']:9.4f}s  "
            f"{measurements['on']['requests_per_second']:8.2f} req/s  "
            f"(mean batch {measurements['on']['mean_batch']})\n"
            f"coalescing off  {measurements['off']['seconds']:9.4f}s  "
            f"{measurements['off']['requests_per_second']:8.2f} req/s\n"
            f"speedup         {speedup:9.2f}x  (bar {SPEEDUP_BAR}x)\n"
            f"p50 latency under delta stream: {p50:.1f}ms "
            f"(p95 {p95:.1f}ms, {deltas_committed[0]} deltas over "
            f"{len(targets)} relations, "
            f"{len(epochs_seen)} epochs observed)\n"
            f"view cache under deltas: {cache_stats['patches']} patches "
            f"vs {cache_stats['invalidations']} invalidations "
            f"({ivm_stats['fallbacks']} IVM fallbacks)\n"
        )

    assert speedup >= SPEEDUP_BAR, (
        f"coalescing must sustain >={SPEEDUP_BAR}x the uncoalesced "
        f"throughput on a fusion-friendly mix; measured {speedup:.2f}x "
        f"({measurements['on']['requests_per_second']} vs "
        f"{measurements['off']['requests_per_second']} req/s)"
    )
    assert len(epochs_seen) >= 2, (
        "latency phase never observed a committed epoch change; the "
        "delta stream did not overlap the reads"
    )
    assert cache_stats["patches"] >= cache_stats["invalidations"], (
        "under a mixed root+dimension delta stream the cache must "
        "patch at least as many views as it invalidates; measured "
        f"{cache_stats['patches']} patches vs "
        f"{cache_stats['invalidations']} invalidations"
    )
