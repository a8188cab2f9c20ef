"""Concurrent analytics service benchmark.

Measures, on the retailer dataset, the two serving-layer numbers the
server subsystem exists for:

* **coalescing throughput** — a storm of concurrent single-workload
  requests over a covar/linreg/trees mix, against the same requests
  issued back to back by one closed-loop client.  The storm's requests
  queue up behind each running batch, and a drained batch runs each
  distinct workload once for every request that named it; the lone
  client never has a backlog, so every one of its requests executes
  alone — the uncoalesced baseline, with no switch needed.  Both run
  with ``cache_mb=0``: with a cache, repeat reads would be answer-memo
  hits and shared views would carry over between requests, so the
  comparison would no longer isolate coalescing.
  Acceptance bar: over alternating (storm, sequential) rounds, each on
  fresh services, the median round's storm sustains >= 1.2x the
  request throughput;
* **latency under writes** — p50/p95 query latency while a background
  delta stream commits epochs on the root *and* on dimension relations
  (recorded, no bar on latency: the point is that reads keep flowing
  against consistent snapshots during commits).  The delta propagation
  bar rides here: under the mixed stream the view cache must *patch*
  at least as many entries as it invalidates — dimension deltas repair
  interior views in place instead of evicting them.

Everything is recorded in ``results/server.txt`` *before* the
throughput bar is asserted, so a regression still leaves
the measurement behind.  Correctness rides along: coalesced and lone
requests must return identical epoch-0 results.
"""

import itertools
import statistics
import threading

import numpy as np
import pytest

from repro import AnalyticsService, DeltaBatch

from tests.engine.helpers import assert_results_equal

from .common import (
    BENCH_SCALE,
    Report,
    alternating,
    covar_workload,
    dataset,
    rt_node_workload,
    spread,
    timed,
)
from .test_viewcache import linreg_workload

pytestmark = [pytest.mark.slow, pytest.mark.timeout(900)]

N_CLIENTS = 6
REQUESTS_PER_CLIENT = 8
SPEEDUP_BAR = 1.2
#: (storm, sequential) rounds; the bar holds the median round's ratio
THROUGHPUT_ROUNDS = 5

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


def make_service(ds, workloads, *, cache_mb):
    service = AnalyticsService(
        max_queue=N_CLIENTS * REQUESTS_PER_CLIENT * 2, cache_mb=cache_mb
    )
    service.register_dataset("retailer", ds.database, ds.join_tree)
    for name, batch in workloads.items():
        service.register_workload("retailer", name, batch)
    # every workload planned up front — the measurement below is pure
    # serving
    service.prepare("retailer")
    return service


def storm_requests(workload_names):
    """The storm's workload names, one list per client: client ``slot``
    cycles through the workloads starting at ``slot``."""
    return [
        [
            workload_names[(slot + i) % len(workload_names)]
            for i in range(REQUESTS_PER_CLIENT)
        ]
        for slot in range(N_CLIENTS)
    ]


def run_clients(service, per_client):
    """One closed-loop client thread per list of workload names, all
    released at once; returns (seconds, responses)."""
    responses = [[None] * len(names) for names in per_client]
    errors = []
    barrier = threading.Barrier(len(per_client) + 1)

    def client(slot):
        try:
            barrier.wait(timeout=60)
            for i, name in enumerate(per_client[slot]):
                responses[slot][i] = service.query(
                    "retailer", [name], timeout=300
                )
        except Exception as exc:  # noqa: BLE001 - surfaced after join
            errors.append(exc)

    threads = [
        threading.Thread(target=client, args=(slot,))
        for slot in range(len(per_client))
    ]
    for thread in threads:
        thread.start()
    barrier.wait(timeout=60)

    def join():
        for thread in threads:
            thread.join(600)

    seconds, _ = timed(join)
    assert not errors, errors
    return seconds, responses


def measure_throughput(ds, workloads, per_client):
    """The client threads' requests on a fresh cache-less service:
    (measurement, one sample result per workload)."""
    service = make_service(ds, workloads, cache_mb=0)
    try:
        seconds, responses = run_clients(service, per_client)
        stats = service.coalescer.stats()
    finally:
        service.close()
    n_requests = sum(len(names) for names in per_client)
    measurement = {
        "requests_per_second": n_requests / seconds,
        "max_batch": stats.max_batch,
    }
    samples = {
        name: next(
            response.results[name]
            for answered in responses
            for response in answered
            if name in response.results
        )
        for name in workloads
    }
    return measurement, samples


def test_server_benchmark():
    ds = dataset("retailer")
    workloads = build_workloads(ds)
    names = list(workloads)

    # -- throughput: a concurrent storm vs the same requests from one
    # sequential client (no cache: see the module docstring), in
    # alternating rounds ----------------------------------------------
    storm = storm_requests(names)
    storm_runs, lone_runs = alternating(
        THROUGHPUT_ROUNDS,
        lambda: measure_throughput(ds, workloads, storm),
        lambda: measure_throughput(ds, workloads, [sum(storm, [])]),
    )
    for (_, storm_samples), (lone_run, lone_samples) in zip(
        storm_runs, lone_runs
    ):
        # correctness rides along: coalesced and lone requests answered
        # epoch 0 identically
        assert lone_run["max_batch"] == 1
        for name in names:
            assert_results_equal(
                storm_samples[name],
                lone_samples[name],
                workloads[name],
                rtol=1e-8,
            )
    speedups = [
        storm_run["requests_per_second"] / lone_run["requests_per_second"]
        for (storm_run, _), (lone_run, _) in zip(storm_runs, lone_runs)
    ]

    # -- p50 latency under a background delta stream -------------------
    service = make_service(ds, workloads, cache_mb=256)
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
            seconds, response = timed(
                lambda: service.query("retailer", [name], timeout=300)
            )
            latencies.append(seconds)
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
    report = Report(
        "server",
        f"analytics service — covar+linreg+trees on retailer "
        f"(scale {BENCH_SCALE})",
    )
    for label, runs in (
        (f"storm of {N_CLIENTS} clients", storm_runs),
        ("one sequential client", lone_runs),
    ):
        rates = [run["requests_per_second"] for run, _ in runs]
        report.add(
            f"{label:<22} req/s {spread(rates)}  (max batch "
            f"{max(run['max_batch'] for run, _ in runs)})"
        )
    report.add(f"{'speedup':<22} {spread(speedups)}  (bar {SPEEDUP_BAR}x)")
    report.add(
        f"p50 latency under delta stream: {p50:.1f}ms "
        f"(p95 {p95:.1f}ms, {deltas_committed[0]} deltas over "
        f"{len(targets)} relations, {len(epochs_seen)} epochs observed)"
    )
    report.add(
        f"view cache under deltas: {cache_stats['patches']} patches "
        f"vs {cache_stats['invalidations']} invalidations "
        f"({ivm_stats['fallbacks']} IVM fallbacks)"
    )
    report.write()

    speedup = statistics.median(speedups)
    assert speedup >= SPEEDUP_BAR, (
        f"a concurrent storm must sustain >={SPEEDUP_BAR}x the throughput "
        f"of one sequential client on a fusion-friendly mix; measured "
        f"{spread(speedups)}"
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
