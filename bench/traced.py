"""The traced runs: the same ops, one at a time, under timing wrappers.

Each workload's op script is replayed in process with a fixed length, so
counts repeat exactly for a given seed and ``--seconds``: first without
recording (the baseline for ``trace.overhead_ratio``), then with.  The
per-layer metrics of ``BENCHMARK.json`` are computed here, from the
spans (``bench.trace``), from the service's own ``stats()`` and from the
client's view of each op.  Times in this file are raw, not scaled to the
host's speed.
"""

from __future__ import annotations

import json
import shutil
import statistics
import time
from typing import Dict, List, Sequence

from repro import AnalyticsService, WorkloadSession
from repro.datasets import retailer
from repro.server import AnalyticsClient, serve_in_background

from .harness import Servers, fresh_dir
from .trace import ABSENT, TARGETS, Recorder, fresh_results, install
from .workloads import (
    DIMENSIONS,
    FACT,
    IN_PROCESS,
    MIXED_MIX,
    READ_MIX,
    SERVE_DATASET,
    SERVED,
    DeltaScript,
    Outcome,
    ServedTruth,
    Settings,
    at_epoch,
    one_pass,
    read_requests,
    timed_request,
)

#: span names the generic ``<span>.ms/.self_ms/.calls`` metrics may use
SPAN_NAMES = {name for name, _ in TARGETS}


def layer_metrics(
    recorder: Recorder,
    absent: Sequence[str],
    units: int,
    wanted: Sequence[str],
    first_op: int = 0,
) -> Dict[str, float]:
    """Every wanted metric of the form ``<span>.ms`` (inclusive),
    ``<span>.self_ms`` or ``<span>.calls``, per unit of work, over the
    spans recorded inside ops from ``first_op`` on."""
    totals = recorder.totals(first_op)
    out = {}
    for metric in wanted:
        for suffix, column, factor in (
            (".self_ms", 1, 1e3), (".ms", 0, 1e3), (".calls", 2, 1.0),
        ):
            span = metric[: -len(suffix)]
            if metric.endswith(suffix) and span in SPAN_NAMES:
                if span in absent:
                    out[metric] = ABSENT
                else:
                    out[metric] = totals.get(span, (0.0, 0.0, 0))[column] * factor / units
                break
    return out


def trace_summary(recorder: Recorder, traced_wall: float, plain_wall: float) -> Dict[str, float]:
    """Coverage: the share of op wall time that is some wrapped layer's
    self time, i.e. everything but the benchmark's own op span."""
    own = recorder.self_times()
    op_wall = sum(s.duration for s in recorder.spans if s.name == "bench.op")
    op_self = sum(
        t for s, t in zip(recorder.spans, own) if s.name == "bench.op"
    )
    return {
        "trace.coverage": 1.0 - op_self / op_wall if op_wall else 0.0,
        "trace.overhead_ratio": traced_wall / plain_wall if plain_wall else 0.0,
    }


def plan_metrics(recorder: Recorder, absent: Sequence[str]) -> Dict[str, float]:
    """Over every recorded call, set-up included: a call that returns a
    plan not returned before is a plan-cache miss."""
    if "engine.plan" in absent:
        return {"engine.plan.miss_ms": ABSENT, "engine.plan.hit_ratio": ABSENT}
    misses, calls = fresh_results(recorder.spans, "engine.plan")
    return {
        "engine.plan.miss_ms": sum(s.duration for s in misses) * 1e3,
        "engine.plan.hit_ratio": 1.0 - len(misses) / calls if calls else 0.0,
    }


def setup_total_ms(recorder: Recorder, name: str) -> float:
    return 1e3 * sum(s.duration for s in recorder.spans if s.name == name and s.op < 0)


def trace_in_process(settings: Settings, wanted: Sequence[str]) -> Outcome:
    build, units_of, verify = IN_PROCESS[settings.workload]
    outcome = Outcome()
    recorder = Recorder()
    uninstall, outcome.absent = install(recorder)
    try:
        recorder.enabled = True
        state = build(settings.scale, recorder)
        units = units_of(state)
        one_pass(units, Outcome())  # cold pass, recorded as set-up
        n_passes = 1 if settings.smoke else max(
            1, int(settings.seconds / (6 if settings.workload == "agg_batch" else 10))
        )
        # the same passes without and with recording; their ratio is what
        # tracing costs
        recorder.enabled = False
        start = time.perf_counter()
        for _ in range(n_passes):
            one_pass(units, Outcome())
        plain_wall = time.perf_counter() - start

        recorder.enabled = True
        labels: List[str] = []  # op id -> unit label

        def as_op(label: str, call):
            def run():
                labels.append(label)
                recorder.op = len(labels) - 1
                with recorder.span("bench.op"):
                    return call()

            return run

        as_ops = [(label, as_op(label, call)) for label, call in units]
        start = time.perf_counter()
        for _ in range(n_passes):
            results = one_pass(as_ops, outcome)
        traced_wall = time.perf_counter() - start
        recorder.enabled = False
        recorder.op = -1
        verify(state, results, outcome)

        metrics = layer_metrics(recorder, outcome.absent, n_passes, wanted)
        metrics.update(trace_summary(recorder, traced_wall, plain_wall))
        metrics.update(plan_metrics(recorder, outcome.absent))
        metrics["datasets.generate.ms"] = setup_total_ms(recorder, "datasets.generate")
        in_ops = [s for s in recorder.spans if s.op >= 0]
        if settings.workload == "agg_batch":
            for span in in_ops:
                if span.name == "engine.executor.run_group":
                    key = "engine.executor.run_group.ms." + labels[span.op]
                    metrics[key] = metrics.get(key, 0.0) + span.duration * 1e3 / n_passes
            metrics.update(table2_counts(state))
        else:
            metrics["ml.trees.node_batches"] = sum(
                1 for s in in_ops if s.name == "engine.run" and labels[s.op] == "tree"
            ) / n_passes
        outcome.metrics = metrics
        outcome.detail = {
            "passes": n_passes, "ops": labels[: len(units)], "recorder": recorder,
        }
    finally:
        uninstall()
    return outcome


def table2_counts(work) -> Dict[str, float]:
    """The paper's Table 2 A / V / G, summed over the eight batches."""
    totals = {"aggregates": 0, "views": 0, "groups": 0}
    try:
        for _, _, engine, batch in work:
            stats = engine.plan(batch).statistics
            totals["aggregates"] += stats.n_application_aggregates
            totals["views"] += stats.n_views
            totals["groups"] += stats.n_groups
    except AttributeError:
        return {f"engine.plan.{k}": ABSENT for k in totals}
    return {f"engine.plan.{k}": float(v) for k, v in totals.items()}


def trace_served(settings: Settings, wanted: Sequence[str]) -> Outcome:
    """Both served workloads, in process: one client, one op at a time.

    ``serve_read`` replays cycles of its four requests; ``serve_mixed``
    replays rounds of four deltas, each followed by its three requests,
    and ends with restarts on the same data directory.  The warm-up
    requests are recorded too, as ops of kind ``cold_query``, but stay
    out of the per-op metrics.
    """
    mixed = settings.workload == "serve_mixed"
    mix = MIXED_MIX if mixed else READ_MIX
    # mixed: four rounds, so that every dimension is updated once
    cycles = 1 if settings.smoke else (
        4 * max(1, round(settings.seconds / 15)) if mixed
        else max(1, int(settings.seconds * 2))
    )
    outcome = Outcome()
    recorder = Recorder()
    uninstall, outcome.absent = install(recorder)
    data_dir = fresh_dir("trace-")
    service = http_server = None
    try:
        recorder.enabled = True
        with recorder.span("datasets.generate"):
            dataset = retailer(scale=settings.scale)
        truth = ServedTruth(dataset)
        service, http_server, client = start_service(dataset, truth.batches, data_dir)
        script = DeltaScript(dataset.database, settings.seed)
        requests = read_requests(settings.seed, mix)
        log: List[Dict] = []  # one row per recorded op

        def timed_op(call, record: bool):
            """One op under a ``bench.op`` span; (latency, reply or None)."""
            outcome.attempted += 1
            recorder.op = len(log) if record else -1
            with recorder.span("bench.op"):
                latency, reply = timed_request(call)
            recorder.op = -1
            if reply is None:
                outcome.failed += 1
            return latency, reply

        def query(names, kind: str, record: bool) -> float:
            latency, payload = timed_op(
                lambda: client.query(SERVE_DATASET, names, include_data=True), record
            )
            if payload is not None:
                outcome.problems += truth.problems(
                    script.database, payload["epoch"], payload
                )
            if record:
                payload = payload or {"seconds": 0.0, "results": None}
                log.append({
                    "op": len(log), "kind": kind, "names": list(names),
                    "ms": latency * 1e3, "service_ms": payload["seconds"] * 1e3,
                    # without the timings in it, so that the size repeats
                    "kb": len(json.dumps(payload["results"])) / 1024.0,
                })
            return latency

        def delta(record: bool) -> float:
            op = script.next()
            latency, ack = timed_op(
                lambda: client.delta(
                    SERVE_DATASET, op["relation"], inserts=op["inserts"],
                    delete_indices=op["delete_indices"],
                ),
                record,
            )
            if ack is not None:
                script.commit(op)
            if record:
                ack = ack or {"views_patched": 0, "views_evicted": 0}
                log.append({
                    "op": len(log), "kind": "delta", "relation": op["relation"],
                    "ms": latency * 1e3, "patched": ack["views_patched"],
                    "evicted": ack["views_evicted"],
                })
            return latency

        def phase(record: bool) -> float:
            """One pass over the script; returns the ops' summed latency."""
            busy = 0.0
            for _ in range(cycles):
                for _ in range(4 if mixed else 1):
                    if mixed:
                        busy += delta(record)
                    for _ in mix:
                        busy += query(next(requests), "query", record)
            return busy

        for names in mix:
            query(names, "cold_query", record=True)
        first_op = len(log)
        # the same script without and with recording: the ratio of the
        # two is what tracing costs
        recorder.enabled = False
        plain_busy = phase(record=False)
        before = service.stats()
        recorder.enabled = True
        traced_busy = phase(record=True)
        recorder.enabled = False
        after = service.stats()
        ops = log[first_op:]

        metrics = layer_metrics(recorder, outcome.absent, len(ops), wanted, first_op)
        metrics.update(trace_summary(recorder, traced_busy, plain_busy))
        metrics.update(plan_metrics(recorder, outcome.absent))
        metrics["datasets.generate.ms"] = setup_total_ms(recorder, "datasets.generate")
        metrics.update(served_metrics(recorder, outcome.absent, ops, before, after))
        metrics.update(fusion_metrics(dataset, truth.batches))
        if not mixed:
            metrics["server.fused_query.cold_ms"] = log[mix.index(SERVED)]["ms"]
        if mixed:
            metrics.update(
                restart_metrics(settings, truth, script, data_dir, service,
                                http_server, outcome)
            )
            service = http_server = None
        outcome.metrics = metrics
        outcome.detail = {
            "ops": len(ops), "cycles": cycles, "op_log": log, "recorder": recorder,
        }
    finally:
        stop_service(service, http_server)
        uninstall()
        shutil.rmtree(data_dir, ignore_errors=True)
    return outcome


def start_service(dataset, batches, data_dir: str):
    """What ``repro serve --data-dir`` builds, with its defaults, holding
    the workloads of READ_MIX."""
    service = AnalyticsService(data_dir=data_dir, backend="compiled")
    service.register_dataset(SERVE_DATASET, dataset.database, dataset.join_tree)
    for name, batch in batches.items():
        service.register_workload(SERVE_DATASET, name, batch)
    service.prepare(SERVE_DATASET)
    http_server, _ = serve_in_background(service)
    client = AnalyticsClient(port=http_server.server_address[1])
    client.wait_ready()
    return service, http_server, client


def stop_service(service, http_server) -> None:
    if http_server is not None:
        http_server.shutdown()
        http_server.server_close()
    if service is not None:
        service.close()


def _section(stats: Dict, name: str) -> Dict:
    return stats["datasets"][SERVE_DATASET].get(name) or {}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def served_metrics(
    recorder, absent, ops: List[Dict], before: Dict, after: Dict
) -> Dict[str, float]:
    """Counters from ``/stats`` over the traced phase, client-side numbers
    from the op log, and the spans that only mean something per kind of
    op."""
    queries = [row for row in ops if row["kind"] == "query"]
    deltas = [row for row in ops if row["kind"] == "delta"]
    roots = [row for row in deltas if row["relation"] == FACT]
    dims = [row for row in deltas if row["relation"] != FACT]

    def grew(section: str, key: str) -> float:
        return _section(after, section).get(key, 0) - _section(before, section).get(key, 0)

    cache, storage = _section(after, "cache"), _section(after, "storage")
    out = {
        "client.query.mean_ms": _mean(r["ms"] for r in queries),
        "server.service.execute_ms": _mean(r["service_ms"] for r in queries),
        "server.http.response_kb": _mean(r["kb"] for r in queries),
        "server.coalescer.mean_batch": after["coalescer"]["mean_batch"],
        "server.coalescer.shed": float(after["coalescer"]["shed"]),
        "server.coalescer.failed": float(after["coalescer"]["failed"]),
        "engine.viewcache.cache.hit_ratio": _ratio(
            grew("cache", "hits"), grew("cache", "hits") + grew("cache", "misses")
        ),
        "engine.viewcache.cache.stale_reject_ratio": _ratio(
            grew("cache", "stale_rejects"),
            grew("cache", "puts") + grew("cache", "stale_rejects"),
        ),
        "engine.viewcache.cache.resident_mb": cache.get("resident_bytes", 0) / 2**20,
        "engine.viewcache.cache.entries": float(cache.get("entries", 0)),
        "storage.cachestore.disk_per_live_byte": _ratio(
            storage.get("spilled_bytes", 0), cache.get("resident_bytes", 0)
        ),
        "storage.wal.bytes_per_commit": _ratio(
            grew("storage", "wal_bytes"), grew("storage", "wal_len")
        ),
        "client.delta.root.p50_ms": statistics.median(r["ms"] for r in roots) if roots else 0.0,
        "client.delta.dim.mean_ms": _mean(r["ms"] for r in dims),
        "engine.viewcache.cache.patched_per_delta": _mean(r["patched"] for r in deltas),
        "engine.viewcache.cache.evicted_per_delta": _mean(r["evicted"] for r in deltas),
    }
    for key in ("incremental", "propagated", "fallbacks"):
        out[f"engine.ivm.{key}"] = float(grew("ivm", key))
    for relation in (FACT,) + DIMENSIONS:
        values = [r["ms"] for r in deltas if r["relation"] == relation]
        out[f"client.delta.{relation}.p50_ms"] = statistics.median(values) if values else 0.0

    def spans_in(rows: List[Dict]):
        ids = {row["op"] for row in rows}
        return [s for s in recorder.spans if s.op in ids]

    def per_op(span_name: str, rows: List[Dict], seconds: bool = False) -> float:
        """Calls (or summed ms) of a span inside the given ops, per op."""
        if span_name in absent:
            return ABSENT
        hits = [s for s in spans_in(rows) if s.name == span_name]
        total = sum(s.duration * 1e3 for s in hits) if seconds else len(hits)
        return _ratio(total, len(rows))

    out["engine.viewcache.cache.on_delta.root_ms"] = per_op("engine.viewcache.cache.on_delta", roots, True)
    out["engine.viewcache.cache.on_delta.dim_ms"] = per_op("engine.viewcache.cache.on_delta", dims, True)
    out["storage.fsyncs_per_delta"] = per_op("storage.fsync", deltas)
    out["storage.fsyncs_per_query"] = per_op("storage.fsync", queries)
    out["storage.cachestore.saves_per_delta"] = per_op("storage.cachestore.save", deltas)
    fresh, _ = fresh_results(spans_in(ops), "engine.viewcache.signature")
    out["engine.viewcache.signature.recomputes"] = (
        ABSENT if "engine.viewcache.signature" in absent
        else _ratio(len(fresh), len(ops))
    )
    return out


def fusion_metrics(dataset, batches) -> Dict[str, float]:
    """The engine alone on the fused three-workload batch, no cache: the
    views fusion saves over three single plans, and one planned run."""
    try:
        with WorkloadSession(dataset.database, dataset.join_tree) as session:
            for name, batch in batches.items():
                session.add_workload(name, batch)
            report = session.fusion_report()  # plans; the run below does not
            start = time.perf_counter()
            session.run()
            seconds = time.perf_counter() - start
    except AttributeError:
        return {
            "engine.viewcache.fusion.views_saved_ratio": ABSENT,
            "engine.fused_batch.cold_ms": ABSENT,
        }
    return {
        "engine.viewcache.fusion.views_saved_ratio": _ratio(
            report.views_saved, report.views_independent
        ),
        "engine.fused_batch.cold_ms": seconds * 1e3,
    }


def restart_metrics(settings, truth, script, data_dir, service, http_server,
                    outcome: Outcome) -> Dict[str, float]:
    """Crash recovery, measured on the real server: the in-process
    service is closed, then ``repro serve`` is booted on its data
    directory, SIGKILLed and rebooted; each boot must answer the last
    acknowledged epoch correctly."""
    last = service.epoch(SERVE_DATASET)
    stop_service(service, http_server)
    servers = Servers(SERVE_DATASET, settings.scale)
    recoveries, loads, replays, firsts = [], [], [], []
    try:
        for _ in range(1 if settings.smoke else 5):
            start = time.perf_counter()
            server = servers.boot(data_dir)
            booted = time.perf_counter()
            outcome.attempted += 1
            answer = server.client.query(SERVE_DATASET, ("covar",), include_data=True)
            done = time.perf_counter()
            outcome.problems += at_epoch(answer, last)
            outcome.problems += truth.problems(script.database, last, answer)
            stats = _section(server.client.stats(), "storage").get("recovery") or {}
            recoveries.append(done - start)
            firsts.append(done - booted)
            loads.append(stats.get("snapshot_load_seconds", 0.0))
            replays.append(stats.get("replay_seconds", 0.0))
            server.kill()
    finally:
        servers.close()
    recover = statistics.median(recoveries)
    load = statistics.median(loads)
    replay = statistics.median(replays)
    return {
        "recover.p50_s": recover,
        "storage.snapshot.load_ms": load * 1e3,
        "storage.manager.replay_ms": replay * 1e3,
        "storage.recover.boot_other_ms": (
            recover - load - replay - statistics.median(firsts)
        ) * 1e3,
    }
