"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``info [dataset...]``   — Table 1-style characteristics of the
  synthetic datasets;
* ``plan <dataset> <workload>`` — plan a workload and print EXPLAIN +
  the Table 2 statistics (workloads: ``repro.workloads.NAMES``);
* ``sql <dataset> <workload>``  — print the view decomposition as SQL;
* ``run <dataset> <workload>``  — execute the workload and time it;
* ``run <dataset> --workloads covar,linreg,trees [--fuse] [--cache-mb N]``
  — execute several workloads through one :class:`WorkloadSession`,
  optionally fused into one deduplicated view DAG and/or backed by a
  content-addressed view cache (per-view hit/miss report);
* ``serve <dataset> [--port N] [--cache-mb N] [--data-dir DIR]`` —
  run the long-lived analytics service over HTTP: request coalescing,
  epoch-snapshot isolation, streaming ``POST /delta`` writes; with
  ``--data-dir``, durable storage — restore on boot (snapshot + WAL
  replay + warm view cache), WAL every commit, drain + fsync on SIGTERM;
* ``snapshot <dataset> --out DIR`` — write a columnar snapshot (a data
  dir ``serve --data-dir`` can boot from);
* ``restore DIR`` — recover a data dir offline and report what's in it;
* ``client {health,stats,query} ...`` — talk to a running service.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import time

import numpy as np

from . import (
    LMFAO,
    AnalyticsClient,
    AnalyticsService,
    DeltaBatch,
    IncrementalEngine,
    ViewCache,
    WorkloadSession,
    workloads,
)
from .datasets import ALL_DATASETS
from .engine.explain import explain
from .engine.sql import render_batch_sql


def cmd_info(args) -> int:
    names = args.datasets or list(ALL_DATASETS)
    for name in names:
        if name not in ALL_DATASETS:
            raise SystemExit(f"unknown dataset {name!r}")
        dataset = ALL_DATASETS[name](scale=args.scale)
        summary = dataset.summary()
        print(
            f"{name:10} relations={summary['relations']:2} "
            f"tuples={summary['tuples']:>8} "
            f"attrs={summary['attributes']:3} "
            f"categorical={summary['categorical']:3} "
            f"size={summary['size_mb']:.2f}MB"
        )
    return 0


def _dataset_and_engine(args):
    if args.dataset not in ALL_DATASETS:
        raise SystemExit(f"unknown dataset {args.dataset!r}")
    dataset = ALL_DATASETS[args.dataset](scale=args.scale)
    engine = LMFAO(dataset.database, dataset.join_tree)
    return dataset, engine


def cmd_plan(args) -> int:
    dataset, engine = _dataset_and_engine(args)
    batch = workloads.build(dataset, args.workload)
    plan = engine.plan(batch)
    print(explain(plan, dataset.join_tree))
    print()
    print("Table 2 row:", plan.statistics.table2_row())
    return 0


def cmd_sql(args) -> int:
    dataset, engine = _dataset_and_engine(args)
    batch = workloads.build(dataset, args.workload)
    plan = engine.plan(batch)
    print(render_batch_sql(plan.decomposed))
    return 0


def cmd_run(args) -> int:
    if args.workloads:
        if args.workload is not None:
            raise SystemExit(
                "give either a positional workload or --workloads, not both"
            )
        if args.incremental:
            raise SystemExit("--incremental takes a single workload")
        dataset, _ = _dataset_and_engine(args)
        return _run_workloads(args, dataset)
    if args.workload is None:
        raise SystemExit("run needs a workload (or --workloads)")
    dataset, engine = _dataset_and_engine(args)
    batch = workloads.build(dataset, args.workload)
    if args.incremental:
        return _run_incremental(args, dataset, batch)
    print(
        f"{args.workload} on {args.dataset}: {len(batch)} queries, "
        f"{batch.n_application_aggregates} aggregates"
    )
    plan = engine.plan(batch)  # warm: planning untimed
    start = time.perf_counter()
    results = engine.run(batch)
    elapsed = time.perf_counter() - start
    n_rows = sum(r.n_rows for r in results.values())
    print(f"  executed in {elapsed:.4f}s, {n_rows} result rows")
    print("plan:", plan.statistics.table2_row())
    return 0


def _run_workloads(args, dataset) -> int:
    """Run several workloads through one (optionally fused/cached) session."""
    names = [w.strip() for w in args.workloads.split(",") if w.strip()]
    if not names:
        raise SystemExit("--workloads needs at least one workload name")
    if len(set(names)) != len(names):
        raise SystemExit(f"duplicate workload in --workloads: {names}")
    cache = (
        ViewCache(budget_bytes=int(args.cache_mb * (1 << 20)))
        if args.cache_mb
        else None
    )
    session = WorkloadSession(
        dataset.database,  # loaded once, shared with the session
        dataset.join_tree,
        cache=cache,
    )
    try:
        batches = {name: workloads.build(dataset, name) for name in names}
    except ValueError as exc:  # an unknown name
        raise SystemExit(str(exc)) from None
    for name, batch in batches.items():
        session.add_workload(name, batch)
    mode = "fused" if args.fuse else "independent"
    print(
        f"{'+'.join(names)} on {args.dataset} "
        f"[{mode}"
        + (f", cache={args.cache_mb:g}MiB]" if cache else "]")
    )
    if args.fuse:
        report = session.fusion_report()
        print(
            f"  fused DAG: {report.views_fused} views / "
            f"{report.groups_fused} groups "
            f"(vs {report.views_independent} views / "
            f"{report.groups_independent} groups unfused — "
            f"{report.views_saved} views shared)"
        )
    # warm the plan cache so the timing below measures execution
    if args.fuse:
        session.engine.plan(session.fused_batch())
    else:
        for batch in batches.values():
            session.engine.plan(batch)
    start = time.perf_counter()
    results = session.run() if args.fuse else session.run_independent()
    elapsed = time.perf_counter() - start
    for name in names:
        n_rows = sum(r.n_rows for r in results[name].values())
        print(
            f"  {name:8} {len(batches[name])} queries  "
            f"{n_rows} result rows"
        )
    print(f"  {mode} execution: {elapsed:.4f}s")
    if cache is not None:
        stats = cache.stats()
        print(
            f"  view cache: {stats.hits} hits / {stats.misses} misses, "
            f"{stats.evictions} evictions, "
            f"{cache.total_bytes / (1 << 20):.2f} MiB resident"
        )
        reports = (
            [("(fused)", results.cache_report)]
            if args.fuse
            else [(name, results[name].cache_report) for name in names]
        )
        for label, run_report in reports:
            if run_report is None:
                continue
            print(
                f"  per-view report {label}: {run_report.n_hits} hits, "
                f"{run_report.n_misses} misses, "
                f"{run_report.skipped_groups}/{run_report.total_groups} "
                f"groups skipped"
            )
            for line in run_report.lines():
                print(f"  {line}")
    return 0


def _run_incremental(args, dataset, batch) -> int:
    """Execute a workload, then maintain it under a synthetic delta."""
    if not 0.0 < args.delta_fraction <= 1.0:
        raise SystemExit(
            f"--delta-fraction must be in (0, 1], got {args.delta_fraction}"
        )
    engine = IncrementalEngine(dataset.database, dataset.join_tree)
    start = time.perf_counter()
    results = engine.run(batch)
    materialize_s = time.perf_counter() - start
    n_rows = sum(r.n_rows for r in results.values())
    print(
        f"{args.workload} on {args.dataset}: {len(batch)} queries, "
        f"{n_rows} result rows materialized in {materialize_s:.4f}s "
        f"(root={engine.root})"
    )
    # fair full-re-evaluation baseline: a cold run on a cleared view
    # cache (planning cached, as for the maintenance side);
    # it leaves the views cached again for the delta below
    engine.view_cache.clear()
    start = time.perf_counter()
    engine.run(batch)
    full_s = time.perf_counter() - start
    rng = np.random.default_rng(0)
    fact = engine.database.relation(engine.root)
    n_delta = max(1, int(fact.n_rows * args.delta_fraction))
    idx = rng.integers(0, fact.n_rows, n_delta)
    inserts = {a: fact.column(a)[idx] for a in fact.schema.names}
    deletes = rng.choice(fact.n_rows, n_delta, replace=False)
    start = time.perf_counter()
    report = engine.apply_delta(
        DeltaBatch(engine.root, inserts=inserts, delete_indices=deletes)
    )
    updated = engine.run(batch)
    maintained_s = time.perf_counter() - start
    print(
        f"delta: +{n_delta}/-{n_delta} rows on {engine.root} "
        f"({args.delta_fraction:.1%}) maintained and re-served in "
        f"{maintained_s:.4f}s [{report.maintenance[0].mode}], "
        f"{full_s / maintained_s:.1f}x faster than full "
        f"re-evaluation ({full_s:.4f}s)"
    )
    print(
        f"updated result rows: {sum(r.n_rows for r in updated.values())}"
    )
    return 0


def build_service(args, dataset) -> AnalyticsService:
    """An :class:`AnalyticsService` over one dataset, all workloads."""
    try:
        service = AnalyticsService(
            max_queue=args.max_queue,
            cache_mb=args.cache_mb,
            data_dir=getattr(args, "data_dir", None),
            compact_wal=getattr(args, "compact_wal", 0),
            spill_mb=getattr(args, "spill_mb", 512.0),
        )
    except ValueError as exc:  # an out-of-range option
        raise SystemExit(f"repro serve: {exc}")
    service.register_dataset(
        args.dataset, dataset.database, dataset.join_tree
    )
    recovery = service.recovery(args.dataset)
    if recovery is not None:
        print(
            f"restored {args.dataset} from {args.data_dir}: snapshot "
            f"epoch {recovery.snapshot_epoch} "
            f"({recovery.snapshot_load_seconds:.3f}s) + "
            f"{recovery.replayed_commits} WAL commits "
            f"({recovery.replayed_changes} changes, "
            f"{recovery.replay_seconds:.3f}s) -> epoch {recovery.epoch}; "
            f"warm cache: {recovery.cache_entries} views "
            f"({recovery.cache_bytes / (1 << 20):.2f} MiB) on disk"
            + (
                " [torn WAL tail truncated]"
                if recovery.wal_tail_truncated
                else ""
            )
        )
    elif getattr(args, "data_dir", None):
        print(f"initialized durable storage at {args.data_dir}")
    for name, batch in workloads.served_batches(dataset).items():
        service.register_workload(args.dataset, name, batch)
    # plan every workload before accepting traffic, so no request pays
    # planning inline
    service.prepare(args.dataset)
    return service


def cmd_serve(args) -> int:
    from .server.http import make_http_server

    if args.dataset not in ALL_DATASETS:
        raise SystemExit(f"unknown dataset {args.dataset!r}")
    dataset = ALL_DATASETS[args.dataset](scale=args.scale)
    service = build_service(args, dataset)
    server = make_http_server(service, args.host, args.port)
    host, port = server.server_address[:2]
    print(
        f"serving {args.dataset} (scale {args.scale:g}) on "
        f"http://{host}:{port} [cache={args.cache_mb:g}MiB, "
        f"queue cap {args.max_queue}]"
    )
    print(
        f"workloads: {', '.join(service.workload_names(args.dataset))}; "
        f"endpoints: POST /query, POST /delta, GET /stats, GET /healthz"
    )

    # graceful SIGTERM (the deploy/orchestrator signal): break out of
    # serve_forever, then the finally block drains in-flight coalescer
    # batches, spills the repaired views only memory holds, and
    # fsyncs+closes the WAL before the process exits
    def _on_sigterm(signum, frame):
        raise SystemExit(0)

    previous_sigterm = signal.signal(signal.SIGTERM, _on_sigterm)
    try:
        server.serve_forever()
    except (KeyboardInterrupt, SystemExit):
        print("shutting down")
    finally:
        signal.signal(signal.SIGTERM, previous_sigterm)
        server.server_close()
        service.close()  # drain, spill repaired views, close storage
    return 0


def cmd_snapshot(args) -> int:
    from .storage import DatasetStorage

    if args.dataset not in ALL_DATASETS:
        raise SystemExit(f"unknown dataset {args.dataset!r}")
    dataset = ALL_DATASETS[args.dataset](scale=args.scale)
    t0 = time.perf_counter()
    storage = DatasetStorage(os.path.join(args.out, args.dataset))
    if storage.has_snapshot() and not args.force:
        storage.close()
        raise SystemExit(
            f"{args.out} already holds a snapshot of {args.dataset} "
            "(and possibly WAL'd commits); re-initializing would "
            "discard that history.  Pass --force to overwrite."
        )
    info = storage.initialize(dataset.database, epoch=0)
    storage.close()
    print(
        f"snapshot of {args.dataset} (scale {args.scale:g}) -> "
        f"{info.path}: {info.n_relations} relations, "
        f"{info.n_rows} rows, {info.nbytes / (1 << 20):.2f} MiB "
        f"in {time.perf_counter() - t0:.3f}s"
    )
    print(f"serve it with: repro serve {args.dataset} --data-dir {args.out}")
    return 0


def cmd_restore(args) -> int:
    from .storage import DatasetStorage, dataset_dirs

    directories = dataset_dirs(args.data_dir)
    if not directories:
        raise SystemExit(
            f"no dataset storage under {args.data_dir!r} (no wal.log)"
        )
    for directory in directories:
        storage = DatasetStorage(directory)
        recovered = storage.recover()
        storage.close()
        stats = recovered.stats
        print(
            f"{os.path.basename(directory)}: epoch {recovered.epoch} "
            f"(snapshot {stats.snapshot_epoch} + "
            f"{stats.replayed_commits} WAL commits, "
            f"{stats.replayed_changes} changes)"
            + (
                " [torn WAL tail truncated]"
                if stats.wal_tail_truncated
                else ""
            )
        )
        for relation in recovered.database:
            print(f"  {relation.name:16} {relation.n_rows:>10} rows")
        print(
            f"  snapshot load {stats.snapshot_load_seconds:.3f}s, "
            f"WAL replay {stats.replay_seconds:.3f}s, "
            f"spilled cache {stats.cache_entries} views "
            f"({stats.cache_bytes / (1 << 20):.2f} MiB)"
        )
    return 0


def cmd_client(args) -> int:
    client = AnalyticsClient(args.host, args.port)
    if args.action == "health":
        payload = client.healthz()
    elif args.action == "stats":
        payload = client.stats()
    else:  # query
        if not args.dataset or not args.workloads:
            raise SystemExit(
                "client query needs a dataset and comma-separated "
                "workloads, e.g.: client query retailer covar,linreg"
            )
        payload = client.query(
            args.dataset,
            [w.strip() for w in args.workloads.split(",") if w.strip()],
            include_data=args.include_data,
        )
    print(json.dumps(payload, indent=2))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro", description="LMFAO reproduction CLI"
    )
    parser.add_argument(
        "--scale", type=float, default=0.2, help="dataset scale factor"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_info = sub.add_parser("info", help="dataset characteristics")
    p_info.add_argument("datasets", nargs="*")
    p_info.set_defaults(fn=cmd_info)

    for name, fn, help_text in (
        ("plan", cmd_plan, "EXPLAIN a workload plan"),
        ("sql", cmd_sql, "print the decomposition as SQL"),
        ("run", cmd_run, "execute and time one or more workloads"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("dataset", choices=sorted(ALL_DATASETS))
        if name == "run":
            p.add_argument(
                "workload", nargs="?", choices=workloads.NAMES,
                help="single workload to run (or use --workloads)",
            )
        else:
            p.add_argument("workload", choices=workloads.NAMES)
        if name == "run":
            p.add_argument(
                "--workloads",
                help="comma-separated workloads to run through one "
                "WorkloadSession, e.g. covar,linreg,trees",
            )
            p.add_argument(
                "--fuse",
                action="store_true",
                help="fuse the --workloads batches into one "
                "deduplicated view DAG (shared views run once)",
            )
            p.add_argument(
                "--cache-mb",
                type=float,
                default=0.0,
                help="attach a content-addressed view cache with this "
                "byte budget (MiB) and print the per-view hit/miss "
                "report (0 = no cache)",
            )
            p.add_argument(
                "--incremental",
                action="store_true",
                help="materialize, then maintain under a synthetic delta "
                "instead of recomputing",
            )
            p.add_argument(
                "--delta-fraction",
                type=float,
                default=0.01,
                help="synthetic delta size as a fraction of the fact "
                "relation (with --incremental; default 0.01)",
            )
        p.set_defaults(fn=fn)

    p_serve = sub.add_parser(
        "serve", help="run the concurrent analytics service over HTTP"
    )
    p_serve.add_argument("dataset", choices=sorted(ALL_DATASETS))
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument(
        "--port", type=int, default=8080, help="0 picks an ephemeral port"
    )
    p_serve.add_argument(
        "--max-queue",
        type=int,
        default=64,
        help="admission-control cap: pending requests beyond this are "
        "shed with HTTP 503 (default: 64)",
    )
    p_serve.add_argument(
        "--cache-mb",
        type=float,
        default=64.0,
        help="view-cache byte budget in MiB; 0 disables the cache "
        "(default: 64)",
    )
    p_serve.add_argument(
        "--data-dir",
        default=None,
        help="durable storage directory: restore snapshot + replay WAL "
        "+ warm view cache on boot, write-ahead-log every delta commit "
        "(default: in-memory only)",
    )
    p_serve.add_argument(
        "--compact-wal",
        type=int,
        default=0,
        help="fold the WAL into a fresh snapshot once it holds this "
        "many commits (0 = never auto-compact; default: 0)",
    )
    p_serve.add_argument(
        "--spill-mb",
        type=float,
        default=512.0,
        help="disk budget for the persistent view-cache tier; oldest "
        "spilled views are pruned beyond it (0 = unbounded; "
        "default: 512)",
    )
    p_serve.set_defaults(fn=cmd_serve)

    p_snapshot = sub.add_parser(
        "snapshot",
        help="write a columnar on-disk snapshot of a dataset",
    )
    p_snapshot.add_argument("dataset", choices=sorted(ALL_DATASETS))
    p_snapshot.add_argument(
        "--out",
        required=True,
        help="data directory to create (serve it with --data-dir)",
    )
    p_snapshot.add_argument(
        "--force",
        action="store_true",
        help="overwrite an existing data dir, discarding its snapshot "
        "and every WAL'd commit",
    )
    p_snapshot.set_defaults(fn=cmd_snapshot)

    p_restore = sub.add_parser(
        "restore",
        help="recover a data directory offline (snapshot + WAL replay)",
    )
    p_restore.add_argument(
        "data_dir", help="a --data-dir previously written by serve/snapshot"
    )
    p_restore.set_defaults(fn=cmd_restore)

    p_client = sub.add_parser(
        "client", help="talk to a running analytics service"
    )
    p_client.add_argument("action", choices=["health", "stats", "query"])
    p_client.add_argument("dataset", nargs="?")
    p_client.add_argument(
        "workloads", nargs="?",
        help="comma-separated workload names (query only)",
    )
    p_client.add_argument("--host", default="127.0.0.1")
    p_client.add_argument("--port", type=int, default=8080)
    p_client.add_argument(
        "--include-data",
        action="store_true",
        help="return full result columns, not just row counts",
    )
    p_client.set_defaults(fn=cmd_client)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
