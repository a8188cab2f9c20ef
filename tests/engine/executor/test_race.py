"""Stress test for the same-level concurrency race the executor fixed.

The old ``LMFAO._execute`` dict-updated a shared ``view_data`` while
same-level futures were still reading it.  The executor publishes
results through the scheduler's completion loop into a locked
:class:`ViewStore`, and workers snapshot their inputs — so a wide batch
run with many threads must match serial execution bit-for-bit, every
time.
"""

import sys

import numpy as np

from repro import LMFAO, Aggregate, Query, QueryBatch

from ..helpers import assert_results_equal


def wide_batch():
    """Many independent same-level queries -> a wide group DAG."""
    queries = [Query("total", [], [Aggregate.count()])]
    for i, (group_by, attr) in enumerate(
        [
            (["city"], "units"),
            (["date"], "price"),
            (["store"], "units"),
            (["city", "store"], "units"),
            (["date"], "units"),
            (["store"], "size"),
            (["city"], "size"),
        ]
    ):
        queries.append(
            Query(f"q{i}", group_by, [Aggregate.of(attr, name="a")])
        )
    return QueryBatch(queries)


def test_wide_batch_threaded_matches_serial_repeatedly(toy_db):
    batch = wide_batch()
    serial = LMFAO(toy_db, n_threads=1).run(batch)
    with LMFAO(
        toy_db, n_threads=4, partition_threshold=32
    ) as engine:
        for _ in range(20):
            assert_results_equal(engine.run(batch), serial, batch)


def test_threaded_interpreter_matches_serial_repeatedly(toy_db):
    batch = wide_batch()
    serial = LMFAO(toy_db, compile=False).run(batch)
    with LMFAO(
        toy_db, compile=False, n_threads=4, partition_threshold=32
    ) as engine:
        for _ in range(10):
            assert_results_equal(engine.run(batch), serial, batch)


def test_threaded_execute_evicts_exactly_the_interior_views(toy_db):
    batch = wide_batch()
    with LMFAO(toy_db, n_threads=4) as engine:
        plan = engine.plan(batch)
        store = engine.execute(plan, batch.dynamic_functions())
    outputs = plan.output_view_ids()
    assert outputs <= set(store)
    assert store.evicted == set(plan.view_consumers()) - outputs


def test_threads_racing_on_fresh_key_encodings_match_serial(toy_db):
    """Same-node groups share one relation and its lazy key encodings.

    No relation is partitioned here (the threshold is out of reach), so
    the scheduler's threads all read ``relation.encodings`` of the same
    freshly sorted — never yet encoded — relations.  Two threads may both
    encode a column; none may see a half-built entry.
    """
    batch = wide_batch()
    serial = LMFAO(toy_db, n_threads=1).run(batch)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(25):
            with LMFAO(
                toy_db, n_threads=4, partition_threshold=10**9
            ) as engine:
                assert not any(r.encodings for r in engine.database)
                assert_results_equal(
                    engine.run(batch), serial, batch, rtol=0, atol=0
                )
    finally:
        sys.setswitchinterval(interval)
