"""Engines on different threads sharing one never-encoded database.

A run is serial, but one :class:`~repro.data.database.Database` can be
read by several runs at once: the analytics service's coalescer worker
runs batches while its writer's ``ViewCache.on_delta`` repair reads the
relations the epochs share.  Each relation encodes its key columns
lazily on first use (``Relation.encodings``), so two threads may both
encode a column; neither may see a half-built entry.
"""

import pickle
import sys
import threading

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


def test_execute_evicts_exactly_the_interior_views(toy_db):
    batch = wide_batch()
    engine = LMFAO(toy_db)
    plan = engine.plan(batch)
    store = engine.execute(plan, batch.dynamic_functions())
    outputs = plan.output_view_ids()
    assert outputs <= set(store)
    assert store.evicted == set(plan.view_consumers()) - outputs


def test_wide_batch_reruns_match_the_first_run(toy_db):
    batch = wide_batch()
    engine = LMFAO(toy_db)
    first = engine.run(batch)
    for _ in range(10):
        assert_results_equal(engine.run(batch), first, batch, rtol=0, atol=0)


def test_threads_racing_on_fresh_key_encodings_match_serial(toy_db):
    """Two threads, each with its own engine, run one batch at the same
    moment over one shared database whose relations were never encoded.

    The engines are planned beforehand (planning reads the encodings
    too) and pinned to the shared database through ``run(database=)``,
    the hook the service's epochs use, so the two runs race on the
    shared relations' first encodings and on nothing else.  View repair
    runs the same interpreter, so this is its race too.
    """
    batch = wide_batch()
    serial = LMFAO(toy_db).run(batch)
    engines = [LMFAO(toy_db) for _ in range(2)]
    for engine in engines:
        engine.plan(batch)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(25):
            shared = pickle.loads(pickle.dumps(toy_db))  # cold memos
            assert not any(r.encodings for r in shared)
            results, errors = [None, None], []
            start = threading.Barrier(2, timeout=60)

            def run(slot):
                try:
                    start.wait()
                    results[slot] = engines[slot].run(batch, database=shared)
                except Exception as exc:  # noqa: BLE001 - asserted below
                    errors.append(exc)

            threads = [
                threading.Thread(target=run, args=(slot,))
                for slot in range(2)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
            assert not any(thread.is_alive() for thread in threads)
            assert not errors, errors
            for got in results:
                assert_results_equal(got, serial, batch, rtol=0, atol=0)
    finally:
        sys.setswitchinterval(interval)
