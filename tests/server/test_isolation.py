"""Epoch-snapshot isolation: concurrent reads under a delta stream.

The black-box check (in the spirit of Huang et al.'s snapshot-isolation
checking): run queries on N threads while a writer commits a stream of
delta epochs, record which epoch each response claims to answer, then
recompute every epoch's ground truth offline with a one-shot engine
over that epoch's database snapshot.  **Every** response must equal its
claimed epoch's ground truth exactly — a torn read (some views from
epoch k, others from k+1) cannot match any committed snapshot.

Readers are paced by the writer's script, not by a fixed count: a
repeat read is a memo lookup, so a fixed number of them would be over
before the second commit.  The writer commits its next delta only once
every reader has been answered since the last one, and readers stop
when the script is done.

The second test is the same check from outside (ROADMAP item 5): HTTP
clients with ``include_data`` record ``(claimed epoch, results)``
beside a root + dimension delta stream, and the recorded histories are
checked offline.
"""

import threading
import time

import numpy as np
import pytest

from repro import LMFAO, AnalyticsService, DeltaBatch
from repro.server import AnalyticsClient, serve_in_background

from ..engine.helpers import (
    WORKLOADS,
    _agg_names,
    assert_results_equal,
    relation_to_table,
)
from .helpers import assert_stats_identities

N_READERS = 4
N_DELTAS = 6
WORKLOAD_NAMES = ("counts", "groupbys")


def sales_delta(database, rng, n=6):
    fact = database.relation("Sales")
    idx = rng.integers(0, fact.n_rows, n)
    inserts = {a: fact.column(a)[idx] for a in fact.schema.names}
    deletes = rng.choice(fact.n_rows, n, replace=False)
    return DeltaBatch("Sales", inserts=inserts, delete_indices=deletes)


def wait_for_a_read_each(histories, errors, reads=1, timeout=60.0):
    """Block until every reader's history has grown by ``reads`` entries
    begun after this call (one append more: the first may have been in
    flight)."""
    marks = [len(history) + reads + 1 for history in histories]
    deadline = time.monotonic() + timeout
    while any(len(h) < mark for h, mark in zip(histories, marks)):
        if errors or time.monotonic() > deadline:
            raise TimeoutError("readers stopped answering")
        time.sleep(0.001)


@pytest.mark.timeout(300)
def test_reads_under_writes_match_committed_epochs(toy_db):
    service = AnalyticsService(max_queue=256, cache_mb=8)
    service.register_dataset("toy", toy_db)
    batches = {name: WORKLOADS[name]() for name in WORKLOAD_NAMES}
    for name, batch in batches.items():
        service.register_workload("toy", name, batch)

    snapshots = {0: service.snapshot("toy").database}
    responses = [[] for _ in range(N_READERS)]
    errors = []
    done = threading.Event()

    def writer():
        rng = np.random.default_rng(3)
        try:
            for _ in range(N_DELTAS):
                delta = sales_delta(
                    service.snapshot("toy").database, rng
                )
                committed = service.apply_delta("toy", delta)
                snapshots[committed.epoch] = service.snapshot(
                    "toy"
                ).database
                wait_for_a_read_each(responses, errors)
        except Exception as exc:  # noqa: BLE001 - surfaced after join
            errors.append(exc)
        finally:
            done.set()

    def reader(slot):
        rng = np.random.default_rng(100 + slot)
        try:
            while not done.is_set():
                k = int(rng.integers(1, len(WORKLOAD_NAMES) + 1))
                names = list(
                    rng.choice(WORKLOAD_NAMES, size=k, replace=False)
                )
                responses[slot].append(
                    service.query("toy", names, timeout=120)
                )
                time.sleep(0.002)  # a memo hit takes microseconds
        except Exception as exc:  # noqa: BLE001 - surfaced after join
            errors.append(exc)

    threads = [threading.Thread(target=writer)] + [
        threading.Thread(target=reader, args=(slot,))
        for slot in range(N_READERS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(240)
    service.close()
    assert not errors, errors
    assert service.epoch("toy") == N_DELTAS
    assert len(snapshots) == N_DELTAS + 1

    # offline ground truth: one fresh single-shot engine per epoch
    ground = {
        epoch: {
            name: LMFAO(database).run(batch)
            for name, batch in batches.items()
        }
        for epoch, database in snapshots.items()
    }

    observed_epochs = set()
    n_checked = 0
    for reader_responses in responses:
        assert len(reader_responses) >= N_DELTAS
        for response in reader_responses:
            assert response.epoch in ground, (
                f"response claims uncommitted epoch {response.epoch}"
            )
            observed_epochs.add(response.epoch)
            for name, result in response.results.items():
                assert_results_equal(
                    result,
                    ground[response.epoch][name],
                    batches[name],
                    rtol=1e-8,
                )
                n_checked += 1
    assert n_checked >= N_READERS * N_DELTAS
    # the stream must actually have interleaved: every commit was read
    # by somebody before the next one landed
    assert observed_epochs >= set(range(1, N_DELTAS + 1)), (
        f"stress saw only epochs {observed_epochs}; writer/readers "
        "never overlapped"
    )


def wire_table(section, query):
    """One query's wire payload as {group tuple: (agg values...)}."""
    data = section["data"]
    assert all(len(data[c]) == section["n_rows"] for c in section["columns"])
    if query.group_by:
        keys = list(zip(*(data[g] for g in query.group_by)))
    else:
        keys = [()] * section["n_rows"]
    return dict(zip(keys, zip(*(data[a] for a in _agg_names(query)))))


def epochs_matching(section, batch, truth_by_epoch):
    """The committed epochs whose ground truth a wire section equals."""
    matching = set()
    for epoch, truth in truth_by_epoch.items():
        for query in batch:
            got = wire_table(section[query.name], query)
            expected = relation_to_table(
                truth[query.name], query.group_by, _agg_names(query)
            )
            if set(got) != set(expected) or not all(
                np.allclose(got[k], expected[k], rtol=1e-8, atol=1e-9)
                for k in expected
            ):
                break
        else:
            matching.add(epoch)
    return matching


@pytest.mark.timeout(300)
def test_http_histories_match_committed_epochs(toy_db):
    """N HTTP readers beside a root + dimension delta stream; the check
    runs offline, on what the clients recorded."""
    service = AnalyticsService(max_queue=256, cache_mb=8)
    service.register_dataset("toy", toy_db)
    batches = {name: WORKLOADS[name]() for name in WORKLOAD_NAMES}
    for name, batch in batches.items():
        service.register_workload("toy", name, batch)
    server, _thread = serve_in_background(service, port=0)
    port = server.server_address[1]
    AnalyticsClient(port=port).wait_ready(timeout=10)

    snapshots = {0: service.snapshot("toy").database}
    histories = [[] for _ in range(N_READERS)]  # (names, epoch, results)
    errors = []
    done = threading.Event()
    mix = [[name] for name in WORKLOAD_NAMES] + [list(WORKLOAD_NAMES)]
    executed_before_deltas = []

    def writer():
        client = AnalyticsClient(port=port)
        rng = np.random.default_rng(4)
        try:
            # every reader has read every workload at epoch 0, so each
            # is resident in its memo and no read is still executing
            wait_for_a_read_each(histories, errors, reads=len(mix))
            executed_before_deltas.append(
                service.stats()["datasets"]["toy"]["answers"]["executed"]
            )
            for step in range(N_DELTAS):
                database = snapshots[step]
                if step % 2 == 0:  # root: more rows in than out
                    fact = database.relation("Sales")
                    idx = rng.integers(0, fact.n_rows, 7)
                    ack = client.delta(
                        "toy",
                        "Sales",
                        inserts={
                            a: fact.column(a)[idx].tolist()
                            for a in fact.schema.names
                        },
                        delete_indices=[int(i) for i in rng.choice(
                            fact.n_rows, 4, replace=False
                        )],
                    )
                else:  # dimension: one more copy of a store's row
                    stores = database.relation("Stores")
                    ack = client.delta(
                        "toy",
                        "Stores",
                        inserts={
                            a: stores.column(a)[:1].tolist()
                            for a in stores.schema.names
                        },
                    )
                assert ack["epoch"] == step + 1
                snapshots[ack["epoch"]] = service.snapshot("toy").database
                # a whole turn of the mix: everybody's fused read too
                wait_for_a_read_each(histories, errors, reads=len(mix))
        except Exception as exc:  # noqa: BLE001 - surfaced after join
            errors.append(exc)
        finally:
            done.set()

    def reader(slot):
        client = AnalyticsClient(port=port)
        turn = slot
        try:
            while not done.is_set():
                names = mix[turn % len(mix)]
                turn += 1
                payload = client.query("toy", names, include_data=True)
                histories[slot].append(
                    (names, payload["epoch"], payload["results"])
                )
        except Exception as exc:  # noqa: BLE001 - surfaced after join
            errors.append(exc)

    threads = [threading.Thread(target=writer)] + [
        threading.Thread(target=reader, args=(slot,))
        for slot in range(N_READERS)
    ]
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(240)
        assert not any(thread.is_alive() for thread in threads)
        stats = service.stats()
        answers = stats["datasets"]["toy"]["answers"]
    finally:
        done.set()
        server.shutdown()
        server.server_close()
        service.close()
    assert not errors, errors
    assert len(snapshots) == N_DELTAS + 1

    # -- the offline check --------------------------------------------------
    truth = {
        name: {
            epoch: LMFAO(database).run(batch)
            for epoch, database in snapshots.items()
        }
        for name, batch in batches.items()
    }
    fused_seen = set()
    for history in histories:
        epochs = [epoch for _, epoch, _ in history]
        assert epochs == sorted(epochs), "a reader went back in time"
        for names, epoch, results in history:
            assert epoch in snapshots, f"uncommitted epoch {epoch}"
            assert list(results) == names
            for name in names:
                # equal to the claimed epoch's ground truth and to no
                # other's: each delta moves every workload's answer, so
                # a fragment of another epoch inside a fused response
                # could not pass for this one
                assert epochs_matching(
                    results[name], batches[name], truth[name]
                ) == {epoch}, (names, name, epoch)
            if len(names) > 1:
                fused_seen.add(epoch)
    assert fused_seen >= set(range(1, N_DELTAS + 1))
    # and only the reads before the first delta executed: each commit
    # published every resident workload's answer, so every later read,
    # the first after a commit included, was a lookup
    assert answers["memo_hits"] > 0
    assert answers["executed"] == executed_before_deltas[0]
    assert answers["published"] == N_DELTAS * len(WORKLOAD_NAMES)
    assert_stats_identities(stats)
