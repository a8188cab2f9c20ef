"""Crash recovery, black-box: SIGKILL the server, restart, verify.

The strongest durability claim the subsystem makes: kill the serving
process *without warning* (SIGKILL — no handlers, no draining, no
fsync-on-exit) in the middle of a delta stream, restart from the same
``--data-dir``, and the recovered epoch answers exactly what an offline
engine computes over the WAL-committed prefix of the stream.

Subprocess-based and therefore slow-lane; the CI ``recovery-smoke`` job
runs the same scenario on every push.
"""

import json
import os
import signal
import socket
import subprocess
import sys
import time

import numpy as np
import pytest

from repro.data import DeltaBatch
from repro.datasets import favorita
from repro.server import AnalyticsClient

pytestmark = [pytest.mark.slow, pytest.mark.timeout(600)]

SCALE = 0.05
REPO_SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(__file__))), "src"
)


def free_port():
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def start_server(data_dir, port):
    env = dict(os.environ)
    env["PYTHONPATH"] = REPO_SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "--scale",
            str(SCALE),
            "serve",
            "favorita",
            "--port",
            str(port),
            "--data-dir",
            data_dir,
        ],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
    )


def stop(proc):
    if proc.poll() is None:
        proc.kill()
    proc.wait(timeout=30)
    if proc.stdout is not None:
        proc.stdout.close()


def delta_stream(fact, n_deltas, rows_per_delta=4):
    """Deterministic insert payloads (JSON-able) drawn from real rows."""
    payloads = []
    for i in range(n_deltas):
        lo = (i * rows_per_delta) % max(1, fact.n_rows - rows_per_delta)
        payloads.append(
            {
                name: fact.column(name)[lo : lo + rows_per_delta].tolist()
                for name in fact.schema.names
            }
        )
    return payloads


def test_sigkill_recovers_every_committed_delta(tmp_path):
    data_dir = str(tmp_path / "data")
    port = free_port()
    ds = favorita(scale=SCALE)
    fact = ds.database.relation("Sales")
    payloads = delta_stream(fact, n_deltas=6)

    proc = start_server(data_dir, port)
    state = {"acked": 0}
    try:
        client = AnalyticsClient(port=port, retries=2)
        client.wait_ready(timeout=120)

        # stream deltas from a writer thread; SIGKILL lands mid-stream
        # (racing whatever commit is in flight at that moment)
        import threading

        def pound():
            try:
                for payload in payloads:
                    response = client.delta(
                        "favorita", "Sales", inserts=payload
                    )
                    state["acked"] = response["epoch"]
            except Exception:  # noqa: BLE001 - the kill severs the socket
                pass

        writer = threading.Thread(target=pound, daemon=True)
        writer.start()
        deadline = time.monotonic() + 120
        while (
            state["acked"] < 3
            and writer.is_alive()
            and time.monotonic() < deadline
        ):
            time.sleep(0.005)
    finally:
        # no draining, no fsync-on-exit: the hard way down
        if proc.poll() is None:
            proc.send_signal(signal.SIGKILL)
        stop(proc)
    writer.join(timeout=30)
    acknowledged = state["acked"]
    assert acknowledged >= 1

    # restart over the same data dir
    proc2 = start_server(data_dir, port)
    try:
        client = AnalyticsClient(port=port, retries=2)
        client.wait_ready(timeout=120)
        stats = client.stats()["datasets"]["favorita"]
        recovered_epoch = stats["epoch"]
        # every acknowledged commit was WAL'd before its epoch was
        # published, so recovery can never lose one
        assert recovered_epoch >= acknowledged
        recovery = stats["storage"]["recovery"]
        assert recovery is not None
        assert recovery["epoch"] == recovered_epoch

        served = client.query(
            "favorita", ["covar"], include_data=True
        )
        assert served["epoch"] == recovered_epoch
    finally:
        stop(proc2)

    # offline ground truth over exactly the recovered prefix
    from repro.__main__ import _build_workload

    from repro import LMFAO

    database = ds.database
    for payload in payloads[:recovered_epoch]:
        database = database.apply_delta(
            DeltaBatch.insert(
                "Sales",
                {
                    name: np.asarray(values).astype(
                        fact.column(name).dtype
                    )
                    for name, values in payload.items()
                },
            )
        ).database
    engine = LMFAO(database, ds.join_tree)
    batch = _build_workload(ds, engine, "covar")
    expected = engine.run(batch)

    wire = served["results"]["covar"]
    assert set(wire) == set(expected)
    for query_name, payload in wire.items():
        relation = expected[query_name]
        assert payload["n_rows"] == relation.n_rows, query_name
        for column in payload["columns"]:
            np.testing.assert_allclose(
                np.asarray(payload["data"][column]),
                relation.column(column),
                rtol=1e-9,
                atol=1e-9,
                err_msg=f"{query_name}.{column}",
            )


def test_restart_after_clean_boot_serves_warm_cache(tmp_path):
    """A restart with no deltas at all must also boot from storage and
    serve warm hits (the pure warm-start path, no WAL replay)."""
    data_dir = str(tmp_path / "data")
    port = free_port()

    proc = start_server(data_dir, port)
    try:
        client = AnalyticsClient(port=port, retries=2)
        client.wait_ready(timeout=120)
        client.query("favorita", ["covar"])
        stats = client.stats()["datasets"]["favorita"]
        assert stats["storage"]["spilled_entries"] > 0
    finally:
        stop(proc)

    proc2 = start_server(data_dir, port)
    try:
        client = AnalyticsClient(port=port, retries=2)
        client.wait_ready(timeout=120)
        first = client.query("favorita", ["covar"])
        assert first["epoch"] == 0
        stats = client.stats()["datasets"]["favorita"]
        assert stats["storage"]["warm_hits"] > 0
        assert stats["cache"]["misses"] == 0
        assert stats["storage"]["recovery"]["replayed_commits"] == 0
    finally:
        stop(proc2)
