"""The HTTP front-end and blocking client, over an ephemeral port."""

import http.client
import json
import socket
import statistics
import threading
import time
import urllib.parse

import numpy as np
import pytest

from repro import LMFAO, AnalyticsService
from repro.__main__ import _build_workload
from repro.server import AnalyticsClient, ClientError, serve_in_background

from ..engine.helpers import WORKLOADS
from .helpers import assert_stats_identities
from .test_service import (
    assert_same_json,
    commit_stages,
    counting_cache_gets,
    fresh_results_payload,
)

pytestmark = pytest.mark.timeout(120)


@pytest.fixture()
def served(toy_db, tmp_path):
    service = AnalyticsService(
        cache_mb=8, data_dir=str(tmp_path)
    )
    service.register_dataset("toy", toy_db)
    for name, factory in WORKLOADS.items():
        service.register_workload("toy", name, factory())
    server, _thread = serve_in_background(service, port=0)
    host, port = server.server_address[:2]
    client = AnalyticsClient(host, port)
    client.wait_ready(timeout=10)
    yield service, client
    server.shutdown()
    server.server_close()
    service.close()


class TestSameShapedWorkloads:
    def test_two_clients_mixing_twin_workloads_never_fail(self, toy_db):
        # ``covar`` and ``linreg`` are the same batch under two names, so
        # the coalescer's fused sets {covar, trees} and {linreg, trees}
        # have one shape and differ only in query names; sharing one
        # cached plan between them made a third of such requests 404
        service = AnalyticsService(cache_mb=8)
        service.register_dataset("toy", toy_db)
        service.register_workload("toy", "covar", WORKLOADS["covar_style"]())
        service.register_workload("toy", "linreg", WORKLOADS["covar_style"]())
        service.register_workload("toy", "trees", WORKLOADS["groupbys"]())
        server, _thread = serve_in_background(service, port=0)
        host, port = server.server_address[:2]
        mix = (
            ["covar", "trees"],
            ["linreg", "trees"],
            ["covar"],
            ["linreg"],
            ["trees"],
            ["covar", "linreg", "trees"],
        )
        failures, answered = [], [0, 0]

        def reader(which):
            client = AnalyticsClient(host, port)
            for i in range(24):
                wanted = mix[(i + which) % len(mix)]
                try:
                    payload = client.query("toy", wanted)
                except ClientError as exc:
                    failures.append((wanted, exc.status, exc.message))
                    continue
                assert sorted(payload["results"]) == sorted(wanted)
                answered[which] += 1

        try:
            first = AnalyticsClient(host, port)
            first.wait_ready(timeout=10)
            # the collision itself, whatever the threads' timing does
            for wanted in mix[:2]:
                assert sorted(first.query("toy", wanted)["results"]) == wanted
            threads = [
                threading.Thread(target=reader, args=(which,))
                for which in (0, 1)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(100)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            server.shutdown()
            server.server_close()
            service.close()
        assert failures == []
        assert answered == [24, 24]
        assert service.coalescer.stats().failed == 0

    def test_twin_workloads_read_beside_a_delta_stream(self, tiny_retailer):
        """``linreg`` in a served read mix: two readers ask for covar,
        linreg, trees and their fused pairs while a writer commits root
        and dimension deltas.  No request fails, and every answer equals
        a fresh engine run at the epoch it claims, under its own
        workload's column names."""
        ds = tiny_retailer
        planner = LMFAO(ds.database, ds.join_tree)
        batches = {
            name: _build_workload(ds, planner, name)
            for name in ("covar", "linreg", "trees")
        }
        service = AnalyticsService(cache_mb=16)
        service.register_dataset("retailer", ds.database, ds.join_tree)
        for name, batch in batches.items():
            service.register_workload("retailer", name, batch)
        server, _thread = serve_in_background(service, port=0)
        host, port = server.server_address[:2]
        mix = (
            ["covar"],
            ["linreg"],
            ["trees"],
            ["covar", "trees"],
            ["linreg", "trees"],
            ["covar", "linreg"],
        )
        databases = {0: ds.database}
        answers, failures = [], []
        stop = threading.Event()

        def reader(which):
            client = AnalyticsClient(host, port)
            i = which
            while not stop.is_set() or i < which + 2 * len(mix):
                wanted = mix[i % len(mix)]
                i += 1
                try:
                    answers.append(
                        client.query("retailer", wanted, include_data=True)
                    )
                except Exception as exc:  # noqa: BLE001 - counted below
                    failures.append((wanted, exc))
            client.close()

        def writer():
            try:
                commit_stream()
            except Exception as exc:  # noqa: BLE001 - counted below
                failures.append(("delta", exc))
            stop.set()

        def commit_stream():
            client = AnalyticsClient(host, port)
            rng = np.random.default_rng(5)
            for step in range(8):
                relation = "Inventory" if step % 2 else "Items"
                payload = client.delta(
                    "retailer",
                    relation,
                    **retailer_delta(
                        service.snapshot("retailer").database.relation(
                            relation
                        ),
                        rng,
                    ),
                )
                epoch = service.snapshot("retailer")
                assert epoch.number == payload["epoch"]
                databases[epoch.number] = epoch.database
                time.sleep(0.02)
            client.close()

        try:
            AnalyticsClient(host, port).wait_ready(timeout=10)
            threads = [threading.Thread(target=writer)] + [
                threading.Thread(target=reader, args=(which,))
                for which in (0, 1)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(100)
            assert not any(thread.is_alive() for thread in threads)
            stats = service.stats()
        finally:
            stop.set()
            server.shutdown()
            server.server_close()
            service.close()
        assert failures == []
        assert service.coalescer.stats().failed == 0
        assert_stats_identities(stats)
        commit = stats["datasets"]["retailer"]["commit"]
        assert (commit["root"]["count"], commit["other"]["count"]) == (4, 4)
        assert len(databases) == 9
        expected = {}
        for payload in answers:
            epoch = payload["epoch"]
            for workload, served in payload["results"].items():
                key = (epoch, workload)
                if key not in expected:
                    expected[key] = LMFAO(
                        databases[epoch], ds.join_tree
                    ).run(batches[workload])
                want = expected[key]
                assert set(served) == set(want), key
                for query_name, relation in want.items():
                    got = served[query_name]
                    assert got["columns"] == list(relation.schema.names), (
                        key, query_name,
                    )
                    for column in got["columns"]:
                        np.testing.assert_allclose(
                            got["data"][column],
                            relation.column(column),
                            rtol=1e-8,
                            atol=1e-8,
                            err_msg=f"{key} {query_name}.{column}",
                        )
        assert {workload for _epoch, workload in expected} == set(batches)
        assert len({epoch for epoch, _workload in expected}) > 1


def retailer_delta(relation, rng, n=3):
    """A ``/delta`` body that retracts ``n`` rows of ``relation`` and
    inserts them back, their continuous attributes bumped: key sets
    stay, values move."""
    rows = rng.choice(relation.n_rows, n, replace=False)
    bump = float(rng.integers(1, 5))
    return {
        "inserts": {
            attr.name: (
                relation.column(attr.name)[rows]
                + (bump if attr.kind == "continuous" else 0)
            ).tolist()
            for attr in relation.schema
        },
        "delete_indices": sorted(int(i) for i in rows),
    }


class TestEndpoints:
    def test_healthz(self, served):
        _service, client = served
        payload = client.healthz()
        assert payload["status"] == "ok"
        assert payload["datasets"] == {"toy": 0}

    def test_query_round_trip_with_data(self, served):
        service, client = served
        payload = client.query("toy", ["counts"], include_data=True)
        assert payload["epoch"] == 0
        assert payload["batch_size"] >= 1
        # the wire payload carries the same values the in-process
        # service answers
        direct = service.query("toy", ["counts"], timeout=60)
        for query_name, wire in payload["results"]["counts"].items():
            relation = direct.results["counts"][query_name]
            assert wire["n_rows"] == relation.n_rows
            assert wire["columns"] == list(relation.schema.names)
            for column in wire["columns"]:
                assert np.allclose(
                    wire["data"][column], relation.column(column)
                )

    def test_query_without_data_is_counts_only(self, served):
        _service, client = served
        payload = client.query("toy", ["groupbys"])
        some = next(iter(payload["results"]["groupbys"].values()))
        assert "data" not in some and "n_rows" in some

    def test_delta_commits_and_next_query_sees_it(self, served, toy_db):
        service, client = served
        fact = toy_db.relation("Sales")
        row = {
            name: [fact.column(name)[0].item()]
            for name in fact.schema.names
        }
        payload = client.delta(
            "toy", "Sales", inserts=row, delete_indices=[0, 1, 2]
        )
        assert payload["epoch"] == 1
        assert payload["n_changes"] == 4
        assert payload["relations"] == ["Sales"]
        after = client.query("toy", ["counts"], include_data=True)
        assert after["epoch"] == 1
        count = after["results"]["counts"]["count"]["data"]["count"][0]
        assert count == fact.n_rows + 1 - 3

    def test_ivm_counters_and_maintenance_follow_the_delta_stream(
        self, served, toy_db
    ):
        """N root + M dimension deltas over a warm cache: every /delta
        response says how its delta was absorbed, and /stats adds up."""
        _service, client = served
        client.query("toy", ["groupbys"])
        client.query("toy", ["covar_style"])
        fact = toy_db.relation("Sales")
        row = {
            name: [fact.column(name)[0].item()]
            for name in fact.schema.names
        }
        stream = [
            ("Sales", {"inserts": row}),
            ("Stores", {"inserts": {"store": [6], "city": [2],
                                    "size": [88.0]}}),
            ("Sales", {"delete_indices": [0, 1]}),
            ("Oil", {"delete_indices": [0]}),
            ("Oil", {"inserts": {"date": [25], "price": [61.0]}}),
        ]
        modes = []
        for relation, change in stream:
            payload = client.delta("toy", relation, **change)
            assert payload["views_patched"] > 0, payload
            assert payload["views_evicted"] == 0, payload
            (record,) = payload["maintenance"]  # one entry per delta
            assert record["relation"] == relation
            assert record["seconds"] >= 0 and record["reason"] is None
            modes.append(record["mode"])
        # every delta merges at every level, the Oil retraction too:
        # the views' COUNT aggregates retire the keys it empties
        assert modes == ["incremental"] * 5
        ivm = client.stats()["datasets"]["toy"]["ivm"]
        assert ivm == {
            "deltas": 5,
            "incremental": 5,
            "fallbacks": 0,
            "last_fallback_reason": None,
        }

    def test_stats_reports_cache_and_coalescer(self, served):
        _service, client = served
        client.query("toy", ["counts"])
        payload = client.stats()
        assert payload["coalescer"]["submitted"] >= 1
        toy = payload["datasets"]["toy"]
        assert set(toy["cache"]) >= {"hits", "misses", "resident_bytes"}

    def test_unknown_dataset_is_404(self, served):
        _service, client = served
        with pytest.raises(ClientError) as info:
            client.query("nope", ["counts"])
        assert info.value.status == 404

    def test_unknown_workload_is_400_with_valid_names(self, served):
        service, client = served
        with pytest.raises(ClientError) as info:
            client.query("toy", ["nope"])
        assert info.value.status == 400
        # the error body names every workload that would have worked
        for name in service.workload_names("toy"):
            assert name in info.value.message

    def test_unknown_route_is_404(self, served):
        _service, client = served
        with pytest.raises(ClientError) as info:
            client._request("GET", "/nothing")
        assert info.value.status == 404

    def test_malformed_query_is_400(self, served):
        _service, client = served
        with pytest.raises(ClientError) as info:
            client._request("POST", "/query", {"dataset": "toy"})
        assert info.value.status == 400

    def test_non_numeric_timeout_is_400(self, served):
        _service, client = served
        with pytest.raises(ClientError) as info:
            client._request(
                "POST",
                "/query",
                {
                    "dataset": "toy",
                    "workloads": ["counts"],
                    "timeout": "5",
                },
            )
        assert info.value.status == 400

    def test_empty_delta_is_400(self, served):
        _service, client = served
        with pytest.raises(ClientError) as info:
            client.delta("toy", "Sales")
        assert info.value.status == 400

    @pytest.mark.parametrize(
        "relation, change",
        [
            ("Sales", {"delete_indices": [1.7]}),
            ("Sales", {"delete_indices": [True]}),
            ("Oil", {"inserts": {"date": [2.5], "price": [50.0]}}),
        ],
        ids=["fractional-index", "bool-index", "fractional-key"],
    )
    def test_delta_a_cast_would_change_is_400(self, served, relation, change):
        _service, client = served
        with pytest.raises(ClientError) as info:
            client.delta("toy", relation, **change)
        assert info.value.status == 400
        stats = client.stats()["datasets"]["toy"]
        assert stats["epoch"] == 0
        assert stats["storage"]["wal_len"] == 0


class TestHeldConnection:
    def test_keep_alive_reads_are_not_held_back(self, served):
        """Twenty reads on one held HTTP/1.1 connection.  The handler
        writes the headers and the body in two sends; with Nagle's
        algorithm on, the body waits for the client's delayed ACK of the
        headers, about 40 ms on Linux, on every response."""
        _service, client = served
        address = urllib.parse.urlsplit(client.base_url)
        body = json.dumps(
            {"dataset": "toy", "workloads": ["counts"], "include_data": True}
        )
        connection = http.client.HTTPConnection(
            address.hostname, address.port, timeout=30
        )
        seconds = []
        try:
            # the first read executes, the other twenty are memo hits
            for _ in range(21):
                start = time.perf_counter()
                connection.request(
                    "POST", "/query", body,
                    {"Content-Type": "application/json"},
                )
                response = connection.getresponse()
                payload = json.loads(response.read())
                seconds.append(time.perf_counter() - start)
                assert response.status == 200, payload
                assert payload["epoch"] == 0
        finally:
            connection.close()
        assert statistics.median(seconds[1:]) < 0.020, seconds


def exchange_raw(client, request):
    """Send raw bytes on a fresh connection; the bytes answered until
    the server closes it (a server that holds it open times out)."""
    address = urllib.parse.urlsplit(client.base_url)
    with socket.create_connection((address.hostname, address.port)) as sock:
        sock.settimeout(10)
        sock.sendall(request)
        reply = b""
        while chunk := sock.recv(65536):
            reply += chunk
    return reply


class TestUnreadBodyClosesTheConnection:
    """A body the handler leaves unread would be parsed as the next
    request: the server answers, then closes the connection, and the
    request sent behind it on the same socket gets no answer."""

    NEXT = b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"

    def assert_answered_once_then_closed(self, reply, status):
        head, _, body = reply.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 %d " % status), reply
        assert b"\r\nConnection: close" in head, reply
        assert reply.count(b"HTTP/1.1 ") == 1, reply
        return json.loads(body)

    def test_a_get_with_a_body(self, served):
        _service, client = served
        reply = exchange_raw(
            client,
            b"GET /healthz HTTP/1.1\r\nHost: x\r\nContent-Length: 8\r\n"
            b"\r\n" + b'{"x": 1}' + self.NEXT,
        )
        payload = self.assert_answered_once_then_closed(reply, 200)
        assert payload["status"] == "ok"
        assert client.healthz()["status"] == "ok"

    def test_a_chunked_post(self, served):
        _service, client = served
        body = json.dumps({"dataset": "toy", "workloads": ["counts"]})
        reply = exchange_raw(
            client,
            b"POST /query HTTP/1.1\r\nHost: x\r\n"
            b"Transfer-Encoding: chunked\r\n\r\n"
            + b"%x\r\n%s\r\n0\r\n\r\n" % (len(body), body.encode())
            + self.NEXT,
        )
        payload = self.assert_answered_once_then_closed(reply, 400)
        assert "Transfer-Encoding" in payload["error"]
        assert client.query("toy", ["counts"])["epoch"] == 0


class TestAnswerMemoOverTheWire:
    @pytest.mark.parametrize("include_data", [False, True])
    def test_bodies_equal_a_fresh_run_at_every_stage(
        self, served, include_data
    ):
        service, client = served
        gets = counting_cache_gets(service)
        for stage, views_cached in commit_stages(service):
            epoch = service.epoch("toy")
            for names in [[name] for name in WORKLOADS] + [list(WORKLOADS)]:
                first = client.query("toy", names, include_data=include_data)
                before = client.stats()["datasets"]["toy"]["answers"]
                probes = gets[0]
                again = client.query("toy", names, include_data=include_data)
                after = client.stats()["datasets"]["toy"]["answers"]
                assert after["memo_hits"] == before["memo_hits"] + 1, stage
                assert after["executed"] == before["executed"]
                assert gets[0] == probes
                assert after["encoded_bytes"] >= before["encoded_bytes"] > 0
                assert first["epoch"] == again["epoch"] == epoch
                assert (again["batch_size"], again["seconds"]) == (1, 0.0)
                assert again["results"] == first["results"]
                assert_same_json(
                    again["results"],
                    fresh_results_payload(service, names, include_data),
                    exact=views_cached,
                    where=f"{stage}/{names}",
                )


class TestErrorsAreAnswered:
    def test_execution_error_is_a_500_not_a_dropped_connection(
        self, served, capsys
    ):
        service, client = served

        def broken(plan, dyn, **kwargs):
            raise ZeroDivisionError("engine blew up")

        # every answer, fused or not, executes through here
        service._state("toy").engine.execute = broken
        with pytest.raises(ClientError) as info:
            client.query("toy", ["counts"])
        assert info.value.status == 500
        assert "ZeroDivisionError: engine blew up" in info.value.message
        assert "ZeroDivisionError" in capsys.readouterr().err  # traceback
        assert service.coalescer.stats().failed == 1
        # the server keeps answering
        assert client.healthz()["status"] == "ok"

    def test_closed_coalescer_is_a_500(self, served):
        service, client = served
        service.coalescer.close()
        with pytest.raises(ClientError) as info:
            client.query("toy", ["counts"])
        assert info.value.status == 500
        assert "coalescer is closed" in info.value.message

    @pytest.mark.parametrize("workloads", ["counts", {"counts": 1}, [1], 7])
    def test_workloads_must_be_a_list_of_names(self, served, workloads):
        _service, client = served
        with pytest.raises(ClientError) as info:
            client._request(
                "POST", "/query", {"dataset": "toy", "workloads": workloads}
            )
        assert info.value.status == 400
        assert "must be a list" in info.value.message
