"""AnalyticsClient's held connections: one per thread, reused, dropped
and reopened when the server closes them, and the transport errors and
resend rules around them."""

import itertools
import json
import socket
import socketserver
import sys
import threading
import time

import pytest

from repro import AnalyticsService
from repro.server import AnalyticsClient, serve_in_background
from repro.server.http import AnalyticsRequestHandler

from ..engine.helpers import WORKLOADS

pytestmark = pytest.mark.timeout(60)


# -- a server that misbehaves on purpose ---------------------------------------


OK_REPLY = (
    b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
    b"Content-Length: 2\r\n\r\n{}"
)


class ScriptedHandler(socketserver.StreamRequestHandler):
    """Answers the first ``server.keep`` requests on a connection with
    ``OK_REPLY``; reads the next whole request, records it, writes the
    server's canned ``reply`` bytes (possibly none) and closes."""

    def handle(self):
        for served in itertools.count():
            request_line = self.rfile.readline()
            if not request_line:
                return
            length = 0
            while True:
                line = self.rfile.readline()
                if line in (b"\r\n", b""):
                    break
                name, _, value = line.decode("latin-1").partition(":")
                if name.strip().lower() == "content-length":
                    length = int(value)
            self.rfile.read(length)
            method, path, _version = request_line.decode("latin-1").split()
            with self.server.lock:
                self.server.requests.append((method, path))
            if served < self.server.keep:
                self.wfile.write(OK_REPLY)
            else:
                self.wfile.write(self.server.reply)
                return


@pytest.fixture()
def scripted():
    server = socketserver.ThreadingTCPServer(
        ("127.0.0.1", 0), ScriptedHandler
    )
    server.daemon_threads = True
    server.lock = threading.Lock()
    server.requests = []
    server.reply = b""
    server.keep = 0
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()


def client_for(server, **kwargs):
    return AnalyticsClient(
        "127.0.0.1", server.server_address[1], max_retry_after=0.01, **kwargs
    )


BAD_REPLIES = {
    "malformed-status-line": b"HTTP/1.1 two hundred OK\r\n\r\n",
    "body-shorter-than-content-length": (
        b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
        b"Content-Length: 100\r\n\r\n{\"status\": "
    ),
    "closed-mid-headers": (
        b"HTTP/1.1 200 OK\r\nContent-Type: applic"
    ),
}

CALLS = {
    "GET /healthz": lambda client: client.healthz(),
    "POST /query": lambda client: client.query("toy", ["counts"]),
    "POST /delta": lambda client: client.delta(
        "toy", "Sales", delete_indices=[0]
    ),
}


class TestTransportErrorContract:
    @pytest.mark.parametrize("reply", list(BAD_REPLIES), ids=list(BAD_REPLIES))
    @pytest.mark.parametrize("call", list(CALLS), ids=list(CALLS))
    def test_a_bad_response_is_an_os_error(self, scripted, reply, call):
        scripted.reply = BAD_REPLIES[reply]
        with pytest.raises(OSError):
            CALLS[call](client_for(scripted))
        assert scripted.requests == [tuple(call.split())]

    @pytest.mark.parametrize("reply", list(BAD_REPLIES), ids=list(BAD_REPLIES))
    @pytest.mark.parametrize("call", ["GET /healthz", "POST /query"])
    def test_a_read_is_retried(self, scripted, reply, call):
        scripted.reply = BAD_REPLIES[reply]
        with pytest.raises(OSError):
            CALLS[call](client_for(scripted, retries=1))
        assert scripted.requests == [tuple(call.split())] * 2

    @pytest.mark.parametrize("reply", list(BAD_REPLIES), ids=list(BAD_REPLIES))
    def test_a_delta_is_not_retried(self, scripted, reply):
        scripted.reply = BAD_REPLIES[reply]
        with pytest.raises(OSError):
            CALLS["POST /delta"](client_for(scripted, retries=1))
        assert scripted.requests == [("POST", "/delta")]


class TestDeltaIsSentOnce:
    def test_a_dropped_delta_is_not_committed_again(self, scripted):
        """The server read the whole ``/delta`` (it may have committed
        it) and dropped the connection: resending would commit the same
        rows again."""
        client = client_for(scripted, retries=2)
        with pytest.raises(ConnectionError):
            client.delta("toy", "Sales", delete_indices=[0])
        assert scripted.requests == [("POST", "/delta")]

    @pytest.mark.parametrize("call", ["GET /healthz", "POST /query"])
    def test_a_read_dropped_on_a_reused_connection_is_resent_free(
        self, scripted, call
    ):
        """The server closes each connection as its second request
        arrives, as when an idle timeout fires while the request is on
        its way: the read goes again on a new connection, and no retry
        budget is needed."""
        scripted.keep = 1
        client = client_for(scripted)
        for _ in range(3):
            assert CALLS[call](client) == {}
        assert scripted.requests == [tuple(call.split())] * 5

    def test_a_delta_dropped_on_a_reused_connection_is_not_resent(
        self, scripted
    ):
        scripted.keep = 1
        client = client_for(scripted, retries=2)
        assert client.delta("toy", "Sales", delete_indices=[0]) == {}
        with pytest.raises(ConnectionError):
            client.delta("toy", "Sales", delete_indices=[0])
        assert scripted.requests == [("POST", "/delta")] * 2

    def test_a_refused_delta_is_retried(self):
        # bind-then-close leaves a port nothing listens on: the request
        # never left, so it spends the budget like any other
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        client = AnalyticsClient(
            "127.0.0.1", port, retries=2, max_retry_after=0.01
        )
        start = time.monotonic()
        with pytest.raises(ConnectionRefusedError):
            client.delta("toy", "Sales", delete_indices=[0])
        assert time.monotonic() - start >= 0.02  # two pauses


# -- the real server -----------------------------------------------------------


def counting_accepts(server):
    """Patch ``server`` to record the address of every connection it
    accepts; returns the list."""
    accepted = []
    get_request = server.get_request

    def counting():
        request = get_request()
        accepted.append(request[1])
        return request

    server.get_request = counting
    return accepted


@pytest.fixture()
def real(toy_db):
    service = AnalyticsService(cache_mb=8)
    service.register_dataset("toy", toy_db)
    for name, factory in WORKLOADS.items():
        service.register_workload("toy", name, factory())
    server, _thread = serve_in_background(service, port=0)
    accepted = counting_accepts(server)
    client = AnalyticsClient(*server.server_address[:2])
    yield server, client, accepted
    client.close()
    server.shutdown()
    server.server_close()
    service.close()


class TestHeldConnections:
    def test_one_thread_reads_over_one_connection(self, real):
        _server, client, accepted = real
        first = client.query("toy", ["counts"], include_data=True)
        for _ in range(19):
            again = client.query("toy", ["counts"], include_data=True)
            assert again["results"] == first["results"]
        assert len(accepted) == 1

    @pytest.mark.parametrize("n_threads", [2, 5])
    def test_each_thread_holds_its_own_connection(self, real, n_threads):
        """Threads sharing one client, as the benchmark's ``serve_mixed``
        writer and main thread do; five threads (more than the cores) on
        a short switch interval stress the client's shared state."""
        _server, client, accepted = real
        names = ["counts", "groupbys"]
        reference = client.query("toy", names, include_data=True)
        wrong, answered = [], []

        def reader():
            for _ in range(50):
                payload = client.query("toy", names, include_data=True)
                if (payload["epoch"], payload["results"]) != (
                    0, reference["results"]
                ):
                    wrong.append(payload)
                answered.append(1)

        others = [threading.Thread(target=reader) for _ in range(n_threads - 1)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in others:
                thread.start()
            reader()
            for thread in others:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in others)
        assert (len(answered), wrong) == (50 * n_threads, [])
        assert len(accepted) == n_threads

    def test_an_idle_connection_the_server_closed_is_reopened(
        self, real, monkeypatch
    ):
        monkeypatch.setattr(AnalyticsRequestHandler, "timeout", 0.2)
        _server, client, accepted = real
        first = client.query("toy", ["counts"])
        time.sleep(0.6)  # the handler times out and closes
        assert client.retries == 0
        assert client.query("toy", ["counts"])["results"] == first["results"]
        time.sleep(0.6)
        # a delta may go out on a new connection: the probe found the
        # held one closed before anything was sent
        ack = client.delta("toy", "Sales", delete_indices=[0])
        assert ack["epoch"] == 1
        assert len(accepted) == 3

    def test_close_releases_the_connections(self, real):
        server, client, accepted = real
        with client:
            client.healthz()
        deadline = time.monotonic() + 10
        while server._connections and time.monotonic() < deadline:
            time.sleep(0.01)
        assert not server._connections  # the handler saw the close
        client.healthz()
        assert len(accepted) == 2

    def test_a_closed_server_refuses_a_held_connection(self, real):
        server, client, _accepted = real
        client.query("toy", ["counts"])
        server.shutdown()
        server.server_close()
        with pytest.raises(ConnectionError):
            client.query("toy", ["counts"])
        with pytest.raises(ConnectionError):
            client.healthz()


class TestUnreadBodyClosesTheConnection:
    def test_an_oversized_content_length_is_answered_then_closed(self, real):
        server, _client, _accepted = real
        with socket.create_connection(server.server_address[:2]) as sock:
            sock.sendall(
                b"POST /query HTTP/1.1\r\nHost: x\r\n"
                b"Content-Length: 999999999\r\n\r\n{}"
            )
            sock.settimeout(10)
            reply = b""
            while chunk := sock.recv(65536):
                reply += chunk
        head, _, body = reply.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400 ")
        assert b"\r\nConnection: close" in head
        assert "Content-Length" in json.loads(body)["error"]
