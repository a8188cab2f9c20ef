"""AnalyticsClient bounded retry on 503 + Retry-After."""

import json
import threading
import time
import urllib.error
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from repro.server import AnalyticsClient, ClientError

pytestmark = pytest.mark.timeout(60)


class FlakyHandler(BaseHTTPRequestHandler):
    """Sheds the first ``shed_count`` requests with 503, then answers."""

    protocol_version = "HTTP/1.1"

    def log_message(self, *args):  # noqa: A002
        pass

    def _respond(self, status, payload, retry_after=None):
        body = json.dumps(payload).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if retry_after is not None:
            self.send_header("Retry-After", str(retry_after))
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self):  # noqa: N802
        state = self.server.state  # type: ignore[attr-defined]
        with state["lock"]:
            state["requests"] += 1
            drop = state["requests"] <= state.get("drop_count", 0)
            shed = state["requests"] <= state["shed_count"]
        if drop:
            # slam the connection shut without a response: the client
            # sees a transport failure, not an HTTP error
            self.close_connection = True
            self.connection.close()
            return
        if self.path != "/healthz":
            self._respond(404, {"error": f"no route {self.path!r}"})
        elif shed:
            self._respond(
                503,
                {"error": "queue full; retry later"},
                retry_after=state["retry_after"],
            )
        else:
            self._respond(200, {"status": "ok"})


@pytest.fixture(scope="module")
def shared_server():
    server = ThreadingHTTPServer(("127.0.0.1", 0), FlakyHandler)
    server.state = {}
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()


@pytest.fixture()
def flaky_server(shared_server):
    shared_server.state.clear()
    shared_server.state.update(
        {
            "lock": threading.Lock(),
            "requests": 0,
            "shed_count": 0,
            "drop_count": 0,
            "retry_after": "0.01",
        }
    )
    return shared_server


def client_for(server, **kwargs):
    _host, port = server.server_address[:2]
    return AnalyticsClient("127.0.0.1", port, **kwargs)


class TestRetryAfter:
    def test_default_fails_immediately_on_503(self, flaky_server):
        flaky_server.state["shed_count"] = 1
        client = client_for(flaky_server)
        with pytest.raises(ClientError) as info:
            client.healthz()
        assert info.value.status == 503
        assert info.value.retry_after == pytest.approx(0.01)
        assert flaky_server.state["requests"] == 1

    def test_bounded_retries_then_success(self, flaky_server):
        flaky_server.state["shed_count"] = 2
        client = client_for(flaky_server, retries=3)
        assert client.healthz() == {"status": "ok"}
        assert flaky_server.state["requests"] == 3

    def test_retries_exhausted_reraises_503(self, flaky_server):
        flaky_server.state["shed_count"] = 10
        client = client_for(flaky_server, retries=2)
        with pytest.raises(ClientError) as info:
            client.healthz()
        assert info.value.status == 503
        assert flaky_server.state["requests"] == 3  # 1 try + 2 retries

    def test_retry_after_header_is_honored(self, flaky_server):
        flaky_server.state["shed_count"] = 1
        flaky_server.state["retry_after"] = "0.2"
        client = client_for(flaky_server, retries=1)
        start = time.monotonic()
        client.healthz()
        assert time.monotonic() - start >= 0.2

    def test_retry_after_clamped_to_cap(self, flaky_server):
        flaky_server.state["shed_count"] = 1
        flaky_server.state["retry_after"] = "3600"
        client = client_for(
            flaky_server, retries=1, max_retry_after=0.05
        )
        start = time.monotonic()
        client.healthz()
        assert time.monotonic() - start < 2.0

    def test_unparsable_retry_after_defaults(self, flaky_server):
        flaky_server.state["shed_count"] = 1
        flaky_server.state["retry_after"] = "later"
        client = client_for(
            flaky_server, retries=1, max_retry_after=0.05
        )
        assert client.healthz() == {"status": "ok"}

    def test_non_503_errors_never_retry(self, flaky_server):
        client = client_for(flaky_server, retries=5)
        with pytest.raises(ClientError) as info:
            client._request("GET", "/not-a-route")
        assert info.value.status == 404
        assert flaky_server.state["requests"] == 1


class TestConnectionErrorRetry:
    """Transport failures retry under the same bounded budget as 503."""

    def test_dropped_connection_retries_then_success(self, flaky_server):
        flaky_server.state["drop_count"] = 2
        client = client_for(
            flaky_server, retries=3, max_retry_after=0.01
        )
        assert client.healthz() == {"status": "ok"}
        assert flaky_server.state["requests"] == 3

    def test_default_fails_immediately_on_drop(self, flaky_server):
        flaky_server.state["drop_count"] = 1
        client = client_for(flaky_server)
        with pytest.raises((ConnectionError, urllib.error.URLError)):
            client.healthz()
        assert flaky_server.state["requests"] == 1
        # the connection error was transient; the next call succeeds
        assert client.healthz() == {"status": "ok"}

    def test_exhausted_budget_reraises_transport_error(
        self, flaky_server
    ):
        flaky_server.state["drop_count"] = 10
        client = client_for(
            flaky_server, retries=2, max_retry_after=0.01
        )
        with pytest.raises((ConnectionError, urllib.error.URLError)):
            client.healthz()
        assert flaky_server.state["requests"] == 3  # 1 try + 2 retries

    def test_connection_refused_is_retryable(self, flaky_server):
        # bind-then-close leaves a port nothing listens on
        import socket

        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        client = AnalyticsClient(
            "127.0.0.1", port, retries=1, max_retry_after=0.01
        )
        with pytest.raises((ConnectionError, urllib.error.URLError)):
            client.healthz()

    def test_budget_is_shared_across_failure_kinds(self, flaky_server):
        # request 1 drops the connection, request 2 sheds with 503,
        # request 3 succeeds — one budget covers the mix
        flaky_server.state["drop_count"] = 1
        flaky_server.state["shed_count"] = 2
        client = client_for(
            flaky_server, retries=2, max_retry_after=0.01
        )
        assert client.healthz() == {"status": "ok"}
        assert flaky_server.state["requests"] == 3

    def test_http_errors_still_map_to_client_error(self, flaky_server):
        # HTTPError subclasses URLError: the transport clause must not
        # swallow real HTTP responses
        client = client_for(flaky_server, retries=1, max_retry_after=0.01)
        with pytest.raises(ClientError) as info:
            client._request("GET", "/not-a-route")
        assert info.value.status == 404
        assert flaky_server.state["requests"] == 1


class TestExecutionErrorIsNotRetried:
    def test_500_from_the_real_server_fails_once(self, toy_db):
        """A deterministic server-side failure is an HTTP answer, not a
        transport error: the retry budget is not spent repeating it."""
        from repro import AnalyticsService
        from repro.server import serve_in_background

        from ..engine.helpers import WORKLOADS

        service = AnalyticsService(cache_mb=8)
        service.register_dataset("toy", toy_db)
        service.register_workload("toy", "counts", WORKLOADS["counts"]())

        def broken(plan, dyn, **kwargs):
            raise RuntimeError("engine blew up")

        # every answer, fused or not, executes through here
        service._state("toy").engine.execute = broken
        server, _thread = serve_in_background(service, port=0)
        try:
            client = client_for(server, retries=3, max_retry_after=0.01)
            client.wait_ready(timeout=10)
            with pytest.raises(ClientError) as info:
                client.query("toy", ["counts"])
            assert info.value.status == 500
            assert service.coalescer.stats().submitted == 1
        finally:
            server.shutdown()
            server.server_close()
            service.close()
