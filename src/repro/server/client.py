"""A small blocking HTTP client for the analytics service.

Used by ``python -m repro client ...`` and the test suite; stdlib only
(:mod:`http.client`).  Each calling thread holds one keep-alive
connection, opened on its first request and reused for every later one,
so a warm read is one round trip.  Every method returns the decoded JSON
payload; non-2xx responses raise :class:`ClientError` carrying the HTTP
status and the server's error message, and every transport failure is an
:class:`OSError` (a :class:`ConnectionError` unless a socket timed out).
"""

from __future__ import annotations

import http.client
import json
import select
import threading
import time
import weakref
from typing import Dict, List, Optional, Sequence, Tuple


class ClientError(RuntimeError):
    """A non-2xx response from the analytics service."""

    def __init__(
        self,
        status: int,
        message: str,
        retry_after: Optional[float] = None,
    ):
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.message = message
        #: parsed ``Retry-After`` header (seconds), when the server sent one
        self.retry_after = retry_after


def _closed_by_peer(sock) -> bool:
    """Whether an idle held socket can be read from.  Between requests
    there is nothing to read but the server's FIN (or garbage), so a
    readable socket is not reusable — the probe urllib3 makes before
    reusing a pooled connection."""
    poller = select.poll()
    poller.register(sock, select.POLLIN)
    return bool(poller.poll(0))


class _Connection(http.client.HTTPConnection):
    """A held connection that closes its socket when it is collected:
    when the thread that held it ends, or its client goes away unclosed."""

    def __del__(self):
        self.close()


class AnalyticsClient:
    """Blocking JSON client for one service endpoint.

    The client may be shared between threads: each calling thread gets
    its own connection.  Before a held connection is reused, a
    zero-timeout poll checks that the server has not closed it (its idle
    timeout, a restart); if it has, the request goes out on a new one.
    ``close()``, or leaving a ``with AnalyticsClient(...)`` block, closes
    the connections of every thread; a later request opens a new one.

    ``retries`` (default 0: fail immediately) bounds how many times a
    request is retried, across *both* retryable failure kinds sharing
    the one budget:

    * HTTP 503 (admission-control shedding) — each retry honors the
      server's ``Retry-After`` header — the whole point of admission
      control is that the server names the backoff — clamped to
      ``max_retry_after`` seconds (missing/unparsable headers wait 1s);
    * transport failures (:class:`ConnectionError`: connection
      refused/reset, a malformed or cut-short response, a server
      mid-restart) — retried after a 1s pause, and re-raised once the
      budget is spent.  A request whose connection failed to open never
      left, so it may always go again.  Once its bytes may have reached
      the server, only a ``GET`` or a ``/query`` is resent: they change
      nothing, while a ``/delta`` the server already committed would
      commit its rows twice.

    A ``GET`` or ``/query`` that fails on a reused connection is resent
    once on a new connection before any of the budget is spent: the
    server may have closed the idle connection as the request left.  A
    socket timeout is not retried (the server is slow, not gone), and
    other HTTP errors are not load-shedding and repeat
    deterministically, so they never retry.
    """

    _HEADERS = {"Content-Type": "application/json"}

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8080,
        *,
        timeout: float = 60.0,
        retries: int = 0,
        max_retry_after: float = 5.0,
    ):
        self.host = host
        self.port = port
        self.base_url = f"http://{host}:{port}"
        self.timeout = timeout
        self.retries = max(0, int(retries))
        self.max_retry_after = float(max_retry_after)
        self._local = threading.local()
        # every thread's connection, for close(); a thread's connection
        # is collected, and so closed, when the thread ends
        self._open: weakref.WeakSet = weakref.WeakSet()
        self._lock = threading.Lock()

    def close(self) -> None:
        """Close the connections of every thread."""
        with self._lock:
            connections = list(self._open)
            self._open.clear()
        for connection in connections:
            connection.close()

    def __enter__(self) -> "AnalyticsClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- transport ---------------------------------------------------------

    def _connection(self) -> Tuple[http.client.HTTPConnection, bool]:
        """This thread's connection, and whether it carried a request
        before; opens one if the thread holds none or the server closed
        the held one."""
        held = getattr(self._local, "connection", None)
        if held is not None:
            if held.sock is not None and not _closed_by_peer(held.sock):
                return held, True
            self._drop(held)
        connection = _Connection(self.host, self.port, timeout=self.timeout)
        connection.connect()
        with self._lock:
            self._open.add(connection)
        self._local.connection = connection
        return connection, False

    def _drop(self, connection: http.client.HTTPConnection) -> None:
        connection.close()
        with self._lock:
            self._open.discard(connection)
        if getattr(self._local, "connection", None) is connection:
            self._local.connection = None

    def _exchange(
        self,
        connection: http.client.HTTPConnection,
        method: str,
        path: str,
        data: Optional[bytes],
    ) -> Tuple[http.client.HTTPResponse, bytes]:
        """Send one request and read its whole response."""
        try:
            connection.request(method, path, body=data, headers=self._HEADERS)
            response = connection.getresponse()
            if response.length is None and not response.chunked:
                # the service frames every body: one that ends where the
                # connection does cannot be told from one cut short
                raise ConnectionError(
                    f"response from {self.base_url} without a length"
                )
            raw = response.read()
        except OSError:
            self._drop(connection)
            raise
        except http.client.HTTPException as exc:
            self._drop(connection)
            raise ConnectionError(
                f"bad response from {self.base_url}: {exc!r}"
            ) from exc
        if response.will_close:
            self._drop(connection)
        return response, raw

    def _request(self, method: str, path: str, body: Optional[dict] = None):
        data = None if body is None else json.dumps(body).encode()
        idempotent = method == "GET" or path == "/query"
        may_resend = idempotent
        attempts_left = self.retries
        while True:
            connection = None
            try:
                connection, reused = self._connection()
                response, raw = self._exchange(connection, method, path, data)
            except OSError as exc:
                if connection is None:
                    # the connect failed: nothing was sent, so any
                    # request may go again
                    retryable = True
                elif not isinstance(exc, ConnectionError):
                    raise  # a socket timeout
                elif reused and may_resend:
                    may_resend = False
                    continue
                else:
                    retryable = idempotent
                if retryable and attempts_left > 0:
                    attempts_left -= 1
                    time.sleep(min(self.max_retry_after, 1.0))
                    continue
                raise
            if 200 <= response.status < 300:
                return json.loads(raw)
            message = f"HTTP Error {response.status}: {response.reason}"
            try:
                message = json.loads(raw).get("error", message)
            except Exception:  # noqa: BLE001 - non-JSON error body
                pass
            retry_after = self._parse_retry_after(
                response.getheader("Retry-After")
            )
            if response.status == 503 and attempts_left > 0:
                attempts_left -= 1
                time.sleep(
                    min(
                        self.max_retry_after,
                        1.0 if retry_after is None else retry_after,
                    )
                )
                continue
            raise ClientError(response.status, message, retry_after=retry_after)

    @staticmethod
    def _parse_retry_after(header: Optional[str]) -> Optional[float]:
        if header is None:
            return None
        try:
            return max(0.0, float(header))
        except ValueError:
            return None

    # -- endpoints ---------------------------------------------------------

    def healthz(self) -> Dict:
        return self._request("GET", "/healthz")

    def stats(self) -> Dict:
        return self._request("GET", "/stats")

    def query(
        self,
        dataset: str,
        workloads: Sequence[str],
        *,
        include_data: bool = False,
        timeout: Optional[float] = None,
    ) -> Dict:
        body = {
            "dataset": dataset,
            "workloads": list(workloads),
            "include_data": include_data,
        }
        if timeout is not None:
            body["timeout"] = timeout
        return self._request("POST", "/query", body)

    def delta(
        self,
        dataset: str,
        relation: str,
        *,
        inserts: Optional[Dict[str, List]] = None,
        delete_indices: Optional[List[int]] = None,
    ) -> Dict:
        body: Dict = {"dataset": dataset, "relation": relation}
        if inserts is not None:
            body["inserts"] = {
                name: list(values) for name, values in inserts.items()
            }
        if delete_indices is not None:
            body["delete_indices"] = list(delete_indices)
        return self._request("POST", "/delta", body)

    # -- convenience -------------------------------------------------------

    def wait_ready(self, timeout: float = 10.0) -> Dict:
        """Poll ``/healthz`` until the service answers (or time out)."""
        deadline = time.monotonic() + timeout
        last_error: Optional[Exception] = None
        while time.monotonic() < deadline:
            try:
                return self.healthz()
            except OSError as exc:
                last_error = exc
                time.sleep(0.05)
        raise TimeoutError(
            f"service at {self.base_url} not ready within {timeout}s: "
            f"{last_error}"
        )
