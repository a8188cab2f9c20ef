"""Stdlib HTTP front-end for the :class:`AnalyticsService`.

Endpoints (all JSON):

* ``GET /healthz`` — liveness: registered datasets and their epochs;
* ``GET /stats`` — the service-wide report: snapshot-consistent view
  cache counters, coalescer batch-size stats, per-dataset epochs;
* ``POST /query`` — ``{"dataset": ..., "workloads": ["covar", ...],
  "include_data": false}``; answers with the committed epoch it was
  served from.  A repeat read within an epoch is a lookup: the service
  answers from the epoch's memo and the body is the envelope plus the
  workloads' already-serialised ``results`` fragments
  (:func:`query_response_body`) — ``"batch_size": 1, "seconds": 0.0``
  say nothing executed for it.  Otherwise the request blocks in the
  coalescer and ``batch_size``/``seconds`` describe the execution it
  shared;
* ``POST /delta`` — ``{"dataset": ..., "relation": ...,
  "inserts": {col: [...]}, "delete_indices": [...]}``; commits a new
  epoch and reports the IVM maintenance modes.  Before it answers, it
  serialises each answer the commit published in the forms the
  previous epoch's answer had been served in
  (:func:`encode_answers`), so the first read of the new epoch is a
  concatenation like every other.

Errors map to conventional status codes: unknown dataset/relation →
404, malformed requests → 400 (an unknown *workload* is malformed — the
400 body lists the valid names under ``valid_workloads``),
admission-control shedding → 503 (with ``Retry-After``), a timeout →
504, anything else that goes wrong while answering → 500 with the
error's type and message (never a dropped connection, which a retrying
client would take for a transport failure).

Built on :class:`http.server.ThreadingHTTPServer` only — no third-party
dependencies — which pairs naturally with the service's design: handler
threads block inside the coalescer while its single worker executes
coalesced batches, so concurrency lives at the admission layer, not in
the engine; memo hits never leave their handler thread.
"""

from __future__ import annotations

import json
import socket
import threading
import traceback
from dataclasses import replace
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional, Set, Tuple

import numpy as np

from ..data.database import DeltaBatch
from ..data.relation import Relation
from .coalescer import ServiceOverloaded
from .service import (
    AnalyticsService,
    QueryResponse,
    UnknownWorkloadError,
)

#: request body size cap (16 MiB) — a plain sanity bound, not a quota
MAX_BODY_BYTES = 16 << 20


def relation_payload(relation: Relation, include_data: bool) -> dict:
    out = {
        "n_rows": relation.n_rows,
        "columns": list(relation.schema.names),
    }
    if include_data:
        out["data"] = {
            name: relation.column(name).tolist()
            for name in relation.schema.names
        }
    return out


def _envelope(response: QueryResponse) -> dict:
    """Everything of a ``/query`` payload but ``results``, in wire order."""
    return {
        "dataset": response.dataset,
        "epoch": response.epoch,
        "batch_size": response.batch_size,
        "seconds": round(response.seconds, 6),
    }


def query_response_payload(
    response: QueryResponse, include_data: bool
) -> dict:
    return {
        **_envelope(response),
        "results": {
            workload: {
                query_name: relation_payload(relation, include_data)
                for query_name, relation in batch_result.items()
            }
            for workload, batch_result in response.results.items()
        },
    }


def encode_answers(response: QueryResponse, include_data: bool) -> None:
    """Serialise each of a response's answers not yet encoded in this
    form: its ``results`` entry goes through
    :func:`query_response_payload` and ``json.dumps`` once, and is kept
    on the :class:`~repro.server.service.Answer`."""
    fresh = {
        name: answer
        for name, answer in response.answers.items()
        if include_data not in answer.encoded
    }
    if fresh:
        payload = query_response_payload(
            replace(response, answers=fresh), include_data
        )
        for name, section in payload["results"].items():
            fresh[name].encoded[include_data] = json.dumps(section).encode()


def query_response_body(
    response: QueryResponse, include_data: bool
) -> bytes:
    """The ``/query`` response body: ``json.dumps`` of the payload, byte
    for byte, with each workload's ``results`` entry serialised once.

    The entry is kept on the :class:`~repro.server.service.Answer` it
    encodes (:func:`encode_answers`), so every later response that
    carries the same answer — the workload alone or as a member of any
    multi-workload request, at that epoch — is a concatenation.
    """
    encode_answers(response, include_data)
    return b"".join(
        (
            json.dumps(_envelope(response)).encode()[:-1],
            b', "results": {',
            b", ".join(
                json.dumps(name).encode() + b": " + answer.encoded[include_data]
                for name, answer in response.answers.items()
            ),
            b"}}",
        )
    )


def delta_from_payload(body: dict) -> Tuple[str, DeltaBatch]:
    dataset = body.get("dataset")
    relation = body.get("relation")
    if not dataset or not relation:
        raise ValueError("delta needs 'dataset' and 'relation'")
    inserts = body.get("inserts")
    if inserts is not None:
        if not isinstance(inserts, dict):
            raise ValueError("'inserts' must map column -> list of values")
        inserts = {
            name: np.asarray(values) for name, values in inserts.items()
        }
    delete_indices = body.get("delete_indices")
    if delete_indices is not None:
        # no cast: Relation.delete_rows rejects floats and bools rather
        # than truncating them onto some other row
        delete_indices = np.asarray(delete_indices)
    if inserts is None and delete_indices is None:
        raise ValueError(
            "delta needs 'inserts' and/or 'delete_indices'"
        )
    return dataset, DeltaBatch(
        relation=relation, inserts=inserts, delete_indices=delete_indices
    )


class AnalyticsRequestHandler(BaseHTTPRequestHandler):
    """Routes HTTP requests onto the owning server's service."""

    server_version = "repro-analytics/1.0"
    protocol_version = "HTTP/1.1"
    # a response is two sends: under Nagle, a held connection's body
    # waits ~40 ms for the client's delayed ACK of the headers
    disable_nagle_algorithm = True
    # seconds a socket operation may wait, above all the read of the next
    # request on a held connection: an idle client cannot pin a handler
    # thread forever (a timed-out handler closes its connection)
    timeout = 30.0

    # -- plumbing ----------------------------------------------------------

    @property
    def service(self) -> AnalyticsService:
        return self.server.service  # type: ignore[attr-defined]

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        if getattr(self.server, "verbose", False):  # pragma: no cover
            super().log_message(format, *args)

    def _send_json(
        self, status: int, payload: dict, retry_after: Optional[int] = None
    ) -> None:
        self._send_body(status, json.dumps(payload).encode(), retry_after)

    def _send_body(
        self, status: int, body: bytes, retry_after: Optional[int] = None
    ) -> None:
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if retry_after is not None:
            self.send_header("Retry-After", str(retry_after))
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def _read_body(self) -> dict:
        header = self.headers.get("Content-Length") or "0"
        try:
            length = int(header)
        except ValueError:
            length = -1
        encoding = self.headers.get("Transfer-Encoding")
        if encoding is not None or not 0 <= length <= MAX_BODY_BYTES:
            # the body stays unread, so the connection cannot frame the
            # next request: answer, then close it
            self.close_connection = True
            raise ValueError(
                f"request needs a Content-Length of at most "
                f"{MAX_BODY_BYTES} bytes and no Transfer-Encoding, got "
                f"Content-Length {header!r}, Transfer-Encoding {encoding!r}"
            )
        if length == 0:
            raise ValueError("request needs a JSON body")
        raw = self.rfile.read(length)
        body = json.loads(raw)
        if not isinstance(body, dict):
            raise ValueError("request body must be a JSON object")
        return body

    # -- routes ------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        if "Transfer-Encoding" in self.headers or (
            self.headers.get("Content-Length") or "0"
        ).strip() != "0":
            # no route reads a GET body: answer, then close (see
            # _read_body)
            self.close_connection = True
        path = self.path.split("?", 1)[0].rstrip("/") or "/"
        if path == "/healthz":
            service = self.service
            self._send_json(
                200,
                {
                    "status": "ok",
                    "datasets": {
                        name: service.epoch(name)
                        for name in service.datasets()
                    },
                },
            )
        elif path == "/stats":
            self._send_json(200, self.service.stats())
        else:
            self._send_json(404, {"error": f"no route {self.path!r}"})

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        path = self.path.split("?", 1)[0].rstrip("/")
        try:
            body = self._read_body()
            if path == "/query":
                self._handle_query(body)
            elif path == "/delta":
                self._handle_delta(body)
            else:
                self._send_json(404, {"error": f"no route {self.path!r}"})
        except ServiceOverloaded as exc:
            self._send_json(503, {"error": str(exc)}, retry_after=1)
        except UnknownWorkloadError as exc:
            # a misspelled workload is a malformed request against an
            # existing route — answer 400 and name what *would* work
            self._send_json(
                400,
                {"error": str(exc), "valid_workloads": exc.valid},
            )
        except KeyError as exc:
            self._send_json(404, {"error": str(exc.args[0])})
        except (ValueError, json.JSONDecodeError) as exc:
            self._send_json(400, {"error": str(exc)})
        except TimeoutError as exc:
            self._send_json(504, {"error": str(exc)})
        except ConnectionError:
            raise  # the peer is gone: nobody to answer
        except Exception as exc:  # noqa: BLE001 - the handler boundary
            # an engine error fanned out by the coalescer, a coalescer
            # closed under shutdown: answer instead of dropping the
            # socket, which a retrying client would take for a
            # transport failure and repeat
            traceback.print_exc()
            self._send_json(
                500, {"error": f"{type(exc).__name__}: {exc}"}
            )

    def _handle_query(self, body: dict) -> None:
        dataset = body.get("dataset")
        workloads = body.get("workloads") or (
            [body["workload"]] if body.get("workload") else None
        )
        if not dataset or not workloads:
            raise ValueError("query needs 'dataset' and 'workloads'")
        if not isinstance(workloads, list) or not all(
            isinstance(name, str) for name in workloads
        ):
            # a bare string would be iterated into characters
            raise ValueError(
                "'workloads' must be a list of workload names, got "
                f"{workloads!r}"
            )
        include_data = body.get("include_data", False)
        if not isinstance(include_data, bool):
            raise ValueError("'include_data' must be true or false")
        timeout = body.get("timeout")
        if timeout is not None and (
            isinstance(timeout, bool)
            or not isinstance(timeout, (int, float))
            or not 0 < timeout <= threading.TIMEOUT_MAX  # NaN fails too
        ):
            raise ValueError(
                "'timeout' must be a number of seconds > 0 and at most "
                f"{threading.TIMEOUT_MAX:g}"
            )
        response = self.service.query(dataset, workloads, timeout=timeout)
        self._send_body(200, query_response_body(response, include_data))

    def _handle_delta(self, body: dict) -> None:
        dataset, delta = delta_from_payload(body)
        response = self.service.apply_delta(dataset, delta)
        for include_data, answers in response.encode.items():
            published = QueryResponse(
                dataset, tuple(answers), response.epoch, answers
            )
            encode_answers(published, include_data)
        self._send_json(
            200,
            {
                "dataset": dataset,
                "epoch": response.epoch,
                "n_changes": response.report.n_changes,
                "relations": list(response.report.relations),
                "views_patched": response.report.views_patched,
                "views_evicted": response.report.views_evicted,
                "maintenance": [
                    {
                        "relation": m.relation,
                        "mode": m.mode,
                        "seconds": round(m.seconds, 6),
                        "reason": m.reason,
                    }
                    for m in response.report.maintenance
                ],
            },
        )


class AnalyticsHTTPServer(ThreadingHTTPServer):
    """A :class:`ThreadingHTTPServer` bound to one service instance.

    Clients hold their connections between requests, so the server
    keeps the set of open ones, and :meth:`server_close` shuts each
    down: a client's next request on it fails instead of reaching a
    service that is closing, and the handler threads end.
    """

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address, service: AnalyticsService, verbose=False):
        super().__init__(address, AnalyticsRequestHandler)
        self.service = service
        self.verbose = verbose
        self._connections: Set[socket.socket] = set()
        self._connections_lock = threading.Lock()

    def process_request(self, request, client_address):
        with self._connections_lock:
            self._connections.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request):
        with self._connections_lock:
            self._connections.discard(request)
        super().shutdown_request(request)

    def server_close(self) -> None:
        super().server_close()
        with self._connections_lock:
            connections = list(self._connections)
        for connection in connections:
            try:
                connection.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass  # its handler closed it meanwhile


def make_http_server(
    service: AnalyticsService,
    host: str = "127.0.0.1",
    port: int = 8080,
    *,
    verbose: bool = False,
) -> AnalyticsHTTPServer:
    """Bind (but do not start) the HTTP front-end; port 0 = ephemeral."""
    return AnalyticsHTTPServer((host, port), service, verbose=verbose)


def serve_in_background(
    service: AnalyticsService, host: str = "127.0.0.1", port: int = 0
) -> Tuple[AnalyticsHTTPServer, threading.Thread]:
    """Start an HTTP front-end on a daemon thread (tests/examples).

    Returns the bound server (``server.server_address`` carries the
    ephemeral port) and its thread; call ``server.shutdown()`` then
    ``server.server_close()`` to stop.
    """
    server = make_http_server(service, host, port)
    thread = threading.Thread(
        target=server.serve_forever, name="repro-http", daemon=True
    )
    thread.start()
    return server, thread
