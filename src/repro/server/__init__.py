"""The concurrent analytics service.

A long-running, thread-safe layer over the engine stack: one loaded
:class:`~repro.data.database.Database`, one
:class:`~repro.engine.viewcache.cache.ViewCache`, and one
:class:`~repro.engine.ivm.IncrementalEngine` per dataset, shared by
every request instead of rebuilt per process.  Reads get epoch-snapshot
isolation, writes stream in as :class:`~repro.data.database.DeltaBatch`
commits, and requests that queue up behind a running batch coalesce
into one batch that runs each distinct workload once.

* :mod:`~repro.server.service` — :class:`AnalyticsService`: epochs,
  workload registry, delta commits;
* :mod:`~repro.server.coalescer` — :class:`RequestCoalescer`:
  batching by backlog with queue-depth admission control;
* :mod:`~repro.server.http` — stdlib HTTP endpoints
  (``/query``, ``/delta``, ``/stats``, ``/healthz``);
* :mod:`~repro.server.client` — :class:`AnalyticsClient`, the blocking
  client the CLI and tests use: one keep-alive connection per calling
  thread (``retries=`` makes it honor the server's 503 + ``Retry-After``
  back-pressure).

With ``AnalyticsService(data_dir=...)`` the serving state is durable
(:mod:`repro.storage`): delta commits are write-ahead-logged before
their epoch publishes, registration restores snapshot + WAL replay,
and the per-dataset view cache spills to a persistent tier that
serves warm hits across restarts.
"""

from .client import AnalyticsClient, ClientError
from .coalescer import CoalescerStats, RequestCoalescer, ServiceOverloaded
from .http import (
    AnalyticsHTTPServer,
    make_http_server,
    serve_in_background,
)
from .service import (
    AnalyticsService,
    DeltaResponse,
    Epoch,
    QueryResponse,
)

__all__ = [
    "AnalyticsService",
    "AnalyticsClient",
    "AnalyticsHTTPServer",
    "ClientError",
    "CoalescerStats",
    "DeltaResponse",
    "Epoch",
    "QueryResponse",
    "RequestCoalescer",
    "ServiceOverloaded",
    "make_http_server",
    "serve_in_background",
]
