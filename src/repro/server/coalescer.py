"""Request coalescer that batches by backlog, with admission control.

Concurrent analytics requests are rarely unique: under load, many
callers ask for the same (or near-identical) workloads at the same
time.  The :class:`RequestCoalescer` turns that temporal locality into
*throughput* in the style of group commit: its single worker drains at
once whenever it is idle and a request is pending, taking every pending
request for the head-of-queue key as one batch and handing it to a
single ``execute`` call — for the analytics service that means each
distinct workload in the batch runs once, however many requests named
it — and the per-request results fan back out to each blocked caller.
Requests that arrive while a batch executes form the next batch.  No request ever waits for a clock: a lone request runs
immediately, and batches grow exactly as large as the backlog that
built up behind the previous one.

Admission control is a hard queue-depth cap: once ``max_queue``
requests are pending, further submissions are *shed* immediately with
:class:`ServiceOverloaded` (the HTTP layer maps this to ``503``)
instead of growing an unbounded backlog whose tail latency nobody
would ever see answered.  It also bounds a batch, so there is no
separate batch-size cap.

The coalescer is deliberately generic: it batches opaque payloads per
*key* (the service keys by dataset, since only requests over the same
data can share work) and never inspects them.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, List, Optional


class ServiceOverloaded(RuntimeError):
    """Admission control shed a request: the pending queue is full."""


@dataclass
class CoalescerStats:
    """Counters over the life of one :class:`RequestCoalescer`."""

    submitted: int = 0
    completed: int = 0
    failed: int = 0
    shed: int = 0
    timed_out: int = 0  # withdrawn by the caller before execution
    batches: int = 0
    max_batch: int = 0
    queue_depth: int = 0

    @property
    def mean_batch(self) -> float:
        return self.completed / self.batches if self.batches else 0.0

    def as_dict(self) -> Dict[str, Any]:
        return {
            "submitted": self.submitted,
            "completed": self.completed,
            "failed": self.failed,
            "shed": self.shed,
            "timed_out": self.timed_out,
            "batches": self.batches,
            "mean_batch": round(self.mean_batch, 3),
            "max_batch": self.max_batch,
            "queue_depth": self.queue_depth,
        }


class _Pending:
    """One submitted request waiting for its batch to execute."""

    __slots__ = ("key", "payload", "event", "result", "error")

    def __init__(self, key: str, payload: Any):
        self.key = key
        self.payload = payload
        self.event = threading.Event()
        self.result: Any = None
        self.error: Optional[BaseException] = None


class RequestCoalescer:
    """Fuse concurrent same-key requests into single ``execute`` calls.

    ``execute(key, payloads)`` receives every payload of one drained
    batch (all sharing ``key``) and must return one result per payload,
    in order.  It runs on the coalescer's single worker thread, so
    ``execute`` implementations need no internal batching locks.

    A batch is every request pending for the head-of-queue key when
    the worker is free, so a lone request executes at once and the
    requests that arrive while a batch runs form the next one.
    ``max_queue`` is the admission-control cap on total pending
    requests; submissions beyond it raise :class:`ServiceOverloaded`.
    """

    def __init__(
        self,
        execute: Callable[[str, List[Any]], List[Any]],
        *,
        max_queue: int = 64,
    ):
        if max_queue < 1:
            raise ValueError(f"max_queue must be >= 1, got {max_queue}")
        self._execute = execute
        self.max_queue = int(max_queue)
        self._queue: List[_Pending] = []
        self._lock = threading.Lock()
        self._arrived = threading.Condition(self._lock)
        self._stats = CoalescerStats()
        self._closed = False
        self._worker = threading.Thread(
            target=self._drain_loop, name="repro-coalescer", daemon=True
        )
        self._worker.start()

    # -- submission --------------------------------------------------------

    def submit(
        self, key: str, payload: Any, timeout: Optional[float] = None
    ) -> Any:
        """Enqueue one request and block until its batch has executed.

        Returns the per-request result, re-raises the batch's error, or
        raises :class:`ServiceOverloaded` / :class:`TimeoutError`.
        """
        item = _Pending(key, payload)
        with self._lock:
            if self._closed:
                raise RuntimeError("coalescer is closed")
            if len(self._queue) >= self.max_queue:
                self._stats.shed += 1
                raise ServiceOverloaded(
                    f"queue full ({self.max_queue} pending); retry later"
                )
            self._queue.append(item)
            self._stats.submitted += 1
            self._arrived.notify_all()
        if not item.event.wait(timeout):
            # withdraw from the queue so an abandoned request neither
            # occupies an admission slot nor burns an execution; if the
            # worker already drained it, the batch is in flight and the
            # worker counts its (discarded) outcome instead
            with self._lock:
                try:
                    self._queue.remove(item)
                except ValueError:
                    pass
                else:
                    self._stats.timed_out += 1
            raise TimeoutError(
                f"request for {key!r} not served within {timeout}s"
            )
        if item.error is not None:
            raise item.error
        return item.result

    # -- lifecycle ---------------------------------------------------------

    def stats(self) -> CoalescerStats:
        """One snapshot-consistent copy of the counters."""
        with self._lock:
            snapshot = replace(self._stats)
            snapshot.queue_depth = len(self._queue)
            return snapshot

    def close(self, timeout: float = 10.0) -> None:
        """Drain remaining requests, then stop the worker (idempotent)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._arrived.notify_all()
        self._worker.join(timeout)

    def __enter__(self) -> "RequestCoalescer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- the worker --------------------------------------------------------

    def _drain_loop(self) -> None:
        while True:
            batch = self._next_batch()
            if batch is None:
                return
            try:
                results = self._execute(
                    batch[0].key, [item.payload for item in batch]
                )
                if len(results) != len(batch):  # pragma: no cover - guard
                    raise RuntimeError(
                        f"execute returned {len(results)} results for "
                        f"{len(batch)} requests"
                    )
                for item, result in zip(batch, results):
                    item.result = result
                failed = 0
            except BaseException as error:  # noqa: BLE001 - fan the error out
                for item in batch:
                    item.error = error
                failed = len(batch)
            with self._lock:
                self._stats.batches += 1
                self._stats.completed += len(batch) - failed
                self._stats.failed += failed
                self._stats.max_batch = max(
                    self._stats.max_batch, len(batch)
                )
            for item in batch:
                item.event.set()

    def _next_batch(self) -> Optional[List[_Pending]]:
        """Every pending request for the head-of-queue key, as soon as
        one is pending; None when closed and drained."""
        with self._lock:
            while not self._queue:
                if self._closed:
                    return None
                self._arrived.wait()
            key = self._queue[0].key
            batch = [item for item in self._queue if item.key == key]
            self._queue = [item for item in self._queue if item.key != key]
            return batch
