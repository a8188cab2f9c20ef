"""In-memory span recorder and the table of timing wrappers.

The program has no tracing of its own yet, so the benchmark times the
calls *into* each layer from outside: every row of ``TARGETS`` names one
public function or method; ``install`` replaces it with a wrapper that
records a span (name, start, end, parent, op id, thread).  Names resolve
lazily — a target a later refactor removed is reported in ``absent`` and
its metrics read ``ABSENT``, never a crash.

A span's parent is the innermost open span of its own thread, or, for
the first span of a thread (HTTP handler, coalescer worker), the most
recently opened span still open anywhere: the traced run issues one op
at a time, so that span is the caller blocked on this thread's work.
Self time = duration − the durations of the direct children.
"""

from __future__ import annotations

import importlib
import threading
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Tuple

#: value reported for a metric whose wrapped target no longer exists
ABSENT = -1.0

#: (span name, "module:dotted.attribute") — patched where the name is
#: looked up, which for ``from x import f`` users is the importing module
TARGETS: Tuple[Tuple[str, str], ...] = (
    ("engine.run", "repro.engine.engine:LMFAO.run"),
    ("engine.plan", "repro.engine.engine:LMFAO.plan"),
    ("engine.viewcache.signature", "repro.engine.engine:LMFAO.view_signatures_for"),
    ("engine.assemble", "repro.engine.engine:LMFAO.assemble"),
    ("engine.executor.run_group", "repro.engine.executor.backend:InterpreterBackend.run_group"),
    ("engine.executor.run_group", "repro.engine.executor.backend:ProcessBackend.run_group"),
    ("engine.executor.scheduler", "repro.engine.executor.scheduler:DataflowScheduler.run"),
    ("data.ops.join_indices", "repro.data.ops:join_indices"),
    ("data.ops.factorize_rows", "repro.data.ops:factorize_rows"),
    ("data.ops.group_sums", "repro.data.ops:group_sums"),
    ("engine.viewcache.cache.get", "repro.engine.viewcache.cache:ViewCache.get"),
    ("engine.viewcache.cache.put", "repro.engine.viewcache.cache:ViewCache.put"),
    ("engine.viewcache.cache.on_delta", "repro.engine.viewcache.cache:ViewCache.on_delta"),
    # view repair re-runs group plans through the interpreter directly,
    # not through the engine's backend
    ("engine.viewcache.cache.run_plan", "repro.engine.viewcache.cache:execute_plan"),
    ("engine.viewcache.fusion", "repro.engine.viewcache.fusion:WorkloadSession.fused_batch"),
    ("engine.viewcache.session", "repro.engine.viewcache.fusion:WorkloadSession.run"),
    ("engine.ivm.apply_delta", "repro.engine.ivm:IncrementalEngine.apply_delta"),
    ("server.client", "repro.server.client:AnalyticsClient.query"),
    ("server.client", "repro.server.client:AnalyticsClient.delta"),
    ("server.http.handler", "repro.server.http:AnalyticsRequestHandler.do_POST"),
    ("server.http.serialize", "repro.server.http:query_response_payload"),
    ("server.service.query", "repro.server.service:AnalyticsService.query"),
    ("server.service.apply_delta", "repro.server.service:AnalyticsService.apply_delta"),
    ("server.coalescer.submit", "repro.server.coalescer:RequestCoalescer.submit"),
    ("storage.wal.append", "repro.storage.wal:WriteAheadLog.append"),
    ("storage.cachestore.save", "repro.storage.cachestore:CacheStore.save"),
    ("storage.cachestore.load", "repro.storage.cachestore:CacheStore.load"),
    ("storage.snapshot.load", "repro.storage.manager:load_snapshot"),
    ("storage.fsync", "os:fsync"),
    ("ml.linreg.train_ridge", "repro.ml:train_ridge"),
    ("ml.trees.fit", "repro.ml.trees:CARTLearner.fit"),
)


#: spans whose return value is kept, so that a memoised object returned
#: again can be told from a new one (identities of freed objects recur)
IDENTITY_SPANS = frozenset({"engine.plan", "engine.viewcache.signature"})


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "thread", "result")

    def __init__(self, name: str, start: float, parent: int, op: int, thread: int):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.op = op
        self.thread = thread
        self.result = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_row(self) -> list:
        return [
            self.name,
            round(self.start, 7),
            round(self.end, 7),
            self.parent,
            self.op,
            self.thread,
        ]


class Recorder:
    """Collects spans; one instance per traced run."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.enabled = False
        #: id of the script op in progress; -1 outside ops (set-up)
        self.op = -1
        self._open: List[int] = []  # indices of open spans, any thread
        self._local = threading.local()
        # a handler thread may still be closing its span when the client
        # opens the next op's
        self._lock = threading.Lock()

    def begin(self, name: str) -> int:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        with self._lock:
            if stack:
                parent = stack[-1]
            else:
                parent = self._open[-1] if self._open else -1
            index = len(self.spans)
            self.spans.append(
                Span(name, time.perf_counter(), parent, self.op, threading.get_ident())
            )
            self._open.append(index)
        stack.append(index)
        return index

    def finish(self, index: int, result: object = None) -> None:
        span = self.spans[index]
        span.end = time.perf_counter()
        if span.name in IDENTITY_SPANS:
            span.result = result
        self._local.stack.pop()
        with self._lock:
            self._open.remove(index)

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """A span around the benchmark's own code (ops, generators)."""
        if not self.enabled:
            yield
            return
        index = self.begin(name)
        try:
            yield
        finally:
            self.finish(index)

    def wrap(self, name: str, fn: Callable) -> Callable:
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            index = self.begin(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self.finish(index, result)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> List[float]:
        """Per span: duration minus its direct children's durations."""
        own = [span.duration for span in self.spans]
        for span in self.spans:
            if span.parent >= 0:
                own[span.parent] -= span.duration
        return [max(0.0, value) for value in own]

    def totals(self, first_op: int = 0) -> Dict[str, Tuple[float, float, int]]:
        """name -> (inclusive seconds, self seconds, calls), over the spans
        of ops ``first_op`` and later (set-up spans carry op -1)."""
        own = self.self_times()
        out: Dict[str, Tuple[float, float, int]] = {}
        for span, self_seconds in zip(self.spans, own):
            if span.op < first_op:
                continue
            total, exclusive, calls = out.get(span.name, (0.0, 0.0, 0))
            out[span.name] = (
                total + span.duration,
                exclusive + self_seconds,
                calls + 1,
            )
        return out


def _resolve(path: str):
    """(owner object, attribute name, current value) of a dotted target."""
    module_name, _, attr_path = path.partition(":")
    owner = importlib.import_module(module_name)
    parts = attr_path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1], getattr(owner, parts[-1])


def install(recorder: Recorder) -> Tuple[Callable[[], None], List[str]]:
    """Wrap every resolvable target; returns (uninstall, absent span names).

    A span name is absent only when *none* of its targets resolved.
    """
    undo: List[Tuple[object, str, object]] = []
    found: Dict[str, bool] = {}
    for name, path in TARGETS:
        found.setdefault(name, False)
        try:
            owner, attr, original = _resolve(path)
        except (ImportError, AttributeError):
            continue
        setattr(owner, attr, recorder.wrap(name, original))
        undo.append((owner, attr, original))
        found[name] = True

    def uninstall() -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return uninstall, [name for name, ok in found.items() if not ok]


def fresh_results(spans: List[Span], name: str) -> Tuple[List[Span], int]:
    """(the calls of a span that returned an object not returned before,
    the number of all its calls).

    ``LMFAO.plan`` and ``view_signatures_for`` return their memoised
    object on a hit, so a new identity is a miss / recompute.
    """
    seen = set()
    fresh = []
    calls = 0
    for span in spans:
        if span.name != name:
            continue
        calls += 1
        if id(span.result) not in seen:
            seen.add(id(span.result))
            fresh.append(span)
    return fresh, calls


def span_rows(recorder: Recorder) -> Dict[str, object]:
    return {
        "columns": ["name", "start", "end", "parent", "op", "thread"],
        "rows": [span.as_row() for span in recorder.spans],
    }
