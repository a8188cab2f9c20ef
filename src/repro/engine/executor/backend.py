"""Execution backends: how one view group turns into materialized views.

The scheduler decides *when* a group runs; an :class:`ExecutionBackend`
decides *how*:

* :class:`InterpreterBackend` — walks the step IR directly (the AC/DC
  style "interpreted LMFAO", paper §4.1);
* :class:`CompiledBackend` — calls the specialized function generated by
  the Compilation layer (``codegen.py``), falling back to the
  interpreter for groups planned without code generation;
* :class:`ProcessBackend` — ships row partitions of the group's node
  relation to a ``multiprocessing`` pool where each worker compiles the
  group's *generated source* once and evaluates its partition.  The
  generated Python loops hold the GIL, so thread pools cannot speed up
  the compiled path — separate interpreters can.  Columns cross the
  process boundary as pickled ndarrays; partials merge by the
  distributive-SUM re-aggregation of
  :func:`repro.engine.executor.store.merge_partials`.

Thread-based backends also implement *domain parallelism* (the paper's
partition-the-largest-relations strategy) over relations above
``partition_threshold`` rows, each backend on its own private pool so a
group task waiting on partition futures can never deadlock against the
scheduler's task pool.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import threading
import weakref
from abc import ABC, abstractmethod
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Union

import numpy as np

from ...data.relation import Relation
from .. import codegen
from ..interpreter import ViewData, execute_plan
from ..plan import GroupPlan
from .store import merge_partials

#: default number of rows below which a relation is not worth partitioning
DEFAULT_PARTITION_THRESHOLD = 20_000


@dataclass
class GroupTask:
    """Everything a backend needs to evaluate one view group."""

    plan: GroupPlan
    relation: Relation
    incoming: Dict[int, ViewData]
    dyn: Sequence = ()
    compiled_fn: Optional[Callable] = None


def views_from_raw(raw: Dict[int, tuple]) -> Dict[int, ViewData]:
    """Convert a compiled group function's raw output to :class:`ViewData`.

    Support-tracking plans emit ``(group_by, keys, aggs, support)``;
    plain plans the historical 3-tuple.
    """
    out: Dict[int, ViewData] = {}
    for vid, emitted in raw.items():
        if len(emitted) == 4:
            group_by, keys, aggs, support = emitted
        else:
            group_by, keys, aggs = emitted
            support = None
        out[vid] = ViewData(
            group_by=group_by,
            key_cols=list(keys),
            agg_cols=[np.asarray(a, dtype=np.float64) for a in aggs],
            support=(
                None
                if support is None
                else np.asarray(support, dtype=np.float64)
            ),
        )
    return out


class ExecutionBackend(ABC):
    """Evaluates view groups; see the module docstring for the variants."""

    name: str = "abstract"

    @abstractmethod
    def run_group(self, task: GroupTask) -> Dict[int, ViewData]:
        """Materialize every view of one group; returns views by id."""

    def close(self) -> None:
        """Release worker pools (idempotent)."""

    def __enter__(self) -> "ExecutionBackend":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class InterpreterBackend(ExecutionBackend):
    """Interpret the step IR; optional thread-partitioned domain parallelism.

    NumPy releases the GIL inside its kernels, so threads overlap the
    join/aggregation work even though the step loop itself is Python.
    """

    name = "interpret"

    def __init__(
        self,
        n_threads: int = 1,
        partition_threshold: int = DEFAULT_PARTITION_THRESHOLD,
    ):
        self.n_threads = max(1, int(n_threads))
        self.partition_threshold = partition_threshold
        self._pool: Optional[ThreadPoolExecutor] = None
        self._pool_lock = threading.Lock()

    # the group runner: subclasses override to change single-partition
    # evaluation while inheriting the partitioning logic
    def _runner(self, task: GroupTask):
        def run(relation, incoming, dyn):
            return execute_plan(task.plan, relation, incoming, dyn)

        return run

    def run_group(self, task: GroupTask) -> Dict[int, ViewData]:
        runner = self._runner(task)
        n_parts = self._n_partitions(task.relation)
        if n_parts <= 1:
            return runner(task.relation, task.incoming, task.dyn)
        parts = partition_rows(task.relation, n_parts)
        pool = self._ensure_pool()
        futures = [
            pool.submit(runner, part, task.incoming, task.dyn)
            for part in parts
        ]
        return merge_partials([f.result() for f in futures])

    def _n_partitions(self, relation: Relation) -> int:
        if self.n_threads <= 1:
            return 1
        if relation.n_rows < max(self.partition_threshold, self.n_threads):
            return 1
        return self.n_threads

    def _ensure_pool(self) -> ThreadPoolExecutor:
        # scheduler worker threads may race into the first partitioned
        # group; without the lock two pools would be created and one
        # leaked past close()
        with self._pool_lock:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(max_workers=self.n_threads)
            return self._pool

    def close(self) -> None:
        with self._pool_lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)


class CompiledBackend(InterpreterBackend):
    """Run the specialized generated function of each group plan.

    Groups planned without code generation (``compiled_fn is None``)
    fall back to interpretation, so a partially compiled plan still
    executes end to end.
    """

    name = "compiled"

    def _runner(self, task: GroupTask):
        fn = task.compiled_fn
        if fn is None:
            return super()._runner(task)
        relation_attrs = task.plan.relation_attrs

        def run(relation, incoming, dyn):
            rel_cols = {
                name: relation.column(name) for name in relation_attrs
            }
            key_cols = {vid: vd.key_cols for vid, vd in incoming.items()}
            agg_cols = {vid: vd.agg_cols for vid, vd in incoming.items()}
            raw = fn(
                rel_cols,
                relation.encodings,
                relation.n_rows,
                key_cols,
                agg_cols,
                dyn,
            )
            return views_from_raw(raw)

        return run


class ProcessBackend(ExecutionBackend):
    """Evaluate partitions of large groups in separate processes.

    Workers receive the group's *generated source* (a string — closures
    from ``codegen.compile_plan`` do not pickle) plus their partition's
    columns, compile the source once per worker (cached by content), and
    return raw emitted tuples; the parent merges the partials.  Groups
    over small relations run in-process through a private
    :class:`CompiledBackend`, so process overhead is only ever paid
    where there is enough work to amortize it — as do groups whose
    dynamic-function table does not pickle (UDFs over local closures
    cannot cross the process boundary).
    """

    name = "process"

    def __init__(
        self,
        n_procs: Optional[int] = None,
        partition_threshold: int = DEFAULT_PARTITION_THRESHOLD,
        start_method: Optional[str] = None,
    ):
        self.n_procs = int(n_procs) if n_procs else (os.cpu_count() or 1)
        self.partition_threshold = partition_threshold
        if start_method is None:
            # never plain fork: the pool is created lazily, typically
            # from a scheduler worker thread, and forking a
            # multithreaded process can copy locks in their held state
            # into the children (deadlock; deprecated in CPython 3.12+).
            # forkserver forks from a separate single-threaded server.
            methods = multiprocessing.get_all_start_methods()
            start_method = (
                "forkserver" if "forkserver" in methods else "spawn"
            )
        self.start_method = start_method
        self._pool = None
        self._pool_lock = threading.Lock()
        self._finalizer = None
        self._local = CompiledBackend(
            n_threads=1, partition_threshold=partition_threshold
        )
        # keyed by plan identity, holding only a weak plan ref: entries
        # die with their plan instead of pinning every plan ever run
        self._source_cache: Dict[int, tuple] = {}

    def run_group(self, task: GroupTask) -> Dict[int, ViewData]:
        relation = task.relation
        if self.n_procs <= 1 or relation.n_rows < max(
            self.partition_threshold, self.n_procs
        ):
            return self._local.run_group(task)
        dyn = list(task.dyn)
        if dyn and not _picklable(dyn):
            # dynamic UDFs may wrap local closures that cannot cross the
            # process boundary; such groups run in-process instead
            return self._local.run_group(task)
        source = self._source(task.plan)
        key_cols = {
            vid: list(vd.key_cols) for vid, vd in task.incoming.items()
        }
        agg_cols = {
            vid: list(vd.agg_cols) for vid, vd in task.incoming.items()
        }
        pool = self._ensure_pool()
        futures = []
        for lo, hi in partition_bounds(relation.n_rows, self.n_procs):
            rel_cols = {
                name: relation.column(name)[lo:hi]
                for name in task.plan.relation_attrs
            }
            futures.append(
                pool.apply_async(
                    _process_worker_run,
                    (source, rel_cols, int(hi - lo), key_cols, agg_cols, dyn),
                )
            )
        partials = [views_from_raw(f.get()) for f in futures]
        return merge_partials(partials)

    def _source(self, plan: GroupPlan) -> str:
        entry = self._source_cache.get(id(plan))
        if entry is not None and entry[0]() is plan:
            return entry[1]
        cache = self._source_cache

        def drop_entry(_ref, plan_id=id(plan)):
            cache.pop(plan_id, None)

        self._source_cache[id(plan)] = (
            weakref.ref(plan, drop_entry),
            codegen.render_source(plan),
        )
        return self._source_cache[id(plan)][1]

    def _ensure_pool(self):
        # as for the thread backends: concurrent first-use from scheduler
        # workers must not fork two pools (one would leak past close())
        with self._pool_lock:
            if self._pool is None:
                ctx = multiprocessing.get_context(self.start_method)
                self._pool = ctx.Pool(processes=self.n_procs)
                self._finalizer = weakref.finalize(
                    self, _terminate_pool, self._pool
                )
            return self._pool

    def close(self) -> None:
        with self._pool_lock:
            finalizer, self._finalizer = self._finalizer, None
            self._pool = None
        if finalizer is not None:
            finalizer()  # terminates + joins the pool exactly once
        self._local.close()


def _picklable(obj) -> bool:
    try:
        pickle.dumps(obj)
        return True
    except Exception:
        return False


def partition_bounds(n_rows: int, n_parts: int) -> List[tuple]:
    """Even, non-empty ``[lo, hi)`` row ranges covering ``n_rows``."""
    bounds = np.linspace(0, n_rows, n_parts + 1, dtype=np.int64)
    return [
        (int(bounds[i]), int(bounds[i + 1]))
        for i in range(n_parts)
        if bounds[i] < bounds[i + 1]
    ]


def partition_rows(relation: Relation, n_parts: int) -> List[Relation]:
    """Split a relation into contiguous row partitions (zero-copy slices)."""
    return [
        relation.take(np.arange(lo, hi))
        for lo, hi in partition_bounds(relation.n_rows, n_parts)
    ]


#: per-worker cache of compiled group functions, keyed by source text
_WORKER_FNS: Dict[str, Callable] = {}


def _process_worker_run(source, rel_cols, n_rows, key_cols, agg_cols, dyn):
    """Pool worker: compile (cached) and evaluate one partition."""
    from ...data import ops  # workers resolve their own module state

    fn = _WORKER_FNS.get(source)
    if fn is None:
        namespace = {"np": np, "ops": ops}
        exec(  # noqa: S102 - the source is engine-generated
            compile(source, "<lmfao-process-group>", "exec"), namespace
        )
        fn = namespace["group_fn"]
        _WORKER_FNS[source] = fn
    # the partition's key columns are encoded here, not shipped
    rel_keys = ops.ColumnEncodings(rel_cols)
    return fn(rel_cols, rel_keys, n_rows, key_cols, agg_cols, dyn)


def _terminate_pool(pool) -> None:
    pool.terminate()
    pool.join()


#: backend specification: a name, an instance, or None (engine default)
BackendSpec = Union[str, ExecutionBackend, None]

_BACKEND_NAMES = ("interpret", "compiled", "process")


def make_backend(
    spec: BackendSpec,
    *,
    n_threads: int = 1,
    partition_threshold: int = DEFAULT_PARTITION_THRESHOLD,
    compile_enabled: bool = True,
) -> ExecutionBackend:
    """Resolve a backend spec to an instance.

    ``None`` picks :class:`CompiledBackend` or :class:`InterpreterBackend`
    from ``compile_enabled`` (the engine's historical ``compile=`` knob).
    For ``"process"``, ``n_threads > 1`` sets the worker count; otherwise
    every available core is used.
    """
    if isinstance(spec, ExecutionBackend):
        return spec
    if spec is None:
        spec = "compiled" if compile_enabled else "interpret"
    if spec in ("interpret", "interpreter"):
        return InterpreterBackend(
            n_threads=n_threads, partition_threshold=partition_threshold
        )
    if spec == "compiled":
        return CompiledBackend(
            n_threads=n_threads, partition_threshold=partition_threshold
        )
    if spec == "process":
        return ProcessBackend(
            n_procs=n_threads if n_threads > 1 else None,
            partition_threshold=partition_threshold,
        )
    raise ValueError(
        f"unknown backend {spec!r}; use one of {_BACKEND_NAMES} or an "
        "ExecutionBackend instance"
    )
