"""The executor subsystem: pluggable execution of planned view groups.

Three layers, composed by the :class:`repro.engine.engine.LMFAO` facade:

* :mod:`~repro.engine.executor.backend` — *how* one view group runs
  (interpreted, compiled, or process-partitioned);
* :mod:`~repro.engine.executor.scheduler` — *when* each group runs
  (dependency-counting dataflow over the group DAG, no level barriers);
* :mod:`~repro.engine.executor.store` — *where* materialized views live
  (thread-safe :class:`ViewStore` with ref-counted eviction, and the
  distributive-SUM merge primitives delta repair shares with the
  partitioned backends).
"""

from .backend import (
    DEFAULT_PARTITION_THRESHOLD,
    BackendSpec,
    CompiledBackend,
    ExecutionBackend,
    GroupTask,
    InterpreterBackend,
    ProcessBackend,
    make_backend,
    partition_bounds,
    partition_rows,
    views_from_raw,
)
from .scheduler import DataflowScheduler
from .store import ViewStore, merge_partials, retire_dead_keys

__all__ = [
    "BackendSpec",
    "CompiledBackend",
    "DataflowScheduler",
    "DEFAULT_PARTITION_THRESHOLD",
    "ExecutionBackend",
    "GroupTask",
    "InterpreterBackend",
    "ProcessBackend",
    "ViewStore",
    "make_backend",
    "merge_partials",
    "partition_bounds",
    "partition_rows",
    "retire_dead_keys",
    "views_from_raw",
]
