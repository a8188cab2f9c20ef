"""The executor subsystem: serial execution of planned view groups.

Three layers, composed by the :class:`repro.engine.engine.LMFAO` facade:

* :mod:`~repro.engine.executor.backend` — *how* one view group runs
  (interpreted or compiled);
* :mod:`~repro.engine.executor.scheduler` — *when* each group runs
  (a deterministic topological loop over the group DAG);
* :mod:`~repro.engine.executor.store` — *where* materialized views live
  during a run (:class:`ViewStore`, a dict with ref-counted eviction,
  and the distributive-SUM merge primitives delta repair uses).
"""

from .backend import (
    CompiledBackend,
    GroupTask,
    InterpreterBackend,
    views_from_raw,
)
from .scheduler import DataflowScheduler
from .store import ViewStore, merge_partials, retire_dead_keys

__all__ = [
    "CompiledBackend",
    "DataflowScheduler",
    "GroupTask",
    "InterpreterBackend",
    "ViewStore",
    "merge_partials",
    "retire_dead_keys",
    "views_from_raw",
]
