"""The executor subsystem: serial execution of planned view groups.

Three layers, composed by the :class:`repro.engine.engine.LMFAO` facade:

* :mod:`~repro.engine.executor.backend` — *how* one view group runs
  (:class:`InterpreterBackend` walks its step IR);
* :mod:`~repro.engine.executor.scheduler` — *when* each group runs
  (a deterministic topological loop over the group DAG);
* :mod:`~repro.engine.executor.store` — *where* materialized views live
  during a run (:class:`ViewStore`, a dict with ref-counted eviction).
"""

from .backend import GroupTask, InterpreterBackend
from .scheduler import DataflowScheduler
from .store import ViewStore

__all__ = [
    "DataflowScheduler",
    "GroupTask",
    "InterpreterBackend",
    "ViewStore",
]
