"""repro — a Python reproduction of LMFAO (SIGMOD 2019).

LMFAO (Layered Multiple Functional Aggregate Optimization) is an
in-memory optimization and execution engine for batches of group-by
aggregates over joins of database relations, with analytics applications
(regression, decision trees, Chow-Liu trees, data cubes) built on top.

Quickstart::

    from repro import LMFAO, Database, Query, QueryBatch, Aggregate
    from repro.datasets import favorita

    dataset = favorita(scale=0.1)
    engine = LMFAO(dataset.database, dataset.join_tree)
    batch = QueryBatch([
        Query("count", [], [Aggregate.count()]),
        Query("by_family", ["family"], [Aggregate.of("units")]),
    ])
    results = engine.run(batch)
"""

import ctypes
import os

from .data import (
    Attribute,
    Database,
    DeltaBatch,
    Relation,
    Schema,
    materialize_join,
)
from .engine import (
    LMFAO,
    DeltaReport,
    IncrementalEngine,
    PlanStatistics,
    ViewCache,
    WorkloadSession,
)
from .jointree import JoinTree, join_tree_from_database
from .server import AnalyticsClient, AnalyticsService, ServiceOverloaded
from .storage import (
    CacheStore,
    DatasetStorage,
    WriteAheadLog,
    load_snapshot,
    write_snapshot,
)
from .query import (
    Aggregate,
    Constant,
    Delta,
    Exp,
    Identity,
    Log,
    Power,
    Product,
    Query,
    QueryBatch,
    Udf,
)

__version__ = "1.0.0"

__all__ = [
    "LMFAO",
    "AnalyticsService",
    "AnalyticsClient",
    "ServiceOverloaded",
    "IncrementalEngine",
    "ViewCache",
    "WorkloadSession",
    "DeltaBatch",
    "DeltaReport",
    "PlanStatistics",
    "Database",
    "Relation",
    "Schema",
    "Attribute",
    "materialize_join",
    "CacheStore",
    "DatasetStorage",
    "WriteAheadLog",
    "load_snapshot",
    "write_snapshot",
    "JoinTree",
    "join_tree_from_database",
    "Query",
    "QueryBatch",
    "Aggregate",
    "Product",
    "Constant",
    "Identity",
    "Power",
    "Delta",
    "Log",
    "Exp",
    "Udf",
]


def _pin_malloc_thresholds() -> None:
    """Fix glibc's allocator thresholds so every process behaves alike.

    The engine allocates and frees column-sized arrays on every batch.
    glibc adapts two thresholds as a process runs.  Freeing a mapped
    block larger than the mmap threshold raises it, so later blocks of
    that size come from the heap instead of a mapping of their own, and
    raises the trim threshold, above which free memory at the heap's top
    goes back to the system, to be faulted in again by the next batch.
    Which arrays share the heap, and how much of it is trimmed, then
    depend on the order of earlier frees: on identical work one process
    takes several times the page faults of the next, and its peak memory
    lands up to 20 MB away.  Pinned, blocks under 16 MB come from the
    heap and larger ones get their own mapping whatever ran before, so
    whether such a block fits a free hole never decides peak memory,
    and the heap keeps up to 64 MB (the adaptive ceiling) free instead
    of trimming between batches.  A process whose environment already
    configures the allocator is left alone.
    """
    if "CS_GNU_LIBC_VERSION" not in getattr(os, "confstr_names", {}):
        return
    if any(n == "GLIBC_TUNABLES" or n.startswith("MALLOC_") for n in os.environ):
        return
    libc = ctypes.CDLL(None)
    libc.mallopt(-3, 16 << 20)  # M_MMAP_THRESHOLD
    libc.mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD


_pin_malloc_thresholds()
