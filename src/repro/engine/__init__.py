"""The LMFAO engine: layered optimization and execution of aggregate batches."""

from .engine import LMFAO, BatchResult, EnginePlan
from .executor import DataflowScheduler, InterpreterBackend, ViewStore
from .explain import explain
from .grouping import GroupedPlan, ViewGroup, group_views
from .ivm import DeltaMaintenance, DeltaReport, IncrementalEngine
from .sql import render_batch_sql
from .pushdown import DecomposedBatch, Decomposer
from .roots import assign_roots, possible_roots
from .stats import PlanStatistics
from .viewcache import ViewCache, ViewSignature, view_signatures
from .viewcache.fusion import FusionReport, SessionResult, WorkloadSession
from .views import AggregateSpec, QueryOutput, View, ViewRef

__all__ = [
    "LMFAO",
    "BatchResult",
    "EnginePlan",
    "InterpreterBackend",
    "DataflowScheduler",
    "ViewStore",
    "ViewCache",
    "ViewSignature",
    "view_signatures",
    "WorkloadSession",
    "SessionResult",
    "FusionReport",
    "IncrementalEngine",
    "DeltaReport",
    "DeltaMaintenance",
    "PlanStatistics",
    "Decomposer",
    "DecomposedBatch",
    "assign_roots",
    "possible_roots",
    "group_views",
    "GroupedPlan",
    "ViewGroup",
    "View",
    "ViewRef",
    "AggregateSpec",
    "QueryOutput",
    "explain",
    "render_batch_sql",
]
