"""The execution backend: how one view group turns into materialized views.

The scheduler decides *when* a group runs; :class:`InterpreterBackend`
decides *how*: it walks the group's step IR with
:func:`~repro.engine.interpreter.execute_plan` (the AC/DC style
"interpreted LMFAO", paper §4.1) — the same function view repair runs.
Every group the engine executes enters through
:meth:`InterpreterBackend.run_group`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence

from ...data.relation import Relation
from ..interpreter import ViewData, execute_plan
from ..plan import GroupPlan


@dataclass
class GroupTask:
    """Everything the backend needs to evaluate one view group."""

    plan: GroupPlan
    relation: Relation
    incoming: Dict[int, ViewData]
    dyn: Sequence = ()


class InterpreterBackend:
    """Interpret the step IR of each group plan."""

    def run_group(self, task: GroupTask) -> Dict[int, ViewData]:
        """Materialize every view of one group; returns views by id."""
        return execute_plan(task.plan, task.relation, task.incoming, task.dyn)
