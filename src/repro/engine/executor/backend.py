"""The execution backend: how one view group turns into materialized views.

:class:`InterpreterBackend` walks a group's step IR with
:func:`~repro.engine.interpreter.execute_plan` (the AC/DC style
"interpreted LMFAO", paper §4.1) — the same function view repair runs.
Every group the engine executes enters through
:meth:`InterpreterBackend.run_group`.
"""

from __future__ import annotations

from typing import Dict, Sequence

from ...data.relation import Relation
from ..interpreter import ViewData, execute_plan
from ..plan import GroupPlan


class InterpreterBackend:
    """Interpret the step IR of each group plan."""

    def run_group(
        self,
        plan: GroupPlan,
        relation: Relation,
        incoming: Dict[int, ViewData],
        dyn: Sequence = (),
    ) -> Dict[int, ViewData]:
        """Materialize every view of one group; returns views by id."""
        return execute_plan(plan, relation, incoming, dyn)
