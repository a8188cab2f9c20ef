"""Execution backends: how one view group turns into materialized views.

The scheduler decides *when* a group runs; a backend decides *how*:

* :class:`InterpreterBackend` — walks the step IR directly (the AC/DC
  style "interpreted LMFAO", paper §4.1); the reference every other
  path is tested against, and what view repair runs;
* :class:`CompiledBackend` — calls the specialized function the
  Compilation layer (``codegen.py``) generated for the group.

Both enter through :meth:`InterpreterBackend.run_group`, so every group
the engine executes passes through that one method.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence

import numpy as np

from ...data.relation import Relation
from ..interpreter import ViewData, execute_plan
from ..plan import GroupPlan


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


class InterpreterBackend:
    """Interpret the step IR of each group plan."""

    name = "interpret"

    def run_group(self, task: GroupTask) -> Dict[int, ViewData]:
        """Materialize every view of one group; returns views by id."""
        return self._evaluate(task)

    def _evaluate(self, task: GroupTask) -> Dict[int, ViewData]:
        return execute_plan(task.plan, task.relation, task.incoming, task.dyn)


class CompiledBackend(InterpreterBackend):
    """Run the specialized generated function of each group plan."""

    name = "compiled"

    def _evaluate(self, task: GroupTask) -> Dict[int, ViewData]:
        relation = task.relation
        raw = task.compiled_fn(
            {name: relation.column(name) for name in task.plan.relation_attrs},
            relation.encodings,
            relation.n_rows,
            {vid: vd.key_cols for vid, vd in task.incoming.items()},
            {vid: vd.agg_cols for vid, vd in task.incoming.items()},
            task.dyn,
        )
        return views_from_raw(raw)
