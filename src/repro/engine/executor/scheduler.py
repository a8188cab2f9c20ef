"""The group loop: a plan's view groups run front to back.

``GroupedPlan.groups`` lists every group after the groups whose views
it reads, so the list is the run order.  Which views die after each
group is read off once, when the plan is built
(``EnginePlan.view_frees``, by the
:func:`~repro.engine.plan.step_liveness` that frees a group's vars
after their last step): the loop drops them there, as the paper's
generated code (Figure 7) lets a local go out of scope after its last
use.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Container,
    Dict,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from ...data.database import Database
from ..interpreter import ViewData
from .backend import InterpreterBackend

if TYPE_CHECKING:
    from ..engine import EnginePlan
    from ..viewcache.cache import PatchRecipe, ViewCache
    from ..viewcache.signature import ViewSignature


class DataflowScheduler:
    """Runs an engine plan's view groups front to back."""

    def run(
        self,
        plan: EnginePlan,
        views: Dict[int, ViewData],
        backend: InterpreterBackend,
        database: Database,
        dyn: Sequence,
        skip: Container[int],
        cache: Optional[ViewCache],
        misses: Mapping[int, Tuple[ViewSignature, Optional[PatchRecipe]]],
    ) -> None:
        """Run every group of ``plan`` whose id is not in ``skip``.

        ``views`` holds the cache hits on entry and exactly the output
        views on return.  A view is popped after the last group that
        reads it; one of ``misses`` (this run's cache misses, with their
        signatures and repair recipes) then goes to ``cache.put``.
        """
        for group_plan, dead in zip(plan.group_plans, plan.view_frees):
            if group_plan.group.id not in skip:
                views.update(
                    backend.run_group(
                        group_plan,
                        database.relation(group_plan.node),
                        {vid: views[vid] for vid in group_plan.input_view_ids},
                        dyn,
                    )
                )
            for vid in dead:
                data = views.pop(vid)
                if vid in misses:
                    sig, recipe = misses[vid]
                    cache.put(sig, data, recipe=recipe, database=database)
