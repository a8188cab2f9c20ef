"""Dependency-counting scheduling of the view-group DAG.

Each node carries its unmet-input count; a node becomes ready the
instant the count reaches zero, and ready nodes run one at a time in a
deterministic order (sorted by ``repr`` as they unlock).  Results are
published through an ``on_result`` callback before any dependent runs,
so a group only ever reads views that are fully published.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Hashable, Iterable, List, Mapping, Optional


class DataflowScheduler:
    """Run a DAG of tasks in a deterministic topological order.

    The scheduler is agnostic to what a task does — backends decide how
    a node computes.
    """

    def run(
        self,
        dependencies: Mapping[Hashable, Iterable[Hashable]],
        task: Callable[[Hashable], Any],
        on_result: Optional[Callable[[Hashable, Any], None]] = None,
    ) -> Dict[Hashable, Any]:
        """Execute every node; returns {node: task(node) result}.

        ``dependencies`` maps each node to the nodes it reads from.
        ``on_result`` (if given) is called exactly once per node, after
        the node's task returns and before any dependent of the node
        starts.  Raises ``ValueError`` on unknown dependencies or
        cycles; a task exception stops the run and propagates.
        """
        indegree: Dict[Hashable, int] = {}
        dependents: Dict[Hashable, List[Hashable]] = {
            node: [] for node in dependencies
        }
        for node, deps in dependencies.items():
            deps = set(deps) - {node}  # self-loops would never fire
            indegree[node] = len(deps)
            for dep in deps:
                if dep not in dependents:
                    raise ValueError(
                        f"node {node!r} depends on unknown node {dep!r}"
                    )
                dependents[dep].append(node)

        ready = sorted(
            (n for n, count in indegree.items() if count == 0), key=repr
        )
        results: Dict[Hashable, Any] = {}
        while ready:
            node = ready.pop(0)
            result = task(node)
            results[node] = result
            if on_result is not None:
                on_result(node, result)
            unlocked = []
            for dependent in dependents[node]:
                indegree[dependent] -= 1
                if indegree[dependent] == 0:
                    unlocked.append(dependent)
            ready.extend(sorted(unlocked, key=repr))
        if len(results) != len(indegree):
            raise ValueError(
                f"dependency cycle: {len(indegree) - len(results)} of "
                f"{len(indegree)} nodes unreachable"
            )
        return results
