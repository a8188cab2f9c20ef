"""Dataflow scheduler: readiness ordering, determinism, diamonds, errors."""

import pytest

from repro.engine.executor import DataflowScheduler

DIAMOND = {"a": [], "b": ["a"], "c": ["a"], "d": ["b", "c"]}


def run_recording(dependencies, task=None):
    """Run a DAG recording completion order; returns (order, results)."""
    order = []
    results = DataflowScheduler().run(
        dependencies,
        task or (lambda node: node),
        lambda node, result: order.append(node),
    )
    return order, results


def assert_topological(order, dependencies):
    position = {node: i for i, node in enumerate(order)}
    for node, deps in dependencies.items():
        for dep in deps:
            assert position[dep] < position[node], (
                f"{dep!r} must complete before {node!r}; order={order}"
            )


class TestSerial:
    def test_diamond_order(self):
        order, results = run_recording(DIAMOND)
        assert set(order) == set(DIAMOND)
        assert_topological(order, DIAMOND)
        assert order[-1] == "d"
        assert results == {n: n for n in DIAMOND}

    def test_deterministic(self):
        orders = {tuple(run_recording(DIAMOND)[0]) for _ in range(5)}
        assert len(orders) == 1

    def test_chain_and_independent(self):
        deps = {0: [], 1: [0], 2: [1], 3: []}
        order, _ = run_recording(deps)
        assert_topological(order, deps)

    def test_empty_dag(self):
        assert DataflowScheduler().run({}, lambda n: n) == {}

    def test_results_returned(self):
        deps = {1: [], 2: [1]}
        results = DataflowScheduler().run(deps, lambda n: n * 10)
        assert results == {1: 10, 2: 20}

    def test_on_result_called_before_dependents_start(self):
        published = set()

        def task(node):
            for dep in DIAMOND[node]:
                assert dep in published, (
                    f"{node} started before {dep} was published"
                )
            return node

        DataflowScheduler().run(
            DIAMOND, task, lambda node, result: published.add(node)
        )
        assert published == set(DIAMOND)

    def test_ready_nodes_run_in_sorted_order(self):
        order, _ = run_recording({"c": [], "a": [], "b": []})
        assert order == ["a", "b", "c"]

    def test_unlocked_nodes_queue_behind_ready_ones(self):
        # a node unlocked by a finished task runs after every node that
        # was already ready: the order is a pure function of the DAG
        deps = {"slow": [], "c0": [], "c1": ["c0"], "c2": ["c1"]}
        order, _ = run_recording(deps)
        assert order == ["c0", "slow", "c1", "c2"]

    def test_wide_dag_runs_every_task_once(self):
        deps = {i: [] for i in range(20)}
        deps.update({100 + i: [i, (i + 1) % 20] for i in range(20)})
        calls = []

        def task(node):
            calls.append(node)
            return node

        order, results = run_recording(deps, task)
        assert len(results) == 40
        assert sorted(calls) == sorted(deps)
        assert_topological(order, deps)

    def test_self_loop_is_ignored(self):
        deps = {"a": ["a"], "b": ["a"]}
        order, _ = run_recording(deps)
        assert order == ["a", "b"]

    def test_repeated_dependency_counted_once(self):
        deps = {"a": [], "b": ["a", "a"], "c": ["b", "a", "b"]}
        order, _ = run_recording(deps)
        assert order == ["a", "b", "c"]


class TestErrors:
    @pytest.mark.parametrize(
        "dependencies",
        [
            {"a": ["b"], "b": ["a"], "c": []},
            {"a": ["c"], "b": ["a"], "c": ["b"]},
            {"root": [], "a": ["root", "b"], "b": ["a"], "leaf": ["b"]},
        ],
        ids=["two-cycle", "three-cycle", "cycle-below-a-root"],
    )
    def test_cycle_detected(self, dependencies):
        with pytest.raises(ValueError, match="cycle"):
            DataflowScheduler().run(dependencies, lambda n: n)

    def test_unknown_dependency(self):
        with pytest.raises(ValueError, match="unknown"):
            DataflowScheduler().run({"a": ["ghost"]}, lambda n: n)

    def test_unknown_dependency_rejected_before_any_task_runs(self):
        calls = []
        with pytest.raises(ValueError, match="unknown"):
            DataflowScheduler().run(
                {"a": [], "b": ["a"], "c": ["ghost"]}, calls.append
            )
        assert calls == []

    @pytest.mark.parametrize("failing", ["a", "b", "c"])
    def test_task_error_propagates(self, failing):
        deps = {"a": [], "b": ["a"], "c": ["b"]}
        started = []

        def task(node):
            started.append(node)
            if node == failing:
                raise RuntimeError("boom")
            return node

        published = []
        with pytest.raises(RuntimeError, match="boom"):
            DataflowScheduler().run(
                deps, task, lambda node, result: published.append(node)
            )
        # the run stops at the failing task: nothing after it starts and
        # the failing node is never published
        assert started[-1] == failing
        assert failing not in published
        assert published == started[:-1]
