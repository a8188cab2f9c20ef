"""Step liveness: a group plan frees each var after its last reader.

``GroupPlan.frees`` is read off the steps once, when the plan is built;
the interpreter drops those vars from its environment and the rendered
source ``del``-s them.  One level up, ``EnginePlan.view_frees`` is read
off the groups by the same rule, and the group loop drops those views.
These tests hold both sound on every plan of the paper's four batches,
and hold a cold served run's memory to the plan's own bound.
"""

import tracemalloc

import pytest

from repro import LMFAO, IncrementalEngine
from repro.datasets import retailer
from repro.engine import codegen
from repro.engine.plan import (
    EmitStep,
    GroupPlan,
    GroupSumStep,
    MulStep,
    step_liveness,
)
from repro.ml import CovarBatch

from .helpers import assert_results_identical, output_view_ids, run_rendered
from .test_key_encodings import paper_batches
from .viewcache.test_fusion import regression_label

DATASETS = ["tiny_retailer", "tiny_favorita", "tiny_yelp", "tiny_tpcds"]


def engines(ds):
    """Default roots, and the serving shape: single-root with support."""
    return {
        "default": LMFAO(ds.database, ds.join_tree),
        "single-root": IncrementalEngine(ds.database, ds.join_tree).engine,
    }


def assert_liveness_sound(plan: GroupPlan) -> None:
    written, freed_at = set(), {}
    for i, (step, dead) in enumerate(zip(plan.steps, plan.frees)):
        for var in step.reads:
            assert var in written or var == "_n_rel", (
                f"{var} read before it is written at step {i}"
            )
            assert var not in freed_at, (
                f"{var} read at step {i}, freed after step {freed_at[var]}"
            )
        for var in step.writes:
            assert var not in written, f"{var} written twice"
            written.add(var)
        for var in dead:
            assert var in written and var not in freed_at, var
            freed_at[var] = i
    # every var dies, so nothing a plan writes outlives its run
    assert set(freed_at) == written
    held = peak = 0
    for step, dead in zip(plan.steps, plan.frees):
        held += len(step.writes)
        peak = max(peak, held)
        held -= len(dead)
    assert held == 0 and peak == plan.peak_live


def assert_view_frees_sound(plan) -> None:
    """The groups run front to back: no group reads a view before it
    is written or after it is freed, and exactly the views some group
    reads, less the outputs result assembly reads, are freed, once."""
    outputs = output_view_ids(plan)
    written, freed_at = set(), {}
    for i, (group_plan, dead) in enumerate(
        zip(plan.group_plans, plan.view_frees)
    ):
        for vid in group_plan.input_view_ids:
            assert vid in written, f"view {vid} read by group {i} unwritten"
            assert vid not in freed_at, (
                f"view {vid} read by group {i}, freed after group "
                f"{freed_at[vid]}"
            )
        written.update(group_plan.group.view_ids)
        for vid in dead:
            assert vid in written and vid not in freed_at, vid
            freed_at[vid] = i
    consumed = {
        vid
        for group_plan in plan.group_plans
        for vid in group_plan.input_view_ids
    }
    assert not outputs & set(freed_at)
    assert set(freed_at) == written - outputs == consumed - outputs


class TestSoundness:
    @pytest.mark.parametrize("fixture", DATASETS)
    def test_paper_batches_free_only_dead_vars(self, request, fixture):
        ds = request.getfixturevalue(fixture)
        n_plans = 0
        for engine in engines(ds).values():
            for batch in paper_batches(ds, engine):
                plan = engine.plan(batch)
                assert_view_frees_sound(plan)
                for group_plan in plan.group_plans:
                    assert_liveness_sound(group_plan)
                    n_plans += 1
        assert n_plans > 0

    def test_an_unread_output_dies_at_its_own_step(self):
        steps = [
            MulStep(out="p1", a="x", b=2.0),  # nobody reads p1
            GroupSumStep(
                out="s1", codes=None, keys=None, values=None, n_var="_n_rel"
            ),
            EmitStep(view_id=0, group_by=(), keys_var=None, agg_vars=("s1",)),
        ]
        frees, peak = step_liveness(steps)
        assert frees == (("p1",), (), ("s1",))
        assert peak == 1

    def test_a_scalar_sum_of_values_does_not_hold_the_context(self):
        # only a pure count reads the context length
        step = GroupSumStep(
            out="s", codes=None, keys=None, values="p", n_var="li"
        )
        assert step.reads == ("p",)
        count = GroupSumStep(
            out="s", codes=None, keys=None, values=None, n_var="li"
        )
        assert count.reads == ("li",)


class TestRenderedSource:
    """The rendered source, ``del`` lines included, is ``execute_plan``
    bit for bit."""

    @pytest.mark.parametrize("fixture", DATASETS)
    def test_paper_batches_render_dels_and_agree(self, request, fixture):
        ds = request.getfixturevalue(fixture)
        for engine in engines(ds).values():
            for batch in paper_batches(ds, engine):
                plan = engine.plan(batch)
                for group_plan in plan.group_plans:
                    source = codegen.render_source(group_plan)
                    dels = [
                        line for line in source.splitlines()
                        if line.strip().startswith("del ")
                    ]
                    assert len(dels) == sum(map(bool, group_plan.frees))
                assert_results_identical(
                    run_rendered(engine, batch), engine.run(batch)
                )


def cold_served_peak(scale):
    """(peak traced bytes per fact row, fact rows, plan's peak live)
    of one cold single-root covar run on retailer."""
    ds = retailer(scale=scale)
    engine = IncrementalEngine(ds.database, ds.join_tree)
    label = regression_label(ds)
    batch = CovarBatch(
        [f for f in ds.continuous_features if f != label],
        list(ds.categorical_features),
        label,
    ).batch
    plan = engine.engine.plan(batch)
    n_rows = ds.database.relation(engine.root).n_rows
    tracemalloc.start()
    try:
        engine.run(batch)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / n_rows, n_rows, max(p.peak_live for p in plan.group_plans)


class TestMemory:
    """A cold served run holds the plan's live arrays, not every step's
    output: its peak grows with fact rows, not aggregates x rows."""

    def test_cold_served_peak_is_linear_in_fact_rows(self):
        (small, n_small, live), (large, n_large, _) = (
            cold_served_peak(0.05),
            cold_served_peak(0.2),
        )
        assert n_large >= 3 * n_small
        assert max(small, large) / min(small, large) < 1.2, (small, large)
        # every live var is at most one 8-byte value per fact row; the
        # slack covers the views, the relation encodings and the kernels'
        # own temporaries
        slack = 4 << 20
        for per_row, n_rows in ((small, n_small), (large, n_large)):
            assert per_row * n_rows < 8 * live * n_rows + slack, (
                per_row, live
            )

