"""Step-by-step codegen: each IR step renders to code that matches the
interpreter's semantics exactly."""

import numpy as np
import pytest

from repro.data import ops
from repro.engine.codegen import _render_gather, _render_group_sum, _render_step
from repro.engine.grouping import ViewGroup
from repro.engine.interpreter import ViewData, execute_plan
from repro.engine.plan import (
    EmitStep,
    EncodeStep,
    FactorStep,
    Gather,
    GroupKeyStep,
    GroupPlan,
    GroupRowsStep,
    GroupSumStep,
    IndexStep,
    JoinStep,
    MulStep,
)
from repro.query.functions import Delta, Identity

from .helpers import execute_rendered


def run_lines(lines, env):
    namespace = {"np": np, "ops": ops, "out": {}}
    namespace.update(env)
    exec("\n".join(lines), namespace)
    return namespace


class TestGatherRendering:
    def test_relation_column_direct(self):
        step = Gather("c1", ("rel", "price"), None)
        env = run_lines([_render_gather(step)], {"rel_cols": {"price": np.array([1.0, 2.0])}})
        assert env["c1"].tolist() == [1.0, 2.0]

    def test_relation_column_indexed(self):
        step = Gather("c1", ("rel", "price"), "ix")
        env = run_lines(
            [_render_gather(step)],
            {
                "rel_cols": {"price": np.array([1.0, 2.0, 3.0])},
                "ix": np.array([2, 0]),
            },
        )
        assert env["c1"].tolist() == [3.0, 1.0]

    def test_view_key_column(self):
        step = Gather("k1", ("viewkey", 7, 0), None)
        env = run_lines(
            [_render_gather(step)], {"key_cols": {7: [np.array([5, 6])]}}
        )
        assert env["k1"].tolist() == [5, 6]

    def test_view_agg_column_indexed(self):
        step = Gather("a1", ("viewagg", 3, 1), "ri")
        env = run_lines(
            [_render_gather(step)],
            {
                "agg_cols": {3: [np.zeros(2), np.array([1.5, 2.5])]},
                "ri": np.array([1, 1, 0]),
            },
        )
        assert env["a1"].tolist() == [2.5, 2.5, 1.5]


class TestJoinAndIndexRendering:
    def test_encode_relation_attribute_reads_the_memo(self):
        step = EncodeStep("kc", "ku", ("rel", "store"))
        encoded = ops.factorize(np.array([7, 3, 7]))
        env = run_lines(_render_step(step), {"rel_keys": {"store": encoded}})
        assert env["kc"] is encoded[0] and env["ku"] is encoded[1]

    def test_encode_view_key_column(self):
        step = EncodeStep("kc", "ku", ("viewkey", 7, 1))
        env = run_lines(
            _render_step(step),
            {"key_cols": {7: [np.array([0, 0]), np.array([9, 4])]}},
        )
        assert env["kc"].tolist() == [1, 0]
        assert env["ku"].tolist() == [4, 9]

    def test_join_step(self):
        step = JoinStep("li", "ri", (("lc", "lu"),), ("rk",))
        lk = np.array([1, 2, 2])
        lc, lu = ops.factorize(lk)
        env = run_lines(
            _render_step(step), {"lc": lc, "lu": lu, "rk": np.array([2, 3])}
        )
        assert (lk[env["li"]] == env["rk"][env["ri"]]).all()
        assert len(env["li"]) == 2

    def test_index_step(self):
        step = IndexStep("out", "arr", "idx")
        env = run_lines(
            _render_step(step),
            {"arr": np.array([10, 20, 30]), "idx": np.array([2, 2])},
        )
        assert env["out"].tolist() == [30, 30]


class TestFactorRendering:
    def test_static_inline(self):
        step = FactorStep(
            "f1", Delta("x", "<=", 2.0), (("x", "cx"),), None
        )
        env = run_lines(
            _render_step(step), {"cx": np.array([1.0, 3.0])}
        )
        assert env["f1"].tolist() == [1.0, 0.0]

    def test_dynamic_through_table(self):
        function = Delta("x", ">", 1.5, dynamic=True)
        step = FactorStep("f1", function, (("x", "cx"),), 0)
        env = run_lines(
            _render_step(step),
            {"cx": np.array([1.0, 3.0]), "dyn": [function]},
        )
        assert env["f1"].tolist() == [0.0, 1.0]

    def test_mul(self):
        step = MulStep("p", "a", "b")
        env = run_lines(
            _render_step(step),
            {"a": np.array([2.0, 3.0]), "b": np.array([4.0, 5.0])},
        )
        assert env["p"].tolist() == [8.0, 15.0]

    def test_mul_by_a_plan_time_constant(self):
        step = MulStep("p", "a", -2.5)
        env = run_lines(_render_step(step), {"a": np.array([2.0, 4.0])})
        assert env["p"].tolist() == [-5.0, -10.0]

    def test_mul_broadcasts_a_scalar_view_column(self):
        step = MulStep("p", "a", "s")
        env = run_lines(
            _render_step(step),
            {"a": np.array([2.0, 3.0]), "s": np.array([10.0])},
        )
        assert env["p"].tolist() == [20.0, 30.0]


class TestGroupSumRendering:
    def test_grouped_sum(self):
        key_step = GroupKeyStep("codes", "keys", (("gc", "gu"),))
        sum_step = GroupSumStep("agg", "codes", "keys", "vals", None)
        env = run_lines(
            _render_step(key_step) + [_render_group_sum(sum_step)],
            {
                "gc": np.array([1, 0, 1]),
                "gu": np.array([0, 1]),
                "vals": np.array([5.0, 7.0, 2.0]),
            },
        )
        assert env["agg"].tolist() == [7.0, 7.0]

    def test_grouped_count(self):
        key_step = GroupKeyStep("codes", "keys", (("gc", "gu"),))
        sum_step = GroupSumStep("agg", "codes", "keys", None, None)
        env = run_lines(
            _render_step(key_step) + [_render_group_sum(sum_step)],
            {"gc": np.array([0, 0, 1]), "gu": np.array([0, 1])},
        )
        assert env["agg"].tolist() == [2.0, 1.0]

    def test_scalar_sum(self):
        sum_step = GroupSumStep("agg", None, None, "vals", "li")
        env = run_lines(
            [_render_group_sum(sum_step)],
            {"vals": np.array([1.0, 2.0]), "li": np.zeros(2)},
        )
        assert env["agg"].tolist() == [3.0]

    def test_scalar_count_from_relation_length(self):
        sum_step = GroupSumStep("agg", None, None, None, "_n_rel")
        env = run_lines([_render_group_sum(sum_step)], {"n_rel": 42})
        assert env["agg"].tolist() == [42.0]

    def test_group_rows_step(self):
        key_step = GroupKeyStep("codes", "keys", (("gc", "gu"),))
        step = GroupRowsStep("rows", "codes", "keys")
        gc = np.array([1, 0, 1, 2])
        env = run_lines(
            _render_step(key_step) + _render_step(step),
            {"gc": gc, "gu": np.array([7, 8, 9])},
        )
        assert env["codes"][env["rows"]].tolist() == [0, 1, 2]

    def test_group_rows_step_on_an_empty_context(self):
        key_step = GroupKeyStep("codes", "keys", (("gc", "gu"),))
        step = GroupRowsStep("rows", "codes", "keys")
        env = run_lines(
            _render_step(key_step) + _render_step(step),
            {"gc": np.array([], dtype=np.int64), "gu": np.array([7, 8])},
        )
        assert env["rows"].tolist() == []

    def test_emit_step(self):
        step = EmitStep(5, ("g",), "keys", ("agg",))
        env = run_lines(
            _render_step(step),
            {"keys": [np.array([0, 1])], "agg": np.array([1.0, 2.0])},
        )
        assert 5 in env["out"]
        group_by, keys, aggs = env["out"][5]
        assert group_by == ("g",)
        assert aggs[0].tolist() == [1.0, 2.0]


class TestPostSumFactorsInBothRenderers:
    """A hand-built plan ``SUM(x) * V4[1][key] * V5[0] * 3`` grouped by the
    key: the generated source and the interpreter walk the same steps."""

    STEPS = [
        EncodeStep("kc", "ku", ("rel", "k")),
        Gather("vk", ("viewkey", 4, 0), None),
        JoinStep("li", "ri", (("kc", "ku"),), ("vk",)),
        IndexStep("kc2", "kc", "li"),
        GroupKeyStep("codes", "keys", (("kc2", "ku"),)),
        Gather("x", ("rel", "x"), "li"),
        GroupSumStep("sum1", "codes", "keys", "x", "li"),
        GroupRowsStep("rows", "codes", "keys"),
        IndexStep("gix", "ri", "rows"),
        Gather("g", ("viewagg", 4, 1), "gix"),
        MulStep("p1", "sum1", "g"),
        Gather("s", ("viewagg", 5, 0), None),
        MulStep("p2", "p1", "s"),
        MulStep("p3", "p2", 3.0),
        EmitStep(9, ("k",), "keys", ("p3",)),
    ]

    def test_interpreted_equals_generated(self):
        from repro.data.relation import Relation
        from repro.data.schema import Attribute, Schema

        k = np.array([2, 1, 2, 3, 1])  # 3 has no partner in view 4
        x = np.array([1.0, 2.0, 4.0, 8.0, 16.0])
        relation = Relation(
            "R",
            Schema(
                [
                    Attribute("k", "categorical", np.int64),
                    Attribute("x", "continuous", np.float64),
                ]
            ),
            {"k": k, "x": x},
        )
        incoming = {
            4: ViewData(
                ("k",),
                [np.array([1, 2])],
                [np.zeros(2), np.array([10.0, 100.0])],
            ),
            5: ViewData((), [], [np.array([0.5])]),
        }
        plan = GroupPlan(
            group=ViewGroup(id=0, node="R", view_ids=[9]),
            node="R",
            steps=self.STEPS,
            input_view_ids=(4, 5),
            relation_attrs=("k", "x"),
        )
        interpreted = execute_plan(plan, relation, incoming, [])[9]
        generated = execute_rendered(plan, relation, incoming, [])[9]
        for data in (interpreted, generated):
            assert data.key_cols[0].tolist() == [1, 2]
            # (2 + 16) * 10 * 0.5 * 3 and (1 + 4) * 100 * 0.5 * 3
            assert data.agg_cols[0].tolist() == [270.0, 750.0]
