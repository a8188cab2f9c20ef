"""Step-by-step codegen: each IR step renders to code that matches the
interpreter's semantics exactly."""

import numpy as np
import pytest

from repro.data import ops
from repro.engine.codegen import _render_gather, _render_group_sum, _render_step
from repro.engine.plan import (
    EmitStep,
    EncodeStep,
    FactorStep,
    Gather,
    GroupKeyStep,
    GroupSumStep,
    IndexStep,
    JoinStep,
    MulStep,
    ScalarViewStep,
)
from repro.query.functions import Delta, Identity


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


class TestGroupSumRendering:
    def test_grouped_sum(self):
        key_step = GroupKeyStep("codes", "keys", (("gc", "gu"),))
        sum_step = GroupSumStep(
            "agg", "codes", "keys", "vals", None, 1.0, ()
        )
        env = run_lines(
            _render_step(key_step) + _render_group_sum(sum_step),
            {
                "gc": np.array([1, 0, 1]),
                "gu": np.array([0, 1]),
                "vals": np.array([5.0, 7.0, 2.0]),
            },
        )
        assert env["agg"].tolist() == [7.0, 7.0]

    def test_grouped_count_with_coefficient(self):
        key_step = GroupKeyStep("codes", "keys", (("gc", "gu"),))
        sum_step = GroupSumStep(
            "agg", "codes", "keys", None, None, 3.0, ()
        )
        env = run_lines(
            _render_step(key_step) + _render_group_sum(sum_step),
            {"gc": np.array([0, 0, 1]), "gu": np.array([0, 1])},
        )
        assert env["agg"].tolist() == [6.0, 3.0]

    def test_scalar_sum_with_scalar_views(self):
        sum_step = GroupSumStep(
            "agg", None, None, "vals", "li", 2.0, ("s1",)
        )
        env = run_lines(
            _render_group_sum(sum_step),
            {"vals": np.array([1.0, 2.0]), "li": np.zeros(2), "s1": 10.0},
        )
        assert env["agg"].tolist() == [60.0]

    def test_scalar_count_from_relation_length(self):
        sum_step = GroupSumStep("agg", None, None, None, "_n_rel", 1.0, ())
        env = run_lines(_render_group_sum(sum_step), {"n_rel": 42})
        assert env["agg"].tolist() == [42.0]

    def test_scalar_view_step(self):
        step = ScalarViewStep("s1", 4, 0)
        env = run_lines(
            _render_step(step), {"agg_cols": {4: [np.array([9.5])]}}
        )
        assert env["s1"] == 9.5

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
