"""Post-sum factors: a view whose key the output group-by covers
multiplies the group's sums, not the context's rows.

Plan-shape tests pin down *where* each incoming view's payload is read
(once per output group, once per row, or as a broadcast scalar);
differential tests hold interpreter, generated code and the
materialized-join baseline to the same answers on every input shape the
rule has to survive.  Product-order tests hold what is left row by row
to sharing: the factors most aggregates share are multiplied first.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    LMFAO,
    Aggregate,
    Database,
    Delta,
    DeltaBatch,
    IncrementalEngine,
    Power,
    Product,
    Query,
    QueryBatch,
    Relation,
)
from repro.baselines import MaterializedEngine
from repro.data.schema import Schema, continuous, key
from repro.engine.grouping import ViewGroup
from repro.engine.interpreter import ViewData, execute_plan
from repro.engine.plan import (
    DotStep,
    FactorStep,
    Gather,
    GroupRowsStep,
    GroupSumStep,
    IndexStep,
    JoinStep,
    MulStep,
    build_group_plan,
)
from repro.engine.viewcache import ViewCache
from repro.engine.views import AggregateSpec, View, ViewRef
from repro.ml import CARTLearner
from repro.query.functions import Identity

from .helpers import (
    assert_results_equal,
    assert_results_identical,
    execute_rendered,
    relation_to_table,
    run_rendered,
)

# -- plan shape ----------------------------------------------------------------


def payload_gathers(plan):
    """[(Gather of an incoming view's aggregate column, how it is read)]:
    ``"group"`` once per output group, ``"row"`` once per context row,
    ``"scalar"`` as the view's own length-1 column."""
    rows_vars = {s.out for s in plan.steps if isinstance(s, GroupRowsStep)}
    group_index_vars = {
        s.out
        for s in plan.steps
        if isinstance(s, IndexStep) and s.idx in rows_vars
    }
    out = []
    for step in plan.steps:
        if isinstance(step, Gather) and step.origin[0] == "viewagg":
            if step.index is None:
                kind = "scalar"
            elif step.index in group_index_vars:
                kind = "group"
            else:
                kind = "row"
            out.append((step, kind))
    return out


def payload_reads(plan):
    """{view id: the ways the plan reads its aggregate columns}."""
    reads = {}
    for step, kind in payload_gathers(plan):
        reads.setdefault(step.origin[1], set()).add(kind)
    return reads


def row_level_vars(plan):
    """Vars holding one value per context row: whatever a GroupSumStep
    sums or a DotStep multiplies its payloads by, and everything
    multiplied into it."""
    by_out = {s.out: s for s in plan.steps if isinstance(s, MulStep)}
    pending = [s.values for s in plan.steps if isinstance(s, GroupSumStep)]
    pending += [s.prefix for s in plan.steps if isinstance(s, DotStep)]
    seen = set()
    while pending:
        var = pending.pop()
        if var is None or var in seen:
            continue
        seen.add(var)
        if var in by_out:
            pending.extend([by_out[var].a, by_out[var].b])
    return seen


class TestPlanShape:
    @pytest.fixture(scope="class")
    def rt_node_plan(self, tiny_retailer):
        ds = tiny_retailer
        engine = LMFAO(ds.database, ds.join_tree)
        continuous_features = [
            f for f in ds.continuous_features if f != ds.label
        ]
        batch = CARTLearner(
            engine,
            continuous_features,
            list(ds.categorical_features),
            ds.label,
            "regression",
        ).node_batch([])
        return engine.plan(batch)

    def _inventory_group(self, plan):
        views = plan.decomposed.views
        return max(
            (p for p in plan.group_plans if p.node == "Inventory"),
            key=lambda p: sum(
                len(views[v].aggregates) for v in p.group.view_ids
            ),
        )

    def test_a_thousand_aggregates_share_a_few_dozen_sums(self, rt_node_plan):
        views = rt_node_plan.decomposed.views
        group_plan = self._inventory_group(rt_node_plan)
        n_aggregates = sum(
            len(views[v].aggregates) for v in group_plan.group.view_ids
        )
        n_sums = sum(isinstance(s, GroupSumStep) for s in group_plan.steps)
        assert n_aggregates == 1032
        assert n_sums <= 70

    def test_a_payload_is_read_per_group_exactly_where_it_is_covered(
        self, rt_node_plan
    ):
        views = rt_node_plan.decomposed.views
        group_plan = self._inventory_group(rt_node_plan)
        expected = {}
        for out_id in group_plan.group.view_ids:
            group_by = set(views[out_id].group_by)
            for vid in views[out_id].referenced_view_ids():
                covered = group_by.issuperset(views[vid].group_by)
                expected.setdefault(vid, set()).add(
                    "group" if covered else "row"
                )
        # (dateid, locn) covers the views keyed (locn) and (dateid, locn)
        # but not (ksn); the (ksn) output covers only the (ksn) view
        assert {"group", "row"} in expected.values()
        assert payload_reads(group_plan) == expected
        # and no per-group payload is multiplied into a row-level product
        per_row = row_level_vars(group_plan)
        for step, kind in payload_gathers(group_plan):
            assert (step.out in per_row) == (kind == "row"), step

    def test_every_incoming_view_still_joins(self, rt_node_plan):
        group_plan = self._inventory_group(rt_node_plan)
        joined = {
            right_var
            for step in group_plan.steps
            if isinstance(step, JoinStep)
            for right_var in step.right_vars
        }
        own_key_columns = {
            step.out: step.origin[1]
            for step in group_plan.steps
            if isinstance(step, Gather) and step.origin[0] == "viewkey"
        }
        assert {own_key_columns[v] for v in joined} == set(
            group_plan.input_view_ids
        )

    def test_identical_sums_are_emitted_once(self, rt_node_plan):
        for group_plan in rt_node_plan.group_plans:
            sums = [
                (s.codes, s.values, s.n_var)
                for s in group_plan.steps
                if isinstance(s, GroupSumStep)
            ]
            assert len(sums) == len(set(sums))


# -- a hand-built group: covered + uncovered + scalar on one aggregate -----------


def hand_built_group():
    """``Q[a] = (SUM 3 * x * V0[1][a] * V1[0][b] * V2[0],
    SUM V0[0][a] * V1[0][b] * V2[0])`` at Fact(a, b, x)."""
    rng = np.random.default_rng(7)
    n = 40
    fact = Relation(
        "Fact",
        Schema([key("a"), key("b"), continuous("x")]),
        {
            "a": rng.integers(0, 6, n),  # 5 dangles: no partner in V0
            "b": rng.integers(0, 4, n),
            "x": np.round(rng.normal(0, 2, n), 2),
        },
    )
    views = [
        View(0, "Dim", "Fact", ("a",), [None, None]),
        View(1, "Other", "Fact", ("b",), [None]),
        View(2, "Lone", "Fact", (), [None]),
        View(
            3,
            "Fact",
            None,
            ("a",),
            [
                AggregateSpec(
                    3.0,
                    (Identity("x"),),
                    (ViewRef(0, 1), ViewRef(1, 0), ViewRef(2, 0)),
                ),
                AggregateSpec(
                    1.0, (), (ViewRef(0, 0), ViewRef(1, 0), ViewRef(2, 0))
                ),
            ],
        ),
    ]
    incoming = {
        0: ViewData(
            ("a",),
            [np.arange(5)],
            np.array([np.arange(5) + 1.0, [2.0, -1.0, 0.5, 4.0, 8.0]]),
        ),
        1: ViewData(("b",), [np.arange(4)], np.array([[1.0, 3.0, 0.0, -2.0]])),
        2: ViewData((), [], np.array([[0.25]])),
    }
    group = ViewGroup(id=0, node="Fact", view_ids=[3])
    return fact, views, incoming, group


class TestHandBuiltGroup:
    def test_each_view_is_read_where_its_key_allows(self):
        fact, views, _incoming, group = hand_built_group()
        plan = build_group_plan(group, views, fact, {})
        assert payload_reads(plan) == {
            0: {"group"},
            1: {"row"},
            2: {"scalar"},
        }
        # the scalar view has nothing to join on; the other two join
        assert sum(isinstance(s, JoinStep) for s in plan.steps) == 2
        # the coefficient is one more post-sum factor
        assert [s.b for s in plan.steps if isinstance(s, MulStep)].count(3.0) == 1

    @pytest.mark.parametrize("count", [None, 1])
    def test_interpreted_and_generated_equal_brute_force(self, count):
        """``count=1`` names the second aggregate the view's COUNT: the
        inputs' payload 0 then stands for their counts."""
        fact, views, incoming, group = hand_built_group()
        views[3].count = count
        plan = build_group_plan(group, views, fact, {})
        a, b, x = (fact.column(c) for c in ("a", "b", "x"))
        keep = a < 5
        want_sum = np.zeros(5)
        want_count = np.zeros(5)
        v0, v1, v2 = (incoming[i].sums for i in range(3))
        np.add.at(
            want_sum,
            a[keep],
            3.0 * x[keep] * v0[1][a[keep]] * v1[0][b[keep]] * v2[0][0],
        )
        np.add.at(
            want_count, a[keep], v0[0][a[keep]] * v1[0][b[keep]] * v2[0][0]
        )
        present = np.bincount(a[keep], minlength=5) > 0

        interpreted = execute_plan(plan, fact, incoming, [])[3]
        generated = execute_rendered(plan, fact, incoming, [])[3]
        for data in (interpreted, generated):
            assert data.key_cols[0].tolist() == np.flatnonzero(present).tolist()
            np.testing.assert_allclose(data.sums[0], want_sum[present], rtol=1e-12)
            np.testing.assert_allclose(data.sums[1], want_count[present], rtol=1e-12)
            assert data.count == count
        for got, want in zip(interpreted.sums, generated.sums):
            np.testing.assert_array_equal(got, want)


# -- product order: the factors most aggregates share are folded first ----------


def shared_factor_group(k):
    """``Q[a] = (SUM 1[x <= t_i] * x * y * V0[0][b] for i < k)`` at
    Fact(a, b, x, y): the k aggregates share every row factor but their
    own condition, whose signature sorts before all the shared ones."""
    rng = np.random.default_rng(11)
    n = 50
    fact = Relation(
        "Fact",
        Schema([key("a"), key("b"), continuous("x"), continuous("y")]),
        {
            "a": rng.integers(0, 4, n),
            "b": rng.integers(0, 6, n),  # 1 dangles: no partner in V0
            "x": np.round(rng.normal(0, 2, n), 2),
            "y": np.round(rng.normal(1, 1, n), 2),
        },
    )
    thresholds = np.linspace(-1.0, 1.0, k)
    views = [
        View(0, "Dim", "Fact", ("b",), [None]),
        View(
            1,
            "Fact",
            None,
            ("a",),
            [
                AggregateSpec(
                    1.0,
                    (Identity("y"), Delta("x", "<=", t), Identity("x")),
                    (ViewRef(0, 0),),
                )
                for t in thresholds
            ],
        ),
    ]
    incoming = {
        0: ViewData(("b",), [np.arange(5)], np.array([[2.0, -1.0, 0.5, 4.0, 3.0]]))
    }
    group = ViewGroup(id=0, node="Fact", view_ids=[1])
    return fact, views, incoming, group, thresholds


def row_products(plan):
    """The row-level multiplies: those a row-level sum reads, traced
    back from its values."""
    per_row = row_level_vars(plan)
    return [
        s for s in plan.steps if isinstance(s, MulStep) and s.out in per_row
    ]


def parent_order_products(plan):
    """How many row-level multiplies the plan would hold were each
    product folded in signature / view-id order: the distinct prefixes,
    two factors or longer, of every sum's factors in that order.  A
    :class:`DotStep`'s sum ``j`` has its prefix's factors and payload
    ``j`` of its view."""
    by_out = {s.out: s for s in plan.steps if isinstance(s, MulStep)}
    order = {}
    for step in plan.steps:
        if isinstance(step, FactorStep):
            order[step.out] = (0, repr(step.function.signature()))
        elif isinstance(step, Gather) and step.origin[0] == "viewagg":
            order[step.out] = (1, step.origin[1:])

    def factors(var):
        if var not in by_out:
            return [var]
        return factors(by_out[var].a) + [by_out[var].b]

    products = []
    for step in plan.steps:
        if isinstance(step, GroupSumStep) and step.values is not None:
            products.append(factors(step.values))
        elif isinstance(step, DotStep):
            shared = [] if step.prefix is None else factors(step.prefix)
            for j in step.aggs:
                payload = ("viewagg", step.view_id, j)
                order[payload] = (1, payload[1:])
                products.append(shared + [payload])
    prefixes = set()
    for product in products:
        ordered = sorted(product, key=order.__getitem__)
        for end in range(2, len(ordered) + 1):
            prefixes.add(tuple(ordered[:end]))
    return len(prefixes)


class TestProductOrder:
    @pytest.mark.parametrize("k", [2, 5])
    def test_shared_factors_are_multiplied_once(self, k):
        fact, views, incoming, group, thresholds = shared_factor_group(k)
        plan = build_group_plan(group, views, fact, {})
        # x * y * V0 once (two multiplies), then one per aggregate for
        # its own condition: the fewest k distinct four-factor products
        # sharing three factors can take
        assert len(row_products(plan)) == k + 2
        assert sum(isinstance(s, MulStep) for s in plan.steps) == k + 2

        a, b, x, y = (fact.column(c) for c in ("a", "b", "x", "y"))
        keep = b < 5
        payload = incoming[0].sums[0]
        want = np.zeros((k, 4))
        for i, t in enumerate(thresholds):
            np.add.at(
                want[i],
                a[keep],
                (x[keep] <= t) * x[keep] * y[keep] * payload[b[keep]],
            )
        present = np.bincount(a[keep], minlength=4) > 0
        interpreted = execute_plan(plan, fact, incoming, [])[1]
        generated = execute_rendered(plan, fact, incoming, [])[1]
        for data in (interpreted, generated):
            assert data.key_cols[0].tolist() == np.flatnonzero(present).tolist()
            for got, wanted in zip(data.sums, want):
                np.testing.assert_allclose(
                    got, wanted[present], rtol=1e-12, atol=1e-12
                )

    @pytest.mark.parametrize(
        "fixture", ["tiny_retailer", "tiny_favorita", "tiny_yelp", "tiny_tpcds"]
    )
    def test_no_served_group_multiplies_more_than_in_signature_order(
        self, request, fixture
    ):
        from repro.__main__ import (
            SERVE_WORKLOADS,
            WorkloadUnavailable,
            _build_workload,
        )

        ds = request.getfixturevalue(fixture)
        root = max(ds.database, key=lambda r: r.n_rows).name
        engine = LMFAO(ds.database, ds.join_tree, root=root)
        planned = reference = 0
        for workload in SERVE_WORKLOADS:
            try:
                batch = _build_workload(ds, engine, workload)
            except WorkloadUnavailable:
                continue
            for group_plan in engine.plan(batch).group_plans:
                mine = len(row_products(group_plan))
                theirs = parent_order_products(group_plan)
                assert mine <= theirs, (workload, group_plan.group.id)
                planned += mine
                reference += theirs
        assert planned < reference


# -- differential: interpreter == rendered source == materialized join ----------


def snowflake(
    n_fact=60,
    n_dim=8,
    n_other=5,
    seed=0,
    dangling=True,
    unique_fact_keys=False,
    dim_y=None,
):
    """Fact(a, b, x) - Dim(a, c, y) - SubDim(c, z); Other(b, w)."""
    rng = np.random.default_rng(seed)
    n_sub = 3
    if unique_fact_keys:
        pairs = rng.permutation(n_dim * n_other)[:n_fact]
        a, b = pairs // n_other, pairs % n_other
    else:
        a = rng.integers(0, n_dim + (2 if dangling else 0), n_fact)
        b = rng.integers(0, n_other, n_fact)
    y = np.round(rng.normal(5, 1, n_dim), 2) if dim_y is None else dim_y
    return Database(
        [
            Relation(
                "Fact",
                Schema([key("a"), key("b"), continuous("x")]),
                {"a": a, "b": b, "x": np.round(rng.normal(0, 2, n_fact), 2)},
            ),
            Relation(
                "Dim",
                Schema([key("a"), key("c"), continuous("y")]),
                {
                    "a": np.arange(n_dim),
                    "c": rng.integers(0, n_sub, n_dim),
                    "y": y,
                },
            ),
            Relation(
                "SubDim",
                Schema([key("c"), continuous("z")]),
                {"c": np.arange(n_sub), "z": np.round(rng.normal(-1, 3, n_sub), 2)},
            ),
            Relation(
                "Other",
                Schema([key("b"), continuous("w")]),
                {"b": np.arange(n_other), "w": np.round(rng.normal(0, 1, n_other), 2)},
            ),
        ],
        name="snowflake",
    )


def with_repeated_dim_keys(db, keys):
    """``db`` with one more ``Dim`` row for each of ``keys``, a copy of
    the key's row under another ``c``."""
    dim = db.relation("Dim")
    rows = np.searchsorted(dim.column("a"), keys)
    extra = {name: dim.column(name)[rows] for name in dim.schema.names}
    extra["c"] = (extra["c"] + 1) % 3
    return Database(
        [
            Relation(
                "Dim",
                dim.schema,
                {
                    name: np.concatenate([dim.column(name), extra[name]])
                    for name in dim.schema.names
                },
            )
            if rel.name == "Dim"
            else rel
            for rel in db
        ],
        name=db.name,
    )


def mixed_batch():
    """Group-bys that cover one, both and neither of Fact's two views."""
    aggs = lambda: [  # noqa: E731 - Aggregate objects are per-query
        Aggregate.count(name="n"),
        Aggregate.of("x", "y", name="xy"),
        Aggregate.of("x", "w", name="xw"),
        Aggregate.of(Power("x", 2), "y", "w", "z", name="x2ywz"),
        Aggregate([Product(["x", "y"], coefficient=-2.5)], name="scaled"),
    ]
    return QueryBatch(
        [
            Query("by_a", ["a"], aggs()),
            Query("by_ab", ["a", "b"], aggs()),
            Query("by_b", ["b"], aggs()),
            Query("by_c", ["c"], aggs()),
            Query("total", [], aggs()),
        ]
    )


def n_group_rows_steps(engine, batch):
    return sum(
        isinstance(step, GroupRowsStep)
        for group_plan in engine.plan(batch).group_plans
        for step in group_plan.steps
    )


def assert_all_modes_agree(db, batch, **engine_kwargs):
    """interpreter == rendered source (bit for bit) == materialized join."""
    expected = MaterializedEngine(db).run(batch)
    engine = LMFAO(db, root="Fact", **engine_kwargs)
    assert n_group_rows_steps(engine, batch) > 0, "rule not exercised"
    got = engine.run(batch)
    assert_results_equal(got, expected, batch, rtol=1e-9, atol=1e-9)
    assert_results_identical(run_rendered(engine, batch), got)


class TestDifferential:
    def test_some_rows_have_no_partner_in_the_covered_view(self):
        db = snowflake(dangling=True)
        assert db.relation("Fact").column("a").max() >= 8  # they exist
        assert_all_modes_agree(db, mixed_batch())

    def test_no_row_has_a_partner(self):
        db = snowflake()
        fact = db.relation("Fact")
        columns = {name: fact.column(name) for name in fact.schema.names}
        columns["a"] = columns["a"] + 100
        empty_join = Database(
            [Relation("Fact", fact.schema, columns)]
            + [db.relation(n) for n in ("Dim", "SubDim", "Other")],
            name="nopartner",
        )
        assert_all_modes_agree(empty_join, mixed_batch())

    def test_empty_fact_relation(self):
        db = snowflake(n_fact=0)
        assert_all_modes_agree(db, mixed_batch())

    def test_group_by_equal_to_the_relation_key(self):
        db = snowflake(n_fact=30, dangling=False, unique_fact_keys=True)
        batch = mixed_batch()
        assert_all_modes_agree(db, batch)
        got = LMFAO(db, root="Fact").run(batch)["by_ab"]
        assert got.n_rows == 30  # one group per row

    def test_dynamic_condition_factors(self):
        db = snowflake()
        condition_x = Delta("x", "<=", 0.5, dynamic=True)
        condition_y = Delta("y", ">", 5.0, dynamic=True)
        batch = QueryBatch(
            [
                Query(
                    "by_a",
                    ["a"],
                    [
                        Aggregate.of(condition_x, condition_y, name="n"),
                        Aggregate.of(condition_x, condition_y, "x", "w", name="s"),
                    ],
                ),
                Query(
                    "by_ab",
                    ["a", "b"],
                    [Aggregate.of(condition_x, condition_y, "y", name="s")],
                ),
            ]
        )
        assert_all_modes_agree(db, batch)

    def test_nan_and_inf_in_a_covered_payload(self):
        y = np.array([1.0, np.inf, 2.0, np.nan, 3.0, -np.inf, 0.0, 4.0])
        db = snowflake(dim_y=y, dangling=False)
        # non-negative row factors: a group's sum cannot cancel to 0 or
        # flip sign, so hoisting y out of the sum keeps inf/nan where the
        # row-level product had them
        batch = QueryBatch(
            [
                Query(
                    "by_a",
                    ["a"],
                    [
                        Aggregate.of("y", name="sy"),
                        Aggregate.of(Power("x", 2), "y", name="x2y"),
                    ],
                )
            ]
        )
        expected = relation_to_table(
            MaterializedEngine(db).run(batch)["by_a"], ["a"], ["sy", "x2y"]
        )
        engine = LMFAO(db, root="Fact")
        assert n_group_rows_steps(engine, batch) > 0
        got = relation_to_table(
            engine.run(batch)["by_a"], ["a"], ["sy", "x2y"]
        )
        assert set(got) == set(expected)
        for group_key, want in expected.items():
            np.testing.assert_allclose(
                got[group_key], want, rtol=1e-9, err_msg=str(group_key)
            )
        a = db.relation("Fact").column("a")
        if (a == 1).any():
            assert expected[(1,)][0] == np.inf
        if (a == 3).any():
            assert np.isnan(expected[(3,)][0])

    @pytest.mark.parametrize("dim_keys", ["unique", "repeated"])
    def test_support_is_the_join_count(self, dim_keys):
        """A view's support is its COUNT: the multiplicity of its subtree
        join per key, which a repeated dimension key multiplies."""
        db = snowflake()
        if dim_keys == "repeated":
            db = with_repeated_dim_keys(db, [2, 5])
        batch = mixed_batch()
        assert_all_modes_agree(db, batch, view_cache=ViewCache())
        engine = LMFAO(db, root="Fact", view_cache=ViewCache())
        plan = engine.plan(batch)
        view_data = {}
        for group_plan in plan.group_plans:  # topological order
            view_data.update(
                execute_plan(
                    group_plan,
                    db.relation(group_plan.node),
                    {v: view_data[v] for v in group_plan.input_view_ids},
                    [],
                )
            )
        counts = relation_to_table(
            MaterializedEngine(db).run(batch)["by_a"], ["a"], ["n"]
        )
        by_a = next(
            view_data[o.view_id]
            for o in plan.decomposed.outputs
            if o.query_name == "by_a"
        )
        assert by_a.count is not None
        assert dict(
            zip(
                [(k,) for k in by_a.key_cols[0].tolist()],
                by_a.sums[by_a.count].tolist(),
            )
        ) == {k: v[0] for k, v in counts.items()}


@st.composite
def random_snowflake(draw):
    return snowflake(
        n_fact=draw(st.integers(0, 60)),
        n_dim=draw(st.integers(1, 10)),
        n_other=draw(st.integers(1, 6)),
        seed=draw(st.integers(0, 10_000)),
    )


@st.composite
def random_batch(draw):
    numeric = ["x", "y", "z", "w"]
    queries = []
    for qi in range(draw(st.integers(1, 3))):
        group_by = draw(
            st.lists(st.sampled_from(["a", "b", "c"]), unique=True, max_size=3)
        )
        aggs = []
        for ai in range(draw(st.integers(1, 3))):
            factors = draw(st.lists(st.sampled_from(numeric), max_size=3))
            if draw(st.booleans()):
                factors.append(
                    Delta(
                        draw(st.sampled_from(numeric)),
                        draw(st.sampled_from(["<=", ">"])),
                        draw(st.floats(-5, 8, allow_nan=False)),
                    )
                )
            coefficient = draw(st.sampled_from([1.0, 1.0, -2.0, 0.5]))
            aggs.append(
                Aggregate(
                    [Product(factors, coefficient=coefficient)],
                    name=f"agg{ai}",
                )
            )
        queries.append(Query(f"q{qi}", group_by, aggs))
    return QueryBatch(queries)


class TestPropertyDifferential:
    @given(random_snowflake(), random_batch(), st.sampled_from(["Fact", "Dim", None]))
    @settings(max_examples=40, deadline=None)
    def test_every_root_matches_materialized(self, db, batch, root):
        expected = MaterializedEngine(db).run(batch)
        got = LMFAO(db, root=root).run(batch)
        assert_results_equal(got, expected, batch, rtol=1e-7, atol=1e-7)


# -- deltas ----------------------------------------------------------------------


class TestDeltas:
    def _assert_equals_recompute(self, engine, batch):
        maintained = engine.run(batch)
        assert maintained.cache_report.n_misses == 0
        recomputed = LMFAO(engine.database, root=engine.root).run(batch)
        assert_results_equal(maintained, recomputed, batch, rtol=1e-9, atol=1e-9)

    def test_root_inserts_and_retraction_to_zero(self):
        db = snowflake(n_fact=80)
        batch = mixed_batch()
        engine = IncrementalEngine(db, root="Fact")
        engine.run(batch)
        fact = engine.database.relation("Fact")
        rng = np.random.default_rng(3)
        idx = rng.integers(0, fact.n_rows, 10)
        inserts = {n: fact.column(n)[idx] for n in fact.schema.names}
        report = engine.apply_delta(DeltaBatch.insert("Fact", inserts))
        assert report.all_incremental, report
        self._assert_equals_recompute(engine, batch)
        # retract every row of one a-group: its keys must disappear
        fact = engine.database.relation("Fact")
        victim = int(fact.column("a")[0])
        doomed = np.flatnonzero(fact.column("a") == victim)
        report = engine.apply_delta(
            DeltaBatch("Fact", delete_indices=doomed)
        )
        assert report.all_incremental, report
        self._assert_equals_recompute(engine, batch)
        by_a = engine.run(batch)["by_a"]
        assert victim not in by_a.column("a").tolist()

    def test_delta_on_the_covered_views_own_relation(self):
        db = snowflake(n_fact=80, dangling=False)
        batch = mixed_batch()
        engine = IncrementalEngine(db, root="Fact")
        engine.run(batch)
        dim = engine.database.relation("Dim")
        # update two Dim rows: retract them, insert them back with a new y
        idx = np.array([0, 3])
        inserts = {n: dim.column(n)[idx] for n in dim.schema.names}
        inserts["y"] = inserts["y"] + 10.0
        engine.apply_delta(
            DeltaBatch("Dim", inserts=inserts, delete_indices=idx)
        )
        assert engine.stats()["fallbacks"] == 0
        self._assert_equals_recompute(engine, batch)
        # drop a Dim row outright: Fact rows of that key lose their partner
        engine.apply_delta(DeltaBatch("Dim", delete_indices=np.array([1])))
        self._assert_equals_recompute(engine, batch)
