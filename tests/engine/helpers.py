"""Shared helpers for engine tests: result comparison + toy workloads,
and running the Compilation layer's rendered source."""

import numpy as np

from repro import Aggregate, Delta, Power, Product, Query, QueryBatch
from repro.data import ops
from repro.engine import codegen
from repro.engine.interpreter import ViewData


def execute_rendered(plan, relation, incoming, dyn=()):
    """``execute_plan``'s twin: run one group plan through the source
    ``codegen.render_source`` renders for it; returns views by id."""
    namespace = {"np": np, "ops": ops}
    exec(codegen.render_source(plan), namespace)  # noqa: S102
    raw = namespace["group_fn"](
        {name: relation.column(name) for name in plan.relation_attrs},
        relation.encodings,
        relation.n_rows,
        {vid: data.key_cols for vid, data in incoming.items()},
        {vid: data.agg_cols for vid, data in incoming.items()},
        dyn,
    )
    views = {}
    for vid, (group_by, keys, aggs, *support) in raw.items():
        views[vid] = ViewData(
            group_by=group_by,
            key_cols=list(keys),
            agg_cols=[np.asarray(a, dtype=np.float64) for a in aggs],
            support=(
                np.asarray(support[0], dtype=np.float64) if support else None
            ),
        )
    return views


class RenderedBackend:
    """Runs every view group through its rendered source."""

    def run_group(self, task):
        return execute_rendered(
            task.plan, task.relation, task.incoming, task.dyn
        )


def run_rendered(engine, batch):
    """``engine.run(batch)`` with every group executed by its rendered
    source instead of the interpreter (the engine is left as it was)."""
    interpreter, engine.backend = engine.backend, RenderedBackend()
    try:
        return engine.run(batch)
    finally:
        engine.backend = interpreter


def assert_results_identical(got, expected):
    """Two runs of one batch agree bit for bit: same queries, columns,
    row order and values."""
    assert set(got) == set(expected)
    for name, relation in expected.items():
        assert got[name].schema.names == relation.schema.names, name
        for column in relation.schema.names:
            np.testing.assert_array_equal(
                got[name].column(column), relation.column(column),
                err_msg=f"{name}.{column}",
            )


def _counts_batch():
    return QueryBatch(
        [
            Query("count", [], [Aggregate.count()]),
            Query("per_store", ["store"], [Aggregate.count(name="n")]),
            Query("per_city", ["city"], [Aggregate.count(name="n")]),
        ]
    )


def _groupby_batch():
    return QueryBatch(
        [
            Query("by_city", ["city"], [Aggregate.of("units", name="u")]),
            Query("by_date", ["date"], [Aggregate.of("price", name="p")]),
            Query(
                "by_city_store",
                ["city", "store"],
                [Aggregate.of("units", name="u"), Aggregate.count(name="n")],
            ),
        ]
    )


def _covar_style_batch():
    # degree-2 interactions over the continuous attributes, the shape of
    # one covar-matrix strip
    return QueryBatch(
        [
            Query("s_u", [], [Aggregate.of("units", name="s")]),
            Query("s_uu", [], [Aggregate.of(Power("units", 2), name="s")]),
            Query("s_up", [], [Aggregate.of("units", "price", name="s")]),
            Query("s_us", [], [Aggregate.of("units", "size", name="s")]),
            Query(
                "mix",
                [],
                [
                    Aggregate(
                        [
                            Product(["units"], coefficient=2.0),
                            Product(["price"], coefficient=-1.0),
                        ],
                        name="mix",
                    )
                ],
            ),
        ]
    )


def _conditional_batch():
    return QueryBatch(
        [
            Query(
                "cheap_units",
                [],
                [Aggregate.of(Delta("price", "<=", 50.0), "units", name="cu")],
            ),
            Query(
                "cheap_by_city",
                ["city"],
                [Aggregate.of(Delta("price", "<=", 50.0), name="n")],
            ),
        ]
    )


#: name -> QueryBatch factory over the ``toy_db`` star schema; the
#: rendered-source differential tests hold codegen to the interpreter on
#: all of them
WORKLOADS = {
    "counts": _counts_batch,
    "groupbys": _groupby_batch,
    "covar_style": _covar_style_batch,
    "conditional": _conditional_batch,
}


def relation_to_table(relation, group_by, agg_names):
    """Normalize a result relation to {group tuple: (agg values...)}."""
    if group_by:
        keys = list(zip(*(relation.column(g).tolist() for g in group_by)))
    else:
        keys = [()] * relation.n_rows
    values = list(
        zip(*(relation.column(a).tolist() for a in agg_names))
    )
    return dict(zip(keys, values))


def assert_results_equal(got, expected, batch, rtol=1e-9, atol=1e-9):
    """Compare two engines' results for an entire batch."""
    for query in batch:
        agg_names = _agg_names(query)
        table_got = relation_to_table(
            got[query.name], query.group_by, agg_names
        )
        table_expected = relation_to_table(
            expected[query.name], query.group_by, agg_names
        )
        assert set(table_got) == set(table_expected), (
            f"{query.name}: group keys differ "
            f"({len(table_got)} vs {len(table_expected)})"
        )
        for group_key, expected_values in table_expected.items():
            got_values = table_got[group_key]
            assert np.allclose(
                got_values, expected_values, rtol=rtol, atol=atol
            ), (
                f"{query.name}{group_key}: {got_values} != "
                f"{expected_values}"
            )


def _agg_names(query):
    names = []
    used = {}
    for aggregate in query.aggregates:
        name = aggregate.name or "agg"
        if name in used:
            used[name] += 1
            name = f"{name}_{used[name]}"
        else:
            used[name] = 0
        names.append(name)
    return names
