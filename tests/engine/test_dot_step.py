"""DotStep: the scalar sums of one view's payloads as one product.

``ops.view_dot`` computes ``block[picks][:, index] @ values`` in a row
form (over the context's rows) or a view form (the factor summed per
view row first).  Both are held to an exact ``math.fsum`` reference,
the form is pinned to ``min(context rows, |V|)``, and every served plan
renders to source that equals the interpreter bit for bit.
"""

import math

import numpy as np
import pytest

from repro import LMFAO
from repro.data import ops
from repro.engine.plan import DotStep
from repro.engine.viewcache import ViewCache

from .helpers import assert_results_identical, run_rendered

FORMS = {"row": ops._row_dot, "view": ops._view_dot}


def exact(block, picks, index, values):
    """Each output as an exactly rounded sum, and the sum of its terms'
    magnitudes (the scale a float sum's error is relative to)."""
    rows = range(len(block)) if picks is None else picks
    totals, scales = [], []
    for j in rows:
        terms = [
            (1.0 if values is None else float(values[i])) * block[j, v]
            for i, v in enumerate(index)
        ]
        totals.append(math.fsum(terms))
        scales.append(math.fsum(abs(t) for t in terms))
    return np.array(totals), np.array(scales)


def case(n_rows, n_view, prefix, weighted, picks, seed=0):
    rng = np.random.default_rng(seed)
    block = rng.normal(size=(6, n_view)) * 10.0 ** rng.integers(-3, 4, (6, 1))
    index = rng.integers(0, max(n_view, 1), n_rows)
    values = rng.normal(size=n_rows) if prefix else None
    if weighted:
        w = rng.choice([-1.0, 1.0], n_rows)
        values = w if values is None else values * w
    return block, (np.array([0, 2, 3, 5]) if picks else None), index, values


@pytest.mark.parametrize("form", sorted(FORMS))
@pytest.mark.parametrize(
    "n_rows, n_view",
    [(0, 7), (1, 7), (5, 40), (300, 40), (0, 0)],
    ids=["rows-0", "rows-1", "rows-under-V", "rows-over-V", "V-0"],
)
@pytest.mark.parametrize("prefix", [True, False], ids=["p", "no-p"])
@pytest.mark.parametrize("weighted", [True, False], ids=["w", "unweighted"])
@pytest.mark.parametrize("picks", [False, True], ids=["span", "picks"])
def test_each_form_matches_an_exact_sum(
    form, n_rows, n_view, prefix, weighted, picks
):
    block, rows, index, values = case(n_rows, n_view, prefix, weighted, picks)
    got = FORMS[form](block, rows, index, values)
    want, scale = exact(block, rows, index, values)
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= 1e-12 * scale)
    if n_rows == 0:
        assert not got.any()


def test_the_form_is_read_off_min_of_context_rows_and_view_keys(
    monkeypatch,
):
    ran = []
    for form in FORMS:
        monkeypatch.setattr(
            ops, f"_{form}_dot", lambda *args, form=form: ran.append(form)
        )
    block = np.ones((2, 10))
    for n_rows in (0, 1, 9, 10, 11, 500):
        ops.view_dot(block, None, np.zeros(n_rows, dtype=np.int64))
    assert ran == ["row", "row", "row", "view", "view", "view"]
    ran.clear()
    ops.view_dot(np.ones((2, 0)), None, np.zeros(0, dtype=np.int64))
    assert ran == ["view"]


@pytest.mark.parametrize(
    "fixture", ["tiny_retailer", "tiny_favorita", "tiny_yelp", "tiny_tpcds"]
)
def test_served_plans_render_to_the_interpreters_answers_bit_for_bit(
    request, fixture
):
    from repro.__main__ import (
        SERVE_WORKLOADS,
        WorkloadUnavailable,
        _build_workload,
    )

    ds = request.getfixturevalue(fixture)
    root = max(ds.database, key=lambda r: r.n_rows).name
    engine = LMFAO(
        ds.database, ds.join_tree, root=root, view_cache=ViewCache()
    )
    n_dots = 0
    for workload in SERVE_WORKLOADS:
        try:
            batch = _build_workload(ds, engine, workload)
        except WorkloadUnavailable:
            continue
        n_dots += sum(
            isinstance(step, DotStep)
            for group_plan in engine.plan(batch).group_plans
            for step in group_plan.steps
        )
        assert_results_identical(
            run_rendered(engine, batch), engine.run(batch)
        )
    assert n_dots > 0
