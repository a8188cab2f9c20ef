"""Support is planned exactly where delta repair merges: in the views of
an engine with a view cache attached.

With a cache, every keyed view of every group — interior groups
included — carries a COUNT aggregate, the multiplicity of its subtree
join per key, so a retraction can retire a key at any level of the view
DAG.  Without one, no view names a count, and the plans are pinned
below as the step count and a digest of the steps' reprs over the
paper's four batches.
"""

import hashlib

import pytest

from repro import LMFAO
from repro.engine.plan import EmitStep
from repro.engine.viewcache import ViewCache

from .test_key_encodings import paper_batches

#: (dataset fixture, plan shape) -> (steps, digest) of the cache-less plans
CACHELESS_PLANS = {
    ("tiny_retailer", "multi-root"): (6010, "2ee9bc83a510c873"),
    ("tiny_retailer", "single-root"): (4805, "0b32e6c69d2c5b02"),
    ("tiny_favorita", "multi-root"): (2631, "668493f6fc9ef70a"),
    ("tiny_favorita", "single-root"): (3550, "b6db369b1b08aeba"),
    ("tiny_yelp", "multi-root"): (2108, "47359179c7dacb83"),
    ("tiny_yelp", "single-root"): (1707, "20548754a0dd05e3"),
    ("tiny_tpcds", "multi-root"): (6366, "d5c7e7f0806f1438"),
    ("tiny_tpcds", "single-root"): (7596, "40e50a9e88eaa9f6"),
}


def emits(plan, group_ids):
    """The emit steps of the given groups of one engine plan."""
    return [
        step
        for gid in group_ids
        for step in plan.group_plans[gid].steps
        if isinstance(step, EmitStep)
    ]


@pytest.mark.parametrize(
    "fixture", ["tiny_retailer", "tiny_favorita", "tiny_yelp", "tiny_tpcds"]
)
@pytest.mark.parametrize("shape", ["multi-root", "single-root"])
def test_support_is_planned_on_every_keyed_view_iff_a_cache_is_attached(
    request, fixture, shape
):
    ds = request.getfixturevalue(fixture)
    kwargs = {}
    if shape == "single-root":
        kwargs["root"] = max(ds.database, key=lambda r: r.n_rows).name
    bare = LMFAO(ds.database, ds.join_tree, **kwargs)
    cached = LMFAO(ds.database, ds.join_tree, view_cache=ViewCache(), **kwargs)
    digest, n_steps, n_interior = hashlib.sha256(), 0, 0
    for batch in paper_batches(ds, bare):
        plan = bare.plan(batch)
        for group_plan in plan.group_plans:
            for step in group_plan.steps:
                digest.update(repr(step).encode())
                n_steps += 1
        every = range(len(plan.group_plans))
        assert all(e.count is None for e in emits(plan, every))

        plan = cached.plan(batch)
        views = plan.decomposed.views
        keyed = [e for e in emits(plan, every) if e.group_by]
        assert keyed and all(e.count is not None for e in keyed)
        for e in keyed:
            # COUNT(*): no factor of its own, times each child's COUNT
            count = views[e.view_id].aggregates[e.count]
            assert count.coefficient == 1.0 and not count.functions
            assert all(
                ref.agg_index == views[ref.view_id].count
                for ref in count.refs
            )
        interior = {d for g in plan.grouped.groups for d in g.depends_on}
        n_interior += sum(bool(e.group_by) for e in emits(plan, interior))
    assert n_interior > 0  # interior groups have keyed views, and count
    assert (n_steps, digest.hexdigest()[:16]) == CACHELESS_PLANS[
        fixture, shape
    ]
