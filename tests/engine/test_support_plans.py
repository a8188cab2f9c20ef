"""Support counts are planned exactly where delta repair merges: in the
views of an engine with a view cache attached.

With a cache, every keyed view of every group — interior groups
included — emits its context-row count per key, so a retraction can
retire a key at any level of the view DAG.  Without one, no view emits
support, and the plans are pinned below as the step count and a digest
of the steps' reprs over the paper's four batches.
"""

import hashlib

import pytest

from repro import LMFAO
from repro.engine.plan import EmitStep
from repro.engine.viewcache import ViewCache

from .test_key_encodings import paper_batches

#: (dataset fixture, plan shape) -> (steps, digest) of the cache-less plans
CACHELESS_PLANS = {
    ("tiny_retailer", "multi-root"): (6010, "34174fb102cbc90d"),
    ("tiny_retailer", "single-root"): (4805, "c213a4d9ed057ec0"),
    ("tiny_favorita", "multi-root"): (2631, "ddcfe71c969d208c"),
    ("tiny_favorita", "single-root"): (3550, "d56f7bfa78cd15b3"),
    ("tiny_yelp", "multi-root"): (2108, "fb47f36cb0798171"),
    ("tiny_yelp", "single-root"): (1707, "c7b13ddc14d125cc"),
    ("tiny_tpcds", "multi-root"): (6366, "4d5646aa30019ccb"),
    ("tiny_tpcds", "single-root"): (7596, "0c97452577379966"),
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
        assert all(e.support_var is None for e in emits(plan, every))

        plan = cached.plan(batch)
        keyed = [e for e in emits(plan, every) if e.group_by]
        assert keyed and all(e.support_var is not None for e in keyed)
        interior = {d for g in plan.grouped.groups for d in g.depends_on}
        n_interior += sum(bool(e.group_by) for e in emits(plan, interior))
    assert n_interior > 0  # interior groups have keyed views, and count
    assert (n_steps, digest.hexdigest()[:16]) == CACHELESS_PLANS[
        fixture, shape
    ]
