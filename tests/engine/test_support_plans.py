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

#: (dataset, plan shape, merge mode, cache attached) -> (steps, digest)
#: of the plans ``CACHELESS_PLANS`` leaves out
PLANS = {
    ("retailer", "multi-root", "full", True): (6017, "e36d6d3e55000bb9"),
    ("retailer", "multi-root", "dedup", False): (26018, "66f83a0e56d5f2b0"),
    ("retailer", "multi-root", "dedup", True): (29648, "135912d639dd5528"),
    ("retailer", "multi-root", "none", False): (61732, "37e455fc0dddb825"),
    ("retailer", "multi-root", "none", True): (73134, "7edaa00ff2ac83a4"),
    ("retailer", "single-root", "full", True): (4812, "a70046d7809e119e"),
    ("retailer", "single-root", "dedup", False): (20754, "f646579d3c6dc0bf"),
    ("retailer", "single-root", "dedup", True): (23260, "2e4cdd5cf8fa287a"),
    ("retailer", "single-root", "none", False): (60471, "fea43774ee7b027f"),
    ("retailer", "single-root", "none", True): (65957, "a45c7d27efc641a5"),
    ("favorita", "multi-root", "full", True): (2644, "486994b12e3efb37"),
    ("favorita", "multi-root", "dedup", False): (4470, "6d6dd45ae40dff44"),
    ("favorita", "multi-root", "dedup", True): (5417, "d0be1d1e49038b21"),
    ("favorita", "multi-root", "none", False): (17057, "3deab10eb5438877"),
    ("favorita", "multi-root", "none", True): (20511, "d409ddb86f71d68d"),
    ("favorita", "single-root", "full", True): (3557, "1b2db8dfa1d4dbd5"),
    ("favorita", "single-root", "dedup", False): (5505, "7bbf05d53d3545aa"),
    ("favorita", "single-root", "dedup", True): (6741, "524b8b15cb2a74c1"),
    ("favorita", "single-root", "none", False): (18420, "416c9141a8963df9"),
    ("favorita", "single-root", "none", True): (21421, "f34e2b65601b17d5"),
    ("yelp", "multi-root", "full", True): (2115, "0ebe2c3f399d0b5a"),
    ("yelp", "multi-root", "dedup", False): (6340, "706f98f1a9f2abcd"),
    ("yelp", "multi-root", "dedup", True): (6955, "055af621140fd036"),
    ("yelp", "multi-root", "none", False): (16535, "bffe8c847ff4d5ef"),
    ("yelp", "multi-root", "none", True): (18277, "e975d752c63319be"),
    ("yelp", "single-root", "full", True): (1714, "1373cb5fc4fecd17"),
    ("yelp", "single-root", "dedup", False): (4364, "545adefe7d2a28db"),
    ("yelp", "single-root", "dedup", True): (4800, "468f3448c2801c1c"),
    ("yelp", "single-root", "none", False): (17993, "51b3012613eec954"),
    ("yelp", "single-root", "none", True): (20655, "805d4a5e3bde3a23"),
    ("tpcds", "multi-root", "full", True): (6379, "6c6b90372e752036"),
    ("tpcds", "multi-root", "dedup", False): (16040, "388c905e59c3ef0e"),
    ("tpcds", "multi-root", "dedup", True): (19936, "bf7fdef437816d35"),
    ("tpcds", "multi-root", "none", False): (82043, "c1d13ce799ffebf1"),
    ("tpcds", "multi-root", "none", True): (99905, "585deaf01c05b645"),
    ("tpcds", "single-root", "full", True): (7603, "eb65620ec7e3d963"),
    ("tpcds", "single-root", "dedup", False): (16411, "308e033a2f6ded14"),
    ("tpcds", "single-root", "dedup", True): (19994, "b0a149065e07d99b"),
    ("tpcds", "single-root", "none", False): (86981, "551122ec4e57c2e4"),
    ("tpcds", "single-root", "none", True): (97673, "eb252814db82e051"),
}
#: planning these takes seconds each; the fast lane skips them
SLOW_PLANS = {
    (name, shape, "none", cached)
    for name in ("retailer", "tpcds")
    for shape in ("multi-root", "single-root")
    for cached in (False, True)
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


@pytest.mark.parametrize(
    "name, shape, merge_mode, cached",
    [
        pytest.param(
            *key, marks=pytest.mark.slow if key in SLOW_PLANS else ()
        )
        for key in PLANS
    ],
)
def test_plans_are_pinned(request, name, shape, merge_mode, cached):
    ds = request.getfixturevalue(f"tiny_{name}")
    kwargs = {}
    if shape == "single-root":
        kwargs["root"] = max(ds.database, key=lambda r: r.n_rows).name
    planned = LMFAO(
        ds.database,
        ds.join_tree,
        merge_mode=merge_mode,
        view_cache=ViewCache() if cached else None,
        **kwargs,
    )
    digest, n_steps = hashlib.sha256(), 0
    for batch in paper_batches(ds, planned):
        for group_plan in planned.plan(batch).group_plans:
            for step in group_plan.steps:
                digest.update(repr(step).encode())
                n_steps += 1
    assert (n_steps, digest.hexdigest()[:16]) == PLANS[
        name, shape, merge_mode, cached
    ]
