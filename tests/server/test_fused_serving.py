"""A dataset's cacheable workloads are served from one fused batch.

Differential: on each tiny dataset, every served workload's answer
equals an independent one-shot ``LMFAO.run`` of its own batch, at epoch
0 and after a root and a dimension commit.  The fused plan merges views
across workloads, so its sums may add in another order than a lone
plan's: the comparison takes ``assert_same_json``'s 1e-12 tolerance.
"""

import numpy as np
import pytest

from repro import LMFAO, AnalyticsService, DeltaBatch
from repro.server import AnalyticsClient, serve_in_background
from repro.server.http import query_response_payload
from repro.server.service import Answer, QueryResponse
from repro.workloads import served_batches

from .helpers import assert_stats_identities
from .test_service import assert_same_json

pytestmark = pytest.mark.timeout(300)

DATASETS = ("tiny_retailer", "tiny_favorita", "tiny_yelp", "tiny_tpcds")


def root_delta(database, relation, rng, n=5):
    """Copies of ``n`` live rows in, ``n`` other rows out."""
    rel = database.relation(relation)
    copied = rng.integers(0, rel.n_rows, n)
    return DeltaBatch(
        relation,
        inserts={a: rel.column(a)[copied] for a in rel.schema.names},
        delete_indices=rng.choice(rel.n_rows, n, replace=False),
    )


def dimension_delta(database, relation):
    """Two rows retracted and inserted back with their continuous
    attributes changed: the key set stays, the sums move."""
    rel = database.relation(relation)
    inserts = {}
    for attr in rel.schema:
        values = rel.column(attr.name)[:2]
        if attr.kind == "continuous":
            values = values + 1.5
        inserts[attr.name] = values
    return DeltaBatch(relation, inserts=inserts, delete_indices=np.arange(2))


def wire(delta):
    inserts = {a: np.asarray(v).tolist() for a, v in delta.inserts.items()}
    return dict(
        inserts=inserts,
        delete_indices=np.asarray(delta.delete_indices).tolist(),
    )


def affected_views(engine, batch, database, relation):
    """Distinct cache addresses of a plan's views that read ``relation``."""
    plan = engine.plan(batch)
    sigs = engine.view_signatures_for(
        plan, batch.dynamic_functions(), database=database
    )
    return len(
        {
            sig.digest
            for sig in sigs.values()
            if sig.cacheable and relation in sig.relations
        }
    )


def independent_results(name, batch, database, join_tree, epoch):
    answer = Answer(LMFAO(database, join_tree).run(batch), ())
    response = QueryResponse("d", (name,), epoch, {name: answer})
    return query_response_payload(response, True)["results"][name]


@pytest.mark.parametrize("fixture", DATASETS)
def test_served_answers_equal_independent_runs(request, fixture):
    ds = request.getfixturevalue(fixture)
    dataset = ds.database.name
    batches = served_batches(ds)
    service = AnalyticsService(cache_mb=64)
    service.register_dataset(
        dataset, ds.database, ds.join_tree, workloads=batches
    )
    state = service._state(dataset)
    assert set(state.fused.members) == set(batches) - {"kmeans"}
    root = state.ivm.root
    dimension = next(n for n in ds.database.relation_names if n != root)
    server, _thread = serve_in_background(service, port=0)
    client = AnalyticsClient(port=server.server_address[1])
    try:
        client.wait_ready(timeout=10)
        mirror = ds.database
        rng = np.random.default_rng(5)
        for stage in ("epoch 0", "root delta", "dimension delta"):
            if stage != "epoch 0":
                relation = root if stage == "root delta" else dimension
                delta = (
                    root_delta(mirror, root, rng)
                    if relation == root
                    else dimension_delta(mirror, relation)
                )
                fused = affected_views(
                    state.engine, state.fused.batch, mirror, relation
                )
                ack = client.delta(dataset, relation, **wire(delta))
                mirror = mirror.apply_delta(delta).database
                assert ack["views_evicted"] == 0, (stage, ack)
                if relation == root:
                    # one repair per fused view the delta reaches, fewer
                    # than the members' own plans would repair
                    alone = sum(
                        affected_views(state.engine, batch, mirror, root)
                        for name, batch in batches.items()
                        if name in state.fused.members
                    )
                    assert ack["views_patched"] == fused < alone, (
                        ack, fused, alone,
                    )
            body = client.query(dataset, list(batches), include_data=True)
            for name, batch in batches.items():
                assert_same_json(
                    body["results"][name],
                    independent_results(
                        name, batch, mirror, ds.join_tree, body["epoch"]
                    ),
                    exact=False,
                    where=f"{fixture}/{stage}/{name}",
                )
        assert_stats_identities(service.stats())
    finally:
        client.close()
        server.shutdown()
        server.server_close()
        service.close()


def test_a_member_registered_later_joins_the_fused_batch(tiny_retailer):
    """Registering a workload rebuilds the fused batch; the next read of
    a member runs the new union once, and the members registered before
    it are then served from its views without a cache miss."""
    ds = tiny_retailer
    batches = served_batches(ds)
    with AnalyticsService(cache_mb=64) as service:
        service.register_dataset("retailer", ds.database, ds.join_tree)
        service.register_workload("retailer", "covar", batches["covar"])
        state = service._state("retailer")
        before = state.fused
        service.register_workload("retailer", "trees", batches["trees"])
        service.register_workload("retailer", "kmeans", batches["kmeans"])
        assert state.fused is not before
        assert list(state.fused.members) == ["covar", "trees"]
        service.query("retailer", ["trees"], timeout=60)
        misses = state.cache.stats().misses
        covar = service.query("retailer", ["covar"], timeout=60)
        assert state.cache.stats().misses == misses
        assert covar.results["covar"].cache_report.n_misses == 0
        assert list(covar.results["covar"]) == [
            query.name for query in batches["covar"]
        ]
