"""The workload table, ``repro.workloads``: every name builds a batch the
engine plans, an alias builds its target's batch, and the frozen
benchmark checks its answers against the batches ``repro serve``
registers."""

import pytest

from repro import LMFAO, workloads
from repro.__main__ import main

DATASETS = ["tiny_retailer", "tiny_favorita", "tiny_yelp", "tiny_tpcds"]
#: a name -> the name whose batch it builds
ALIASES = {
    "rt_node": "trees",
    "mi": "mutual_information",
    "cube": "datacube",
    "linreg": "covar",
    "chow_liu": "mutual_information",
}


def shape(batch):
    """What an answer is checked by: query names, group-bys, aggregate
    names and the plan-cache key."""
    return (
        [query.name for query in batch],
        [tuple(query.group_by) for query in batch],
        batch.aggregate_names(),
        batch.structural_signature(),
    )


@pytest.mark.parametrize("name", workloads.NAMES)
@pytest.mark.parametrize("fixture", DATASETS)
def test_every_name_builds_a_batch_the_engine_plans(request, fixture, name):
    ds = request.getfixturevalue(fixture)
    plan = LMFAO(ds.database, ds.join_tree).plan(workloads.build(ds, name))
    assert plan.group_plans


@pytest.mark.parametrize("alias, target", ALIASES.items())
@pytest.mark.parametrize("fixture", DATASETS)
def test_an_alias_builds_its_targets_batch(request, fixture, alias, target):
    ds = request.getfixturevalue(fixture)
    assert shape(workloads.build(ds, alias)) == shape(
        workloads.build(ds, target)
    )


def test_serve_registers_a_fresh_batch_per_name(tiny_favorita):
    served = workloads.served_batches(tiny_favorita)
    assert tuple(served) == workloads.SERVED
    assert len({id(batch) for batch in served.values()}) == len(served)
    paper = workloads.paper_batches(tiny_favorita)
    assert tuple(paper) == workloads.PAPER
    assert workloads.PAPER == ("covar", "rt_node", "mi", "cube")


@pytest.mark.parametrize("fixture", ["tiny_retailer", "tiny_favorita"])
def test_the_benchmark_checks_the_served_batches(request, fixture):
    """``bench/`` keeps its own frozen copy of the batches it reads and
    checks answers against; it must be what ``repro serve`` serves."""
    from bench.workloads import served_batches as benchmark_batches

    ds = request.getfixturevalue(fixture)
    served = workloads.served_batches(ds)
    read = benchmark_batches(ds)
    assert sorted(read) == ["covar", "mutual_information", "trees"]
    for name, batch in read.items():
        assert shape(served[name]) == shape(batch), name


def test_an_unknown_name_exits_naming_the_valid_ones():
    with pytest.raises(SystemExit) as exit_info:
        main(
            ["--scale", "0.05", "run", "favorita", "--workloads", "covar,nope"]
        )
    message = str(exit_info.value)
    assert "'nope'" in message
    assert all(name in message for name in workloads.NAMES)
