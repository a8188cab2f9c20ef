"""Extra ablations for the design choices DESIGN.md calls out.

Beyond the paper's Figure 5 ladder, this sweeps each design dimension
independently (not cumulatively) on the covar workload:

* merge_mode: none / dedup / full   (how much view consolidation buys)
* group_views: off / on             (multi-output shared scans)

Writes ``results/ablation.txt``.
"""

import pytest

from repro import LMFAO

from .common import Report, covar_workload, dataset

pytestmark = pytest.mark.slow

DATASETS = ["retailer", "yelp"]

CONFIGS = [
    ("merge=none", dict(merge_mode="none")),
    ("merge=dedup", dict(merge_mode="dedup")),
    ("merge=full", dict(merge_mode="full")),
    ("groups=off", dict(group_views=False)),
    ("groups=on", dict(group_views=True)),
]

_measured = {}


@pytest.mark.parametrize("name", DATASETS)
@pytest.mark.parametrize("config_index", range(len(CONFIGS)))
def test_design_choice(benchmark, name, config_index):
    ds = dataset(name)
    label, kwargs = CONFIGS[config_index]
    engine = LMFAO(ds.database, ds.join_tree, **kwargs)
    batch = covar_workload(ds)
    engine.plan(batch)
    result = benchmark.pedantic(
        lambda: engine.run(batch), rounds=2, iterations=1, warmup_rounds=1
    )
    assert len(result) == len(batch)
    _measured[(name, label)] = {
        "seconds": benchmark.stats["mean"],
        "views": engine.plan(batch).statistics.n_views,
        "groups": engine.plan(batch).statistics.n_groups,
    }


def test_zz_ablation_report(benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    report = Report(
        "ablation",
        f"{'dataset':10}{'configuration':16}{'seconds':>10}"
        f"{'views':>7}{'groups':>8}",
    )
    for name in DATASETS:
        for label, _ in CONFIGS:
            row = _measured.get((name, label))
            if row is None:
                continue
            report.add(
                f"{name:10}{label:16}{row['seconds']:>10.4f}"
                f"{row['views']:>7}{row['groups']:>8}"
            )
    path = report.write()
    print(f"\nwrote {path}")
    # design-choice shape: full merging produces the fewest views and is
    # not slower than no merging
    for name in DATASETS:
        full = _measured.get((name, "merge=full"))
        none = _measured.get((name, "merge=none"))
        if full and none:
            assert full["views"] < none["views"]
            assert full["seconds"] <= none["seconds"] * 1.5
