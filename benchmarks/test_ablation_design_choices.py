"""Extra ablations for the design choices DESIGN.md calls out.

Beyond the paper's Figure 5 ladder, this sweeps each design dimension
independently (not cumulatively) on the covar workload:

* merge_mode: none / dedup / full   (how much view consolidation buys)
* group_views: off / on             (multi-output shared scans)

Writes ``results/ablation.txt``.
"""

import statistics
from functools import partial

import pytest

from repro import LMFAO

from tests.engine.helpers import assert_results_equal

from .common import Report, alternating, covar_workload, dataset, spread, timed

pytestmark = pytest.mark.slow

DATASETS = ["retailer", "yelp"]

CONFIGS = [
    ("merge=none", dict(merge_mode="none")),
    ("merge=dedup", dict(merge_mode="dedup")),
    ("merge=full", dict(merge_mode="full")),
    ("groups=off", dict(group_views=False)),
    ("groups=on", dict(group_views=True)),
]
ROUNDS = 3

_measured = {}


@pytest.fixture(scope="module")
def answers(request):
    """Every configuration timed on one dataset in alternating rounds:
    the batch and each configuration's last answer."""
    name = request.param
    ds = dataset(name)
    batch = covar_workload(ds)
    engines = [LMFAO(ds.database, ds.join_tree, **kw) for _, kw in CONFIGS]
    stats = [engine.plan(batch).statistics for engine in engines]
    runs = alternating(
        ROUNDS, *(partial(timed, partial(e.run, batch)) for e in engines)
    )
    seconds = {
        label: [s for s, _ in config]
        for (label, _), config in zip(CONFIGS, runs)
    }
    full, none = seconds["merge=full"], seconds["merge=none"]
    _measured[name] = (
        [
            (label, statistics.median(seconds[label]), plan.n_views,
             plan.n_groups)
            for (label, _), plan in zip(CONFIGS, stats)
        ],
        [f / n for f, n in zip(full, none)],
    )
    return batch, [config[-1][1] for config in runs]


@pytest.mark.parametrize("answers", DATASETS, indirect=True, scope="module")
@pytest.mark.parametrize("config_index", range(len(CONFIGS)))
def test_design_choice(answers, config_index):
    batch, results = answers
    # every configuration answers the batch as merge=none does
    assert len(results[config_index]) == len(batch)
    assert_results_equal(results[config_index], results[0], batch)


def test_zz_ablation_report():
    report = Report(
        "ablation",
        f"{'dataset':10}{'configuration':16}{'seconds':>10}"
        f"{'views':>7}{'groups':>8}",
    )
    for name, (rows, full_vs_none) in _measured.items():
        for label, seconds, views, groups in rows:
            report.add(
                f"{name:10}{label:16}{seconds:>10.4f}{views:>7}{groups:>8}"
            )
        report.add(f"{name:10}merge=full / merge=none  {spread(full_vs_none)}")
    path = report.write()
    print(f"\nwrote {path}")
    # design-choice shape: full merging produces the fewest views and is
    # not slower than no merging
    for name, (rows, full_vs_none) in _measured.items():
        views = {label: n_views for label, _, n_views, _ in rows}
        assert views["merge=full"] < views["merge=none"]
        assert statistics.median(full_vs_none) <= 1.5, (name, full_vs_none)
