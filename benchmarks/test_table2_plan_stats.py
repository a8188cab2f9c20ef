"""Table 2 — aggregates (A+I), views (V) and groups (G) per workload.

These statistics are pure plan-shape quantities: they depend on schema
and workload, not on data scale, so this is the most directly comparable
table of the reproduction.  Times the planning (optimization) and
writes ``results/table2.txt``.
"""

import pytest

from repro import workloads

from .common import (
    DATASET_NAMES,
    PAPER_TABLE2,
    Report,
    alternating,
    dataset,
    spread,
    timed,
)

pytestmark = pytest.mark.slow

WORKLOADS = ["covar", "rt_node", "mi", "cube"]
ROUNDS = 3

_measured = {}


@pytest.mark.parametrize("name", DATASET_NAMES)
@pytest.mark.parametrize("workload", WORKLOADS)
def test_planning(workload, name, lmfao_engine):
    engine = lmfao_engine(name)
    batch = workloads.build(dataset(name), workload)

    def plan_fresh():
        engine._plan_cache.clear()
        return engine.plan(batch)

    (runs,) = alternating(ROUNDS, lambda: timed(plan_fresh))
    stats = runs[-1][1].statistics
    _measured[(workload, name)] = (
        stats, spread([seconds * 1000 for seconds, _ in runs])
    )
    # invariants that must hold at any scale
    assert stats.n_views >= 1
    assert stats.n_groups >= 1
    assert stats.n_application_aggregates == batch.n_application_aggregates


def test_zz_table2_report():
    report = Report(
        "table2",
        f"{'workload':10}{'dataset':10}{'paper A+I':>14}{'ours A+I':>14}"
        f"{'paper V':>9}{'ours V':>8}{'paper G':>9}{'ours G':>8}"
        f"  planning ms",
    )
    for workload in WORKLOADS:
        for name in DATASET_NAMES:
            if (workload, name) not in _measured:
                continue
            stats, planning_ms = _measured[(workload, name)]
            a, i, v, g = PAPER_TABLE2[(workload, name)]
            report.add(
                f"{workload:10}{name:10}"
                f"{f'{a}+{i}':>14}"
                f"{f'{stats.n_application_aggregates}+{stats.n_intermediate_aggregates}':>14}"
                f"{v:>9}{stats.n_views:>8}{g:>9}{stats.n_groups:>8}"
                f"  {planning_ms}"
            )
    path = report.write()
    print(f"\nwrote {path}")
