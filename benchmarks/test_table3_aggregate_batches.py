"""Table 3 — aggregate-batch computation: LMFAO vs the per-query baseline.

For each dataset and each workload (count, covar matrix, regression-tree
node, mutual information, data cube) this benchmarks

* LMFAO (all layers on), and
* the materialized-join baseline, which evaluates every query
  independently over the join — the paper's DBX/MonetDB stand-in.

The expected *shape* (paper Table 3): LMFAO wins everywhere except
possibly the bare count query (nothing to share), with the largest gaps
on covar and regression-tree batches.  ``results/table3.txt`` holds the
paper-vs-measured speedups.
"""

import time

import pytest

from .common import (
    DATASET_NAMES,
    PAPER_TABLE3,
    Report,
    count_batch,
    covar_workload,
    cube_workload,
    dataset,
    mi_workload,
    rt_node_workload,
)

pytestmark = pytest.mark.slow

WORKLOADS = ["count", "covar", "rt_node", "mi", "cube"]

_measured = {}


def build_batch(workload, name, engine):
    ds = dataset(name)
    if workload == "count":
        return count_batch()
    if workload == "covar":
        return covar_workload(ds)
    if workload == "rt_node":
        return rt_node_workload(ds, engine)
    if workload == "mi":
        return mi_workload(ds)
    return cube_workload(ds)


@pytest.mark.parametrize("name", DATASET_NAMES)
@pytest.mark.parametrize("workload", WORKLOADS)
def test_lmfao(benchmark, workload, name, lmfao_engine):
    engine = lmfao_engine(name)
    batch = build_batch(workload, name, engine)
    engine.plan(batch)  # plan once, outside the timing (warm cache)
    result = benchmark.pedantic(
        lambda: engine.run(batch), rounds=2, iterations=1, warmup_rounds=1
    )
    assert len(result) == len(batch)
    _measured[("lmfao", workload, name)] = benchmark.stats["mean"]


@pytest.mark.parametrize("name", DATASET_NAMES)
@pytest.mark.parametrize("workload", WORKLOADS)
def test_materialized_baseline(
    benchmark, workload, name, lmfao_engine, materialized_engine
):
    engine = materialized_engine(name)
    batch = build_batch(workload, name, lmfao_engine(name))
    result = benchmark.pedantic(
        lambda: engine.run(batch), rounds=2, iterations=1, warmup_rounds=1
    )
    assert len(result) == len(batch)
    _measured[("baseline", workload, name)] = benchmark.stats["mean"]


def test_zz_table3_report(benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    report = Report(
        "table3",
        f"{'workload':10}{'dataset':10}{'lmfao s':>10}{'baseline s':>12}"
        f"{'speedup':>9}{'paper speedup (DBX)':>21}",
    )
    shape_checks = []
    for workload in WORKLOADS:
        for name in DATASET_NAMES:
            lmfao_s = _measured.get(("lmfao", workload, name))
            base_s = _measured.get(("baseline", workload, name))
            if lmfao_s is None or base_s is None:
                continue
            speedup = base_s / lmfao_s
            paper_lmfao, paper_dbx, _ = PAPER_TABLE3[(workload, name)]
            paper_speedup = paper_dbx / paper_lmfao
            report.add(
                f"{workload:10}{name:10}{lmfao_s:>10.4f}{base_s:>12.4f}"
                f"{speedup:>8.1f}x{paper_speedup:>20.1f}x"
            )
            if workload != "count":
                shape_checks.append((workload, name, speedup))
    path = report.write()
    print(f"\nwrote {path}")
    # reproduction shape: LMFAO wins each sharing-heavy workload overall
    # (geometric mean across datasets) and never loses badly on a single
    # cell (individual cells are noisy at laptop scale)
    import math

    by_workload = {}
    for workload, name, speedup in shape_checks:
        by_workload.setdefault(workload, []).append(speedup)
    for workload, speedups in by_workload.items():
        geo_mean = math.exp(
            sum(math.log(s) for s in speedups) / len(speedups)
        )
        assert geo_mean > 1.0, (
            f"LMFAO loses workload {workload} overall: {speedups}"
        )
    badly_losing = [c for c in shape_checks if c[2] < 0.5]
    assert not badly_losing, f"LMFAO far behind on: {badly_losing}"
