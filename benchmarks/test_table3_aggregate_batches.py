"""Table 3 — aggregate-batch computation: LMFAO vs the per-query baseline.

For each dataset and each workload (count, covar matrix, regression-tree
node, mutual information, data cube) this times, in alternating rounds,

* LMFAO (all layers on), and
* the materialized-join baseline, which evaluates every query
  independently over the join — the paper's DBX/MonetDB stand-in.

The expected *shape* (paper Table 3): LMFAO wins everywhere except
possibly the bare count query (nothing to share), with the largest gaps
on covar and regression-tree batches.  A cell's speedup is the median
of its per-round ratios; both tests of a cell read the one measurement.
``results/table3.txt`` holds the paper-vs-measured speedups.
"""

import math
import statistics

import pytest

from repro import workloads

from tests.engine.helpers import assert_results_equal

from .common import (
    DATASET_NAMES,
    PAPER_TABLE3,
    Report,
    alternating,
    count_batch,
    dataset,
    spread,
    timed,
)

pytestmark = pytest.mark.slow

WORKLOADS = ["count", "covar", "rt_node", "mi", "cube"]
ROUNDS = 3

_measured = {}


def build_batch(workload, name):
    if workload == "count":
        return count_batch()
    return workloads.build(dataset(name), workload)


@pytest.fixture(
    scope="module",
    params=[(w, n) for w in WORKLOADS for n in DATASET_NAMES],
    ids="-".join,
)
def cell(request, lmfao_engine, materialized_engine):
    """Both sides of one (workload, dataset) cell timed in alternating
    rounds: the batch and each side's answer per round."""
    workload, name = request.param
    engine, baseline = lmfao_engine(name), materialized_engine(name)
    batch = build_batch(workload, name)
    engine.plan(batch)  # plan once, outside the timing (warm cache)
    lmfao, base = alternating(
        ROUNDS,
        lambda: timed(lambda: engine.run(batch)),
        lambda: timed(lambda: baseline.run(batch)),
    )
    _measured[request.param] = (
        statistics.median(a for a, _ in lmfao),
        statistics.median(b for b, _ in base),
        [b / a for (a, _), (b, _) in zip(lmfao, base)],
    )
    return batch, [r for _, r in lmfao], [r for _, r in base]


def test_lmfao(cell):
    batch, lmfao, _ = cell
    # a planned batch answers every query, and alike in every round
    assert len(lmfao[0]) == len(batch)
    for answer in lmfao[1:]:
        assert_results_equal(answer, lmfao[0], batch)


def test_materialized_baseline(cell):
    batch, lmfao, base = cell
    # the per-query baseline is the reference LMFAO's answers must match
    assert len(base[-1]) == len(batch)
    assert_results_equal(lmfao[-1], base[-1], batch)


def test_zz_table3_report():
    report = Report(
        "table3",
        f"{'workload':10}{'dataset':10}{'lmfao s':>10}{'baseline s':>12}"
        f"  {'speedup':28}{'paper speedup (DBX)':>20}",
    )
    shape_checks = []
    for workload in WORKLOADS:
        for name in DATASET_NAMES:
            if (workload, name) not in _measured:
                continue
            lmfao_s, base_s, speedups = _measured[(workload, name)]
            paper_lmfao, paper_dbx, _ = PAPER_TABLE3[(workload, name)]
            paper_speedup = paper_dbx / paper_lmfao
            report.add(
                f"{workload:10}{name:10}{lmfao_s:>10.4f}{base_s:>12.4f}"
                f"  {spread(speedups):28}{paper_speedup:>19.1f}x"
            )
            if workload != "count":
                shape_checks.append(
                    (workload, name, statistics.median(speedups))
                )
    path = report.write()
    print(f"\nwrote {path}")
    # reproduction shape: LMFAO wins each sharing-heavy workload overall
    # (geometric mean across datasets) and never loses badly on a single
    # cell (individual cells are noisy at laptop scale)
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
