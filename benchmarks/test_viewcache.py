"""Cross-workload view cache & fusion benchmark.

Measures, on the retailer dataset, the two speedups the viewcache
subsystem exists for:

* **fusion** — covar + linreg + trees executed as one fused
  ``WorkloadSession`` DAG versus three independent engine runs.  What
  fusion can remove is the duplicated work: linreg's view DAG is
  covar's, so the fused run should cost one of the twins less.
  Acceptance bar: the fused run saves >= half the cheaper twin's
  independent time.  (The bar used to be a 1.3x ratio of the totals;
  a ratio moves with how fast the kernels are — halving the twins'
  cost while ``trees`` stays put caps it at 1.24x however well fusion
  works — so it is recorded, not asserted.);
* **warm cache** — re-running the fused session against a populated
  content-addressed ``ViewCache`` versus the cold run (every group
  skipped; acceptance bar >= 3x).

Ratios are always recorded in ``results/viewcache.txt`` *before* the
bars are asserted, so a regression still leaves the measurement behind.
Correctness rides along: fused results must match the independent runs.
"""

import os
import time

import pytest

from repro import LMFAO, ViewCache, WorkloadSession
from repro.ml import CovarBatch

from tests.engine.helpers import assert_results_equal

from .common import (
    RESULTS_DIR,
    BENCH_SCALE,
    covar_workload,
    dataset,
    regression_label,
    rt_node_workload,
)

pytestmark = pytest.mark.slow

REPEATS = 4
#: share of the cheaper twin's (covar, linreg) time fusion must save
FUSED_SAVING_BAR = 0.5
WARM_SPEEDUP_BAR = 3.0
CACHE_BUDGET_MB = 512


def linreg_workload(ds):
    """The batch ridge regression actually trains on: the full covar
    matrix over continuous + one-hot categorical features (what
    ``train_ridge`` consumes).  Structurally this is the covar
    workload — running covar, then linreg, recomputes a near-identical
    view DAG, which is precisely the cross-workload redundancy the
    cache/fusion subsystem removes."""
    label = regression_label(ds)
    continuous = [f for f in ds.continuous_features if f != label]
    return CovarBatch(continuous, ds.categorical_features, label).batch


def build_workloads(ds):
    planner = LMFAO(ds.database, ds.join_tree)
    return {
        "covar": covar_workload(ds),
        "linreg": linreg_workload(ds),
        "trees": rt_node_workload(ds, planner),
    }


def best_of(repeats, fn):
    best, value = float("inf"), None
    for _ in range(repeats):
        start = time.perf_counter()
        value = fn()
        best = min(best, time.perf_counter() - start)
    return best, value


def test_viewcache_benchmark():
    ds = dataset("retailer")
    workloads = build_workloads(ds)

    # independent baseline engines and the fused session, all planned
    # up front; the timed measurements below interleave both sides
    # round-robin so machine-load drift (this can run after two minutes
    # of other benchmark modules) hits them equally
    engines = {}
    for name, batch in workloads.items():
        engines[name] = LMFAO(ds.database, ds.join_tree)
        engines[name].plan(batch)  # planning untimed, as everywhere
    session = WorkloadSession(ds.database, ds.join_tree)
    for name, batch in workloads.items():
        session.add_workload(name, batch)
    session.engine.plan(session.fused_batch())

    independent_seconds = {name: float("inf") for name in workloads}
    independent_results = {}
    fused_seconds = float("inf")
    fused_results = None
    for _ in range(REPEATS):
        for name, batch in workloads.items():
            start = time.perf_counter()
            independent_results[name] = engines[name].run(batch)
            independent_seconds[name] = min(
                independent_seconds[name], time.perf_counter() - start
            )
        start = time.perf_counter()
        fused_results = session.run()
        fused_seconds = min(fused_seconds, time.perf_counter() - start)
    independent_total = sum(independent_seconds.values())
    fusion = session.fusion_report()

    for name, batch in workloads.items():
        assert_results_equal(
            fused_results[name], independent_results[name], batch,
            rtol=1e-8,
        )

    # -- cold vs warm cache (fused session + ViewCache) --------------------
    cache = ViewCache(budget_bytes=CACHE_BUDGET_MB << 20)
    with WorkloadSession(
        ds.database, ds.join_tree, cache=cache
    ) as cached_session:
        for name, batch in workloads.items():
            cached_session.add_workload(name, batch)
        cached_session.engine.plan(cached_session.fused_batch())
        start = time.perf_counter()
        cold_results = cached_session.run()
        cold_seconds = time.perf_counter() - start
        warm_seconds, warm_results = best_of(REPEATS, cached_session.run)

    assert warm_results.cache_report.n_misses == 0
    for name, batch in workloads.items():
        assert_results_equal(
            warm_results[name], cold_results[name], batch, rtol=0
        )

    fused_speedup = independent_total / fused_seconds
    duplicated = min(independent_seconds["covar"], independent_seconds["linreg"])
    fused_saving = (independent_total - fused_seconds) / duplicated
    warm_speedup = cold_seconds / warm_seconds

    # record everything BEFORE asserting the bars
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(os.path.join(RESULTS_DIR, "viewcache.txt"), "w") as handle:
        handle.write(
            f"view cache & fusion — covar+linreg+trees on retailer "
            f"(scale {BENCH_SCALE})\n"
        )
        for name, seconds in independent_seconds.items():
            handle.write(f"independent {name:8} {seconds:9.4f}s\n")
        handle.write(
            f"independent total    {independent_total:9.4f}s\n"
            f"fused                {fused_seconds:9.4f}s  "
            f"({fused_speedup:.2f}x; saves {fused_saving:.2f} of the "
            f"duplicated twin, bar {FUSED_SAVING_BAR})\n"
            f"cold cached          {cold_seconds:9.4f}s\n"
            f"warm cached          {warm_seconds:9.4f}s  "
            f"({warm_speedup:.2f}x, bar {WARM_SPEEDUP_BAR}x)\n"
            f"fused DAG: {fusion.views_fused} views vs "
            f"{fusion.views_independent} independent "
            f"({fusion.views_saved} shared)\n"
        )

    assert fused_saving >= FUSED_SAVING_BAR, (
        f"fused covar+linreg+trees must save >={FUSED_SAVING_BAR} of the "
        f"duplicated twin ({duplicated:.4f}s); measured {fused_saving:.2f} "
        f"({fused_seconds:.4f}s vs {independent_total:.4f}s)"
    )
    assert warm_speedup >= WARM_SPEEDUP_BAR, (
        f"warm-cache re-run must beat the cold run by "
        f">={WARM_SPEEDUP_BAR}x; measured {warm_speedup:.2f}x "
        f"({warm_seconds:.4f}s vs {cold_seconds:.4f}s)"
    )
