"""Cross-workload view cache & fusion benchmark.

Measures, on the retailer dataset, the two speedups the viewcache
subsystem exists for:

* **fusion** — covar + linreg + trees executed as one fused
  ``WorkloadSession`` DAG versus three independent engine runs.  What
  fusion can remove is the duplicated work: linreg's view DAG is
  covar's, so the fused run should cost one of the twins less.
  Acceptance bar: in the median of ``ROUNDS`` alternating rounds, the
  fused run saves >= half the cheaper twin's independent time.  (The
  bar used to be a 1.3x ratio of the totals; a ratio moves with how
  fast the kernels are — halving the twins' cost while ``trees`` stays
  put caps it at 1.24x however well fusion works — so it is recorded,
  not asserted.);
* **warm cache** — re-running the fused session against a populated
  content-addressed ``ViewCache`` versus a run on the cleared cache
  (every group skipped; acceptance bar >= 3x in the median of
  ``WARM_ROUNDS`` alternating rounds).

Ratios are always recorded in ``results/viewcache.txt`` *before* the
bars are asserted, so a regression still leaves the measurement behind.
Correctness rides along: fused results must match the independent runs.
"""

import statistics

import pytest

from repro import LMFAO, ViewCache, WorkloadSession
from repro.workloads import build as build_batch

from tests.engine.helpers import assert_results_equal

from .common import (
    BENCH_SCALE,
    Report,
    alternating,
    dataset,
    spread,
    timed,
)

pytestmark = pytest.mark.slow

#: alternating rounds of independent vs fused runs
ROUNDS = 9
#: alternating rounds of cold vs warm cached runs
WARM_ROUNDS = 9
#: share of the cheaper twin's (covar, linreg) time fusion must save
FUSED_SAVING_BAR = 0.5
WARM_SPEEDUP_BAR = 3.0
CACHE_BUDGET_MB = 512


def build_workloads(ds):
    """covar, linreg and trees: linreg's batch is covar's (ridge
    regression trains on the covar matrix), which is precisely the
    cross-workload redundancy the cache/fusion subsystem removes."""
    return {
        name: build_batch(ds, name) for name in ("covar", "linreg", "trees")
    }


def test_viewcache_benchmark():
    ds = dataset("retailer")
    workloads = build_workloads(ds)

    # independent baseline engines and the fused session, all planned
    # up front (planning untimed, as everywhere)
    engines = {}
    for name, batch in workloads.items():
        engines[name] = LMFAO(ds.database, ds.join_tree)
        engines[name].plan(batch)
    session = WorkloadSession(ds.database, ds.join_tree)
    for name, batch in workloads.items():
        session.add_workload(name, batch)
    session.engine.plan(session.fused_batch())

    # one untimed call each, checked: fused results match independent ones
    fused_results = session.run()
    for name, batch in workloads.items():
        assert_results_equal(
            fused_results[name], engines[name].run(batch), batch, rtol=1e-8
        )

    def run_independent():
        return {
            name: timed(lambda: engines[name].run(batch))[0]
            for name, batch in workloads.items()
        }

    seconds, fused = alternating(
        ROUNDS, run_independent, lambda: timed(session.run)[0]
    )
    totals = [sum(by_name.values()) for by_name in seconds]
    savings = [
        (total - fused_s) / min(by_name["covar"], by_name["linreg"])
        for total, by_name, fused_s in zip(totals, seconds, fused)
    ]
    fusion = session.fusion_report()

    # -- cold vs warm cache (fused session + ViewCache) --------------------
    cache = ViewCache(budget_bytes=CACHE_BUDGET_MB << 20)
    with WorkloadSession(
        ds.database, ds.join_tree, cache=cache
    ) as cached_session:
        for name, batch in workloads.items():
            cached_session.add_workload(name, batch)
        cached_session.engine.plan(cached_session.fused_batch())

        def cold():
            cache.clear()
            return timed(cached_session.run)[0]

        def warm():
            seconds, result = timed(cached_session.run)
            assert result.cache_report.n_misses == 0
            return seconds

        # one untimed call each, checked: warm results equal cold ones
        cold_results = cached_session.run()
        warm_results = cached_session.run()
        for name, batch in workloads.items():
            assert_results_equal(
                warm_results[name], cold_results[name], batch, rtol=0
            )
        # a cold run leaves the cache warm, so every warm run finds it
        # populated whichever side goes first
        cold_runs, warm_runs = alternating(WARM_ROUNDS, cold, warm)
    warm_speedups = [c / w for c, w in zip(cold_runs, warm_runs)]

    # record everything BEFORE asserting the bars
    report = Report(
        "viewcache",
        f"view cache & fusion — covar+linreg+trees on retailer "
        f"(scale {BENCH_SCALE}); seconds are medians",
    )
    for name in workloads:
        report.add(
            f"independent {name:8} "
            f"{statistics.median(by_name[name] for by_name in seconds):9.4f}s"
        )
    report.add(f"independent total    {statistics.median(totals):9.4f}s")
    report.add(
        f"fused                {statistics.median(fused):9.4f}s"
        f"  (independent / fused: "
        f"{spread([t / f for t, f in zip(totals, fused)])})"
    )
    report.add(
        f"fused saving, share of the duplicated twin: {spread(savings)} "
        f"(bar {FUSED_SAVING_BAR})"
    )
    report.add(f"cold cached          {statistics.median(cold_runs):9.4f}s")
    report.add(f"warm cached          {statistics.median(warm_runs):9.4f}s")
    report.add(
        f"warm speedup: {spread(warm_speedups)} (bar {WARM_SPEEDUP_BAR}x)"
    )
    report.add(
        f"fused DAG: {fusion.views_fused} views vs "
        f"{fusion.views_independent} independent "
        f"({fusion.views_saved} shared)"
    )
    report.write()

    fused_saving = statistics.median(savings)
    assert fused_saving >= FUSED_SAVING_BAR, (
        f"fused covar+linreg+trees must save >={FUSED_SAVING_BAR} of the "
        f"duplicated twin in the median round; measured "
        f"{spread(savings)}"
    )
    warm_speedup = statistics.median(warm_speedups)
    assert warm_speedup >= WARM_SPEEDUP_BAR, (
        f"warm-cache re-run must beat the cold run by "
        f">={WARM_SPEEDUP_BAR}x in the median round; measured "
        f"{spread(warm_speedups)}"
    )
