"""Incremental maintenance vs full re-evaluation (the IVM micro-benchmark).

For each bundled dataset this applies insert deltas of 1%/10%/50% of the
fact relation against a materialized covar workload and compares

* ``IncrementalEngine.apply_delta`` + ``run`` (delta run over the delta
  partition, distributive merge into the cached views, results
  assembled from the repaired cache), against
* full re-evaluation: the same ``run`` on a cleared view cache over the
  updated database (planning excluded from both sides).

Expected shape: maintenance cost scales with the delta, not the
database, so the speedup is largest at 1% and decays toward parity as
the delta approaches the relation size.  The hard acceptance bar is a
>=3x speedup at 1% on the largest bundled dataset, taken as the median
of ``FLOOR_PAIRS`` alternating (1 % repair, cold run) pairs: single
pairs of one run read from 2.5x to 4.7x on a busy 2-CPU host, so a
single shot can fail a change that moved nothing.  ``results/ivm.txt`` holds the
full grid and the pairs' range.
"""

import json
import sys
import time

import numpy as np
import pytest

from repro import DeltaBatch, IncrementalEngine

from .common import (
    DATASET_NAMES,
    Report,
    covar_workload,
    dataset,
    measured_in_fresh_interpreter,
)

pytestmark = pytest.mark.slow

DELTA_FRACTIONS = [0.01, 0.10, 0.50]

#: alternating (repair, cold run) pairs the speed-up floor takes the
#: median of
FLOOR_PAIRS = 7

#: alternating pairs each grid cell takes the minimum of, per side
GRID_PAIRS = 3


def largest_dataset_name() -> str:
    return max(
        DATASET_NAMES, key=lambda n: dataset(n).database.total_tuples()
    )


def sample_inserts(rng, relation, n):
    idx = rng.integers(0, relation.n_rows, n)
    return {a: relation.column(a)[idx] for a in relation.schema.names}


def measure(name, fraction, n_pairs):
    """``n_pairs`` of (repair s, cold run s), alternating.

    A repair is ``apply_delta`` of a ``fraction`` insert at the root
    plus the run served from the repaired views (delta run over the
    delta partition, distributive merge into the cached views).  The
    cold run that follows it re-executes the cached plan from scratch
    on a cleared cache — the exact work ``apply_delta`` avoids, planning
    cached on both sides — and so leaves the cache warm for the next
    pair's repair.
    """
    ds = dataset(name)
    engine = IncrementalEngine(ds.database, ds.join_tree)
    batch = covar_workload(ds)
    engine.run(batch)  # materialize views; plan cached
    rng = np.random.default_rng(42)
    pairs = []
    for _ in range(n_pairs):
        fact = engine.database.relation(engine.root)
        delta = DeltaBatch.insert(
            engine.root,
            sample_inserts(rng, fact, max(1, int(fact.n_rows * fraction))),
        )
        t0 = time.perf_counter()
        report = engine.apply_delta(delta)
        maintained = engine.run(batch)
        t1 = time.perf_counter()
        assert report.all_incremental, report
        assert maintained.cache_report.n_misses == 0
        engine.view_cache.clear()
        engine.run(batch)
        pairs.append((t1 - t0, time.perf_counter() - t1))
    return pairs


@pytest.fixture(scope="module")
def measured():
    """The grid and the floor pairs, measured in a fresh interpreter.

    The ratio depends on allocator state the benchmark modules before
    this one leave behind: once any of them has freed a huge array (the
    merge-mode ablation peaks at 1 GB) glibc's raised mmap/trim
    thresholds recycle every large temporary from the heap, and a cold
    run drops from 71 000 minor page faults and ~210 ms to 6 and
    ~110 ms, while a 1 % delta repair — not allocation-bound — stays at
    ~25 ms.  A fresh process is the state a standalone
    ``IncrementalEngine`` user is in, and the same whatever ran first.
    """
    return measured_in_fresh_interpreter(__name__)


@pytest.fixture(scope="module")
def grid(measured):
    """{(dataset, fraction): (incremental s, full s)}, each side the
    minimum over its pairs."""
    return {
        (name, fraction): tuple(np.min(pairs, axis=0))
        for name, fraction, pairs in measured["grid"]
    }


@pytest.mark.parametrize("fraction", DELTA_FRACTIONS)
@pytest.mark.parametrize("name", DATASET_NAMES)
def test_delta_vs_full(grid, name, fraction):
    incremental_s, full_s = grid[(name, fraction)]
    # maintenance must never cost meaningfully more than recomputation
    assert full_s / incremental_s > 0.5, (
        f"{name} @ {fraction:.0%}: incremental {incremental_s:.4f}s vs "
        f"full {full_s:.4f}s"
    )


def test_zz_speedup_floor_and_report(grid, measured):
    report = Report(
        "ivm",
        f"{'dataset':10}{'delta':>7}{'incremental s':>15}{'full s':>10}"
        f"{'speedup':>9}",
    )
    for (name, fraction), (inc_s, full_s) in grid.items():
        report.add(
            f"{name:10}{fraction:>6.0%}{inc_s:>15.5f}{full_s:>10.5f}"
            f"{full_s / inc_s:>8.1f}x"
        )
    name = largest_dataset_name()
    speedups = sorted(full_s / inc_s for inc_s, full_s in measured["floor"])
    median = float(np.median(speedups))
    report.add(
        f"floor: {name} 1% median {median:.1f}x over {len(speedups)} "
        f"alternating (repair, cold run) pairs, range "
        f"{speedups[0]:.1f}x-{speedups[-1]:.1f}x"
    )
    path = report.write()
    print(f"\nwrote {path}")
    assert len(speedups) >= 5
    assert median >= 3.0, (
        f"1% delta on {name} only {median:.1f}x faster than full "
        f"re-evaluation (median of {speedups})"
    )


if __name__ == "__main__":  # the child process of the ``measured`` fixture
    json.dump(
        {
            "floor": measure(largest_dataset_name(), 0.01, FLOOR_PAIRS),
            "grid": [
                [name, fraction, measure(name, fraction, GRID_PAIRS)]
                for name in DATASET_NAMES
                for fraction in DELTA_FRACTIONS
            ],
        },
        sys.stdout,
    )
