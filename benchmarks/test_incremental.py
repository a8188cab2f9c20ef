"""Incremental maintenance vs full re-evaluation (the IVM micro-benchmark).

For each bundled dataset this applies insert deltas of 1%/10%/50% of the
fact relation against a materialized covar workload and compares

* ``IncrementalEngine.apply_delta`` + ``run`` (delta run over the delta
  partition, distributive merge into the cached views, results
  assembled from the repaired cache), against
* full re-evaluation: the same ``run`` on a cleared view cache over the
  updated database (planning/compilation excluded from both sides).

Expected shape: maintenance cost scales with the delta, not the
database, so the speedup is largest at 1% and decays toward parity as
the delta approaches the relation size.  The hard acceptance bar is a
>=5x speedup at 1% on the largest bundled dataset; ``results/ivm.txt``
holds the full grid.
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


def largest_dataset_name() -> str:
    return max(
        DATASET_NAMES, key=lambda n: dataset(n).database.total_tuples()
    )


def sample_inserts(rng, relation, n):
    idx = rng.integers(0, relation.n_rows, n)
    return {a: relation.column(a)[idx] for a in relation.schema.names}


def measure(name, fraction):
    """(incremental, full) seconds for one dataset and delta fraction."""
    ds = dataset(name)
    engine = IncrementalEngine(ds.database, ds.join_tree)
    batch = covar_workload(ds)
    engine.run(batch)  # materialize views; plan+compile cached

    rng = np.random.default_rng(42)
    t_incremental = []
    for _ in range(3):
        fact = engine.database.relation(engine.root)
        n_delta = max(1, int(fact.n_rows * fraction))
        delta = DeltaBatch.insert(
            engine.root, sample_inserts(rng, fact, n_delta)
        )
        t0 = time.perf_counter()
        report = engine.apply_delta(delta)
        maintained = engine.run(batch)
        t_incremental.append(time.perf_counter() - t0)
        assert report.all_incremental, report
        assert maintained.cache_report.n_misses == 0

    t_full = []
    for _ in range(3):
        # a cold run on a cleared cache re-executes the cached plan from
        # scratch — the exact work apply_delta avoids (planning and
        # compilation cached on both sides)
        engine.view_cache.clear()
        t0 = time.perf_counter()
        engine.run(batch)
        t_full.append(time.perf_counter() - t0)
    return min(t_incremental), min(t_full)


@pytest.fixture(scope="module")
def grid():
    """{(dataset, fraction): (incremental s, full s)}, measured in a
    fresh interpreter.

    The ratio depends on allocator state the benchmark modules before
    this one leave behind: once any of them has freed a huge array (the
    merge-mode ablation peaks at 1 GB) glibc's raised mmap/trim
    thresholds recycle every large temporary from the heap, and a cold
    run drops from 71 000 minor page faults and ~210 ms to 6 and
    ~110 ms, while a 1 % delta repair — not allocation-bound — stays at
    ~25 ms.  A fresh process is the state a standalone
    ``IncrementalEngine`` user is in, and the same whatever ran first.
    """
    return {
        (name, fraction): (incremental_s, full_s)
        for name, fraction, incremental_s, full_s in (
            measured_in_fresh_interpreter(__name__)
        )
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


def test_zz_speedup_floor_and_report(grid):
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
    path = report.write()
    print(f"\nwrote {path}")
    inc_s, full_s = grid[(largest_dataset_name(), 0.01)]
    assert full_s / inc_s >= 5.0, (
        f"1% delta on {largest_dataset_name()} only {full_s / inc_s:.1f}x "
        "faster than full re-evaluation"
    )


if __name__ == "__main__":  # the child process of the ``grid`` fixture
    json.dump(
        [
            [name, fraction, *measure(name, fraction)]
            for name in DATASET_NAMES
            for fraction in DELTA_FRACTIONS
        ],
        sys.stdout,
    )
