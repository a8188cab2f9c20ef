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
of ``FLOOR_ROUNDS`` alternating (1 % repair, cold run) rounds: single
pairs of one run read from 2.5x to 4.7x on a busy 2-CPU host, so a
single shot can fail a change that moved nothing.  Each grid cell must
not be meaningfully slower than recomputation, in the median of
``GRID_ROUNDS`` rounds.  ``results/ivm.txt`` holds the full grid and
every cell's spread.
"""

import json
import statistics
import sys

import numpy as np
import pytest

from repro import DeltaBatch, IncrementalEngine, workloads

from .common import (
    DATASET_NAMES,
    Report,
    alternating,
    dataset,
    measured_in_fresh_interpreter,
    spread,
    timed,
)

pytestmark = pytest.mark.slow

DELTA_FRACTIONS = [0.01, 0.10, 0.50]

#: alternating (repair, cold run) rounds the speed-up floor takes the
#: median of
FLOOR_ROUNDS = 15

#: alternating rounds each grid cell takes the median of
GRID_ROUNDS = 3


def largest_dataset_name() -> str:
    return max(
        DATASET_NAMES, key=lambda n: dataset(n).database.total_tuples()
    )


def sample_inserts(rng, relation, n):
    idx = rng.integers(0, relation.n_rows, n)
    return {a: relation.column(a)[idx] for a in relation.schema.names}


def measure(name, fraction, rounds):
    """(repair seconds, cold run seconds) of ``rounds`` alternating rounds.

    A repair is ``apply_delta`` of a ``fraction`` insert at the root
    plus the run served from the repaired views (delta run over the
    delta partition, distributive merge into the cached views).  The
    cold run re-executes the cached plan from scratch on a cleared
    cache — the exact work ``apply_delta`` avoids, planning cached on
    both sides — and so leaves the cache warm for the next repair.
    """
    ds = dataset(name)
    engine = IncrementalEngine(ds.database, ds.join_tree)
    batch = workloads.build(ds, "covar")
    engine.run(batch)  # materialize views; plan cached
    rng = np.random.default_rng(42)

    def repair():
        fact = engine.database.relation(engine.root)
        delta = DeltaBatch.insert(
            engine.root,
            sample_inserts(rng, fact, max(1, int(fact.n_rows * fraction))),
        )
        seconds, (report, maintained) = timed(
            lambda: (engine.apply_delta(delta), engine.run(batch))
        )
        assert report.all_incremental, report
        assert maintained.cache_report.n_misses == 0
        return seconds

    def cold():
        engine.view_cache.clear()
        return timed(lambda: engine.run(batch))[0]

    return alternating(rounds, repair, cold)


@pytest.fixture(scope="module")
def measured():
    """The grid and the floor rounds, measured in a fresh interpreter.

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


def speedups(rounds):
    """Per-round cold run / repair seconds of one ``measure``."""
    repairs, colds = rounds
    return [cold / repair for repair, cold in zip(repairs, colds)]


@pytest.mark.parametrize("fraction", DELTA_FRACTIONS)
@pytest.mark.parametrize("name", DATASET_NAMES)
def test_delta_vs_full(measured, name, fraction):
    ratios = speedups(measured["grid"][f"{name} {fraction}"])
    # maintenance must never cost meaningfully more than recomputation
    assert statistics.median(ratios) > 0.5, (
        f"{name} @ {fraction:.0%}: full / incremental {spread(ratios)}"
    )


def test_zz_speedup_floor_and_report(measured):
    report = Report(
        "ivm",
        f"{'dataset':10}{'delta':>7}{'repair ms':>11}{'cold ms':>9}"
        f"  full / incremental per round",
    )
    for name in DATASET_NAMES:
        for fraction in DELTA_FRACTIONS:
            rounds = measured["grid"][f"{name} {fraction}"]
            report.add(
                f"{name:10}{fraction:>6.0%}"
                f"{statistics.median(rounds[0]) * 1000:>11.1f}"
                f"{statistics.median(rounds[1]) * 1000:>9.1f}"
                f"  {spread(speedups(rounds))}"
            )
    name = largest_dataset_name()
    floor = speedups(measured["floor"])
    report.add(f"floor: {name} 1% full / incremental {spread(floor)}")
    path = report.write()
    print(f"\nwrote {path}")
    median = statistics.median(floor)
    assert median >= 3.0, (
        f"1% delta on {name} only {median:.1f}x faster than full "
        f"re-evaluation ({spread(floor)})"
    )


if __name__ == "__main__":  # the child process of the ``measured`` fixture
    json.dump(
        {
            "floor": measure(largest_dataset_name(), 0.01, FLOOR_ROUNDS),
            "grid": {
                f"{name} {fraction}": measure(name, fraction, GRID_ROUNDS)
                for name in DATASET_NAMES
                for fraction in DELTA_FRACTIONS
            },
        },
        sys.stdout,
    )
