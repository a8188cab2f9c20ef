"""Scale sensitivity: the LMFAO-vs-baseline gap grows with data size.

EXPERIMENTS.md attributes the compressed Table 3 magnitudes to the small
benchmark scale (per-view constant costs vs data-bound work).  This
module measures the covar workload at three scales and asserts the
claim: the speedup over the per-query baseline is non-shrinking in
scale.  Writes ``results/scale_sensitivity.txt``.
"""

import json
import sys
import time

import pytest

from repro import LMFAO
from repro.baselines import MaterializedEngine
from repro.datasets import favorita
from repro.ml import CovarBatch

from .common import Report, measured_in_fresh_interpreter

pytestmark = pytest.mark.slow

SCALES = [0.1, 0.3, 0.9]
ROUNDS = 5


def covar_batch_for(ds):
    return CovarBatch(
        ["txns", "price"],
        ["stype", "promo", "family", "locale", "cluster"],
        "units",
    ).batch


def best_of(run) -> float:
    """Min seconds of ``ROUNDS`` runs after one unmeasured warm-up."""
    run()
    times = []
    for _ in range(ROUNDS):
        t0 = time.perf_counter()
        run()
        times.append(time.perf_counter() - t0)
    return min(times)


def measure(scale):
    """(lmfao, baseline) seconds for the covar batch at one scale."""
    ds = favorita(scale=scale)
    batch = covar_batch_for(ds)
    engine = LMFAO(ds.database, ds.join_tree)
    baseline = MaterializedEngine(ds.database)
    assert len(engine.run(batch)) == len(batch)
    assert len(baseline.run(batch)) == len(batch)
    return best_of(lambda: engine.run(batch)), best_of(
        lambda: baseline.run(batch)
    )


@pytest.fixture(scope="module")
def grid():
    """{scale: (lmfao s, baseline s)}, measured in a fresh interpreter.

    Timed inside the suite, the ratio at the largest scale swings
    between 4.2 and 6.0 with the allocator state the modules before
    this one leave; a fresh process is the same state whatever ran
    first (see ``test_incremental.grid``).
    """
    return {
        scale: (lmfao_s, base_s)
        for scale, lmfao_s, base_s in measured_in_fresh_interpreter(__name__)
    }


@pytest.mark.parametrize("scale", SCALES)
def test_lmfao_beats_baseline_at_scale(grid, scale):
    lmfao_s, base_s = grid[scale]
    assert lmfao_s < base_s, (scale, lmfao_s, base_s)


def test_zz_scale_report(grid):
    report = Report(
        "scale_sensitivity",
        f"{'scale':>7}{'lmfao s':>10}{'baseline s':>12}{'speedup':>9}",
    )
    speedups = []
    for scale in SCALES:
        lmfao_s, base_s = grid[scale]
        speedups.append(base_s / lmfao_s)
        report.add(
            f"{scale:>7}{lmfao_s:>10.4f}{base_s:>12.4f}"
            f"{speedups[-1]:>8.1f}x"
        )
    path = report.write()
    print(f"\nwrote {path}")
    # the claim: the gap does not shrink as data grows (allowing noise)
    assert speedups[-1] >= speedups[0] * 0.8, speedups


if __name__ == "__main__":  # the child process of the ``grid`` fixture
    json.dump([[scale, *measure(scale)] for scale in SCALES], sys.stdout)
