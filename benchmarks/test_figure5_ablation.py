"""Figure 5 — the optimization ladder ablation for the covar matrix.

Starting from the AC/DC proxy (no optimizations) the layers are enabled
one by one: compilation, multi-output (merging+grouping) and multi-root.
The paper's shape: every step adds speedup >= ~1x on every dataset,
with compilation and multi-output contributing most.  The paper's last
step, parallelization with 4 threads, is not reproduced (the engine is
serial).  ``results/figure5.txt`` holds the ladder.
"""

import pytest

from repro import LMFAO
from repro.baselines import FIGURE5_LADDER

from .common import DATASET_NAMES, PAPER_FIGURE5, Report, covar_workload, dataset

pytestmark = pytest.mark.slow

_measured = {}


@pytest.mark.parametrize("name", DATASET_NAMES)
@pytest.mark.parametrize("step", range(len(FIGURE5_LADDER)))
def test_ladder_step(benchmark, name, step):
    ds = dataset(name)
    config_name, kwargs = FIGURE5_LADDER[step]
    engine = LMFAO(ds.database, ds.join_tree, **kwargs)
    batch = covar_workload(ds)
    engine.plan(batch)  # exclude planning/compilation from the timing
    result = benchmark.pedantic(
        lambda: engine.run(batch), rounds=2, iterations=1, warmup_rounds=1
    )
    assert len(result) == len(batch)
    _measured[(name, step)] = benchmark.stats["mean"]


def test_zz_figure5_report(benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    report = Report(
        "figure5",
        f"{'dataset':10}{'configuration':32}{'seconds':>9}"
        f"{'step speedup':>13}{'paper step':>11}",
    )
    for name in DATASET_NAMES:
        previous = None
        for step, (config_name, _) in enumerate(FIGURE5_LADDER):
            seconds = _measured.get((name, step))
            if seconds is None:
                continue
            step_speedup = (previous / seconds) if previous else 1.0
            paper_step = PAPER_FIGURE5[name][step]
            report.add(
                f"{name:10}{config_name:32}{seconds:>9.4f}"
                f"{step_speedup:>12.2f}x{paper_step:>10.1f}x"
            )
            previous = seconds
        # shape check: the best configuration beats the proxy
        first = _measured.get((name, 0))
        best = min(
            _measured.get((name, s), float("inf"))
            for s in range(len(FIGURE5_LADDER))
        )
        if first is not None and best != float("inf"):
            assert best <= first, f"no optimization gain on {name}"
    path = report.write()
    print(f"\nwrote {path}")
