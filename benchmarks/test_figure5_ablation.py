"""Figure 5 — the optimization ladder ablation for the covar matrix.

Starting from the AC/DC proxy (no optimizations) the layers are enabled
one by one: multi-output (merging+grouping) and multi-root.  The paper's
shape: every step adds speedup >= ~1x on every dataset, with
multi-output contributing most.  Two of the paper's steps are not
reproduced: compilation (every engine interprets; README.md says why)
and parallelization with 4 threads (the engine is serial).
``results/figure5.txt`` holds the ladder.
"""

import statistics
from functools import partial

import pytest

from repro import LMFAO, workloads
from repro.baselines import FIGURE5_LADDER

from tests.engine.helpers import assert_results_equal

from .common import (
    DATASET_NAMES,
    PAPER_FIGURE5,
    Report,
    alternating,
    dataset,
    spread,
    timed,
)

pytestmark = pytest.mark.slow

ROUNDS = 3

_measured = {}


@pytest.fixture(scope="module")
def answers(request):
    """Every ladder step timed on one dataset in alternating rounds: the
    batch and each step's last answer."""
    name = request.param
    ds = dataset(name)
    batch = workloads.build(ds, "covar")
    engines = [
        LMFAO(ds.database, ds.join_tree, **kwargs)
        for _, kwargs in FIGURE5_LADDER
    ]
    for engine in engines:
        engine.plan(batch)  # exclude planning from the timing
    runs = alternating(
        ROUNDS, *(partial(timed, partial(e.run, batch)) for e in engines)
    )
    seconds = [[s for s, _ in steps] for steps in runs]
    _measured[name] = (
        [statistics.median(s) for s in seconds],
        # per round, the proxy against the best optimized configuration
        [first / min(rest) for first, *rest in zip(*seconds)],
    )
    return batch, [steps[-1][1] for steps in runs]


@pytest.mark.parametrize(
    "answers", DATASET_NAMES, indirect=True, scope="module"
)
@pytest.mark.parametrize("step", range(len(FIGURE5_LADDER)))
def test_ladder_step(answers, step):
    batch, results = answers
    # every step of the ladder answers the batch as the proxy does
    assert len(results[step]) == len(batch)
    assert_results_equal(results[step], results[0], batch)


def test_zz_figure5_report():
    report = Report(
        "figure5",
        f"{'dataset':10}{'configuration':32}{'seconds':>9}"
        f"{'step speedup':>13}{'paper step':>11}",
    )
    for name, (seconds, gains) in _measured.items():
        previous = None
        for step, (config_name, _) in enumerate(FIGURE5_LADDER):
            step_speedup = (previous / seconds[step]) if previous else 1.0
            paper_step = PAPER_FIGURE5[name][step]
            report.add(
                f"{name:10}{config_name:32}{seconds[step]:>9.4f}"
                f"{step_speedup:>12.2f}x{paper_step:>10.1f}x"
            )
            previous = seconds[step]
        report.add(f"{name:10}{'best optimized vs proxy':32}  {spread(gains)}")
    path = report.write()
    print(f"\nwrote {path}")
    # shape check: the best optimized configuration beats the proxy
    for name, (_, gains) in _measured.items():
        assert statistics.median(gains) >= 1.0, (
            f"no optimization gain on {name}: {gains}"
        )
