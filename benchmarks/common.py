"""Shared benchmark infrastructure.

Each benchmark module regenerates one table or figure of the paper's
evaluation (Section 4).  Paper reference numbers are embedded below so
every report shows *paper vs measured* side by side.  Absolute times are
not comparable (the paper ran a C++ engine on 87-125M row datasets; we
run NumPy kernels on synthetic data at laptop scale) — the reproduction
target is the *shape*: who wins, by roughly what factor, and where the
layers contribute.

Scale via ``REPRO_BENCH_SCALE`` (default 0.3).  Every timing goes
through :func:`alternating` and :func:`timed`, and every bar asserts
its bound on the median of the per-round ratios of one
:func:`alternating` call.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time
from typing import Callable, Dict, List, Sequence, Tuple, TypeVar

from repro.datasets import favorita, retailer, tpcds, yelp
from repro.ml import CovarBatch, build_cube_batch, build_mi_batch
from repro.ml.trees import CARTLearner
from repro.query.aggregates import Aggregate
from repro.query.query import Query, QueryBatch

BENCH_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "0.3"))
DATASET_NAMES = ["retailer", "favorita", "yelp", "tpcds"]

_GENERATORS = {
    "retailer": retailer,
    "favorita": favorita,
    "yelp": yelp,
    "tpcds": tpcds,
}
_CACHE: Dict[str, object] = {}

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


def dataset(name: str):
    """Session-cached dataset instance at benchmark scale."""
    if name not in _CACHE:
        _CACHE[name] = _GENERATORS[name](scale=BENCH_SCALE)
    return _CACHE[name]


def regression_label(ds) -> str:
    """A continuous label for covar/RT workloads on every dataset."""
    if ds.database.attribute_kind(ds.label) == "continuous":
        return ds.label
    return ds.continuous_features[0]


T = TypeVar("T")


def alternating(rounds: int, *sides: Callable[[], T]) -> List[List[T]]:
    """Call each side once per round, ``rounds`` times; return what each
    side returned, one list per side in round order.

    Round ``i`` starts at side ``i mod n`` and goes on in order, so every
    side goes first equally often: a burst of load from another process
    on a shared host, or state one side leaves for the next, lands on
    every side alike instead of on one side's time.
    """
    results: List[List[T]] = [[] for _ in sides]
    for i in range(rounds):
        for k in range(len(sides)):
            side = (i + k) % len(sides)
            results[side].append(sides[side]())
    return results


def timed(fn: Callable[[], T]) -> Tuple[float, T]:
    """Seconds one call of ``fn`` took, and what it returned."""
    start = time.perf_counter()
    value = fn()
    return time.perf_counter() - start, value


def spread(values: Sequence[float]) -> str:
    """``median [min, max] over n`` of ``values``."""
    ordered = sorted(values)
    return (
        f"{statistics.median(ordered):.3g} [{ordered[0]:.3g}, "
        f"{ordered[-1]:.3g}] over {len(ordered)}"
    )


def measured_in_fresh_interpreter(module: str):
    """Run ``python -m <module>`` and parse the JSON it prints.

    Timing ratios depend on the allocator state earlier benchmark
    modules leave behind (see ``test_incremental.measured``); a module that
    asserts one measures its grid in a child process, which is in the
    same state whatever ran first.
    """
    done = subprocess.run(
        [sys.executable, "-m", module],
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


# ---------------------------------------------------------------------------
# The Table 2 / Table 3 workload batches
# ---------------------------------------------------------------------------


def count_batch() -> QueryBatch:
    return QueryBatch([Query("count", [], [Aggregate.count()])])


def covar_workload(ds) -> QueryBatch:
    label = regression_label(ds)
    continuous = [f for f in ds.continuous_features if f != label]
    return CovarBatch(continuous, ds.categorical_features, label).batch


def rt_node_workload(ds, engine) -> QueryBatch:
    """The regression-tree-node batch (root node, all split candidates)."""
    label = regression_label(ds)
    continuous = [f for f in ds.continuous_features if f != label]
    learner = CARTLearner(
        engine,
        continuous,
        ds.categorical_features,
        label,
        "regression",
        n_buckets=20,
    )
    return learner.node_batch([])


def mi_workload(ds) -> QueryBatch:
    return build_mi_batch(ds.discrete_attrs)


def cube_workload(ds) -> QueryBatch:
    return build_cube_batch(ds.cube_dimensions, ds.cube_measures)


# ---------------------------------------------------------------------------
# Paper reference numbers (for paper-vs-measured reports)
# ---------------------------------------------------------------------------

#: Table 1 — dataset characteristics as published
PAPER_TABLE1 = {
    "retailer": dict(tuples="87M", size="1.5GB", join_tuples="86M",
                     join_size="18GB", relations=5, attributes=43,
                     categorical=5),
    "favorita": dict(tuples="125M", size="2.5GB", join_tuples="127M",
                     join_size="7GB", relations=6, attributes=18,
                     categorical=15),
    "yelp": dict(tuples="8.7M", size="0.2GB", join_tuples="360M",
                 join_size="40GB", relations=5, attributes=37,
                 categorical=11),
    "tpcds": dict(tuples="30M", size="3.4GB", join_tuples="28M",
                  join_size="9GB", relations=10, attributes=85,
                  categorical=26),
}

#: Table 2 — (A, I, V, G) per workload x dataset as published
PAPER_TABLE2 = {
    ("covar", "retailer"): (814, 654, 34, 7),
    ("covar", "favorita"): (140, 46, 125, 9),
    ("covar", "yelp"): (730, 309, 99, 8),
    ("covar", "tpcds"): (3061, 590, 286, 14),
    ("rt_node", "retailer"): (3141, 16, 19, 9),
    ("rt_node", "favorita"): (270, 20, 26, 11),
    ("rt_node", "yelp"): (1392, 16, 22, 9),
    ("rt_node", "tpcds"): (4299, 138, 52, 17),
    ("mi", "retailer"): (56, 22, 78, 8),
    ("mi", "favorita"): (106, 35, 141, 9),
    ("mi", "yelp"): (172, 64, 236, 9),
    ("mi", "tpcds"): (301, 95, 396, 15),
    ("cube", "retailer"): (40, 8, 12, 5),
    ("cube", "favorita"): (40, 7, 13, 6),
    ("cube", "yelp"): (40, 7, 13, 5),
    ("cube", "tpcds"): (40, 12, 17, 10),
}

#: Table 3 — seconds for (LMFAO, DBX, MonetDB) as published
PAPER_TABLE3 = {
    ("count", "retailer"): (0.80, 2.38, 3.75),
    ("count", "favorita"): (0.97, 4.04, 8.11),
    ("count", "yelp"): (0.68, 2.53, 4.37),
    ("count", "tpcds"): (5.01, 2.84, 2.84),
    ("covar", "retailer"): (11.87, 2647.36, 3081.02),
    ("covar", "favorita"): (38.11, 773.46, 1354.47),
    ("covar", "yelp"): (108.81, 2971.88, 5840.18),
    ("covar", "tpcds"): (274.55, 9454.31, 9234.01),
    ("rt_node", "retailer"): (1.80, 3134.67, 3395.00),
    ("rt_node", "favorita"): (3.49, 431.11, 674.06),
    ("rt_node", "yelp"): (8.83, 2409.59, 13489.20),
    ("rt_node", "tpcds"): (105.66, 2480.49, 3085.60),
    ("mi", "retailer"): (30.05, 178.03, 297.30),
    ("mi", "favorita"): (111.68, 596.01, 1088.31),
    ("mi", "yelp"): (345.35, 794.00, 1952.02),
    ("mi", "tpcds"): (252.96, 1002.84, 1032.17),
    ("cube", "retailer"): (15.47, 100.08, 111.08),
    ("cube", "favorita"): (22.85, 273.10, 561.03),
    ("cube", "yelp"): (23.75, 156.67, 260.39),
    ("cube", "tpcds"): (15.65, 66.12, 74.38),
}

#: Figure 5 — published per-layer speedups (relative to previous bar),
#: without the compilation bar (15 / 1.4 / 2 / 2x; every engine here
#: interprets) and the parallelization bar (4 threads: 2.0 / 2.0 / 3.0 /
#: 1.4x; the engine is serial), which are not reproduced
PAPER_FIGURE5 = {
    "retailer": [1.0, 7.0, 1.0],
    "favorita": [1.0, 4.0, 1.4],
    "yelp": [1.0, 5.0, 2.0],
    "tpcds": [1.0, 4.0, 2.0],
}

#: Table 4 — published seconds
PAPER_TABLE4 = {
    "retailer": dict(join=152.06, shuffle=5488.73, export=351.76,
                     lr_tf=7249.58, lr_madlib=5423.05, lr_acdc=110.88,
                     lr_lmfao=6.08, rt_tf=7773.80, rt_madlib=13639.84,
                     rt_lmfao=21.28),
    "favorita": dict(join=129.32, shuffle=1720.02, export=241.03,
                     lr_tf=4812.01, lr_madlib=19445.58, lr_acdc=364.17,
                     lr_lmfao=21.23, rt_tf=20368.73, rt_madlib=19839.12,
                     rt_lmfao=37.48),
}

#: Table 5 — published seconds
PAPER_TABLE5 = dict(join=219.04, export=350.02, ct_tf=10643.18,
                    ct_madlib=34717.63, ct_lmfao=720.86)


# ---------------------------------------------------------------------------
# Report writing
# ---------------------------------------------------------------------------


class Report:
    """Collects rows during a benchmark module and writes a text report."""

    def __init__(self, name: str, header: str):
        self.name = name
        self.lines: List[str] = [header, "-" * len(header)]

    def add(self, line: str) -> None:
        self.lines.append(line)

    def write(self) -> str:
        os.makedirs(RESULTS_DIR, exist_ok=True)
        path = os.path.join(RESULTS_DIR, f"{self.name}.txt")
        with open(path, "w") as handle:
            handle.write("\n".join(self.lines) + "\n")
        return path
