"""Table 5 — classification trees over TPC-DS.

Times, in alternating rounds after one untimed call of each, the join
materialization, LMFAO's CART (Gini, depth 4) and the brute-force CART
over the materialized join, which pays its round's join first.
Expected shape: LMFAO learns the tree without materializing the join
and faster than the two-step baseline.  ``results/table5.txt`` holds
paper-vs-measured.
"""

import statistics
from functools import partial

import pytest

from repro import materialize_join
from repro.baselines import brute_force_cart
from repro.ml import CARTLearner

from .common import PAPER_TABLE5, Report, alternating, dataset, timed

pytestmark = pytest.mark.slow

TREE_PARAMS = dict(max_depth=4, min_samples_split=500, n_buckets=10)
ROUNDS = 3

_measured = {}


@pytest.fixture(scope="module")
def trained(lmfao_engine, materialized_engine):
    """Every row timed in alternating rounds: the materialized join and
    each row's first (untimed) result."""
    ds = dataset("tpcds")
    continuous = ds.continuous_features[:6]
    categorical = [c for c in ds.categorical_features if c != ds.label][:6]
    engine = lmfao_engine("tpcds")
    flat = materialized_engine("tpcds").materialize()
    sides = {
        "join": lambda: materialize_join(ds.database),
        "ct_lmfao": lambda: CARTLearner(
            engine, continuous, categorical, ds.label, "classification",
            **TREE_PARAMS,
        ).fit(),
        "ct_materialized": lambda: brute_force_cart(
            ds.database, continuous, categorical, ds.label,
            "classification", flat=flat, **TREE_PARAMS,
        ),
    }
    # one untimed call each: LMFAO plans its node batches on its first
    results = {key: train() for key, train in sides.items()}
    runs = alternating(ROUNDS, *(partial(timed, fn) for fn in sides.values()))
    seconds = {key: [s for s, _ in rounds] for key, rounds in zip(sides, runs)}
    seconds["ct_materialized"] = [
        s + j for s, j in zip(seconds["ct_materialized"], seconds["join"])
    ]
    _measured.update(
        (key, statistics.median(values)) for key, values in seconds.items()
    )
    return flat, results


def test_join_materialization(trained):
    flat, results = trained
    assert results["join"].n_rows == flat.n_rows > 0


def test_classification_tree_lmfao(trained):
    assert trained[1]["ct_lmfao"].node_count() >= 1


def test_classification_tree_materialized(trained):
    assert trained[1]["ct_materialized"].node_count() >= 1


def test_zz_table5_report():
    report = Report(
        "table5",
        f"{'row':26}{'ours s':>10}{'paper s':>12}",
    )
    rows = [
        ("join (PSQL proxy)", "join", PAPER_TABLE5["join"]),
        ("CT materialized (MADlib)", "ct_materialized", PAPER_TABLE5["ct_madlib"]),
        ("CT LMFAO", "ct_lmfao", PAPER_TABLE5["ct_lmfao"]),
    ]
    for label, key, paper_value in rows:
        ours = _measured.get(key)
        report.add(
            f"{label:26}"
            f"{(f'{ours:.3f}' if ours is not None else '-'):>10}"
            f"{paper_value:>12.2f}"
        )
    path = report.write()
    print(f"\nwrote {path}")
    # shape: both runs complete; LMFAO never materializes the join while
    # learning (the architectural claim).  At NumPy scale the vectorized
    # flat-join CART can be faster in absolute terms — see EXPERIMENTS.md.
    assert "ct_lmfao" in _measured
