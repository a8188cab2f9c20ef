"""Table 4 — end-to-end model training on Retailer and Favorita.

Per dataset this times, in alternating rounds:

* the join materialization (the PSQL "Join" row — what every two-step
  solution pays before learning starts);
* ridge linear regression:
  - LMFAO: covar-matrix batch + BGD over the (tiny) matrix;
  - MADlib proxy: per-tuple UDAF accumulation over the join, the
    tuple-at-a-time executor architecture the paper measured;
  - TensorFlow proxy: one epoch of mini-batch gradient descent through a
    batch iterator (load+cast per batch), as in the paper's setup;
  - a BLAS closed-form OLS over the flat join — *stronger than anything
    the paper compared against*, included for honesty about the NumPy
    substrate;
* regression trees (depth 4): LMFAO vs vectorized CART over the join.

Expected shape (paper Table 4): LMFAO trains the linear model faster
than the two-step row-engine/iterator baselines, and TF's single epoch
does not reach LMFAO's accuracy.  A two-step row pays its round's join
on top of its own time.  ``results/table4.txt`` holds paper-vs-measured.
"""

import statistics
from functools import partial

import numpy as np
import pytest

from repro import materialize_join
from repro.baselines import (
    brute_force_cart,
    gradient_descent_epochs,
    ols_closed_form,
    ols_row_engine,
)
from repro.ml import CARTLearner, train_ridge

from .common import PAPER_TABLE4, Report, alternating, dataset, spread, timed

pytestmark = pytest.mark.slow

DATASETS = ["retailer", "favorita"]
TREE_PARAMS = dict(max_depth=4, min_samples_split=500, n_buckets=10)
ROUNDS = 5
#: BGD's iteration budget; the report prints the iterations it used
BGD_BUDGET = 2_000
#: rows that train over the materialized join, so pay for it first
TWO_STEP = ("lr_tf", "lr_madlib", "lr_blas", "rt_materialized")

_measured = {}


def features_of(ds):
    label = ds.label
    continuous = [f for f in ds.continuous_features if f != label][:8]
    categorical = ds.categorical_features[:6]
    return continuous, categorical, label


@pytest.fixture(scope="module", params=DATASETS)
def trained(request, lmfao_engine, materialized_engine):
    """Time every row on one dataset in alternating rounds; return the
    features, the materialized join and each row's first (untimed)
    result."""
    name = request.param
    ds = dataset(name)
    continuous, categorical, label = features_of(ds)
    features = (ds.database, continuous, categorical, label)
    engine = lmfao_engine(name)
    flat = materialized_engine(name).materialize()
    sides = {
        "join": lambda: materialize_join(ds.database),
        "lr_lmfao": lambda: train_ridge(
            *features, engine=engine, method="bgd",
            max_iterations=BGD_BUDGET,
        ),
        "lr_madlib": lambda: ols_row_engine(*features, flat=flat),
        "lr_tf": lambda: gradient_descent_epochs(
            *features, epochs=1, flat=flat, batch_size=500
        ),
        "lr_blas": lambda: ols_closed_form(*features, flat=flat),
        "rt_lmfao": lambda: CARTLearner(
            engine, continuous, categorical, label, "regression",
            **TREE_PARAMS,
        ).fit(),
        "rt_materialized": lambda: brute_force_cart(
            *features, "regression", flat=flat, **TREE_PARAMS
        ),
    }
    # one untimed call each: LMFAO plans its batches on its first call
    # (the baselines' first few BLAS calls in a process that has run the
    # engine also stall, ~0.3 s each; the median outlasts them)
    models = {key: train() for key, train in sides.items()}
    runs = alternating(ROUNDS, *(partial(timed, fn) for fn in sides.values()))
    seconds = {key: [s for s, _ in rounds] for key, rounds in zip(sides, runs)}
    for key in TWO_STEP:
        seconds[key] = [s + j for s, j in zip(seconds[key], seconds["join"])]
    _measured[name] = {
        "seconds": {key: statistics.median(s) for key, s in seconds.items()},
        "bgd_iterations": models["lr_lmfao"].iterations,
        "madlib_vs_lmfao": [
            m / lmfao
            for m, lmfao in zip(seconds["lr_madlib"], seconds["lr_lmfao"])
        ],
    }
    return continuous, flat, models


def test_join_materialization(trained):
    _, flat, models = trained
    assert models["join"].n_rows == flat.n_rows > 0


def test_linreg_lmfao(trained):
    continuous, _, models = trained
    assert models["lr_lmfao"].theta.shape[0] > len(continuous)


def test_linreg_madlib_proxy(trained):
    """Per-tuple UDAF accumulation solves the same least squares as BLAS."""
    continuous, _, models = trained
    theta = models["lr_madlib"].theta
    assert theta.shape[0] > len(continuous)
    assert np.allclose(theta, models["lr_blas"].theta)


def test_linreg_tensorflow_proxy(trained):
    """One epoch of mini-batch GD does not reach LMFAO's model quality."""
    _, flat, models = trained
    assert models["lr_tf"].iterations == 1
    assert models["lr_lmfao"].rmse(flat) <= models["lr_tf"].rmse(flat) + 1e-9


def test_linreg_blas_closed_form(trained):
    """The NumPy-substrate upper bound (no paper counterpart)."""
    continuous, _, models = trained
    assert models["lr_blas"].theta.shape[0] > len(continuous)


def test_regression_tree_lmfao(trained):
    assert trained[2]["rt_lmfao"].node_count() >= 1


def test_regression_tree_materialized(trained):
    assert trained[2]["rt_materialized"].node_count() >= 1


def test_zz_table4_report():
    report = Report(
        "table4",
        f"{'row':30}{'retailer s':>12}{'paper s':>12}"
        f"{'favorita s':>12}{'paper s':>12}",
    )
    rows = [
        ("join (PSQL proxy)", "join", "join"),
        ("LR TensorFlow proxy (1 epoch)", "lr_tf", "lr_tf"),
        ("LR MADlib proxy (row engine)", "lr_madlib", "lr_madlib"),
        ("LR LMFAO", "lr_lmfao", "lr_lmfao"),
        ("LR BLAS OLS (no counterpart)", "lr_blas", None),
        ("RT join+vectorized CART", "rt_materialized", "rt_madlib"),
        ("RT LMFAO", "rt_lmfao", "rt_lmfao"),
    ]
    for label, ours_key, paper_key in rows:
        cells = ""
        for name in DATASETS:
            ours = _measured.get(name, {}).get("seconds", {}).get(ours_key)
            paper = PAPER_TABLE4[name].get(paper_key)
            cells += f"{(f'{ours:.3f}' if ours is not None else '-'):>12}"
            cells += f"{(f'{paper:.2f}' if paper is not None else '-'):>12}"
        report.add(f"{label:30}{cells}")
        if ours_key == "lr_lmfao":
            # whether BGD stopped on its tolerance or ran out of budget
            cells = "".join(
                f"{_measured.get(name, {}).get('bgd_iterations', '-'):>12}"
                f"{'-':>12}"
                for name in DATASETS
            )
            report.add(f"{f'  BGD iterations (of {BGD_BUDGET})':30}{cells}")
    for name in DATASETS:
        if name in _measured:
            report.add(
                f"{name} MADlib proxy / LMFAO per round: "
                f"{spread(_measured[name]['madlib_vs_lmfao'])}"
            )
    path = report.write()
    print(f"\nwrote {path}")
    # shape: LMFAO beats the row-engine two-step architecture
    for name, measured in _measured.items():
        ratios = measured["madlib_vs_lmfao"]
        assert statistics.median(ratios) > 1.0, (name, ratios)
