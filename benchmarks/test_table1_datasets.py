"""Table 1 — dataset characteristics, paper vs this reproduction.

Times the join materialization per dataset (the quantity behind the
"size of join result" row that two-step solutions must pay for) and
writes ``results/table1.txt`` with the side-by-side characteristics.
"""

import pytest

from repro import materialize_join

from .common import (
    DATASET_NAMES,
    PAPER_TABLE1,
    Report,
    alternating,
    dataset,
    spread,
    timed,
)

pytestmark = pytest.mark.slow

ROUNDS = 3

_measured = {}


@pytest.mark.parametrize("name", DATASET_NAMES)
def test_join_materialization(name):
    ds = dataset(name)
    (runs,) = alternating(
        ROUNDS, lambda: timed(lambda: materialize_join(ds.database))
    )
    flat = runs[-1][1]
    summary = ds.summary()
    summary["join_tuples"] = flat.n_rows
    summary["join_s"] = spread([seconds for seconds, _ in runs])
    _measured[name] = summary
    # Table 1's Yelp signature: the join result exceeds the database
    if name == "yelp":
        assert flat.n_rows > ds.database.total_tuples()


def test_zz_table1_report():
    report = Report(
        "table1",
        f"{'':14}{'paper tuples':>14}{'ours':>10}{'paper join':>12}"
        f"{'ours':>10}{'rel':>5}{'attrs':>7}{'cat':>5}  join s",
    )
    for name in DATASET_NAMES:
        paper = PAPER_TABLE1[name]
        ours = _measured.get(name)
        if ours is None:
            continue
        report.add(
            f"{name:14}{paper['tuples']:>14}{ours['tuples']:>10}"
            f"{paper['join_tuples']:>12}{ours['join_tuples']:>10}"
            f"{ours['relations']:>5}{ours['attributes']:>7}"
            f"{ours['categorical']:>5}  {ours['join_s']}"
        )
        assert ours["relations"] == paper["relations"]
    path = report.write()
    print(f"\nwrote {path}")
