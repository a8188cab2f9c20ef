"""Quickstart: batches of group-by aggregates over a join, LMFAO-style.

Builds a small star-schema database, runs a mixed aggregate batch with
one engine call, and shows the plan statistics and the specialized code
the paper's layers render for each view group.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro import (
    LMFAO,
    Aggregate,
    Database,
    Delta,
    Query,
    QueryBatch,
    Relation,
)
from repro.data.schema import Schema, categorical, continuous, key


def build_database() -> Database:
    rng = np.random.default_rng(42)
    n_sales = 5_000
    sales = Relation(
        "Sales",
        Schema([key("day"), key("store"), continuous("units")]),
        {
            "day": rng.integers(0, 90, n_sales),
            "store": rng.integers(0, 12, n_sales),
            "units": np.round(rng.gamma(2.0, 5.0, n_sales), 2),
        },
    )
    stores = Relation(
        "Stores",
        Schema([key("store"), categorical("region")]),
        {"store": np.arange(12), "region": np.arange(12) % 4},
    )
    weather = Relation(
        "Weather",
        Schema([key("day"), continuous("temperature")]),
        {
            "day": np.arange(90),
            "temperature": np.round(rng.normal(18, 8, 90), 1),
        },
    )
    return Database([sales, stores, weather], name="shop")


def main() -> None:
    database = build_database()
    engine = LMFAO(database)

    batch = QueryBatch(
        [
            Query("total_rows", [], [Aggregate.count()]),
            Query("total_units", [], [Aggregate.of("units", name="units")]),
            Query(
                "units_by_region",
                ["region"],
                [
                    Aggregate.of("units", name="units"),
                    Aggregate.count(name="rows"),
                ],
            ),
            Query(
                "warm_day_units",
                ["region"],
                [
                    Aggregate.of(
                        Delta("temperature", ">", 20.0), "units", name="units"
                    )
                ],
            ),
        ]
    )

    results = engine.run(batch)

    print("== results ==")
    print("rows in join:   ", int(results["total_rows"].column("count")[0]))
    print("total units:    ", round(float(results["total_units"].column("units")[0]), 2))
    by_region = results["units_by_region"]
    for region, units, rows in zip(
        by_region.column("region"),
        by_region.column("units"),
        by_region.column("rows"),
    ):
        print(f"region {region}: units={units:10.2f}  rows={int(rows)}")

    warm = results["warm_day_units"]
    print("units sold on warm days, by region:")
    for region, units in zip(warm.column("region"), warm.column("units")):
        print(f"  region {region}: {units:10.2f}")

    plan = engine.plan(batch)
    print("\n== plan statistics (the paper's Table 2 quantities) ==")
    print(plan.statistics.table2_row())
    print("roots:", plan.statistics.roots)

    # the Compilation layer renders each view group's steps as a
    # specialized function (the paper's Figure 7); the engine runs the
    # same steps through its interpreter
    print("\n== generated code, one function per view group ==")
    print(plan.generated_source())

if __name__ == "__main__":
    main()
