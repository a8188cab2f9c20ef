"""Beyond the headline workloads: polynomial regression, k-means, SQL.

Shows three capabilities the paper describes but does not benchmark:

* polynomial regression of degree d (§2, eq. (5)) over moment batches;
* k-means clustering (§2 "Further Applications") with dynamic
  nearest-centroid UDFs re-bound each iteration — the plan is built
  once;
* casting the view decomposition to SQL (§1) and explaining the plan.

Run:  python examples/advanced_models.py
"""

import numpy as np

from repro import LMFAO, materialize_join
from repro.datasets import favorita
from repro.engine import explain, render_batch_sql
from repro.ml import CovarBatch, kmeans, train_polynomial


def main() -> None:
    dataset = favorita(scale=0.3)
    engine = LMFAO(dataset.database, dataset.join_tree)
    flat = materialize_join(dataset.database)
    print(f"dataset: {dataset.summary()}")

    # --- polynomial regression ------------------------------------------
    print("\n== polynomial regression (units ~ poly(txns, price)) ==")
    for degree in (1, 2, 3):
        model = train_polynomial(
            engine, ["txns", "price"], "units", degree=degree
        )
        print(
            f"  degree {degree}: {len(model.basis):2} parameters, "
            f"train RMSE {model.rmse(flat):.4f}"
        )

    # --- k-means ----------------------------------------------------------
    print("\n== k-means over the join (txns, price) ==")
    result = kmeans(engine, ["txns", "price"], k=4, max_iterations=25, seed=3)
    print(f"  converged in {result.iterations} iterations; centroids:")
    for j, centroid in enumerate(result.centroids):
        print(f"    cluster {j}: txns={centroid[0]:9.1f}  price={centroid[1]:6.2f}")
    assignment = result.assign(flat)
    sizes = np.bincount(assignment, minlength=4)
    print(f"  cluster sizes over the join: {sizes.tolist()}")
    print(
        f"  plans built: {len(engine._plan_cache)} "
        "(one per batch structure, re-bound each iteration)"
    )

    # --- SQL + EXPLAIN ------------------------------------------------------
    print("\n== the covar decomposition, cast to SQL (first statements) ==")
    covar = CovarBatch(["txns"], ["stype"], "units")
    plan = engine.plan(covar.batch)
    script = render_batch_sql(plan.decomposed)
    print("\n\n".join(script.split("\n\n")[:3]))

    print("\n== EXPLAIN ==")
    print(explain(plan, dataset.join_tree))


if __name__ == "__main__":
    main()
