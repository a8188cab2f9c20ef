"""Independent ground truth for every answer the benchmark receives.

Everything here is recomputed from the flat natural join
(``repro.materialize_join``) with plain NumPy group-bys: no engine, no
view, no ``repro.baselines``.  A query's factor functions are evaluated
through their own ``evaluate`` — that is the definition of the query,
not part of the system under test.

Every checker returns a list of human-readable problems; empty = correct.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Sequence, Tuple

import numpy as np

from repro import materialize_join

#: relative tolerance on aggregate values; summation order differs between
#: the engine and the flat join, and delta maintenance leaves residue
RTOL = 1e-7

Truth = Dict[str, Tuple[List[np.ndarray], List[np.ndarray]]]


def flat_columns(database) -> Dict[str, np.ndarray]:
    flat = materialize_join(database)
    return {name: flat.column(name) for name in flat.schema.names}


def _group_codes(keys: Sequence[np.ndarray]) -> Tuple[np.ndarray, List[np.ndarray]]:
    """Row -> group code in lexicographic key order, plus the key columns."""
    codes = np.zeros(len(keys[0]), dtype=np.int64)
    for column in keys:
        _, inverse = np.unique(column, return_inverse=True)
        codes = codes * (int(inverse.max(initial=0)) + 1) + inverse.ravel()
    _, first, group = np.unique(codes, return_index=True, return_inverse=True)
    return group.ravel(), [np.asarray(column)[first] for column in keys]


def evaluate_query(columns: Mapping[str, np.ndarray], query):
    """(key columns, aggregate columns) of one query over the flat join."""
    n_rows = len(next(iter(columns.values())))
    values = []
    for aggregate in query.aggregates:
        total = np.zeros(n_rows)
        for term in aggregate.terms:
            product = np.full(n_rows, float(term.coefficient))
            for factor in term.factors:
                product = product * factor.evaluate(columns)
            total += product
        values.append(total)
    if not query.group_by:
        return [], [np.asarray([value.sum()]) for value in values]
    group, keys = _group_codes([columns[a] for a in query.group_by])
    n_groups = len(keys[0])
    return keys, [
        np.bincount(group, weights=value, minlength=n_groups) for value in values
    ]


def ground_truth(columns: Mapping[str, np.ndarray], batch) -> Truth:
    """Every query of a batch over the flat join's columns."""
    return {query.name: evaluate_query(columns, query) for query in batch}


def compare_query(name: str, truth, got: Sequence[np.ndarray]) -> List[str]:
    """Compare one result (key columns then aggregate columns, in query
    order) against its truth; rows may come in any order."""
    keys, aggs = truth
    expected = list(keys) + list(aggs)
    if len(got) != len(expected):
        return [f"{name}: {len(got)} columns, expected {len(expected)}"]
    got = [np.asarray(column, dtype=np.float64) for column in got]
    n_rows = len(expected[0])
    if any(len(column) != n_rows for column in got):
        return [f"{name}: {len(got[0])} rows, expected {n_rows}"]
    if keys:
        order = np.lexsort(tuple(reversed(got[: len(keys)])))
        got = [column[order] for column in got]
    problems = []
    for position, (want, have) in enumerate(zip(expected, got)):
        want = np.asarray(want, dtype=np.float64)
        if position < len(keys):
            ok = np.array_equal(want, have)
        else:
            scale = max(1.0, float(np.abs(want).max(initial=0.0)))
            ok = np.allclose(want, have, rtol=RTOL, atol=RTOL * scale)
        if not ok:
            problems.append(f"{name}: column {position} differs from ground truth")
    return problems


def check_batch_result(truth: Truth, result) -> List[str]:
    """An in-process ``BatchResult`` (query name -> Relation)."""
    problems = []
    for name, expected in truth.items():
        if name not in result:
            problems.append(f"{name}: missing from result")
            continue
        relation = result[name]
        problems += compare_query(
            name, expected, [relation.column(c) for c in relation.schema.names]
        )
    return problems


def check_payload(truth: Truth, payload: Mapping) -> List[str]:
    """One workload's section of a ``/query`` response with data."""
    problems = []
    for name, expected in truth.items():
        entry = payload.get(name)
        if entry is None or "data" not in entry:
            problems.append(f"{name}: missing from response")
            continue
        problems += compare_query(
            name, expected, [entry["data"][c] for c in entry["columns"]]
        )
    return problems


def check_ridge(columns: Mapping[str, np.ndarray], model, slack: float = 0.05) -> List[str]:
    """The ridge objective at ``model.theta`` against the normal equations.

    ``train_ridge`` stops after a fixed iteration budget, so its theta is
    near, not at, the optimum: the check is that the objective computed
    from the flat join is no better than the closed-form optimum (it
    cannot be) and within ``slack`` of it.
    """
    index = model.index
    n_rows = len(columns[index.label])
    design = np.zeros((n_rows, index.label_position))
    design[:, 0] = 1.0
    for feature in index.continuous:
        design[:, index.offsets[feature]] = columns[feature]
    for feature in index.categorical:
        position = np.searchsorted(index.category_values[feature], columns[feature])
        design[np.arange(n_rows), index.offsets[feature] + position] = 1.0
    label = np.asarray(columns[index.label], dtype=np.float64)

    def objective(theta):
        residual = design @ theta - label
        return 0.5 * float(residual @ residual) / n_rows + 0.5 * model.l2 * float(
            theta @ theta
        )

    gram = design.T @ design / n_rows + model.l2 * np.eye(design.shape[1])
    best = objective(np.linalg.solve(gram, design.T @ label / n_rows))
    got = objective(np.asarray(model.theta, dtype=np.float64))
    if not best * (1 - 1e-9) <= got <= best * (1 + slack):
        return [f"ridge objective {got:.6g} vs optimum {best:.6g}"]
    return []


def check_tree(columns: Mapping[str, np.ndarray], tree) -> List[str]:
    """Every node's prediction against the mean label of the rows on its
    path, and its sample count against the number of those rows."""
    label = np.asarray(columns[tree.label], dtype=np.float64)
    problems: List[str] = []

    def visit(node, mask, path):
        count = int(mask.sum())
        mean = float(label[mask].mean()) if count else 0.0
        if round(node.n_samples) != count or not np.isclose(
            node.prediction, mean, rtol=RTOL, atol=RTOL
        ):
            problems.append(
                f"tree node {path or 'root'}: n={node.n_samples:g} "
                f"prediction={node.prediction:.6g}, rows say n={count} "
                f"mean={mean:.6g}"
            )
        if node.condition is None:
            return
        column = columns[node.condition.attr]
        if node.condition.op == "<=":
            test = column <= node.condition.value
        else:
            test = column == node.condition.value
        visit(node.left, mask & test, path + "L")
        visit(node.right, mask & ~test, path + "R")

    visit(tree.root, np.ones(len(label), dtype=bool), "")
    return problems
