"""Read a traced run's detail file: where each kind of op spends its time.

    python3 bench/report.py .bench_work/out/serve_read-seed1-trace1.json

For every group of ops (requests by workload set, deltas by relation,
in-process units by label) prints the mean wall time per op and, by
layer, the mean self time — which sums to the wall time — with its share.
"""

import json
import sys
from collections import defaultdict


def op_groups(record: dict) -> dict:
    """op id -> group label, from the run's op log."""
    detail = record["detail"]
    if "op_log" in detail:
        return {
            row["op"]: row["kind"] + " " + (row.get("relation") or "+".join(row["names"]))
            for row in detail["op_log"]
        }
    labels = detail["ops"]  # in-process: one label per unit of a pass
    n_ops = 1 + max(row[4] for row in record["spans"]["rows"])
    return {i: labels[i % len(labels)] for i in range(n_ops)}


def self_time_table(record: dict) -> dict:
    """group -> (ops, {span name: summed self seconds})."""
    rows = record["spans"]["rows"]  # name, start, end, parent, op, thread
    own = [end - start for _, start, end, *_ in rows]
    for _, start, end, parent, *_ in rows:
        if parent >= 0:
            own[parent] -= end - start
    groups = op_groups(record)
    table = defaultdict(lambda: [set(), defaultdict(float)])
    for (name, _, _, _, op, _), seconds in zip(rows, own):
        if op in groups:
            ops, by_name = table[groups[op]]
            ops.add(op)
            by_name[name] += max(0.0, seconds)
    return {group: (len(ops), dict(by_name)) for group, (ops, by_name) in table.items()}


def main(path: str) -> None:
    with open(path) as handle:
        record = json.load(handle)
    for group, (n_ops, by_name) in sorted(self_time_table(record).items()):
        total = sum(by_name.values())
        print(f"\n{group}: {n_ops} ops, {total / n_ops * 1e3:.2f} ms per op")
        for name, seconds in sorted(by_name.items(), key=lambda item: -item[1]):
            label = "(unattributed)" if name == "bench.op" else name
            print(f"  {label:40s} {seconds / n_ops * 1e3:9.3f} ms  {seconds / total:6.1%}")


if __name__ == "__main__":
    main(sys.argv[1])
