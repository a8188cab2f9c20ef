"""The concurrent analytics service: coalesced reads under a delta stream.

Starts an :class:`AnalyticsService` in-process (no HTTP needed — the
server endpoints wrap exactly this API), fires concurrent workload
requests from several client threads while a writer streams delta
batches into the fact relation, and prints the ``/stats`` report.

Three things to watch in the output:

* concurrent requests *coalesce*: requests that queue up while a batch
  runs share the next one (their ``batch_size`` is > 1), and workloads
  that share views (covar and linreg here have the same view DAG) share
  them through the view cache: once one has run, the other's views hit;
* every response names the committed *epoch* it answered — reads that
  overlap a delta commit still see exactly one database version;
* the view cache absorbs the churn: delta commits invalidate only the
  entries whose footprint contains the fact relation.

Run:  python examples/serve_and_stream.py
"""

import json
import threading
import time

import numpy as np

from repro import AnalyticsService, DeltaBatch, workloads
from repro.datasets import favorita

N_CLIENTS = 4
REQUESTS_PER_CLIENT = 5
N_DELTAS = 8


def main() -> None:
    dataset = favorita(scale=0.3)

    service = AnalyticsService(cache_mb=64)
    service.register_dataset(
        "favorita", dataset.database, dataset.join_tree
    )
    # covar and linreg are the paper's own redundancy story: the ridge
    # regression trains on the covar matrix, so the two view DAGs are
    # the same and one workload's views are cache hits for the other
    for name in ("covar", "linreg"):
        service.register_workload(
            "favorita", name, workloads.build(dataset, name)
        )
    service.prepare("favorita")
    root = max(
        service.snapshot("favorita").database,
        key=lambda r: r.n_rows,
    ).name
    print(
        f"serving favorita: workloads covar+linreg, fact relation "
        f"{root!r}, coalescing by backlog\n"
    )

    responses = []
    responses_lock = threading.Lock()

    def client(slot: int) -> None:
        rng = np.random.default_rng(slot)
        for _ in range(REQUESTS_PER_CLIENT):
            names = ["covar"] if rng.random() < 0.5 else ["covar", "linreg"]
            response = service.query("favorita", names, timeout=120)
            with responses_lock:
                responses.append(response)
            time.sleep(float(rng.uniform(0.0, 0.05)))

    def writer() -> None:
        rng = np.random.default_rng(99)
        for step in range(N_DELTAS):
            fact = service.snapshot("favorita").database.relation(root)
            n_delta = max(1, fact.n_rows // 200)
            sample = rng.integers(0, fact.n_rows, n_delta)
            inserts = {
                a: fact.column(a)[sample] for a in fact.schema.names
            }
            committed = service.apply_delta(
                "favorita", DeltaBatch(root, inserts=inserts)
            )
            print(
                f"  delta {step}: +{n_delta} rows -> epoch "
                f"{committed.epoch}"
            )
            time.sleep(0.04)

    threads = [
        threading.Thread(target=client, args=(slot,))
        for slot in range(N_CLIENTS)
    ] + [threading.Thread(target=writer)]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - start

    print(
        f"\n{len(responses)} requests served in {elapsed:.2f}s while "
        f"{N_DELTAS} deltas committed"
    )
    by_epoch = {}
    coalesced = 0
    for response in responses:
        by_epoch.setdefault(response.epoch, 0)
        by_epoch[response.epoch] += 1
        if response.batch_size > 1:
            coalesced += 1
    print(
        f"epochs answered: "
        + ", ".join(
            f"epoch {epoch}: {count} requests"
            for epoch, count in sorted(by_epoch.items())
        )
    )
    print(
        f"{coalesced}/{len(responses)} requests shared a coalesced "
        f"batch\n"
    )
    print("== /stats ==")
    print(json.dumps(service.stats(), indent=2))
    service.close()


if __name__ == "__main__":
    main()
