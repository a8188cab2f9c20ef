"""Durable serving: snapshot + WAL + persistent view cache, end to end.

Simulates the full restart story in one process, using the same
:class:`DatasetStorage`-backed :class:`AnalyticsService` that
``repro serve <ds> --data-dir DIR`` runs:

1. **first boot** — a fresh data directory is initialized with a
   columnar snapshot of the loaded database; a query populates the
   persistent cache tier; delta commits are write-ahead-logged (and
   fsynced) before each epoch is published;
2. **"crash"** — the service object is simply dropped, exactly as a
   SIGKILL would drop it: nothing is flushed at exit, because
   everything that matters is already on disk;
3. **second boot** — a brand-new service over the same directory
   recovers snapshot + WAL replay to the exact pre-crash epoch and
   answers its first query almost entirely from *warm* cache hits
   served off disk.

Watch for: the recovered epoch matching the last committed one, the
restart's ``warm_hits`` > 0 with zero misses, and the two boots'
query results being identical.

Run:  python examples/durable_serve.py
"""

import json
import shutil
import tempfile

import numpy as np

from repro import AnalyticsService, DeltaBatch, workloads
from repro.datasets import favorita

N_DELTAS = 5


def build_service(data_dir, dataset):
    service = AnalyticsService(
        cache_mb=64, data_dir=data_dir, compact_wal=0
    )
    service.register_dataset(
        "favorita", dataset.database, dataset.join_tree
    )
    service.register_workload(
        "favorita", "covar", workloads.build(dataset, "covar")
    )
    return service


def main() -> None:
    data_dir = tempfile.mkdtemp(prefix="repro-durable-")
    dataset = favorita(scale=0.2)
    fact = dataset.database.relation(dataset.fact_table())
    rng = np.random.default_rng(7)

    print(f"== boot 1: fresh data dir {data_dir}")
    service = build_service(data_dir, dataset)
    first = service.query("favorita", ["covar"], timeout=120)
    print(
        f"cold query at epoch {first.epoch}: "
        f"{sum(r.n_rows for r in first.results['covar'].values())} "
        f"result rows"
    )
    for i in range(N_DELTAS):
        idx = rng.integers(0, fact.n_rows, 20)
        response = service.apply_delta(
            "favorita",
            DeltaBatch.insert(
                fact.name,
                {a: fact.column(a)[idx] for a in fact.schema.names},
            ),
        )
        print(
            f"delta {i + 1}: committed epoch {response.epoch} "
            f"(WAL'd before publish)"
        )
    before = service.query("favorita", ["covar"], timeout=120)
    storage = service.stats()["datasets"]["favorita"]["storage"]
    print(
        f"storage before crash: wal_len={storage['wal_len']} "
        f"spilled={storage['spilled_entries']} views "
        f"({storage['spilled_bytes'] / (1 << 20):.2f} MiB)"
    )

    # -- the crash: drop everything without any shutdown courtesy ------
    del service
    print("\n== boot 2: recover from the same data dir")
    revived = build_service(data_dir, dataset)
    recovery = revived.recovery("favorita")
    print(f"recovery: {json.dumps(recovery.as_dict(), indent=2)}")
    after = revived.query("favorita", ["covar"], timeout=120)
    stats = revived.stats()["datasets"]["favorita"]
    print(
        f"warm query at epoch {after.epoch}: "
        f"{stats['cache']['warm_hits']} warm hits, "
        f"{stats['cache']['misses']} misses"
    )
    assert after.epoch == before.epoch == N_DELTAS
    for name, relation in before.results["covar"].items():
        other = after.results["covar"][name]
        for column in relation.schema.names:
            assert np.allclose(
                relation.column(column), other.column(column)
            ), (name, column)
    print("recovered results identical to pre-crash results ✓")
    revived.close()
    shutil.rmtree(data_dir, ignore_errors=True)


if __name__ == "__main__":
    main()
