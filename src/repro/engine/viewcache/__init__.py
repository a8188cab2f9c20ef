"""Cross-workload view cache & fusion: shareable materialized views.

Three pieces, layered on the executor subsystem:

* :mod:`~repro.engine.viewcache.signature` — canonical *content
  signatures* for views (shape + footprint fingerprints), so two
  independently planned batches agree on structurally equal views;
* :mod:`~repro.engine.viewcache.cache` — :class:`ViewCache`, a
  byte-budget LRU of materialized views keyed by content digest, with
  hit/miss/eviction stats and delta-driven repair: affected
  entries are patched in one pass, smallest footprint first, and
  re-keyed, with eviction only as the fallback.  A
  :class:`PatchRecipe` is fixed when its view is admitted (group plan,
  a copy of the binding, inputs by shape and footprint), and a pass
  runs each group once for all of its views;
* :mod:`~repro.engine.viewcache.fusion` — :class:`FusedBatch`, which
  fuses several query batches into one deduplicated DAG, executes
  shared views once, and assembles each workload's answer from the run;
  :class:`WorkloadSession` is its library front end.
"""

from .cache import (
    DEFAULT_BUDGET_BYTES,
    CacheRunReport,
    CacheStats,
    PatchRecipe,
    ViewCache,
    view_nbytes,
)
from .signature import (
    ViewSignature,
    database_fingerprint,
    relation_fingerprint,
    view_signatures,
)

__all__ = [
    "CacheRunReport",
    "CacheStats",
    "DEFAULT_BUDGET_BYTES",
    "FusedBatch",
    "FusionReport",
    "PatchRecipe",
    "SessionResult",
    "ViewCache",
    "ViewSignature",
    "WorkloadSession",
    "database_fingerprint",
    "relation_fingerprint",
    "view_nbytes",
    "view_signatures",
]


def __getattr__(name):
    # fusion imports the engine facade, which imports this package; the
    # deferred import breaks the cycle without an import-order landmine
    if name in (
        "FusedBatch", "WorkloadSession", "SessionResult", "FusionReport"
    ):
        from . import fusion

        return getattr(fusion, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
