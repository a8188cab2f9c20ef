"""AC/DC proxy: LMFAO with every optimization layer switched off.

The paper uses its predecessor AC/DC as "a proxy for LMFAO without
optimizations" in the Figure 5 ablation: a single root for the whole
batch, only identical-view sharing, and one view per execution unit (no
multi-output groups).  Execution is interpreted, as it is for every
engine here.
"""

from __future__ import annotations

from typing import Optional

from ..data.database import Database
from ..engine.engine import LMFAO
from ..jointree.join_tree import JoinTree


def acdc_proxy(
    database: Database, join_tree: Optional[JoinTree] = None
) -> LMFAO:
    """An engine configured like AC/DC (the Figure 5 baseline)."""
    return LMFAO(database, join_tree, **FIGURE5_LADDER[0][1])


#: the optimization ladder of Figure 5, in order; each entry names the
#: configuration and the LMFAO keyword arguments realising it.  Two of
#: the paper's steps are not reproduced: compilation (every engine
#: interprets its group plans) and parallelization (the engine runs
#: view groups serially).
FIGURE5_LADDER = [
    (
        "acdc (no optimizations)",
        dict(multi_root=False, merge_mode="dedup", group_views=False),
    ),
    (
        "+ multi-output",
        dict(multi_root=False, merge_mode="full", group_views=True),
    ),
    (
        "+ multi-root",
        dict(multi_root=True, merge_mode="full", group_views=True),
    ),
]
