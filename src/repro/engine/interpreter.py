"""Interpreted execution of group plans: the engine's one execution path.

Walks the step IR of :mod:`repro.engine.plan` directly, the AC/DC-style
execution mode ("interpreted version of LMFAO", paper §4.1).  The
engine's backend and view repair both run :func:`execute_plan`; the
Compilation layer (``codegen.py``) renders the same steps as source for
reading, and differential tests hold that source to this function's
results bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..data import ops
from ..data.relation import Relation
from .plan import (
    DotStep,
    EmitStep,
    EncodeStep,
    FactorStep,
    Gather,
    GroupKeyStep,
    GroupPlan,
    GroupRowsStep,
    GroupSumStep,
    IndexStep,
    JoinStep,
    MulStep,
)


@dataclass
class ViewData:
    """The materialized result of a view.

    ``key_cols`` holds one array per group-by attribute (aligned rows, in
    lexicographic key order); ``sums`` is one C-order float64 block of
    (aggregates x keys), row ``j`` aggregate ``j``.  Scalar views have no
    key columns and one block column.

    ``count`` (optional) is the row of ``sums`` that holds the view's
    COUNT aggregate: the multiplicity of its subtree join per key, its
    *support*.  An engine with a view cache attached plans one on every
    keyed view; the cache's delta repair retires the keys whose count
    reaches zero after retractions.  Counts are integer-valued floats,
    so they add and cancel exactly like the SUMs they sit among.

    :meth:`encoded` dictionary-encodes a key column on first use and
    keeps it, as a :class:`~repro.data.relation.Relation` keeps its own
    encodings: a cached view read by every delta run that joins or
    groups on it is encoded once.
    """

    group_by: Tuple[str, ...]
    key_cols: List[np.ndarray]
    sums: np.ndarray
    count: Optional[int] = None
    _encodings: Dict[int, ops.Encoded] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def encoded(self, pos: int) -> ops.Encoded:
        """Key column ``pos`` as ``(codes, uniques)``, encoded once."""
        encoded = self._encodings.get(pos)
        if encoded is None:
            encoded = self._encodings[pos] = ops.factorize(self.key_cols[pos])
        return encoded

    def with_sums(self, sums: np.ndarray) -> "ViewData":
        """The same keys carrying new sums; key encodings made so far
        carry over, as the key columns are the same arrays."""
        data = ViewData(self.group_by, list(self.key_cols), sums, self.count)
        data._encodings.update(self._encodings)
        return data

    @property
    def n_rows(self) -> int:
        return self.sums.shape[1]


def execute_plan(
    plan: GroupPlan,
    relation: Relation,
    incoming: Dict[int, ViewData],
    dyn: Sequence,
    weights: Optional[np.ndarray] = None,
) -> Dict[int, ViewData]:
    """Run one group plan; returns the produced views by id.

    Steps dispatch on their exact type, most frequent first.  After each
    step the vars no later step reads (``plan.frees``) leave ``env``, so
    a run holds at most ``plan.peak_live`` arrays, not every step's.

    ``weights`` (optional) gives each relation row a multiplicity: every
    sum and count then weighs a context row by its relation row's
    weight.  View repair runs a signed delta — inserted rows at +1,
    retracted rows at -1 — this way, in one pass.  A context's weights
    are gathered once, on its first sum, and keyed by the context's
    base var: a plan writes each var once, so the name is the context.
    They die with the base var.
    """
    env: Dict[str, object] = {"_n_rel": relation.n_rows}
    produced: Dict[int, ViewData] = {}
    # base var -> the context rows' weights; None is the bare relation
    context_weights: Dict[Optional[str], np.ndarray] = (
        {} if weights is None else {None: weights}
    )

    def weights_of(base: Optional[str]) -> np.ndarray:
        w = context_weights.get(base)
        if w is None:
            w = context_weights[base] = weights[env[base]]
        return w

    for step, dead in zip(plan.steps, plan.frees):
        kind = type(step)
        if kind is GroupSumStep:
            if weights is None:
                env[step.out] = _group_sum(step, env)
            else:
                env[step.out] = _weighted_sum(step, env, weights_of(step.base))
        elif kind is DotStep:
            values = None if step.prefix is None else env[step.prefix]
            if weights is not None:
                w = weights_of(step.base)
                values = w if values is None else values * w
            totals = ops.view_dot(
                incoming[step.view_id].sums[step.span],
                step.picks,
                env[step.index],
                values,
            )
            env.update(zip(step.outs, totals[:, None]))
        elif kind is Gather:
            env[step.out] = _gather(step, relation, incoming, env)
        elif kind is MulStep:
            b = env[step.b] if isinstance(step.b, str) else step.b
            env[step.out] = env[step.a] * b
        elif kind is IndexStep:
            env[step.out] = env[step.arr][env[step.idx]]
        elif kind is FactorStep:
            columns = {attr: env[var] for attr, var in step.col_vars}
            if step.dyn_slot is not None:
                env[step.out] = dyn[step.dyn_slot].evaluate(columns)
            else:
                env[step.out] = step.function.evaluate(columns)
        elif kind is EmitStep:
            keys = env[step.keys_var] if step.keys_var is not None else []
            if step.agg_vars:
                sums = np.array(
                    [env[v] for v in step.agg_vars], dtype=np.float64
                )
            else:
                sums = np.empty((0, len(keys[0]) if keys else 1))
            produced[step.view_id] = ViewData(
                step.group_by, list(keys), sums, step.count
            )
        elif kind is GroupKeyStep:
            codes, keys = ops.factorize_rows(
                [(env[c], env[u]) for c, u in step.key_vars]
            )
            env[step.out_codes] = codes
            env[step.out_keys] = keys
        elif kind is EncodeStep:
            if step.origin[0] == "rel":
                encoded = relation.encodings[step.origin[1]]
            else:
                encoded = incoming[step.origin[1]].encoded(step.origin[2])
            env[step.out_codes], env[step.out_uniques] = encoded
        elif kind is JoinStep:
            lcodes, rcodes = ops.shared_codes(
                [(env[c], env[u]) for c, u in step.left_vars],
                [env[v] for v in step.right_vars],
            )
            li, ri = ops.join_indices(lcodes, rcodes)
            env[step.out_left] = li
            env[step.out_right] = ri
        elif kind is GroupRowsStep:
            env[step.out] = ops.group_rows(
                env[step.codes], _n_groups(env[step.keys])
            )
        else:  # pragma: no cover - defensive
            raise TypeError(f"unknown step {step!r}")
        for var in dead:
            del env[var]
        if context_weights:
            for var in dead:
                context_weights.pop(var, None)
    return produced


def _gather(step: Gather, relation: Relation, incoming, env) -> np.ndarray:
    kind = step.origin[0]
    if kind == "rel":
        column = relation.column(step.origin[1])
    elif kind == "viewkey":
        column = incoming[step.origin[1]].key_cols[step.origin[2]]
    elif kind == "viewagg":
        column = incoming[step.origin[1]].sums[step.origin[2]]
    else:  # pragma: no cover - defensive
        raise ValueError(f"unknown gather origin {step.origin!r}")
    if step.index is None:
        return column
    return column[env[step.index]]


def _context_length(env: Dict[str, object], n_var: str) -> int:
    value = env[n_var]
    if isinstance(value, (int, np.integer)):
        return int(value)
    return len(value)


def _n_groups(keys: List[np.ndarray]) -> int:
    return len(keys[0]) if keys else 0


def _group_sum(step: GroupSumStep, env: Dict[str, object]) -> np.ndarray:
    if step.codes is not None:
        n_groups = _n_groups(env[step.keys])
        codes = env[step.codes]
        if step.values is None:
            return np.bincount(codes, minlength=n_groups).astype(np.float64)
        return ops.group_sums(codes, env[step.values], n_groups)
    if step.values is None:
        total = float(_context_length(env, step.n_var))
    else:
        total = float(env[step.values].sum())
    return np.asarray([total], dtype=np.float64)


def _weighted_sum(
    step: GroupSumStep, env: Dict[str, object], w: np.ndarray
) -> np.ndarray:
    """The sum of ``step`` with context row ``i`` weighed by ``w[i]``."""
    if step.codes is None:
        if step.values is None:
            total = float(w.sum())
        else:
            total = float(np.dot(env[step.values], w))
        return np.asarray([total], dtype=np.float64)
    values = w if step.values is None else env[step.values] * w
    n_groups = _n_groups(env[step.keys])
    return ops.group_sums(env[step.codes], values, n_groups)
