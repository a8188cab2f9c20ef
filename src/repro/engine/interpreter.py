"""Interpreted execution of group plans: the engine's one execution path.

Walks the step IR of :mod:`repro.engine.plan` directly, the AC/DC-style
execution mode ("interpreted version of LMFAO", paper §4.1).  The
engine's backend and view repair both run :func:`execute_plan`; the
Compilation layer (``codegen.py``) renders the same steps as source for
reading, and differential tests hold that source to this function's
results bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..data import ops
from ..data.relation import Relation
from .plan import (
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
    lexicographic key order); ``agg_cols`` one float array per aggregate.
    Scalar views have no key columns and length-1 aggregate arrays.

    ``support`` (optional) counts the context rows contributing to each
    group key.  Plans built with ``track_support=True`` populate it; the
    incremental-maintenance layer uses it to drop keys whose support
    reaches zero after retractions.  Supports are integer-valued floats,
    so they add and cancel exactly under the distributive-SUM merge.
    """

    group_by: Tuple[str, ...]
    key_cols: List[np.ndarray]
    agg_cols: List[np.ndarray]
    support: Optional[np.ndarray] = None

    def negated(self) -> "ViewData":
        """This view's data with all sums (and support) sign-flipped.

        A retraction delta is an insertion delta with negated payload:
        every aggregate is a SUM over context rows, so removed rows
        contribute the additive inverse of what they contributed.
        """
        return ViewData(
            group_by=self.group_by,
            key_cols=list(self.key_cols),
            agg_cols=[-col for col in self.agg_cols],
            support=None if self.support is None else -self.support,
        )

    @property
    def n_rows(self) -> int:
        if self.key_cols:
            return len(self.key_cols[0])
        return 1

    def to_relation(self, name: str, schema_lookup=None) -> Relation:
        """Convert to a Relation (used for query outputs)."""
        from ..data.schema import Attribute, Schema

        attrs = []
        columns = {}
        for attr_name, col in zip(self.group_by, self.key_cols):
            if schema_lookup is not None:
                attrs.append(schema_lookup(attr_name))
            else:
                attrs.append(Attribute(attr_name, "categorical", col.dtype))
            columns[attr_name] = col
        for i, col in enumerate(self.agg_cols):
            col_name = f"agg_{i}"
            attrs.append(Attribute(col_name, "continuous", np.float64))
            columns[col_name] = col
        return Relation(name, Schema(attrs), columns)


def execute_plan(
    plan: GroupPlan,
    relation: Relation,
    incoming: Dict[int, ViewData],
    dyn: Sequence,
) -> Dict[int, ViewData]:
    """Run one group plan; returns the produced views by id.

    Steps dispatch on their exact type, most frequent first.
    """
    env: Dict[str, object] = {"_n_rel": relation.n_rows}
    produced: Dict[int, ViewData] = {}
    for step in plan.steps:
        kind = type(step)
        if kind is GroupSumStep:
            env[step.out] = _group_sum(step, env)
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
            support = (
                np.asarray(env[step.support_var], dtype=np.float64)
                if step.support_var is not None
                else None
            )
            produced[step.view_id] = ViewData(
                group_by=step.group_by,
                key_cols=list(keys),
                agg_cols=[
                    np.asarray(env[v], dtype=np.float64)
                    for v in step.agg_vars
                ],
                support=support,
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
                encoded = ops.factorize(
                    incoming[step.origin[1]].key_cols[step.origin[2]]
                )
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
    return produced


def _gather(step: Gather, relation: Relation, incoming, env) -> np.ndarray:
    kind = step.origin[0]
    if kind == "rel":
        column = relation.column(step.origin[1])
    elif kind == "viewkey":
        column = incoming[step.origin[1]].key_cols[step.origin[2]]
    elif kind == "viewagg":
        column = incoming[step.origin[1]].agg_cols[step.origin[2]]
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
        values = env[step.values]
        total = float(np.sum(values)) if len(values) else 0.0
    return np.asarray([total], dtype=np.float64)
