"""The Compilation layer, as a renderer: specialized Python source per view group.

LMFAO generates C++ specialized to the join tree and schema; here each
:class:`GroupPlan` renders into a dedicated Python function — for
reading, not for running.  The engine executes the same steps through
the interpreter: a group pass is NumPy kernel calls, and generated
Python would save only the interpreter's per-step dispatch.  The
rendered code shows the optimizations of §3.5/Appendix C in Python form:

* static functions are **inlined** as NumPy expressions;
* **dynamic functions** (decision-tree conditions) are invoked through a
  parameter table ``dyn`` so re-binding does not regenerate code;
* shared partial products, join indices and key encodings appear once
  as local variables — a relation's key columns arrive already encoded
  (``rel_keys``), so joins and group-bys run on integer codes;
* a row-level sum shared by many aggregates appears once
  (``sum7 = ops.group_sums(...)``); each aggregate is that sum times its
  per-group factors — covered views' payloads read through
  ``ops.group_rows``, scalar views, the coefficient — so those products
  run over ``(n_groups,)`` arrays, not over rows;
* aggregate columns of one view are produced contiguously and emitted as
  one fixed-layout tuple (the fixed-size aggregate array analog).

``render_source`` exposes the generated code for inspection (the paper's
Figure 7 analog).  The function takes
``(rel_cols, rel_keys, n_rel, key_cols, agg_cols, dyn)`` — the
relation's columns and their ``(codes, uniques)`` encodings by
attribute, its row count, the incoming views' key/aggregate column
lists by view id, and the dynamic function table — and returns
``{view id: (group_by, key_cols, agg_cols[, support])}``; ``np`` and
``ops`` (:mod:`repro.data.ops`) are its only free names.
"""

from __future__ import annotations

from typing import List

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


def render_source(plan: GroupPlan, fn_name: str = "group_fn") -> str:
    """Render a group plan to Python source."""
    lines: List[str] = [
        f"def {fn_name}(rel_cols, rel_keys, n_rel, key_cols, agg_cols, dyn):",
        f"    # multi-output plan for view group {plan.group.id} at node "
        f"{plan.node!r}",
        "    out = {}",
    ]
    for step in plan.steps:
        lines.extend("    " + line for line in _render_step(step))
    lines.append("    return out")
    return "\n".join(lines) + "\n"


def _render_step(step) -> List[str]:
    if isinstance(step, Gather):
        return [_render_gather(step)]
    if isinstance(step, EncodeStep):
        if step.origin[0] == "rel":
            source = f"rel_keys[{step.origin[1]!r}]"
        else:
            source = (
                f"ops.factorize(key_cols[{step.origin[1]}][{step.origin[2]}])"
            )
        return [f"{step.out_codes}, {step.out_uniques} = {source}"]
    if isinstance(step, JoinStep):
        left = _render_pairs(step.left_vars)
        right = ", ".join(step.right_vars)
        tmp_l = f"_lc_{step.out_left}"
        tmp_r = f"_rc_{step.out_left}"
        return [
            f"{tmp_l}, {tmp_r} = ops.shared_codes([{left}], [{right}])",
            f"{step.out_left}, {step.out_right} = "
            f"ops.join_indices({tmp_l}, {tmp_r})",
        ]
    if isinstance(step, IndexStep):
        return [f"{step.out} = {step.arr}[{step.idx}]"]
    if isinstance(step, FactorStep):
        if step.dyn_slot is not None:
            cols = ", ".join(
                f"{attr!r}: {var}" for attr, var in step.col_vars
            )
            return [
                f"{step.out} = dyn[{step.dyn_slot}].evaluate({{{cols}}})"
            ]
        col_vars = {attr: var for attr, var in step.col_vars}
        return [f"{step.out} = {step.function.expr(col_vars)}"]
    if isinstance(step, MulStep):
        return [f"{step.out} = {step.a} * {step.b}"]
    if isinstance(step, GroupKeyStep):
        key_list = _render_pairs(step.key_vars)
        return [
            f"{step.out_codes}, {step.out_keys} = "
            f"ops.factorize_rows([{key_list}])"
        ]
    if isinstance(step, GroupRowsStep):
        return [
            f"{step.out} = "
            f"ops.group_rows({step.codes}, {_n_groups_expr(step.keys)})"
        ]
    if isinstance(step, GroupSumStep):
        return [_render_group_sum(step)]
    if isinstance(step, EmitStep):
        keys = step.keys_var if step.keys_var is not None else "[]"
        aggs = ", ".join(step.agg_vars)
        if step.support_var is not None:
            return [
                f"out[{step.view_id}] = ({step.group_by!r}, {keys}, "
                f"[{aggs}], {step.support_var})"
            ]
        return [
            f"out[{step.view_id}] = ({step.group_by!r}, {keys}, [{aggs}])"
        ]
    raise TypeError(f"unknown step {step!r}")  # pragma: no cover


def _render_pairs(pairs) -> str:
    return ", ".join(f"({codes}, {uniques})" for codes, uniques in pairs)


def _render_gather(step: Gather) -> str:
    kind = step.origin[0]
    if kind == "rel":
        base = f"rel_cols[{step.origin[1]!r}]"
    elif kind == "viewkey":
        base = f"key_cols[{step.origin[1]}][{step.origin[2]}]"
    else:
        base = f"agg_cols[{step.origin[1]}][{step.origin[2]}]"
    if step.index is None:
        return f"{step.out} = {base}"
    return f"{step.out} = {base}[{step.index}]"


def _n_groups_expr(keys: str) -> str:
    return f"(len({keys}[0]) if {keys} else 0)"


def _render_group_sum(step: GroupSumStep) -> str:
    if step.codes is not None:
        n_expr = _n_groups_expr(step.keys)
        if step.values is None:
            expr = (
                f"np.bincount({step.codes}, minlength={n_expr})"
                ".astype(np.float64)"
            )
        else:
            expr = f"ops.group_sums({step.codes}, {step.values}, {n_expr})"
    else:
        if step.values is None:
            if step.n_var == "_n_rel":
                total = "float(n_rel)"
            else:
                total = f"float(len({step.n_var}))"
        else:
            total = (
                f"(float(np.sum({step.values})) if len({step.values}) "
                "else 0.0)"
            )
        expr = f"np.asarray([{total}], dtype=np.float64)"
    return f"{step.out} = {expr}"
