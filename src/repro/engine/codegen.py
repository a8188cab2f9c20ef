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
* a local is ``del``-eted after the last step that reads it
  (``GroupPlan.frees``), so the function holds at most the plan's
  ``peak_live`` arrays at once;
* a row-level sum shared by many aggregates appears once
  (``sum7 = ops.group_sums(...)``); each aggregate is that sum times its
  per-group factors — covered views' payloads read through
  ``ops.group_rows``, scalar views, the coefficient — so those products
  run over ``(n_groups,)`` arrays, not over rows;
* the scalar sums that end in payloads of one incoming view after a
  shared prefix are one assignment of many locals,
  ``sum3, sum4, = ops.view_dot(sums[2][0:5], None, ri1, p2)[:, None]``
  (a :class:`~repro.engine.plan.DotStep`): one matrix-vector product
  over the context's rows or the view's keys, the same helper the
  interpreter calls;
* a view's aggregates are emitted as one (aggregates x keys) array (the
  fixed-size aggregate array analog).

``render_source`` exposes the generated code for inspection (the paper's
Figure 7 analog).  The function takes
``(rel_cols, rel_keys, n_rel, key_cols, sums, dyn)`` — the
relation's columns and their ``(codes, uniques)`` encodings by
attribute, its row count, the incoming views' key column lists and
sums blocks by view id, and the dynamic function table — and returns
``{view id: (group_by, key_cols, sums, count)}``, ``count`` being the
row of ``sums`` that holds the view's COUNT (its support) or None;
``np`` and ``ops`` (:mod:`repro.data.ops`) are its only free names.
"""

from __future__ import annotations

from typing import List

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


def render_source(plan: GroupPlan, fn_name: str = "group_fn") -> str:
    """Render a group plan to Python source."""
    lines: List[str] = [
        f"def {fn_name}(rel_cols, rel_keys, n_rel, key_cols, sums, dyn):",
        f"    # multi-output plan for view group {plan.group.id} at node "
        f"{plan.node!r}",
        "    out = {}",
    ]
    for step, dead in zip(plan.steps, plan.frees):
        lines.extend("    " + line for line in _render_step(step))
        if dead:
            lines.append(f"    del {', '.join(dead)}")
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
        return [
            f"{step.out_left}, {step.out_right} = ops.join_indices("
            f"*ops.shared_codes([{left}], [{right}]))"
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
    if isinstance(step, DotStep):
        return [_render_dot(step)]
    if isinstance(step, EmitStep):
        keys = step.keys_var if step.keys_var is not None else "[]"
        if step.agg_vars:
            block = f"np.array([{', '.join(step.agg_vars)}], dtype=np.float64)"
        else:
            n_rows = f"len({keys}[0])" if step.keys_var is not None else "1"
            block = f"np.empty((0, {n_rows}))"
        return [
            f"out[{step.view_id}] = ({step.group_by!r}, {keys}, "
            f"{block}, {step.count!r})"
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
        base = f"sums[{step.origin[1]}][{step.origin[2]}]"
    if step.index is None:
        return f"{step.out} = {base}"
    return f"{step.out} = {base}[{step.index}]"


def _n_groups_expr(keys: str) -> str:
    return f"(len({keys}[0]) if {keys} else 0)"


def _render_dot(step: DotStep) -> str:
    span = f"sums[{step.view_id}][{step.span.start}:{step.span.stop}]"
    picks = "None" if step.picks is None else repr(step.picks.tolist())
    values = "None" if step.prefix is None else step.prefix
    return (
        f"{', '.join(step.outs)}, = ops.view_dot({span}, {picks}, "
        f"{step.index}, {values})[:, None]"
    )


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
            total = f"float({step.values}.sum())"
        expr = f"np.asarray([{total}], dtype=np.float64)"
    return f"{step.out} = {expr}"
