"""Multi-output group plans: a step IR shared by interpreter and codegen.

For each view group the :class:`GroupPlanBuilder` emits a linear list of
*steps* (a small SSA-like IR).  The builder performs the Multi-Output
Optimization of §3.5:

* **a step is emitted once per inputs**: every step but
  :class:`DotStep` and :class:`EmitStep` goes through one table keyed by
  its type and its inputs (all of its fields but its outputs), and a
  step whose inputs were seen before is not emitted again
  (:meth:`GroupPlanBuilder._emit`).  A join context's vars are its own,
  so this one rule scans the node relation once per *join context*
  (aggregates that reference the same incoming views share the join),
  evaluates a factor column once per context (the paper's local
  variables), builds a shared leading sub-product once (its "reuse of
  arithmetic operations"), and encodes a group-by key and sums a
  row-level product once per context and group-by;
* a product folds the factors most of the group's aggregates share
  first, so their common prefix is as long as it can be;
* **one product per shared prefix**: the scalar sums of a context whose
  row-level products end in payloads of one incoming view, after the
  same prefix, are one :class:`DotStep` — a matrix-vector product of
  the view's (aggregates x keys) block, taken over the context's rows
  or over the view's keys, whichever are fewer;
* **sum before you multiply** (the loop-invariant decomposition of
  Appendix C, Figure 4's alpha/beta variables): a factor that is
  constant within every output group — the coefficient, and the payload
  of an incoming view whose whole key is contained in the output view's
  group-by — multiplies the group's *sum*, not the context's rows.  It
  is gathered once per group, the row-level product holds only
  relation-column functions and views whose key is not covered, and
  aggregates left with the same row-level product share one sum.  The
  view still joins into the context: the join drops the rows that have
  no partner and tells each group which payload row is its own.  The
  rule is stated once, in :meth:`GroupPlanBuilder._build_view`;
* join and group-by keys never carry values, only dictionary codes: a
  key source is encoded once (a relation attribute per relation object,
  an incoming view's key column per view object), and a context's key
  column is that source's codes gathered through the context's index
  array;
* **nothing outlives its last reader**: every step declares the vars it
  reads and writes, and :func:`step_liveness` reads off, once per plan,
  which vars die after each step (an output no step reads dies at its
  own step).  A run drops them there, as the paper's generated code
  (Figure 7) lets a loop-scoped local go out of scope, so a group holds
  ``GroupPlan.peak_live`` arrays at most, not one per step.

The same steps are either interpreted (``interpreter.py``) or rendered to
specialized Python source (``codegen.py``), which guarantees the two
execution modes agree.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..data.relation import Relation
from ..query.functions import Function
from .grouping import ViewGroup
from .views import View, ViewRef

# ---------------------------------------------------------------------------
# Step IR
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Gather:
    """out = source_column[index]  (index=None means the column itself).

    ``origin`` is ``("rel", attr)``, ``("viewkey", vid, pos)`` or
    ``("viewagg", vid, pos)``.
    """

    out: str
    origin: tuple
    index: Optional[str]

    @property
    def reads(self) -> Tuple[str, ...]:
        return () if self.index is None else (self.index,)

    @property
    def writes(self) -> Tuple[str, ...]:
        return (self.out,)


@dataclass(frozen=True)
class EncodeStep:
    """out_codes, out_uniques = the dictionary encoding of a key source.

    ``origin`` is ``("rel", attr)`` or ``("viewkey", vid, pos)``, read
    from the relation's or the view's memo: a key source is encoded once
    per relation or view object.
    """

    out_codes: str
    out_uniques: str
    origin: tuple

    @property
    def reads(self) -> Tuple[str, ...]:
        return ()

    @property
    def writes(self) -> Tuple[str, ...]:
        return (self.out_codes, self.out_uniques)


@dataclass(frozen=True)
class JoinStep:
    """Equi-join the current context with an incoming view.

    ``left_vars`` are the context's key columns as ``(codes, uniques)``
    var pairs, ``right_vars`` the view's own key columns (values).
    Outputs the two index arrays ``out_left``/``out_right``.
    """

    out_left: str
    out_right: str
    left_vars: Tuple[Tuple[str, str], ...]
    right_vars: Tuple[str, ...]

    @property
    def reads(self) -> Tuple[str, ...]:
        return _flat(self.left_vars) + self.right_vars

    @property
    def writes(self) -> Tuple[str, ...]:
        return (self.out_left, self.out_right)


@dataclass(frozen=True)
class IndexStep:
    """out = arr[idx] — re-aligns an index array after a join."""

    out: str
    arr: str
    idx: str

    @property
    def reads(self) -> Tuple[str, ...]:
        return (self.arr, self.idx)

    @property
    def writes(self) -> Tuple[str, ...]:
        return (self.out,)


@dataclass(frozen=True)
class FactorStep:
    """Evaluate one aggregate factor function over context columns.

    Static functions carry an inline NumPy expression; dynamic functions
    are called through the plan's parameter table (slot).
    """

    out: str
    function: Function
    col_vars: Tuple[Tuple[str, str], ...]  # (attr, var)
    dyn_slot: Optional[int]

    @property
    def reads(self) -> Tuple[str, ...]:
        return tuple(var for _, var in self.col_vars)

    @property
    def writes(self) -> Tuple[str, ...]:
        return (self.out,)


@dataclass(frozen=True)
class MulStep:
    """out = a * b.

    Before the sum both are row-aligned columns.  After it ``a`` is a
    group-aligned sum and ``b`` a post-sum factor: a covered view's
    aggregate column gathered once per group, a scalar view's length-1
    column (it broadcasts), or a plan-time constant given as a float.
    """

    out: str
    a: str
    b: Union[str, float]

    @property
    def reads(self) -> Tuple[str, ...]:
        return (self.a, self.b) if isinstance(self.b, str) else (self.a,)

    @property
    def writes(self) -> Tuple[str, ...]:
        return (self.out,)


@dataclass(frozen=True)
class GroupKeyStep:
    """Encode composite group-by keys of a context.

    ``key_vars`` are ``(codes, uniques)`` var pairs.  Outputs
    ``out_codes`` (row-aligned int codes) and ``out_keys`` (list of
    per-group key columns in lexicographic order).
    """

    out_codes: str
    out_keys: str
    key_vars: Tuple[Tuple[str, str], ...]

    @property
    def reads(self) -> Tuple[str, ...]:
        return _flat(self.key_vars)

    @property
    def writes(self) -> Tuple[str, ...]:
        return (self.out_codes, self.out_keys)


@dataclass(frozen=True)
class GroupRowsStep:
    """out[g] = one context row whose group code is ``g``.

    Which row does not matter: what is read through it is constant
    within the group.
    """

    out: str
    codes: str
    keys: str

    @property
    def reads(self) -> Tuple[str, ...]:
        return (self.codes, self.keys)

    @property
    def writes(self) -> Tuple[str, ...]:
        return (self.out,)


@dataclass(frozen=True)
class GroupSumStep:
    """One row-level sum: grouped (or scalar) summation.

    ``values`` is the product array var, or ``None`` for pure counts.
    ``codes``/``keys`` are ``None`` for scalar (no group-by) sums; then
    ``n_var`` holds the context length var for counts.  Aggregates whose
    row-level products and groups are equal share one step; what differs
    between them multiplies the sum (:class:`MulStep`).

    ``base`` names the context's index into the relation's rows (``None``
    when the context is the bare relation).  A weighted run — a signed
    delta, each row carrying a multiplicity of +1 or -1 — reads each
    context row's weight through it: it sums ``values * w[base]`` and
    counts ``sum(w[base])``.
    """

    out: str
    codes: Optional[str]
    keys: Optional[str]
    values: Optional[str]
    n_var: Optional[str]
    base: Optional[str] = None

    @property
    def reads(self) -> Tuple[str, ...]:
        if self.codes is not None:
            groups = (self.codes, self.keys)
        elif self.values is None:
            groups = (self.n_var,)  # a scalar count reads the length
        else:
            groups = ()
        if self.base is not None:
            groups += (self.base,)
        return groups if self.values is None else groups + (self.values,)

    @property
    def writes(self) -> Tuple[str, ...]:
        return (self.out,)


@dataclass(frozen=True)
class DotStep:
    """Scalar sums of one incoming view's payloads, as one product.

    ``outs[k]`` is ``SUM over context rows i of prefix[i] *
    V.sums[aggs[k], index[i]]`` for the view ``V`` = ``view_id``: the
    scalar sums of a context whose row-level products end in a payload
    of ``V`` and agree on everything before it, the ``prefix``
    (``None`` is a factor of 1).  :func:`repro.data.ops.view_dot`
    computes them all in one matrix-vector product, over the context's
    rows or over ``V``'s keys, whichever are fewer.  A weighted run
    reads each context row's weight through ``base``, as
    :class:`GroupSumStep` does.

    ``span`` is the slice of ``V``'s block from the first to the last
    of ``aggs`` (a view, no copy); ``picks`` the rows of ``aggs`` within
    it, ``None`` when ``aggs`` are consecutive.
    """

    outs: Tuple[str, ...]
    view_id: int
    aggs: Tuple[int, ...]
    index: str
    prefix: Optional[str]
    base: str
    span: slice = field(init=False, repr=False, compare=False)
    picks: Optional[np.ndarray] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        first, last = self.aggs[0], self.aggs[-1]
        picks = None
        if last - first + 1 != len(self.aggs):
            picks = np.asarray(self.aggs, dtype=np.int64) - first
        object.__setattr__(self, "span", slice(first, last + 1))
        object.__setattr__(self, "picks", picks)

    @property
    def reads(self) -> Tuple[str, ...]:
        own = (self.index, self.base)
        return own if self.prefix is None else own + (self.prefix,)

    @property
    def writes(self) -> Tuple[str, ...]:
        return self.outs


@dataclass(frozen=True)
class EmitStep:
    """Assemble one output view from key columns + aggregate columns.

    ``count`` is the index of the view's COUNT aggregate, its support:
    incremental maintenance retires a group key whose count cancels to
    zero (``None`` when support is not tracked).
    """

    view_id: int
    group_by: Tuple[str, ...]
    keys_var: Optional[str]  # var of GroupKeyStep.out_keys, None if scalar
    agg_vars: Tuple[str, ...]
    count: Optional[int] = None

    @property
    def reads(self) -> Tuple[str, ...]:
        own = () if self.keys_var is None else (self.keys_var,)
        return own + self.agg_vars

    @property
    def writes(self) -> Tuple[str, ...]:
        return ()


Step = object  # union of the dataclasses above; each has reads/writes


def _flat(pairs: Tuple[Tuple[str, str], ...]) -> Tuple[str, ...]:
    return tuple(var for pair in pairs for var in pair)


def step_liveness(
    steps: Sequence[Step],
) -> Tuple[Tuple[Tuple[str, ...], ...], int]:
    """Which vars die after each step, and the most held at once.

    A var dies after the last step that reads it, or after the step
    that writes it when no step does.  Vars no step writes (the
    relation length ``_n_rel``) are the plan's inputs and never die.
    The peak counts the vars held right after a step, before its dead
    ones go: the plan's own bound on how many arrays a run holds.
    """
    last: Dict[str, int] = {}
    for i, step in enumerate(steps):
        for var in step.reads:
            if var in last:
                last[var] = i
        for var in step.writes:
            last[var] = i
    frees: List[List[str]] = [[] for _ in steps]
    for var, i in last.items():
        frees[i].append(var)
    live = peak = 0
    for step, dead in zip(steps, frees):
        live += len(step.writes)
        peak = max(peak, live)
        live -= len(dead)
    return tuple(tuple(dead) for dead in frees), peak


@dataclass
class GroupPlan:
    """The executable plan of one view group.

    ``frees[i]`` names the vars no step after ``i`` reads: a run drops
    them after step ``i``, like a loop-scoped local of the paper's
    generated code (Figure 7) going out of scope.  ``peak_live`` is the
    most vars held at once.  Both follow from the steps and are
    computed once, when the plan is built.
    """

    group: ViewGroup
    node: str
    steps: List[Step]
    #: view ids this plan consumes
    input_view_ids: Tuple[int, ...]
    #: relation attrs this plan reads
    relation_attrs: Tuple[str, ...]
    frees: Tuple[Tuple[str, ...], ...] = field(init=False, repr=False)
    peak_live: int = field(init=False)

    def __post_init__(self) -> None:
        self.frees, self.peak_live = step_liveness(self.steps)

    def describe(self) -> str:
        """Human-readable plan dump (the Figure 4 analog)."""
        lines = [f"group {self.group.id} @ {self.node}:"]
        for step in self.steps:
            lines.append(f"  {step}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Builder
# ---------------------------------------------------------------------------


@dataclass
class _Context:
    """Symbolic join context: relation rows joined with some views."""

    key: Tuple[int, ...]  # sorted view ids joined so far
    base_idx: Optional[str]  # var of indices into the relation (None=identity)
    view_idx: Dict[int, str]  # view id -> var of indices into its columns
    n_var: str  # var holding the context length


class GroupPlanBuilder:
    """Builds the step list for one view group."""

    def __init__(
        self,
        group: ViewGroup,
        views: Sequence[View],
        relation_attrs: Sequence[str],
        dyn_slots: Dict[int, int],
    ):
        self.group = group
        self.views = views
        self.node = group.node
        self.relation_attrs = tuple(relation_attrs)
        self.dyn_slots = dyn_slots  # id(function) -> slot
        self.steps: List[Step] = []
        self._var_count = 0
        self._contexts: Dict[Tuple[int, ...], _Context] = {}
        # (step type, *the step's inputs) -> its output var(s)
        self._emitted: Dict[tuple, Union[str, Tuple[str, ...]]] = {}
        # (context key, prefix names, view id) -> (the prefix's row
        # factors, {payload index: its sum's var once emitted})
        self._dots: Dict[
            tuple, Tuple[List[tuple], Dict[int, Optional[str]]]
        ] = {}
        # (context key, row factor name) -> aggregates multiplying it
        self._uses: Dict[tuple, int] = {}
        self._input_views: Dict[int, None] = {}

    # -- var bookkeeping -----------------------------------------------------

    def _new_var(self, hint: str = "v") -> str:
        self._var_count += 1
        return f"{hint}{self._var_count}"

    def _emit(self, step: tuple, hints: Union[str, Tuple[str, ...]]):
        """The output var of ``step``, or the tuple of its vars when
        ``hints`` names several outputs.

        ``step`` is ``(kind, *inputs)``: the step's type and its fields
        after its outputs, in field order.  A step of one kind over
        equal inputs computes the same thing, so a step seen before is
        not emitted again: its output vars are reused.  Otherwise the
        new step writes fresh vars, named after ``hints``.
        """
        outs = self._emitted.get(step)
        if outs is None:
            kind, *inputs = step
            if isinstance(hints, str):
                outs = self._new_var(hints)
                self.steps.append(kind(outs, *inputs))
            else:
                outs = tuple(map(self._new_var, hints))
                self.steps.append(kind(*outs, *inputs))
            self._emitted[step] = outs
        return outs

    # -- build ----------------------------------------------------------------

    def build(self) -> GroupPlan:
        base = _Context(key=(), base_idx=None, view_idx={}, n_var="_n_rel")
        self._contexts[()] = base
        views = [self.views[view_id] for view_id in self.group.view_ids]
        laid_out = [self._lay_out(view) for view in views]
        for view, specs in zip(views, laid_out):
            for i, (spec, context, group_refs, row_factors) in enumerate(
                specs
            ):
                row_factors.sort(key=lambda f: -self._uses[context, f[0]])
                dot = None if view.group_by else _dot_key(context, row_factors)
                if dot is not None:
                    payloads = self._dots.setdefault(
                        dot, (row_factors[:-1], {})
                    )[1]
                    payloads[row_factors[-1][1].agg_index] = None
                specs[i] = (spec, context, group_refs, row_factors, dot)
        for view, specs in zip(views, laid_out):
            self._build_view(view, specs)
        return GroupPlan(
            group=self.group,
            node=self.node,
            steps=self.steps,
            input_view_ids=tuple(self._input_views),
            relation_attrs=self.relation_attrs,
        )

    def _lay_out(self, view: View) -> List[tuple]:
        """Each aggregate of ``view`` as ``(spec, context key, covered
        refs, row factors)``, counting the row factors' uses.

        A row factor is ``(name, function or ref)``; its name identifies
        it within a context.  Row factors come in signature / view-id
        order.  ``self._uses`` counts, per context, how many aggregates
        of the group multiply each one row by row.  Once every view is
        laid out, :meth:`build` sorts each product's factors most used
        first, the order :meth:`_build_product` folds them in, and adds
        the aggregate's :func:`_dot_key`.
        """
        uses = self._uses
        covered = set(view.group_by)
        laid_out = []
        for spec in view.aggregates:
            row_factors: List[tuple] = []
            group_refs, joined = [], set()
            for function in sorted(
                spec.functions, key=lambda f: repr(f.signature())
            ):
                name = (
                    ("dyn", self.dyn_slots.get(id(function)))
                    if function.dynamic
                    else function.signature()
                )
                row_factors.append((name, function))
            for ref in sorted(
                spec.refs, key=lambda r: (r.view_id, r.agg_index)
            ):
                self._input_views.setdefault(ref.view_id, None)
                view_key = self.views[ref.view_id].group_by
                if view_key:  # key {} has nothing to join on
                    joined.add(ref.view_id)
                if covered.issuperset(view_key):
                    group_refs.append(ref)
                else:
                    origin = ("viewagg", ref.view_id, ref.agg_index)
                    row_factors.append((origin, ref))
            context = tuple(sorted(joined))
            for name, _ in row_factors:
                uses[context, name] = uses.get((context, name), 0) + 1
            laid_out.append((spec, context, group_refs, row_factors))
        return laid_out

    def _build_view(self, view: View, laid_out: List[tuple]) -> None:
        """One output view: per aggregate, a shared sum times its factors.

        **The hoisting rule.**  An aggregate is
        ``SUM over context rows of c * PROD f_i(relation columns) * PROD
        V_j[payload]``.  A factor that is constant within every output
        group multiplies the group's sum instead of its rows: the
        coefficient ``c``, and the payload of every incoming view whose
        whole key is contained in the output view's group-by (a scalar
        view, key {}, is the smallest such key).  Rows of one output
        group agree on the view's key, so they all read the same payload
        row, which is gathered once per group through
        :class:`GroupRowsStep`.  The view still joins into the context:
        the join is what drops rows without a partner and what says
        which payload row a group reads.  Only relation-column functions
        and views whose key is *not* covered are multiplied row by row
        (:meth:`_lay_out` sorts the references into the two kinds).
        """
        agg_vars: List[str] = []
        codes: Optional[str] = None
        keys: Optional[str] = None
        # the view's group keys per context it reads, looked up once:
        # one lookup per aggregate made planning measurably slower
        group_keys: Dict[Tuple[int, ...], Tuple[str, str]] = {}
        for spec, context, group_refs, row_factors, dot in laid_out:
            ctx = self._context_for(context)
            if view.group_by:
                if context not in group_keys:
                    group_keys[context] = self._group_keys(ctx, view.group_by)
                codes, keys = group_keys[context]
            factors: List[Union[str, float]] = [
                self._group_payload(ctx, codes, keys, ref)
                for ref in group_refs
            ]
            if spec.coefficient != 1.0:
                factors.append(spec.coefficient)
            if dot is None:
                total = self._group_sum(
                    ctx, codes, keys, self._build_product(ctx, row_factors)
                )
            else:
                total = self._dot(ctx, dot, row_factors[-1][1].agg_index)
            agg_vars.append(self._fold(total, factors))
        self.steps.append(
            EmitStep(
                view_id=view.id,
                group_by=view.group_by,
                keys_var=keys,
                agg_vars=tuple(agg_vars),
                count=view.count,
            )
        )

    # -- contexts --------------------------------------------------------------

    def _context_for(self, view_ids: Tuple[int, ...]) -> _Context:
        """The context joining the relation with these views.

        Built one join at a time, the last view joined into the context
        of the others, and memoized on the sorted view-id tuple: a
        group's aggregates that share incoming views share the join
        work, the "one pass over the relation" of §3.5.  The join
        realigns the context's index arrays through its fresh left
        index, so every context's vars are its own.
        """
        if view_ids in self._contexts:
            return self._contexts[view_ids]
        ctx = self._context_for(view_ids[:-1])
        view_id = view_ids[-1]
        group_by = self.views[view_id].group_by
        join_attrs = [
            a for a in group_by if self._available(ctx, a) is not None
        ]
        if not join_attrs:
            raise RuntimeError(
                f"view {view_id} shares no attributes with the context at "
                f"node {self.node}"
            )
        left_vars = tuple(
            self._encoded(ctx, self._available(ctx, a)) for a in join_attrs
        )
        right_vars = tuple(
            self._gather(("viewkey", view_id, group_by.index(a)), None, "k")
            for a in join_attrs
        )
        li, ri = self._emit((JoinStep, left_vars, right_vars), ("li", "ri"))
        # realign the context's index arrays to the joined rows
        base_idx = li
        if ctx.base_idx is not None:
            base_idx = self._index(ctx.base_idx, li, "ix")
        view_idx = {
            vid: self._index(var, li, "ix")
            for vid, var in ctx.view_idx.items()
        }
        view_idx[view_id] = ri
        joined = self._contexts[view_ids] = _Context(
            key=view_ids,
            base_idx=base_idx,
            view_idx=view_idx,
            n_var=li,  # length of li defines the context length
        )
        return joined

    def _available(self, ctx: _Context, attr: str) -> Optional[tuple]:
        """Where ``attr`` can be read in this context (origin tuple)."""
        if attr in self.relation_attrs:
            return ("rel", attr)
        for vid in ctx.key:
            group_by = self.views[vid].group_by
            if attr in group_by:
                return ("viewkey", vid, group_by.index(attr))
        return None

    # -- gathers ----------------------------------------------------------------

    def _gather(
        self, origin: tuple, index: Optional[str], hint: str = "c"
    ) -> str:
        """``origin``'s column read through an index array var.

        ``None`` is the column itself: a relation column over the bare
        relation, or a view's own key / aggregate column.
        """
        return self._emit((Gather, origin, index), hint)

    def _row_column(self, ctx: _Context, origin: tuple) -> str:
        """Row-aligned column of the context for the given origin."""
        if origin[0] == "rel":
            return self._gather(origin, ctx.base_idx)
        if origin[1] not in ctx.view_idx:
            raise RuntimeError(
                f"origin {origin} not joined into context {ctx.key}"
            )
        return self._gather(origin, ctx.view_idx[origin[1]])

    def _encoded(self, ctx: _Context, origin: tuple) -> Tuple[str, str]:
        """A context key column as ``(codes var, uniques var)``.

        The source is encoded once per plan; the context's codes are the
        source's codes gathered through the context's index array.
        """
        codes, uniques = self._emit((EncodeStep, origin), ("kc", "ku"))
        index = ctx.base_idx if origin[0] == "rel" else ctx.view_idx[origin[1]]
        if index is None:
            return codes, uniques
        return self._index(codes, index, "kc"), uniques

    def _index(self, arr: str, idx: str, hint: str) -> str:
        """``arr[idx]``: a context's key codes, a join's realigned index
        array, or a covered view's index at each group's row."""
        return self._emit((IndexStep, arr, idx), hint)

    # -- products ----------------------------------------------------------------

    def _build_product(
        self, ctx: _Context, row_factors: List[tuple]
    ) -> Optional[str]:
        """Row-aligned product of an aggregate's row factors.

        The factors come sorted most used in the context first, ties
        kept in signature / view-id order, so aggregates that share all
        factors but a few share the prefix of their products
        (:meth:`_fold` emits it once).  Returns ``None`` when there is
        nothing row-wise to multiply (a pure count).
        """
        if not row_factors:
            return None
        factor_vars = [
            self._row_column(ctx, name)
            if isinstance(item, ViewRef)
            else self._factor(ctx, item, name)
            for name, item in row_factors
        ]
        return self._fold(factor_vars[0], factor_vars[1:])

    def _fold(self, first: str, rest: Sequence[Union[str, float]]) -> str:
        """``first * rest[0] * rest[1] ...``, left to right.

        A product's var stands for its whole prefix, so products that
        share leading factors share their sub-products: the paper's
        reuse of repeated multiplications.
        """
        current = first
        for factor in rest:
            current = self._emit((MulStep, current, factor), "p")
        return current

    # -- sums and their per-group factors -----------------------------------------

    def _group_sum(
        self,
        ctx: _Context,
        codes: Optional[str],
        keys: Optional[str],
        values: Optional[str],
    ) -> str:
        """The (shared) sum of a row-level product per group of ``ctx``."""
        step = (GroupSumStep, codes, keys, values, ctx.n_var, ctx.base_idx)
        return self._emit(step, "sum")

    def _dot(self, ctx: _Context, dot: tuple, agg_index: int) -> str:
        """The var of payload ``agg_index``'s sum of the shared product
        ``dot``; the first aggregate to ask emits the :class:`DotStep`
        for every payload :meth:`build` found sharing it."""
        prefix_factors, outs = self._dots[dot]
        if outs[agg_index] is None:
            view_id = dot[2]
            aggs = tuple(sorted(outs))
            for j in aggs:
                outs[j] = self._new_var("sum")
            self.steps.append(
                DotStep(
                    outs=tuple(outs[j] for j in aggs),
                    view_id=view_id,
                    aggs=aggs,
                    index=ctx.view_idx[view_id],
                    prefix=self._build_product(ctx, prefix_factors),
                    base=ctx.base_idx,
                )
            )
        return outs[agg_index]

    def _group_payload(
        self, ctx: _Context, codes: Optional[str], keys: Optional[str], ref
    ) -> str:
        """A covered view's aggregate column, one value per output group."""
        origin = ("viewagg", ref.view_id, ref.agg_index)
        if not self.views[ref.view_id].group_by:
            # key {}: the length-1 column broadcasts over the groups
            return self._gather(origin, None, "s")
        rows = self._emit((GroupRowsStep, codes, keys), "rows")
        index = self._index(ctx.view_idx[ref.view_id], rows, "gix")
        return self._gather(origin, index, "g")

    def _factor(self, ctx: _Context, function: Function, name: tuple) -> str:
        """``function`` over the context's rows; ``name`` is its
        signature, or its dyn slot for a dynamic function.

        The step's column vars are the context's own, so a factor is
        evaluated once per context.
        """
        col_vars = tuple(
            (attr, self._row_column(ctx, self._require(ctx, attr)))
            for attr in function.attrs
        )
        dyn_slot = name[1] if function.dynamic else None
        return self._emit((FactorStep, function, col_vars, dyn_slot), "f")

    def _require(self, ctx: _Context, attr: str) -> tuple:
        origin = self._available(ctx, attr)
        if origin is None:
            raise RuntimeError(
                f"attribute {attr!r} unavailable in context {ctx.key} at "
                f"node {self.node}; plan construction bug"
            )
        return origin

    # -- group keys ----------------------------------------------------------------

    def _group_keys(
        self, ctx: _Context, group_by: Tuple[str, ...]
    ) -> Tuple[str, str]:
        key_vars = tuple(
            self._encoded(ctx, self._require(ctx, a)) for a in group_by
        )
        return self._emit((GroupKeyStep, key_vars), ("codes", "keys"))


def _dot_key(
    context: Tuple[int, ...], row_factors: List[tuple]
) -> Optional[tuple]:
    """``(context, prefix names, view id)`` of a scalar sum whose last
    row factor is an incoming view's payload, else ``None``.

    The scalar sums of one context that end in payloads of one view
    after the same prefix share one :class:`DotStep`.
    """
    if not row_factors or not isinstance(row_factors[-1][1], ViewRef):
        return None
    prefix = tuple(name for name, _ in row_factors[:-1])
    return context, prefix, row_factors[-1][1].view_id


def build_group_plan(
    group: ViewGroup,
    views: Sequence[View],
    relation: Relation,
    dyn_slots: Dict[int, int],
) -> GroupPlan:
    """Build the multi-output plan for one view group."""
    builder = GroupPlanBuilder(
        group=group,
        views=views,
        relation_attrs=relation.schema.names,
        dyn_slots=dyn_slots,
    )
    return builder.build()
