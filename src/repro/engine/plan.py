"""Multi-output group plans: a step IR shared by interpreter and codegen.

For each view group the :class:`GroupPlanBuilder` emits a linear list of
*steps* (a small SSA-like IR).  The builder performs the Multi-Output
Optimization of §3.5:

* the node relation is scanned once per *join context* — aggregates that
  reference the same incoming views share the join index computation;
* evaluated factor columns are shared across aggregates (local variables
  in the paper's generated code);
* partial products are shared via prefix caching (the paper's "reuse of
  arithmetic operations"), and a product folds the factors most of the
  group's aggregates share first, so their common prefix is built once;
* group-by key encodings are shared across all aggregates of a view and
  across views with equal group-by;
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
        # caches for sharing
        self._gather_cache: Dict[tuple, str] = {}
        self._encode_cache: Dict[tuple, Tuple[str, str]] = {}
        self._index_cache: Dict[tuple, str] = {}
        self._factor_cache: Dict[tuple, str] = {}
        self._product_cache: Dict[tuple, str] = {}
        self._groupkey_cache: Dict[tuple, Tuple[str, str]] = {}
        self._grouprows_cache: Dict[str, str] = {}  # codes var -> rows var
        self._sum_cache: Dict[tuple, str] = {}
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
        for spec, context, group_refs, row_factors, dot in laid_out:
            ctx = self._context_for(context)
            if view.group_by:
                codes, keys = self._group_keys(ctx, view.group_by)
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
        """Get/build the context joining the relation with these views.

        Contexts are built incrementally and cached on the sorted view-id
        tuple; a group's aggregates that share incoming views share the
        join work — the "one pass over the relation" of §3.5.
        """
        if view_ids in self._contexts:
            return self._contexts[view_ids]
        prefix = view_ids[:-1]
        ctx = self._context_for(prefix)
        new_ctx = self._join(ctx, view_ids[-1], view_ids)
        self._contexts[view_ids] = new_ctx
        return new_ctx

    def _join(
        self, ctx: _Context, view_id: int, new_key: Tuple[int, ...]
    ) -> _Context:
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
        li = self._new_var("li")
        ri = self._new_var("ri")
        self.steps.append(
            JoinStep(
                out_left=li,
                out_right=ri,
                left_vars=left_vars,
                right_vars=right_vars,
            )
        )
        # realign existing index arrays
        if ctx.base_idx is None:
            new_base = li
        else:
            new_base = self._new_var("ix")
            self.steps.append(IndexStep(out=new_base, arr=ctx.base_idx, idx=li))
        new_view_idx = {}
        for vid, var in ctx.view_idx.items():
            realigned = self._new_var("ix")
            self.steps.append(IndexStep(out=realigned, arr=var, idx=li))
            new_view_idx[vid] = realigned
        new_view_idx[view_id] = ri
        return _Context(
            key=new_key,
            base_idx=new_base,
            view_idx=new_view_idx,
            n_var=li,  # length of li defines the context length
        )

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
        cache_key = (origin, index)
        if cache_key not in self._gather_cache:
            out = self._new_var(hint)
            self.steps.append(Gather(out=out, origin=origin, index=index))
            self._gather_cache[cache_key] = out
        return self._gather_cache[cache_key]

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
        source = self._encode_cache.get(origin)
        if source is None:
            source = (self._new_var("kc"), self._new_var("ku"))
            self.steps.append(EncodeStep(*source, origin=origin))
            self._encode_cache[origin] = source
        index = ctx.base_idx if origin[0] == "rel" else ctx.view_idx[origin[1]]
        if index is None:
            return source
        return self._index(source[0], index, "kc"), source[1]

    def _index(self, arr: str, idx: str, hint: str) -> str:
        """``arr[idx]``, emitted once per pair of vars."""
        cache_key = (arr, idx)
        if cache_key not in self._index_cache:
            out = self._new_var(hint)
            self.steps.append(IndexStep(out=out, arr=arr, idx=idx))
            self._index_cache[cache_key] = out
        return self._index_cache[cache_key]

    # -- products ----------------------------------------------------------------

    def _build_product(
        self, ctx: _Context, row_factors: List[tuple]
    ) -> Optional[str]:
        """Row-aligned product of an aggregate's row factors.

        The factors come sorted most used in the context first, ties
        kept in signature / view-id order, so aggregates that share all
        factors but a few share the prefix of their products
        (:meth:`_fold` caches it).  Returns ``None`` when there is
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

        Prefix-cached: shared leading sub-products are computed once
        (the paper's reuse of repeated multiplications).  Var names are
        unique per context and per group-by, so they key the cache.
        """
        current = first
        prefix: tuple = (first,)
        for factor in rest:
            prefix = (prefix, factor)
            if prefix not in self._product_cache:
                out = self._new_var("p")
                self.steps.append(MulStep(out=out, a=current, b=factor))
                self._product_cache[prefix] = out
            current = self._product_cache[prefix]
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
        cache_key = (ctx.key, codes, values)
        if cache_key not in self._sum_cache:
            out = self._new_var("sum")
            self.steps.append(
                GroupSumStep(
                    out=out,
                    codes=codes,
                    keys=keys,
                    values=values,
                    n_var=ctx.n_var,
                    base=ctx.base_idx,
                )
            )
            self._sum_cache[cache_key] = out
        return self._sum_cache[cache_key]

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
        if codes not in self._grouprows_cache:
            rows = self._new_var("rows")
            self.steps.append(GroupRowsStep(out=rows, codes=codes, keys=keys))
            self._grouprows_cache[codes] = rows
        index = self._index(
            ctx.view_idx[ref.view_id], self._grouprows_cache[codes], "gix"
        )
        return self._gather(origin, index, "g")

    def _factor(self, ctx: _Context, function: Function, name: tuple) -> str:
        """``function`` over the context's rows; ``name`` is its
        signature, or its dyn slot for a dynamic function."""
        cache_key = (ctx.key, name)
        if cache_key in self._factor_cache:
            return self._factor_cache[cache_key]
        col_vars = tuple(
            (attr, self._row_column(ctx, self._require(ctx, attr)))
            for attr in function.attrs
        )
        out = self._new_var("f")
        self.steps.append(
            FactorStep(
                out=out,
                function=function,
                col_vars=col_vars,
                dyn_slot=name[1] if function.dynamic else None,
            )
        )
        self._factor_cache[cache_key] = out
        return out

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
        cache_key = (ctx.key, group_by)
        if cache_key in self._groupkey_cache:
            return self._groupkey_cache[cache_key]
        key_vars = tuple(
            self._encoded(ctx, self._require(ctx, a)) for a in group_by
        )
        codes = self._new_var("codes")
        keys = self._new_var("keys")
        self.steps.append(
            GroupKeyStep(out_codes=codes, out_keys=keys, key_vars=key_vars)
        )
        self._groupkey_cache[cache_key] = (codes, keys)
        return codes, keys


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
