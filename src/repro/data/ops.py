"""Vectorized relational kernels over dictionary-encoded key columns.

The engine's joins and group-bys never sort a context-length array.  A
key column is *encoded once* — ``(codes, uniques)`` with ``uniques``
sorted and ``uniques[codes]`` the column — and every later operation
works on the integer codes:

* **encode once.**  :class:`ColumnEncodings` memoizes one
  :func:`factorize` per column; :class:`~repro.data.relation.Relation`
  owns one, so a relation's key columns are sorted at most once in its
  lifetime.  A context column is always ``source[idx]``, so its codes
  are ``source_codes[idx]`` over the same dictionary — a dictionary may
  therefore hold values the column no longer contains.
* **lookup join.**  :func:`shared_codes` translates the (small) right
  side's key values into the left side's dictionaries with a binary
  search and combines composite keys by mixed radix; keys the left
  side's dictionary lacks get code ``-1``.  :func:`join_indices` then
  fills a direct-address table from the right codes and reads it with
  the left codes.
* **radix group keys.**  :func:`factorize_rows` combines per-column
  codes by mixed radix and compacts them with a presence bitmap and a
  running count; the group keys decode through the dictionaries.
* **a row per group.**  :func:`group_rows` scatters row numbers by
  group code, so a column that is constant within each group is read
  once per group instead of once per row (``engine/plan.py``'s
  post-sum factors).
* **one product per shared factor.**  :func:`view_dot` computes the
  scalar sums of many payloads of one joined view, each times the same
  per-row factor, as one matrix-vector product (``engine/plan.py``'s
  :class:`~repro.engine.plan.DotStep`).

Three choices, each read off the input, never off a flag:

* :func:`join_indices` keeps its sort-based merge for a right side that
  repeats a key (a direct-address table holds one row per code) and for
  code spaces too large to address;
* a composite code space too large for a bitmap is compacted with one
  integer ``np.unique`` instead, and one whose size would overflow
  ``int64`` is compacted part-way through the columns;
* :func:`view_dot` multiplies over the context's rows or over the
  view's keys, whichever are fewer.

The join and group-key paths yield the same codes, the same
(lexicographic) key order and the same ``(left_idx, right_idx)`` order,
so grouped float sums accumulate in one order whatever path ran; the
two forms of :func:`view_dot` agree up to float rounding.  Negative
codes and NaN keys match nothing.

All kernels are pure functions over ``np.ndarray`` inputs so they are easy
to test against brute-force references (see ``tests/data/test_ops.py``).
"""

from __future__ import annotations

from typing import List, Mapping, Sequence, Tuple

import numpy as np

#: a dictionary-encoded column: ``(codes, uniques)``
Encoded = Tuple[np.ndarray, np.ndarray]

#: a code space is addressed directly (bitmap, lookup table) while it is
#: no larger than this many slots per input row, or this floor
_DENSE_SLOTS_PER_ROW = 8
_DENSE_FLOOR = 1 << 12
#: mixed-radix codes stay below this, leaving ``int64`` headroom
_MAX_RADIX = 1 << 62


def factorize(column: np.ndarray) -> Encoded:
    """Dictionary-encode one column.

    Returns ``(codes, uniques)`` where ``uniques[codes] == column`` and
    ``uniques`` is sorted ascending.  Codes are ``int64``.
    """
    uniques, codes = np.unique(column, return_inverse=True)
    return codes.astype(np.int64, copy=False).ravel(), uniques


class ColumnEncodings(dict):
    """Column name -> its encoding, computed on first use and kept.

    Two threads racing on one column may both encode it; each stores a
    complete ``(codes, uniques)`` pair, so a reader never sees a
    half-built entry.
    """

    def __init__(self, columns: Mapping[str, np.ndarray]):
        super().__init__()
        self._columns = columns

    def __missing__(self, name: str) -> Encoded:
        encoded = self[name] = factorize(self._columns[name])
        return encoded


def _addressable(size: int, n_rows: int) -> bool:
    return size <= max(_DENSE_FLOOR, _DENSE_SLOTS_PER_ROW * n_rows)


def _lookup(uniques: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Codes of ``values`` in a sorted dictionary; ``-1`` where absent."""
    if len(uniques) == 0:
        return np.full(len(values), -1, dtype=np.int64)
    pos = np.searchsorted(uniques, values)
    pos[pos == len(uniques)] = 0
    return np.where(uniques[pos] == values, pos, -1)


def _compact(mixed: np.ndarray, radix: int) -> Tuple[np.ndarray, np.ndarray]:
    """Dense ranks of codes drawn from ``[0, radix)``.

    Returns ``(codes, distinct)``: ``distinct`` the sorted distinct values
    of ``mixed`` and ``distinct[codes] == mixed``.
    """
    if not _addressable(radix, len(mixed)):
        return factorize(mixed)
    present = np.zeros(radix, dtype=bool)
    present[mixed] = True
    return (np.cumsum(present) - 1)[mixed], np.flatnonzero(present)


def factorize_rows(
    columns: Sequence[Encoded],
) -> Tuple[np.ndarray, List[np.ndarray]]:
    """Dictionary-encode composite row keys of encoded columns.

    Given ``k`` equal-length ``(codes, uniques)`` columns, returns
    ``(codes, key_columns)`` where rows with equal tuples share a code,
    codes follow the lexicographic order of the key tuples, and
    ``key_columns[j][c]`` is the value of column ``j`` for code ``c``.
    Only tuples that occur get a code, whatever else the dictionaries
    hold.
    """
    if not columns:
        raise ValueError("factorize_rows requires at least one column")
    mixed = None
    radix = 1
    # what the digits of ``mixed`` decode through, most significant
    # first: (key columns indexed by the digit, the digit's base)
    digits: List[Tuple[List[np.ndarray], int]] = []
    for codes, uniques in columns:
        base = max(len(uniques), 1)
        if radix * base > _MAX_RADIX:
            mixed, keys = _decode(*_compact(mixed, radix), digits)
            radix = max(len(keys[0]), 1)
            digits = [(keys, radix)]
        mixed = codes if mixed is None else mixed * base + codes
        radix *= base
        digits.append(([uniques], base))
    return _decode(*_compact(mixed, radix), digits)


def _decode(codes, distinct, digits):
    """Split distinct mixed-radix values back into their key columns."""
    key_columns: List[np.ndarray] = []
    for keys, base in reversed(digits):
        distinct, digit = np.divmod(distinct, base)
        key_columns[:0] = [key[digit] for key in keys]
    return codes, key_columns


def shared_codes(
    left_columns: Sequence[Encoded],
    right_columns: Sequence[np.ndarray],
) -> Tuple[np.ndarray, np.ndarray]:
    """Encode the right side's key tuples in the left side's code space.

    ``left_columns`` are encoded, ``right_columns`` raw values.  Rows of
    the two sides receive equal codes exactly when their key tuples are
    equal, which is the precondition of :func:`join_indices`; a right
    tuple with a value the left dictionaries lack gets ``-1``.
    """
    if len(left_columns) != len(right_columns):
        raise ValueError("key column lists must have equal arity")
    if not left_columns:
        raise ValueError("shared_codes requires at least one column")
    left = right = None
    radix = 1
    for (codes, uniques), values in zip(left_columns, right_columns):
        base = max(len(uniques), 1)
        found = _lookup(uniques, np.asarray(values))
        if left is None:
            left, right = codes, found
        else:
            if radix * base > _MAX_RADIX:
                left, distinct = factorize(left)
                right = _lookup(distinct, right)
                radix = max(len(distinct), 1)
            left = left * base + codes
            right = np.where(
                (right < 0) | (found < 0), -1, right * base + found
            )
        radix *= base
    return left, right


def join_indices(
    left_codes: np.ndarray, right_codes: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Row indices realising the equi-join of two coded key columns.

    Returns ``(left_idx, right_idx)`` such that
    ``left_codes[left_idx] == right_codes[right_idx]`` and every matching
    pair appears exactly once; negative codes match nothing.  Handles
    many-to-many fan-out.  Output pairs are grouped by left row (stable
    in left order, then right order).
    """
    rows = np.flatnonzero(right_codes >= 0)
    codes = right_codes[rows]
    size = 1 + int(
        max(left_codes.max(initial=-1), right_codes.max(initial=-1))
    )
    if _addressable(size, len(left_codes) + len(codes)):
        # slot ``size`` stays -1: it is where a left code of -1 lands
        table = np.full(size + 1, -1, dtype=np.int64)
        table[codes] = rows
        if (table[codes] == rows).all():  # no right code written twice
            matched = table[left_codes]
            left_idx = np.flatnonzero(matched >= 0)
            return left_idx, matched[left_idx]
    order = rows[np.argsort(codes, kind="stable")]
    sorted_right = right_codes[order]
    starts = np.searchsorted(sorted_right, left_codes, side="left")
    ends = np.searchsorted(sorted_right, left_codes, side="right")
    counts = ends - starts
    total = int(counts.sum())
    left_idx = np.repeat(np.arange(len(left_codes), dtype=np.int64), counts)
    if total == 0:
        return left_idx, np.empty(0, dtype=np.int64)
    # positions within sorted_right: starts[i] + (0..counts[i]-1)
    offsets = np.repeat(starts, counts)
    group_begin = np.concatenate(([0], np.cumsum(counts)[:-1]))
    intra = np.arange(total, dtype=np.int64) - np.repeat(group_begin, counts)
    right_idx = order[offsets + intra]
    return left_idx, right_idx


def semijoin_mask(
    left_codes: np.ndarray, right_codes: np.ndarray
) -> np.ndarray:
    """Boolean mask of left rows that have at least one join partner."""
    matches = np.isin(left_codes, right_codes)
    return matches


def group_sums(
    codes: np.ndarray, values: np.ndarray, n_groups: int
) -> np.ndarray:
    """Sum ``values`` per group code (dense output of length n_groups)."""
    if len(values) == 0:
        return np.zeros(n_groups, dtype=np.float64)
    return np.bincount(codes, weights=values, minlength=n_groups).astype(
        np.float64, copy=False
    )


def group_rows(codes: np.ndarray, n_groups: int) -> np.ndarray:
    """A representative row per group code: ``codes[out[g]] == g``.

    Every code below ``n_groups`` must occur, as :func:`factorize_rows`
    guarantees; which of a group's rows is returned is unspecified.
    """
    rows = np.empty(n_groups, dtype=np.int64)
    rows[codes] = np.arange(len(codes), dtype=np.int64)
    return rows


def view_dot(
    block: np.ndarray,
    picks,
    index: np.ndarray,
    values=None,
) -> np.ndarray:
    """``block[picks][:, index] @ values``: many scalar sums in one product.

    ``block`` holds rows of an incoming view's (aggregates x keys) sums,
    ``picks`` the rows wanted (``None``: all of them), ``index`` the view
    row each context row joins and ``values`` the context rows' common
    factor (``None``: 1 per row).  Output ``k`` is the sum over context
    rows of ``values`` times payload ``picks[k]`` of the row's partner.
    Which of the two forms runs is read off ``min(len(index), n_keys)``:
    a context with fewer rows than the view has keys gathers its
    partners' payloads (:func:`_row_dot`); any other first sums its
    factor per view row (:func:`_view_dot`).
    """
    if len(index) < block.shape[1]:
        return _row_dot(block, picks, index, values)
    return _view_dot(block, picks, index, values)


def _row_dot(block, picks, index, values) -> np.ndarray:
    """Row form: one product over the context's rows."""
    if picks is None:
        payloads = block[:, index]
    else:
        payloads = block[np.ix_(picks, index)]
    return payloads.sum(axis=1) if values is None else payloads @ values


def _view_dot(block, picks, index, values) -> np.ndarray:
    """View form: the context's factor summed per view row (sum before
    multiply, pushed through the join), then one product over the view's
    keys.  Every row of ``block`` is multiplied and ``picks`` selected
    after: no copy of the block."""
    q = np.bincount(index, values, minlength=block.shape[1])
    totals = block @ q.astype(np.float64, copy=False)
    return totals if picks is None else totals[picks]


def group_aggregate(
    key_columns: Sequence[np.ndarray],
    value_columns: Sequence[np.ndarray],
) -> Tuple[List[np.ndarray], List[np.ndarray]]:
    """SUM-aggregate value columns grouped by composite keys.

    Returns ``(group_key_columns, summed_value_columns)`` with one row per
    distinct key, in lexicographic key order.  With no key columns the
    output is a single (possibly zero) total per value column.
    """
    if not key_columns:
        sums = [
            np.asarray([float(np.sum(v))]) if len(v) else np.asarray([0.0])
            for v in value_columns
        ]
        return [], sums
    codes, uniques = factorize_rows([factorize(c) for c in key_columns])
    n_groups = len(uniques[0])
    summed = [group_sums(codes, v, n_groups) for v in value_columns]
    return list(uniques), summed


def lexsort_rows(columns: Sequence[np.ndarray]) -> np.ndarray:
    """Permutation sorting rows lexicographically by ``columns``."""
    if not columns:
        raise ValueError("lexsort_rows requires at least one column")
    # np.lexsort sorts by the *last* key first.
    return np.lexsort(tuple(reversed(list(columns))))
