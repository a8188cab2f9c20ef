"""The function algebra of LMFAO aggregates.

Aggregates are *sums of products of functions* (paper §1.1):

    alpha_i = sum_j prod_k f_ijk

This module provides the function vocabulary: constants, identities,
powers, Kronecker deltas ``1_{X op t}`` (decision-tree split conditions),
logarithms/exponentials, and arbitrary user callables.

Every function knows:

* ``attrs`` — which attributes it reads;
* ``evaluate(columns)`` — vectorized evaluation over row-aligned columns;
* ``expr(col_vars)`` — a NumPy source expression for the Compilation layer
  (static functions are inlined into generated code);
* ``signature()`` — a value-inclusive hashable identity used for view
  merging and sharing;
* ``structural_signature(slot)`` — a value-free identity used by the plan
  cache, so *dynamic* functions (paper §1.2: functions that change between
  iterations, e.g. decision-tree conditions) can be re-bound without
  re-planning.
"""

from __future__ import annotations

import math
from typing import Callable, Mapping, Sequence, Tuple

import numpy as np

_OPS = {
    "<=": (np.less_equal, "<="),
    "<": (np.less, "<"),
    ">=": (np.greater_equal, ">="),
    ">": (np.greater, ">"),
    "==": (np.equal, "=="),
    "!=": (np.not_equal, "!="),
}


class Function:
    """Base class for aggregate factor functions."""

    #: attributes this function reads (tuple of names)
    attrs: Tuple[str, ...] = ()
    #: dynamic functions are parameters of cached plans, not inlined
    dynamic: bool = False

    def evaluate(self, columns: Mapping[str, np.ndarray]) -> np.ndarray:
        raise NotImplementedError

    def expr(self, col_vars: Mapping[str, str]) -> str:
        """NumPy source expression over the given column variables."""
        raise NotImplementedError

    def signature(self) -> tuple:
        """Value-inclusive identity (used for sharing identical factors)."""
        raise NotImplementedError

    def structural_signature(self, slot: int) -> tuple:
        """Value-free identity; dynamic functions use their batch slot."""
        if self.dynamic:
            return ("dyn", type(self).__name__, self.attrs, slot)
        return self.signature()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Function):
            return NotImplemented
        return self.signature() == other.signature()

    def __hash__(self) -> int:
        return hash(self.signature())


class Constant(Function):
    """The constant function ``f() = value`` (``SUM(1)`` is Constant(1))."""

    def __init__(self, value: float = 1.0):
        self.value = float(value)
        self.attrs = ()

    def evaluate(self, columns: Mapping[str, np.ndarray]) -> np.ndarray:
        raise RuntimeError(
            "Constant factors are folded at plan time, never evaluated "
            "row-wise"
        )

    def expr(self, col_vars: Mapping[str, str]) -> str:
        return repr(self.value)

    def signature(self) -> tuple:
        return ("const", self.value)

    def __repr__(self) -> str:
        return f"Constant({self.value})"


class Identity(Function):
    """``f(X) = X`` — the plain SUM(X) factor."""

    def __init__(self, attr: str):
        self.attr = attr
        self.attrs = (attr,)

    def evaluate(self, columns: Mapping[str, np.ndarray]) -> np.ndarray:
        return np.asarray(columns[self.attr], dtype=np.float64)

    def expr(self, col_vars: Mapping[str, str]) -> str:
        return f"{col_vars[self.attr]}.astype(np.float64)"

    def signature(self) -> tuple:
        return ("id", self.attr)

    def __repr__(self) -> str:
        return f"Identity({self.attr})"


class Power(Function):
    """``f(X) = X**k`` — polynomial-regression factors (paper eq. (5))."""

    def __init__(self, attr: str, exponent: int):
        self.attr = attr
        self.exponent = int(exponent)
        self.attrs = (attr,)

    def evaluate(self, columns: Mapping[str, np.ndarray]) -> np.ndarray:
        return np.asarray(columns[self.attr], dtype=np.float64) ** self.exponent

    def expr(self, col_vars: Mapping[str, str]) -> str:
        return (
            f"{col_vars[self.attr]}.astype(np.float64) ** {self.exponent}"
        )

    def signature(self) -> tuple:
        return ("pow", self.attr, self.exponent)

    def __repr__(self) -> str:
        return f"Power({self.attr}, {self.exponent})"


class Delta(Function):
    """Kronecker delta ``1_{X op t}`` (paper §1.1, decision-tree nodes).

    ``op`` is one of ``<= < >= > == !=``, or ``"in"`` with ``value`` a
    collection of categories.  Mark ``dynamic=True`` when the threshold
    changes between engine invocations (CART learning) so cached plans
    are reused instead of re-planned.
    """

    def __init__(self, attr, op, value, dynamic: bool = False):
        if op != "in" and op not in _OPS:
            raise ValueError(f"unknown delta operator {op!r}")
        self.attr = attr
        self.op = op
        if op == "in":
            self.value = tuple(sorted(value))
        else:
            self.value = float(value)
        self.attrs = (attr,)
        self.dynamic = dynamic

    def evaluate(self, columns: Mapping[str, np.ndarray]) -> np.ndarray:
        col = columns[self.attr]
        if self.op == "in":
            mask = np.isin(col, np.asarray(self.value))
        else:
            mask = _OPS[self.op][0](col, self.value)
        return mask.astype(np.float64)

    def expr(self, col_vars: Mapping[str, str]) -> str:
        var = col_vars[self.attr]
        if self.op == "in":
            return (
                f"np.isin({var}, np.asarray({self.value!r}))"
                ".astype(np.float64)"
            )
        return f"({var} {_OPS[self.op][1]} {self.value!r}).astype(np.float64)"

    def signature(self) -> tuple:
        return ("delta", self.attr, self.op, self.value)

    def structural_signature(self, slot: int) -> tuple:
        # both value AND operator are runtime-bound for dynamic deltas:
        # the cached plan calls the function through its slot, so a
        # CART complement branch (`>` vs `<=`) reuses the same plan
        if self.dynamic:
            return ("dyn", "delta", self.attr, slot)
        return self.signature()

    def __repr__(self) -> str:
        return f"Delta({self.attr} {self.op} {self.value!r})"


class Log(Function):
    """``f(X) = log(X)`` (mutual-information style factors)."""

    def __init__(self, attr: str):
        self.attr = attr
        self.attrs = (attr,)

    def evaluate(self, columns: Mapping[str, np.ndarray]) -> np.ndarray:
        return np.log(np.asarray(columns[self.attr], dtype=np.float64))

    def expr(self, col_vars: Mapping[str, str]) -> str:
        return f"np.log({col_vars[self.attr]}.astype(np.float64))"

    def signature(self) -> tuple:
        return ("log", self.attr)

    def __repr__(self) -> str:
        return f"Log({self.attr})"


class Exp(Function):
    """``f(X1..Xn) = exp(sum_j theta_j X_j)`` — the logistic-regression
    example of §1.1."""

    def __init__(self, attrs: Sequence[str], thetas: Sequence[float]):
        if len(attrs) != len(thetas):
            raise ValueError("attrs and thetas must have equal length")
        self.attrs = tuple(attrs)
        self.thetas = tuple(float(t) for t in thetas)

    def evaluate(self, columns: Mapping[str, np.ndarray]) -> np.ndarray:
        total = np.zeros(len(columns[self.attrs[0]]), dtype=np.float64)
        for attr, theta in zip(self.attrs, self.thetas):
            total += theta * np.asarray(columns[attr], dtype=np.float64)
        return np.exp(total)

    def expr(self, col_vars: Mapping[str, str]) -> str:
        terms = " + ".join(
            f"{theta!r} * {col_vars[a]}.astype(np.float64)"
            for a, theta in zip(self.attrs, self.thetas)
        )
        return f"np.exp({terms})"

    def signature(self) -> tuple:
        return ("exp", self.attrs, self.thetas)

    def __repr__(self) -> str:
        return f"Exp({self.attrs}, {self.thetas})"


class Udf(Function):
    """An arbitrary user-defined factor over one or more attributes.

    UDFs are treated like dynamic functions by the Compilation layer: they
    are invoked through the parameter table instead of being inlined
    (there is no source form to inline).
    """

    def __init__(
        self,
        attrs: Sequence[str],
        fn: Callable[..., np.ndarray],
        name: str,
        dynamic: bool = True,
    ):
        self.attrs = tuple(attrs)
        self.fn = fn
        self.name = name
        self.dynamic = dynamic

    def evaluate(self, columns: Mapping[str, np.ndarray]) -> np.ndarray:
        result = self.fn(*(columns[a] for a in self.attrs))
        return np.asarray(result, dtype=np.float64)

    def expr(self, col_vars: Mapping[str, str]) -> str:
        raise RuntimeError(
            f"UDF {self.name!r} has no inline form; it must be dynamic"
        )

    def signature(self) -> tuple:
        return ("udf", self.name, self.attrs)

    def structural_signature(self, slot: int) -> tuple:
        if self.dynamic:
            return ("dyn", "udf", self.attrs, slot)
        return self.signature()

    def __repr__(self) -> str:
        return f"Udf({self.name!r}, {self.attrs})"


def fold_constants(
    factors: Sequence[Function],
) -> Tuple[float, Tuple[Function, ...]]:
    """Split a factor list into (scalar coefficient, non-constant factors).

    Products of constants are folded at plan time — part of the paper's
    code specialization.
    """
    coefficient = 1.0
    rest = []
    for factor in factors:
        if isinstance(factor, Constant):
            coefficient *= factor.value
        else:
            rest.append(factor)
    if math.isnan(coefficient):
        raise ValueError("NaN constant coefficient in aggregate product")
    return coefficient, tuple(rest)
