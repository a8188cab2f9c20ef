"""Aggregates: sums of products of functions (paper §1.1)."""

from __future__ import annotations

from typing import Iterable, Sequence, Tuple, Union

from .functions import Constant, Function, Identity, fold_constants

FactorLike = Union[Function, str, float, int]


def _as_function(factor: FactorLike) -> Function:
    """Coerce shorthand factors: strings are identities, numbers constants."""
    if isinstance(factor, Function):
        return factor
    if isinstance(factor, str):
        return Identity(factor)
    if isinstance(factor, (int, float)):
        return Constant(factor)
    raise TypeError(f"cannot interpret {factor!r} as an aggregate factor")


class Product:
    """One product term ``coefficient * prod_k f_k``.

    Constant factors fold into the coefficient.  Every other factor must
    read an attribute: the engine evaluates a factor over the rows of
    the context its attributes live in, so one that reads none has no
    rows to broadcast to.
    """

    def __init__(self, factors: Iterable[FactorLike] = (), coefficient: float = 1.0):
        funcs = [_as_function(f) for f in factors]
        folded, rest = fold_constants(funcs)
        for factor in rest:
            if not factor.attrs:
                raise ValueError(
                    f"factor {factor!r} reads no attribute; fold a value "
                    f"that is the same on every row into the coefficient"
                )
        self.coefficient = coefficient * folded
        self.factors: Tuple[Function, ...] = rest

    @property
    def attrs(self) -> Tuple[str, ...]:
        seen = {}
        for f in self.factors:
            for a in f.attrs:
                seen.setdefault(a, None)
        return tuple(seen)

    def signature(self) -> tuple:
        return (
            "product",
            self.coefficient,
            tuple(sorted(f.signature() for f in self.factors)),
        )

    def dynamic_functions(self) -> Tuple[Function, ...]:
        return tuple(f for f in self.factors if f.dynamic)

    def __mul__(self, other: "Product") -> "Product":
        merged = Product(self.factors + other.factors)
        merged.coefficient = self.coefficient * other.coefficient
        return merged

    def __repr__(self) -> str:
        inner = " * ".join(repr(f) for f in self.factors) or "1"
        if self.coefficient != 1.0:
            return f"{self.coefficient} * {inner}"
        return inner


class Aggregate:
    """A SUM aggregate: sum over the join of a sum of product terms.

    ``Aggregate.count()`` is ``SUM(1)``; ``Aggregate.of("X")`` is
    ``SUM(X)``; ``Aggregate.of("X", "Y")`` is ``SUM(X*Y)``.
    """

    def __init__(self, terms: Sequence[Product], name: str = ""):
        if not terms:
            raise ValueError("an aggregate needs at least one product term")
        self.terms: Tuple[Product, ...] = tuple(terms)
        self.name = name

    # -- constructors ------------------------------------------------------

    @classmethod
    def count(cls, name: str = "count") -> "Aggregate":
        return cls([Product()], name=name)

    @classmethod
    def of(cls, *factors: FactorLike, name: str = "") -> "Aggregate":
        prod = Product(list(factors))
        agg_name = name or "*".join(
            f if isinstance(f, str) else repr(f) for f in factors
        )
        return cls([prod], name=agg_name)

    @classmethod
    def linear_combination(
        cls,
        coefficients: Sequence[float],
        factor_lists: Sequence[Sequence[FactorLike]],
        name: str = "",
    ) -> "Aggregate":
        """``sum_j c_j * prod_k f_jk`` — e.g. the inner product <theta, X>."""
        if len(coefficients) != len(factor_lists):
            raise ValueError("coefficients and factor lists differ in length")
        terms = [
            Product(list(factors), coefficient=c)
            for c, factors in zip(coefficients, factor_lists)
        ]
        return cls(terms, name=name)

    # -- properties --------------------------------------------------------

    @property
    def attrs(self) -> Tuple[str, ...]:
        seen = {}
        for term in self.terms:
            for a in term.attrs:
                seen.setdefault(a, None)
        return tuple(seen)

    def signature(self) -> tuple:
        return ("aggregate", tuple(t.signature() for t in self.terms))

    def scaled(self, factor: float) -> "Aggregate":
        """The same aggregate with every term scaled by ``factor``."""
        terms = []
        for term in self.terms:
            clone = Product(term.factors)
            clone.coefficient = term.coefficient * factor
            terms.append(clone)
        return Aggregate(terms, name=self.name)

    def __repr__(self) -> str:
        body = " + ".join(repr(t) for t in self.terms)
        return f"Aggregate({self.name or body})"
