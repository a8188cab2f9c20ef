"""Aggregate algebra: products, sums of products, shorthand coercions."""

import pytest

from repro.query.aggregates import Aggregate, Product
from repro.query.functions import Constant, Delta, Exp, Identity, Power, Udf


class TestProduct:
    def test_shorthand_coercion(self):
        product = Product(["x", 2.0, Identity("y")])
        assert product.coefficient == 2.0
        assert [type(f).__name__ for f in product.factors] == [
            "Identity",
            "Identity",
        ]

    def test_attrs_deduplicated_in_order(self):
        product = Product([Identity("x"), Power("x", 2), Identity("y")])
        assert product.attrs == ("x", "y")

    def test_empty_product_is_count(self):
        product = Product()
        assert product.coefficient == 1.0 and product.factors == ()

    def test_mul_combines(self):
        left = Product(["x"], coefficient=2.0)
        right = Product(["y"], coefficient=3.0)
        combined = left * right
        assert combined.coefficient == 6.0
        assert len(combined.factors) == 2

    def test_signature_ignores_factor_order(self):
        a = Product([Identity("x"), Identity("y")])
        b = Product([Identity("y"), Identity("x")])
        assert a.signature() == b.signature()

    def test_dynamic_functions_listed(self):
        dynamic = Delta("x", "<=", 1.0, dynamic=True)
        product = Product([dynamic, Identity("y")])
        assert product.dynamic_functions() == (dynamic,)

    def test_bad_factor_type_rejected(self):
        with pytest.raises(TypeError):
            Product([object()])

    @pytest.mark.parametrize(
        "factor, name",
        [
            (Udf([], lambda: 2.0, "two", dynamic=False), "two"),
            (Exp([], []), "Exp"),
        ],
        ids=["udf", "exp"],
    )
    def test_factor_reading_no_attribute_rejected(self, factor, name):
        # the engine evaluates a factor over its attributes' rows: one
        # that reads none used to sum to its value once (2.0, not 8.0,
        # over 4 rows) or raise inside the engine
        with pytest.raises(ValueError, match=name):
            Product(["x", factor])
        assert Product(["x", Constant(2.0)]).coefficient == 2.0


class TestAggregate:
    def test_count(self):
        agg = Aggregate.count()
        assert len(agg.terms) == 1
        assert agg.terms[0].factors == ()

    def test_of(self):
        agg = Aggregate.of("x", "y", name="xy")
        assert agg.name == "xy"
        assert agg.attrs == ("x", "y")

    def test_requires_terms(self):
        with pytest.raises(ValueError):
            Aggregate([])

    def test_linear_combination(self):
        agg = Aggregate.linear_combination(
            [0.5, -1.0], [["x"], ["y"]], name="lc"
        )
        assert len(agg.terms) == 2
        assert agg.terms[0].coefficient == 0.5
        assert agg.terms[1].coefficient == -1.0

    def test_linear_combination_length_mismatch(self):
        with pytest.raises(ValueError):
            Aggregate.linear_combination([1.0], [["x"], ["y"]])

    def test_scaled(self):
        agg = Aggregate.of("x").scaled(3.0)
        assert agg.terms[0].coefficient == 3.0

    def test_signature_distinguishes_terms(self):
        assert Aggregate.of("x").signature() != Aggregate.of("y").signature()
        assert (
            Aggregate.of("x").signature()
            == Aggregate.of(Identity("x")).signature()
        )
