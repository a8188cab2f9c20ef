"""AC/DC proxy and the materialize-then-learn ML baselines."""

import numpy as np
import pytest

from repro import LMFAO, Aggregate, Query, QueryBatch, materialize_join
from repro.baselines import (
    FIGURE5_LADDER,
    MaterializedEngine,
    acdc_proxy,
    gradient_descent_epochs,
    ols_closed_form,
)

from ..engine.helpers import assert_results_equal


class TestAcdcProxy:
    def test_configuration(self, toy_db):
        engine = acdc_proxy(toy_db)
        assert not engine.multi_root
        assert not engine.group_views_enabled
        assert engine.merge_mode == "dedup"

    def test_agrees_with_lmfao(self, toy_db):
        batch = QueryBatch(
            [
                Query("n", [], [Aggregate.count()]),
                Query("g", ["city"], [Aggregate.of("units", name="u")]),
            ]
        )
        acdc_results = acdc_proxy(toy_db).run(batch)
        lmfao_results = LMFAO(toy_db).run(batch)
        assert_results_equal(acdc_results, lmfao_results, batch)

    def test_figure5_ladder_configs_all_agree(self, toy_db):
        batch = QueryBatch(
            [Query("g", ["city"], [Aggregate.of("units", name="u")])]
        )
        reference = MaterializedEngine(toy_db).run(batch)
        for name, kwargs in FIGURE5_LADDER:
            engine = LMFAO(toy_db, **kwargs)
            assert_results_equal(engine.run(batch), reference, batch)

    def test_ladder_is_monotone_in_features(self):
        names = [name for name, _ in FIGURE5_LADDER]
        assert names[0].startswith("acdc")
        assert "multi-output" in names[1]
        assert not any("compilation" in name for name in names)
        assert "multi-root" in names[-1]


class TestMLBaselines:
    def test_ols_rmse_reasonable(self, tiny_favorita):
        ds = tiny_favorita
        flat = materialize_join(ds.database)
        model = ols_closed_form(
            ds.database, ["txns", "price"], ["stype"], "units", flat=flat
        )
        target = flat.column("units")
        trivial = float(np.sqrt(np.mean((target - target.mean()) ** 2)))
        assert model.rmse(flat) <= trivial + 1e-9

    def test_more_epochs_improve_gd(self, tiny_favorita):
        ds = tiny_favorita
        flat = materialize_join(ds.database)
        args = (ds.database, ["txns", "price"], ["stype"], "units")
        one = gradient_descent_epochs(*args, epochs=1, flat=flat)
        many = gradient_descent_epochs(*args, epochs=100, flat=flat)
        assert many.rmse(flat) <= one.rmse(flat) + 1e-9

    def test_gd_iterations_recorded(self, tiny_favorita):
        ds = tiny_favorita
        flat = materialize_join(ds.database)
        model = gradient_descent_epochs(
            ds.database, ["txns"], [], "units", epochs=3, flat=flat
        )
        assert model.iterations == 3
