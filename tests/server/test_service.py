"""AnalyticsService: registry, queries, epochs, delta commits, stats."""

import json
import sys
import threading
import time

import numpy as np
import pytest

from repro import (
    LMFAO,
    Aggregate,
    AnalyticsService,
    Delta,
    DeltaBatch,
    Query,
    QueryBatch,
    Udf,
)
from repro.server.coalescer import RequestCoalescer
from repro.server.http import query_response_body, query_response_payload
from repro.server.service import Answer, Epoch, QueryResponse

from ..engine.helpers import WORKLOADS, assert_results_equal
from .helpers import assert_stats_identities
from .test_durability import dimension_delta


@pytest.fixture()
def service(toy_db):
    svc = AnalyticsService(cache_mb=8)
    svc.register_dataset("toy", toy_db)
    for name, factory in WORKLOADS.items():
        svc.register_workload("toy", name, factory())
    yield svc
    svc.close()


def sales_delta(database, rng, n=5):
    """A small insert+retract batch against the toy fact relation."""
    fact = database.relation("Sales")
    idx = rng.integers(0, fact.n_rows, n)
    inserts = {a: fact.column(a)[idx] for a in fact.schema.names}
    deletes = rng.choice(fact.n_rows, n, replace=False)
    return DeltaBatch("Sales", inserts=inserts, delete_indices=deletes)


def commit_stages(service):
    """Walk a service over ``toy`` through the states a memoized answer
    must survive, yielding a label at each: epoch 0, a root delta, a
    dimension delta and — when the service is durable — a commit whose
    WAL append failed, which changed nothing.  At each, a fresh run
    reads the very views the served answers were assembled from, so the
    two agree bit for bit."""
    rng = np.random.default_rng(17)
    yield "epoch 0"
    service.apply_delta(
        "toy", sales_delta(service.snapshot("toy").database, rng)
    )
    yield "root delta"
    service.apply_delta(
        "toy", dimension_delta(service.snapshot("toy").database)
    )
    yield "dimension delta"
    storage = service._state("toy").storage
    if storage is None:
        return
    original = storage.log_commit

    def broken(epoch, deltas):
        raise OSError("disk full")

    storage.log_commit = broken
    try:
        with pytest.raises(OSError, match="disk full"):
            service.apply_delta(
                "toy", sales_delta(service.snapshot("toy").database, rng)
            )
    finally:
        storage.log_commit = original
    yield "failed WAL append"


def fresh_results_payload(service, names, include_data):
    """The ``results`` a memo-less serialisation of a fresh engine run at
    the current epoch gives: the reference the memo is held to."""
    state = service._state("toy")
    epoch = service.snapshot("toy")
    fresh = QueryResponse(
        "toy",
        tuple(names),
        epoch.number,
        {
            name: Answer(
                state.engine.run(
                    state.workloads[name], database=epoch.database
                ),
                (),
            )
            for name in names
        },
    )
    return query_response_payload(fresh, include_data)["results"]


def assert_same_json(got, expected, exact, where="results"):
    """Same keys in the same order, same shapes, same values — floats to
    1e-12 of their size unless ``exact``."""
    assert type(got) is type(expected), where
    if isinstance(expected, dict):
        assert list(got) == list(expected), where
        for key in expected:
            assert_same_json(got[key], expected[key], exact, f"{where}/{key}")
    elif isinstance(expected, list):
        assert len(got) == len(expected), where
        for i, (g, e) in enumerate(zip(got, expected)):
            assert_same_json(g, e, exact, f"{where}[{i}]")
    elif isinstance(expected, float) and not exact:
        assert got == pytest.approx(expected, rel=1e-12, abs=1e-12), where
    else:
        assert got == expected, where


def counting_cache_gets(service):
    """Replace the dataset's ``ViewCache.get`` with a counting wrapper;
    returns the one-element count."""
    cache = service._state("toy").cache
    calls = [0]
    original = cache.get

    def get(digest, **kwargs):
        calls[0] += 1
        return original(digest, **kwargs)

    cache.get = get
    return calls


def answers_stats(service):
    return service.stats()["datasets"]["toy"]["answers"]


class TestRegistry:
    def test_duplicate_dataset_rejected(self, service, toy_db):
        with pytest.raises(ValueError, match="already registered"):
            service.register_dataset("toy", toy_db)

    def test_duplicate_workload_rejected(self, service):
        with pytest.raises(ValueError, match="already registered"):
            service.register_workload("toy", "counts", WORKLOADS["counts"]())

    def test_unknown_dataset_raises(self, service):
        with pytest.raises(KeyError, match="no dataset"):
            service.query("nope", ["counts"])

    def test_unknown_workload_raises(self, service):
        from repro.server.service import UnknownWorkloadError

        with pytest.raises(UnknownWorkloadError, match="no workload") as e:
            service.query("toy", ["nope"])
        assert e.value.valid == service.workload_names("toy")

    def test_empty_workloads_raises(self, service):
        with pytest.raises(ValueError, match="at least one"):
            service.query("toy", [])

    def test_catalog(self, service):
        assert service.datasets() == ["toy"]
        assert service.workload_names("toy") == list(WORKLOADS)
        assert service.epoch("toy") == 0
        snapshot = service.snapshot("toy")
        assert isinstance(snapshot, Epoch) and snapshot.number == 0


@pytest.mark.timeout(120)
class TestQueries:
    def test_results_match_oneshot_engine(self, service, toy_db):
        response = service.query("toy", ["counts", "groupbys"], timeout=60)
        assert isinstance(response, QueryResponse)
        assert response.epoch == 0
        assert set(response.results) == {"counts", "groupbys"}
        for name in ("counts", "groupbys"):
            batch = service._state("toy").workloads[name]
            expected = LMFAO(toy_db).run(batch)
            assert_results_equal(
                response.results[name], expected, batch, rtol=1e-8
            )

    def test_concurrent_requests_coalesce_onto_one_epoch(self, toy_db):
        # hold the worker on a first batch whose UDF blocks once; the
        # requests that queue up behind it are the next batch
        started, release = threading.Event(), threading.Event()

        def gate(units):
            if not started.is_set():
                started.set()
                assert release.wait(60), "test never released the worker"
            return units

        gated = Aggregate.of(Udf(["units"], gate, "gate"), name="g")
        with AnalyticsService() as svc:
            svc.register_dataset("toy", toy_db)
            svc.register_workload(
                "toy", "gate", QueryBatch([Query("g", [], [gated])])
            )
            for name in ("counts", "covar_style"):
                svc.register_workload("toy", name, WORKLOADS[name]())
            blocker = threading.Thread(
                target=svc.query, args=("toy", ["gate"], 60)
            )
            blocker.start()
            assert started.wait(60)
            responses = [None] * 6

            def go(i):
                names = ["counts"] if i % 2 else ["counts", "covar_style"]
                responses[i] = svc.query("toy", names, timeout=60)

            threads = [
                threading.Thread(target=go, args=(i,)) for i in range(6)
            ]
            for thread in threads:
                thread.start()
            while svc.coalescer.stats().queue_depth < 6:
                time.sleep(0.005)
            release.set()
            for thread in [blocker] + threads:
                thread.join(60)
            assert all(r is not None for r in responses)
            # one batch, so every answer names one committed epoch
            assert {r.epoch for r in responses} == {0}
            assert {r.batch_size for r in responses} == {6}
            stats = svc.coalescer.stats()
            assert (stats.batches, stats.max_batch) == (2, 6)

    def test_requested_subset_is_what_comes_back(self, service):
        response = service.query("toy", ["conditional"], timeout=60)
        assert list(response.results) == ["conditional"]

    @pytest.mark.parametrize("backend", ["interpret", "compiled"])
    def test_either_backend_name_answers_like_a_oneshot_engine(
        self, toy_db, backend
    ):
        # both names are accepted and both interpret
        with AnalyticsService(backend=backend) as svc:
            svc.register_dataset("toy", toy_db)
            for name, factory in WORKLOADS.items():
                svc.register_workload("toy", name, factory())
            response = svc.query("toy", list(WORKLOADS), timeout=60)
        for name, factory in WORKLOADS.items():
            batch = factory()
            expected = LMFAO(toy_db).run(batch)
            assert_results_equal(
                response.results[name], expected, batch, rtol=1e-8
            )

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            AnalyticsService(backend="process")

    def test_no_batching_window_or_cap(self):
        # batches form from the backlog: there is no timer or size to set
        for knob in ("window_ms", "max_batch"):
            with pytest.raises(TypeError, match=knob):
                RequestCoalescer(lambda key, payloads: payloads, **{knob: 5})
        for knob in ("coalesce_ms", "max_batch"):
            with pytest.raises(TypeError, match=knob):
                AnalyticsService(**{knob: 5})


@pytest.mark.timeout(120)
class TestCrossWorkloadSharing:
    """Every cacheable workload is a member of the dataset's fused batch,
    and a coalesced batch reads their answers off one run of it; a
    workload with ``Udf`` views runs alone."""

    def test_prepare_plans_each_registered_batch_once(self, service):
        """``prepare`` plans the fused batch and each ``Udf`` workload
        once; answering them plans nothing more."""
        state = service._state("toy")
        service.register_workload("toy", "udf", _udf_batch())
        assert list(state.fused.members) == list(WORKLOADS)
        service.prepare("toy")
        planned = list(state.engine._plan_cache)
        assert [key[0] for key in planned] == [
            state.fused.batch.structural_signature(),
            state.workloads["udf"].structural_signature(),
        ]
        response = service.query(
            "toy", ["conditional", "counts", "groupbys", "udf"], timeout=60
        )
        assert response.seconds > 0
        assert list(state.engine._plan_cache) == planned

    def test_members_cached_before_a_delta_serve_a_multi_workload_request(
        self, service, toy_db
    ):
        names = list(WORKLOADS)
        for name in names:
            service.query("toy", [name], timeout=60)
        service.apply_delta(
            "toy", sales_delta(toy_db, np.random.default_rng(5))
        )
        cache = service._state("toy").cache
        entries = len(cache)
        response = service.query("toy", names, timeout=60)
        assert (response.epoch, list(response.results)) == (1, names)
        for name in names:
            report = response.results[name].cache_report
            assert report.n_hits > 0 and report.n_misses == 0, name
        assert len(cache) == entries

    def test_one_batch_under_two_names_runs_once(self, toy_db):
        def dynamic(threshold, fn):
            return QueryBatch(
                [
                    Query(
                        "n",
                        [],
                        [
                            Aggregate.of(
                                Delta("price", "<=", threshold, dynamic=True),
                                name="n",
                            )
                        ],
                    ),
                    Query("s", [], [Aggregate.of(Udf(["units"], fn, "f"))]),
                ]
            )

        def double(u):
            return 2.0 * u

        workloads = {
            "covar": WORKLOADS["covar_style"](),
            "linreg": WORKLOADS["covar_style"](),
            # one shape, told apart only by their bindings
            "cheap": dynamic(50.0, double),
            "every": dynamic(1e9, double),
            "halved": dynamic(50.0, lambda u: 0.5 * u),
        }
        # a small cache: only a dataset with a view cache fuses
        with AnalyticsService(cache_mb=1) as svc:
            svc.register_dataset("toy", toy_db, workloads=workloads)
            state = svc._state("toy")
            engine = state.engine
            plans, runs = [], []
            execute, run = engine.execute, engine.run

            def counting_execute(plan, dyn, **kwargs):
                plans.append(plan)
                return execute(plan, dyn, **kwargs)

            def counting_run(batch, **kwargs):
                runs.append(batch)
                return run(batch, **kwargs)

            engine.execute = counting_execute
            engine.run = counting_run
            response = svc.query("toy", list(workloads), timeout=60)
        # the fused batch runs once for both names; each Udf binding
        # runs on its own
        assert list(state.fused.members) == ["covar", "linreg"]
        assert len(plans) == 4
        assert plans[0] is engine.plan(state.fused.batch)
        assert runs == [workloads[n] for n in ("cheap", "every", "halved")]
        results = response.results
        assert_results_equal(
            results["covar"], results["linreg"], workloads["covar"], rtol=0
        )
        for name, batch in workloads.items():
            assert_results_equal(
                results[name], LMFAO(toy_db).run(batch), batch, rtol=1e-8
            )

    def test_without_a_cache_a_lone_request_runs_its_own_plan(
        self, toy_db
    ):
        # fused, a lone request would compute every member's views, and
        # with no cache nothing keeps them for the next read
        with AnalyticsService(cache_mb=0) as svc:
            svc.register_dataset("toy", toy_db)
            for name, factory in WORKLOADS.items():
                svc.register_workload("toy", name, factory())
            state = svc._state("toy")
            engine = state.engine
            plans = []
            execute = engine.execute

            def recording_execute(plan, dyn, **kwargs):
                plans.append(plan)
                return execute(plan, dyn, **kwargs)

            engine.execute = recording_execute
            svc.prepare("toy")
            for name in WORKLOADS:
                response = svc.query("toy", [name], timeout=60)
                batch = state.workloads[name]
                assert plans[-1] is engine.plan(batch), name
                assert_results_equal(
                    response.results[name], LMFAO(toy_db).run(batch),
                    batch, rtol=1e-8,
                )
            assert state.fused is None
            assert len(plans) == len(WORKLOADS)

    def test_batches_differing_only_in_aggregate_names_run_apart(
        self, toy_db
    ):
        def named(agg_name):
            return QueryBatch(
                [Query("q", ["store"], [Aggregate.of(name=agg_name)])]
            )

        workloads = {"rows": named("rows"), "count": named("count")}
        with AnalyticsService(cache_mb=0) as svc:
            svc.register_dataset("toy", toy_db, workloads=workloads)
            response = svc.query("toy", list(workloads), timeout=60)
        for name in workloads:
            columns = response.results[name]["q"].schema.names
            assert columns == ("store", name), columns


@pytest.mark.timeout(120)
class TestDeltas:
    def test_delta_commits_new_epoch_and_updates_answers(
        self, service, toy_db
    ):
        rng = np.random.default_rng(7)
        before = service.query("toy", ["counts"], timeout=60)
        delta = sales_delta(toy_db, rng)
        committed = service.apply_delta("toy", delta)
        assert committed.epoch == 1
        assert service.epoch("toy") == 1
        after = service.query("toy", ["counts"], timeout=60)
        assert after.epoch == 1
        batch = service._state("toy").workloads["counts"]
        expected = LMFAO(service.snapshot("toy").database).run(batch)
        assert_results_equal(after.results["counts"], expected, batch,
                             rtol=1e-8)
        # the pre-delta response is untouched: it answered epoch 0
        assert before.epoch == 0

    @pytest.mark.parametrize(
        "delta",
        [
            DeltaBatch("Sales", delete_indices=np.asarray([1.7])),
            DeltaBatch("Sales", delete_indices=np.asarray([True])),
            DeltaBatch(
                "Oil",
                inserts={
                    "date": np.asarray([2.5]),
                    "price": np.asarray([50.0]),
                },
            ),
        ],
        ids=["fractional-index", "bool-index", "fractional-key"],
    )
    def test_input_a_cast_would_change_commits_nothing(self, service, delta):
        before = service.snapshot("toy")
        with pytest.raises(ValueError):
            service.apply_delta("toy", delta)
        assert service.snapshot("toy") is before
        assert service._state("toy").engine.database is before.database

    def test_empty_delta_does_not_bump_the_epoch(self, service):
        response = service.apply_delta(
            "toy", DeltaBatch("Sales", inserts=None, delete_indices=None)
        )
        assert response.epoch == 0
        assert response.report.n_changes == 0

    def test_epoch_snapshot_survives_later_commits(self, service, toy_db):
        rng = np.random.default_rng(11)
        old = service.snapshot("toy")
        service.apply_delta("toy", sales_delta(toy_db, rng))
        new = service.snapshot("toy")
        assert old.number == 0 and new.number == 1
        assert old.database is not new.database
        # the captured epoch still reads the pre-delta row count
        assert old.database.relation("Sales").n_rows == 300


class TestStats:
    def test_stats_shape(self, service):
        service.query("toy", ["counts"], timeout=60)
        stats = service.stats()
        assert stats["coalescer"]["submitted"] == 1
        toy = stats["datasets"]["toy"]
        assert toy["epoch"] == 0
        assert toy["relations"]["Sales"] == 300
        assert toy["workloads"] == list(WORKLOADS)
        assert toy["queries"] == 1 and toy["deltas"] == 0
        assert toy["cache"]["budget_bytes"] == 8 << 20
        assert set(toy["cache"]) >= {
            "hits", "misses", "evictions", "resident_bytes", "entries",
        }

    def test_cache_disabled(self, toy_db):
        with AnalyticsService(cache_mb=0) as svc:
            svc.register_dataset("toy", toy_db)
            svc.register_workload("toy", "counts", WORKLOADS["counts"]())
            response = svc.query("toy", ["counts"], timeout=60)
            assert response.epoch == 0
            assert response.results["counts"].cache_report is None
            assert svc._state("toy").engine.view_cache is None
            assert svc.stats()["datasets"]["toy"]["cache"] is None
            # nothing cached, so nothing maintained: a delta is an
            # honest recompute, and the next answer is still right
            rng = np.random.default_rng(3)
            committed = svc.apply_delta("toy", sales_delta(toy_db, rng))
            (record,) = committed.report.maintenance
            assert record.mode == "recompute"
            assert record.reason == "no view cache attached"
            ivm = svc.stats()["datasets"]["toy"]["ivm"]
            assert ivm["deltas"] == ivm["fallbacks"] == 1
            after = svc.query("toy", ["counts"], timeout=60)
            batch = svc._state("toy").workloads["counts"]
            expected = LMFAO(svc.snapshot("toy").database).run(batch)
            assert_results_equal(
                after.results["counts"], expected, batch, rtol=1e-8
            )
            # ... and "cache nothing" includes answers: every read runs
            repeat = svc.query("toy", ["counts"], timeout=60)
            assert repeat.seconds > 0
            assert not svc.snapshot("toy").answers
            assert svc.stats()["datasets"]["toy"]["answers"] == {
                "memo_hits": 0, "executed": 3, "published": 0,
                "resident": 0, "encoded_bytes": 0,
            }


def _udf_batch():
    """Per-city sums through an opaque callable: uncacheable views."""
    return QueryBatch(
        [
            Query(
                "big_units",
                ["city"],
                [
                    Aggregate.of(
                        Udf(["units"], lambda u: (u > 10.0) * u, "big"),
                        name="s",
                    )
                ],
            )
        ]
    )


@pytest.mark.timeout(120)
class TestAnswerMemo:
    @pytest.mark.parametrize("include_data", [False, True])
    def test_memo_equals_a_fresh_run_at_every_stage(
        self, toy_db, tmp_path, include_data
    ):
        with AnalyticsService(
            cache_mb=8, data_dir=str(tmp_path)
        ) as service:
            service.register_dataset("toy", toy_db)
            for name, factory in WORKLOADS.items():
                service.register_workload("toy", name, factory())
            gets = counting_cache_gets(service)
            for stage in commit_stages(service):
                epoch = service.epoch("toy")
                for name in WORKLOADS:
                    service.query("toy", [name], timeout=60)
                    hits, probes = answers_stats(service)["memo_hits"], gets[0]
                    again = service.query("toy", [name], timeout=60)
                    # the repeat read is a lookup: counted as a hit, no
                    # view-cache probe, nothing executed for it
                    assert answers_stats(service)["memo_hits"] == hits + 1
                    assert gets[0] == probes, stage
                    assert (again.epoch, again.batch_size, again.seconds) == (
                        epoch, 1, 0.0,
                    )
                    body = json.loads(query_response_body(again, include_data))
                    assert list(body) == [
                        "dataset", "epoch", "batch_size", "seconds", "results",
                    ]
                    assert body["epoch"] == epoch
                    assert_same_json(
                        body["results"],
                        fresh_results_payload(service, [name], include_data),
                        exact=True,
                        where=f"{stage}/{name}",
                    )
                    batch = service._state("toy").workloads[name]
                    assert_results_equal(
                        again.results[name],
                        LMFAO(service.snapshot("toy").database).run(batch),
                        batch,
                        rtol=1e-8,
                    )
            assert_stats_identities(service.stats())
            answers = service.stats()["datasets"]["toy"]["answers"]
            assert answers["resident"] == len(WORKLOADS)
            assert answers["encoded_bytes"] > 0
            # only misses went through the coalescer
            assert service.coalescer.stats().submitted == answers["executed"]

    def test_fused_from_fragments_equals_fused_executed_equals_members(
        self, toy_db
    ):
        names = ["counts", "groupbys", "covar_style"]

        def service_over(db):
            svc = AnalyticsService(cache_mb=8)
            svc.register_dataset("toy", db)
            for name in names:
                svc.register_workload("toy", name, WORKLOADS[name]())
            return svc

        with service_over(toy_db) as executed, service_over(toy_db) as memo:
            # nothing resident: every member runs
            fused = executed.query("toy", names, timeout=60)
            assert fused.seconds > 0
            assert answers_stats(executed)["memo_hits"] == 0
            # members first: the fused request is their concatenation
            alone = {
                name: memo.query("toy", [name], timeout=60) for name in names
            }
            submitted = memo.coalescer.stats().submitted
            stitched = memo.query("toy", names, timeout=60)
            assert memo.coalescer.stats().submitted == submitted
            assert (stitched.seconds, stitched.batch_size) == (0.0, 1)
            for include_data in (False, True):
                stitched_results = json.loads(
                    query_response_body(stitched, include_data)
                )["results"]
                assert list(stitched_results) == names
                for name in names:
                    assert stitched_results[name] == json.loads(
                        query_response_body(alone[name], include_data)
                    )["results"][name]
                assert_same_json(
                    stitched_results,
                    json.loads(query_response_body(fused, include_data))[
                        "results"
                    ],
                    exact=True,
                )
            # request order, not registration order, and duplicates once
            reordered = memo.query(
                "toy", ["groupbys", "counts", "groupbys"], timeout=60
            )
            assert list(
                json.loads(query_response_body(reordered, False))["results"]
            ) == ["groupbys", "counts"]

    def test_partially_resident_request_runs_whole(self, service):
        service.query("toy", ["counts"], timeout=60)
        submitted = service.coalescer.stats().submitted
        mixed = service.query("toy", ["counts", "groupbys"], timeout=60)
        assert service.coalescer.stats().submitted == submitted + 1
        assert mixed.seconds > 0
        assert answers_stats(service) == {
            "memo_hits": 0, "executed": 2, "published": 0, "resident": 2,
            "encoded_bytes": 0,
        }
        # ... which made both resident
        assert service.query("toy", ["groupbys"], timeout=60).seconds == 0.0

    def test_udf_workload_hits_and_follows_deltas(self, service, toy_db):
        batch = _udf_batch()
        service.register_workload("toy", "udf", batch)
        first = service.query("toy", ["udf"], timeout=60)
        report = first.results["udf"].cache_report
        assert "uncacheable" in report.events.values()
        again = service.query("toy", ["udf"], timeout=60)
        assert again.seconds == 0.0
        assert again.answers["udf"] is first.answers["udf"]
        service.apply_delta(
            "toy", sales_delta(toy_db, np.random.default_rng(5), n=40)
        )
        after = service.query("toy", ["udf"], timeout=60)
        assert after.epoch == 1 and after.seconds > 0
        expected = LMFAO(service.snapshot("toy").database).run(batch)
        assert_results_equal(after.results["udf"], expected, batch, rtol=1e-8)
        assert not np.allclose(
            after.results["udf"]["big_units"].column("s"),
            first.results["udf"]["big_units"].column("s"),
        )

    def test_rebinding_a_dynamic_function_in_place_is_a_miss(
        self, service, toy_db
    ):
        threshold = Delta("price", "<=", 50.0, dynamic=True)
        opaque = Udf(["units"], lambda u: u, "f")
        service.register_workload(
            "toy",
            "dyn",
            QueryBatch(
                [
                    Query("n", [], [Aggregate.of(threshold, name="n")]),
                    Query("s", [], [Aggregate.of(opaque, name="s")]),
                ]
            ),
        )

        def read():
            response = service.query("toy", ["dyn"], timeout=60)
            result = response.results["dyn"]
            return (
                response.seconds,
                result["n"].column("n")[0],
                result["s"].column("s")[0],
            )

        _, cheap, units = read()
        assert read() == (0.0, cheap, units)
        threshold.value = 1e9  # every row passes now
        seconds, everything, _ = read()
        assert seconds > 0 and everything > cheap
        assert read() == (0.0, everything, units)
        opaque.fn = lambda u: 2.0 * u  # same name, new behaviour
        seconds, _, doubled = read()
        assert seconds > 0 and doubled == pytest.approx(2.0 * units)
        assert answers_stats(service)["resident"] == 1

    def test_rebinding_in_place_leaves_each_binding_repaired_under_its_own(
        self, service, toy_db
    ):
        """Views cached under two bindings of one function re-bound in
        place are each repaired under their own binding: bound back
        after a commit, the answer equals a fresh run's."""
        low, high = np.quantile(
            toy_db.relation("Sales").column("units"), [0.3, 0.8]
        )
        threshold = Delta("units", "<=", low, dynamic=True)
        batch = QueryBatch(
            [Query("n", ["store"], [Aggregate.of(threshold, name="n")])]
        )
        service.register_workload("toy", "dyn", batch)
        service.query("toy", ["dyn"], timeout=60)
        threshold.value = float(high)
        service.query("toy", ["dyn"], timeout=60)
        service.apply_delta(
            "toy", sales_delta(toy_db, np.random.default_rng(3), n=10)
        )
        threshold.value = float(low)
        response = service.query("toy", ["dyn"], timeout=60)
        expected = LMFAO(service.snapshot("toy").database).run(batch)
        assert_results_equal(response.results["dyn"], expected, batch)

    def test_answers_land_on_the_epoch_they_were_computed_at(
        self, service, toy_db
    ):
        """A commit that lands while a batch executes must not receive
        that batch's (pre-commit) answers."""
        state = service._state("toy")
        old = service.snapshot("toy")
        execute = state.engine.execute

        def execute_then_commit(plan, dyn, **kwargs):
            result = execute(plan, dyn, **kwargs)
            state.engine.execute = execute
            service.apply_delta(
                "toy", sales_delta(toy_db, np.random.default_rng(9), n=30)
            )
            return result

        state.engine.execute = execute_then_commit
        stale = service.query("toy", ["counts"], timeout=60)
        new = service.snapshot("toy")
        assert (stale.epoch, new.number) == (0, 1)
        assert list(old.answers) == ["counts"] and not new.answers
        current = service.query("toy", ["counts"], timeout=60)
        assert current.epoch == 1 and current.seconds > 0
        batch = state.workloads["counts"]
        assert_results_equal(
            current.results["counts"],
            LMFAO(new.database).run(batch),
            batch,
            rtol=1e-8,
        )

    def test_counters_survive_concurrent_hits(self, service):
        """``queries == memo_hits + executed`` with more reader threads
        than cores and a short switch interval: a lost update would
        break the sum."""
        n_threads, n_reads = 8, 200
        service.query("toy", ["counts"], timeout=60)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(
                    target=lambda: [
                        service.query("toy", ["counts"], timeout=60)
                        for _ in range(n_reads)
                    ]
                )
                for _ in range(n_threads)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        stats = service.stats()["datasets"]["toy"]
        assert stats["answers"]["memo_hits"] == n_threads * n_reads
        assert stats["queries"] == n_threads * n_reads + 1
        assert service.coalescer.stats().submitted == 1
        assert_stats_identities(service.stats())
