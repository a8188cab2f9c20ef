"""What a commit leaves behind: published answers, and no repaired view
on disk.

A delta commit computes the next epoch's answer for every workload
resident in the previous epoch's memo, so the first read after it is a
lookup; the ``/delta`` handler serialises those answers before it acks.
The views the commit repaired stay in memory: the disk tier receives
them only when the LRU evicts them or the service closes.
"""

import json

import numpy as np
import pytest

from repro import LMFAO, AnalyticsService, DeltaBatch
from repro.server import AnalyticsClient, serve_in_background
from repro.server.http import query_response_body
from repro.server.service import Answer, QueryResponse

from ..engine.helpers import WORKLOADS, assert_results_equal
from .helpers import assert_stats_identities
from .test_durability import dimension_delta, insert_delta, make_service
from .test_service import sales_delta

pytestmark = pytest.mark.timeout(120)


def toy_stats(service):
    return service.stats()["datasets"]["toy"]


def assert_published_equal_fresh_runs(service):
    """Every answer in the current epoch's memo equals a one-shot engine
    over that epoch's database."""
    epoch = service.snapshot("toy")
    assert epoch.answers
    for name, answer in epoch.answers.items():
        batch = service._state("toy").workloads[name]
        assert_results_equal(
            answer.result, LMFAO(epoch.database).run(batch), batch, rtol=1e-8
        )


def lazy_body(response, include_data):
    """The body a memo-less serialisation of the same results gives."""
    fresh = {
        name: Answer(answer.result, answer.binding)
        for name, answer in response.answers.items()
    }
    return query_response_body(
        QueryResponse(response.dataset, response.workloads, response.epoch,
                      fresh),
        include_data,
    )


class TestPublishedAnswers:
    def test_commits_publish_answers_equal_to_fresh_runs(
        self, toy_db, tmp_path
    ):
        with make_service(str(tmp_path / "data"), toy_db) as service:
            for name in WORKLOADS:
                service.query("toy", [name], timeout=60)
            executed = toy_stats(service)["answers"]["executed"]
            commits = [
                sales_delta(toy_db, np.random.default_rng(1)),
                dimension_delta(toy_db),
                insert_delta(toy_db),
            ]
            for number, delta in enumerate(commits, start=1):
                response = service.apply_delta("toy", delta)
                assert response.epoch == number
                # nothing was served yet, so nothing needs encoding
                assert response.encode == {}
                assert set(service.snapshot("toy").answers) == set(WORKLOADS)
                assert_published_equal_fresh_runs(service)
                for name in WORKLOADS:
                    read = service.query("toy", [name], timeout=60)
                    assert (read.epoch, read.seconds) == (number, 0.0)
            answers = toy_stats(service)["answers"]
            assert answers["executed"] == executed
            assert answers["published"] == len(commits) * len(WORKLOADS)
            assert_stats_identities(service.stats())

    def test_first_read_after_a_commit_is_a_hit_encoded_at_commit(
        self, toy_db, tmp_path
    ):
        service = make_service(str(tmp_path / "data"), toy_db)
        server, _thread = serve_in_background(service)
        client = AnalyticsClient(port=server.server_address[1])
        try:
            client.wait_ready(timeout=10)
            for include_data in (False, True):
                client.query("toy", ["groupbys"], include_data=include_data)
            client.query("toy", ["counts"], include_data=True)
            for number, delta in enumerate(
                [sales_delta(toy_db, np.random.default_rng(2)),
                 dimension_delta(toy_db)],
                start=1,
            ):
                ack = client.delta(
                    "toy",
                    delta.relation,
                    inserts={
                        a: np.asarray(v).tolist()
                        for a, v in delta.inserts.items()
                    },
                    delete_indices=np.asarray(
                        delta.delete_indices
                    ).tolist(),
                )
                assert ack["epoch"] == number
                # encoded before the ack, in the forms served before
                answers = service.snapshot("toy").answers
                assert set(answers["groupbys"].encoded) == {False, True}
                assert set(answers["counts"].encoded) == {True}
                before = toy_stats(service)["answers"]
                for name, include_data in (
                    ("groupbys", False), ("groupbys", True), ("counts", True)
                ):
                    body = client.query(
                        "toy", [name], include_data=include_data
                    )
                    response = service.query("toy", [name], timeout=60)
                    assert body["epoch"] == response.epoch == number
                    expected = lazy_body(response, include_data)
                    assert query_response_body(
                        response, include_data
                    ) == expected
                    assert body == json.loads(expected)
                after = toy_stats(service)["answers"]
                assert after["executed"] == before["executed"]
                assert after["memo_hits"] == before["memo_hits"] + 6
            assert_published_equal_fresh_runs(service)
            assert_stats_identities(service.stats())
        finally:
            server.shutdown()
            server.server_close()
            service.close()

    def test_a_failed_answer_stays_a_miss_and_the_commit_stands(
        self, toy_db, tmp_path
    ):
        data_dir = str(tmp_path / "data")
        with make_service(data_dir, toy_db) as service:
            for name in ("counts", "groupbys"):
                service.query("toy", [name], timeout=60)
            state = service._state("toy")
            assemble = state.engine.assemble
            broken = state.workloads["groupbys"]
            fused_plan = state.engine.plan(state.fused.batch)
            assembled = []

            def flaky(batch, plan, *args, **kwargs):
                # each member is assembled off the one fused run
                assembled.append((batch, plan))
                if batch is broken:
                    raise RuntimeError("assembly failed")
                return assemble(batch, plan, *args, **kwargs)

            state.engine.assemble = flaky
            try:
                response = service.apply_delta("toy", insert_delta(toy_db))
            finally:
                state.engine.assemble = assemble
            assert {batch for batch, _ in assembled} == {
                broken, state.workloads["counts"]
            }
            assert all(plan is fused_plan for _, plan in assembled)
            epoch = service.snapshot("toy")
            assert response.epoch == epoch.number == 1
            assert list(epoch.answers) == ["counts"]
            assert toy_stats(service)["storage"]["wal_len"] == 1
            executed = toy_stats(service)["answers"]["executed"]
            read = service.query("toy", ["groupbys"], timeout=60)
            assert read.epoch == 1 and read.seconds > 0
            assert toy_stats(service)["answers"]["executed"] == executed + 1
            assert_published_equal_fresh_runs(service)
            assert_stats_identities(service.stats())
            live = epoch.database
        with make_service(data_dir, toy_db) as revived:
            assert revived.epoch("toy") == 1
            served = revived.query("toy", ["groupbys"], timeout=60)
            assert_results_equal(
                served.results["groupbys"],
                LMFAO(live).run(broken),
                broken,
                rtol=1e-8,
            )


    def test_a_failed_fused_run_fails_every_member_and_the_commit_stands(
        self, toy_db, tmp_path
    ):
        with make_service(str(tmp_path / "data"), toy_db) as service:
            for name in ("counts", "groupbys"):
                service.query("toy", [name], timeout=60)
            state = service._state("toy")
            execute = state.engine.execute
            calls = []

            def broken(plan, dyn, **kwargs):
                calls.append(plan)
                raise RuntimeError("execution failed")

            state.engine.execute = broken
            try:
                response = service.apply_delta("toy", insert_delta(toy_db))
            finally:
                state.engine.execute = execute
            # tried once for both members, and neither was published
            assert calls == [state.engine.plan(state.fused.batch)]
            epoch = service.snapshot("toy")
            assert response.epoch == epoch.number == 1
            assert response.encode == {} and not epoch.answers
            assert toy_stats(service)["storage"]["wal_len"] == 1
            for name in ("counts", "groupbys"):
                read = service.query("toy", [name], timeout=60)
                assert read.epoch == 1 and read.seconds > 0
            assert_published_equal_fresh_runs(service)
            assert_stats_identities(service.stats())


class TestCommitStats:
    def test_commits_are_timed_root_and_other_apart(self, toy_db, tmp_path):
        """``/stats`` ``commit`` counts a commit as root when every delta
        in it hits the IVM root (``Sales``), and sums each kind's phase
        times; a delta that changes nothing is no commit."""
        with make_service(str(tmp_path / "data"), toy_db) as service:
            for name in WORKLOADS:
                service.query("toy", [name], timeout=60)
            assert service._state("toy").ivm.root == "Sales"
            service.apply_delta("toy", insert_delta(toy_db))
            service.apply_delta("toy", dimension_delta(toy_db))
            service.apply_delta(
                "toy", insert_delta(toy_db), dimension_delta(toy_db)
            )
            service.apply_delta(
                "toy", DeltaBatch.delete("Sales", np.array([], dtype=int))
            )
            stats = service.stats()
        assert_stats_identities(stats)
        toy = stats["datasets"]["toy"]
        assert toy["deltas"] == 3
        commit = toy["commit"]
        assert commit["root"]["count"] == 1
        assert commit["other"]["count"] == 2
        for phases in commit.values():
            for phase in ("repair_ms", "wal_ms", "publish_ms"):
                assert phases[phase] > 0, (phase, phases)

    def test_without_storage_nothing_is_logged(self, toy_db):
        with AnalyticsService(cache_mb=8) as service:
            service.register_dataset("toy", toy_db)
            service.apply_delta("toy", insert_delta(toy_db))
            commit = toy_stats(service)["commit"]
        assert commit["root"]["count"] == 1
        assert commit["root"]["wal_ms"] < commit["root"]["repair_ms"]
        assert commit["other"] == {
            "count": 0, "repair_ms": 0.0, "wal_ms": 0.0, "publish_ms": 0.0,
        }


class TestRepairedViewsStayInMemory:
    def test_commits_write_nothing_to_the_disk_tier(self, toy_db, tmp_path):
        with make_service(str(tmp_path / "data"), toy_db) as service:
            for name in WORKLOADS:
                service.query("toy", [name], timeout=60)
            cache = toy_stats(service)["cache"]
            assert cache["spills"] > 0  # cold admissions write through
            for delta in (insert_delta(toy_db), dimension_delta(toy_db)):
                service.apply_delta("toy", delta)
                after = toy_stats(service)["cache"]
                assert after["patches"] > cache["patches"]
                assert after["spills"] == cache["spills"]
                cache = after
            assert_stats_identities(service.stats())

    def test_a_repaired_view_the_lru_evicts_is_spilled_and_served_warm(
        self, toy_db, tmp_path
    ):
        service = AnalyticsService(
            cache_mb=8, data_dir=str(tmp_path / "data")
        )
        service.register_dataset("toy", toy_db)
        # one workload first: the fused batch's views are its views
        service.register_workload(
            "toy", "covar_style", WORKLOADS["covar_style"]()
        )
        with service:
            state = service._state("toy")
            service.query("toy", ["covar_style"], timeout=60)
            # room for the fused batch's views and not much more
            state.cache.budget_bytes = state.cache.total_bytes + 64
            before = set(state.cache.digests())
            service.apply_delta("toy", insert_delta(toy_db))
            repaired = set(state.cache.digests()) - before
            assert repaired
            store = state.storage.cache_store
            assert not [d for d in repaired if store.load(d) is not None]
            # a workload registered now joins the fused batch, and its
            # cold views push the repaired ones out
            service.register_workload(
                "toy", "groupbys", WORKLOADS["groupbys"]()
            )
            service.query("toy", ["groupbys"], timeout=60)
            evicted = repaired - set(state.cache.digests())
            assert evicted
            assert all(store.load(d) is not None for d in evicted)
            stats = state.cache.stats()
            batch = state.workloads["covar_style"]
            database = service.snapshot("toy").database
            result = state.fused.run(
                state.engine, database=database
            ).result("covar_style")
            after = state.cache.stats()
            assert after.warm_hits > stats.warm_hits
            assert_results_equal(
                result, LMFAO(database).run(batch), batch, rtol=1e-8
            )
            assert_stats_identities(service.stats())

    def test_deltas_then_a_graceful_close_restart_without_misses(
        self, toy_db, tmp_path
    ):
        data_dir = str(tmp_path / "data")
        with make_service(data_dir, toy_db) as service:
            for name in WORKLOADS:
                service.query("toy", [name], timeout=60)
            for delta in (insert_delta(toy_db), dimension_delta(toy_db)):
                service.apply_delta("toy", delta)
            spills = toy_stats(service)["cache"]["spills"]
            assert_stats_identities(service.stats())
        # close() wrote the repaired views out
        assert service._state("toy").cache.stats().spills > spills
        with make_service(data_dir, toy_db) as revived:
            for name in WORKLOADS:
                revived.query("toy", [name], timeout=60)
            cache = toy_stats(revived)["cache"]
            assert cache["misses"] == 0 and cache["warm_hits"] > 0
            assert_stats_identities(revived.stats())


def test_a_pinned_reader_serves_disk_hits_without_admitting_them(
    toy_db, tmp_path
):
    """A reader pinned to epoch 0 after two commits finds the fused
    batch's epoch-0 views on disk (written through when they were cold).
    Admitted, they would carry no recipe, and the next delta could only
    evict them."""
    with make_service(str(tmp_path / "data"), toy_db) as service:
        state = service._state("toy")
        batch = state.workloads["covar_style"]
        service.query("toy", ["covar_style"], timeout=60)
        pinned = service.snapshot("toy")
        for n in (2, 3):
            service.apply_delta("toy", insert_delta(toy_db, n=n))
        before = state.cache.stats()
        ivm = toy_stats(service)["ivm"]
        result = state.fused.run(
            state.engine, database=pinned.database
        ).result("covar_style")
        after = state.cache.stats()
        warm = after.warm_hits - before.warm_hits
        assert warm > 0
        assert after.stale_rejects - before.stale_rejects >= warm
        assert after.puts == before.puts
        service.apply_delta("toy", insert_delta(toy_db, n=1))
        final = state.cache.stats()
        assert final.invalidations == after.invalidations == 0
        assert toy_stats(service)["ivm"]["fallbacks"] == ivm["fallbacks"] == 0
        assert_results_equal(
            result, LMFAO(pinned.database).run(batch), batch, rtol=1e-8
        )
        assert_stats_identities(service.stats())
