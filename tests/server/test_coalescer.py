"""RequestCoalescer: batching by backlog, fan-out, shedding, errors."""

import threading
import time

import pytest

from repro.server.coalescer import (
    CoalescerStats,
    RequestCoalescer,
    ServiceOverloaded,
)

pytestmark = pytest.mark.timeout(60)


class Recorder:
    """An execute callback that records every drained batch."""

    def __init__(self, block: bool = False):
        self.batches = []
        self.block = block
        self.started = threading.Event()  # first execute entered
        self.release = threading.Event()  # let the first execute finish
        self._first = True

    def __call__(self, key, payloads):
        self.batches.append((key, list(payloads)))
        if self.block and self._first:
            self._first = False
            self.started.set()
            assert self.release.wait(30), "test never released the worker"
        return [f"{key}:{payload}" for payload in payloads]


class TestBasics:
    def test_single_request_round_trip(self):
        recorder = Recorder()
        with RequestCoalescer(recorder) as coalescer:
            assert coalescer.submit("ds", "covar", timeout=30) == "ds:covar"
        assert recorder.batches == [("ds", ["covar"])]
        stats = coalescer.stats()
        assert stats.submitted == stats.completed == stats.batches == 1

    def test_a_lone_request_never_waits_on_a_clock(self):
        recorder = Recorder()
        with RequestCoalescer(recorder) as coalescer:
            timeouts = []
            wait = coalescer._arrived.wait

            def recording_wait(timeout=None):
                timeouts.append(timeout)
                return wait(timeout)

            coalescer._arrived.wait = recording_wait
            for payload in ("covar", "linreg"):
                assert coalescer.submit("ds", payload, timeout=30)
        assert recorder.batches == [("ds", ["covar"]), ("ds", ["linreg"])]
        assert all(timeout is None for timeout in timeouts), timeouts

    def test_rejects_bad_limits(self):
        with pytest.raises(ValueError):
            RequestCoalescer(Recorder(), max_queue=0)

    def test_submit_after_close_raises(self):
        coalescer = RequestCoalescer(Recorder())
        coalescer.close()
        with pytest.raises(RuntimeError, match="closed"):
            coalescer.submit("ds", "covar")


class TestCoalescing:
    def test_concurrent_requests_share_one_batch(self):
        # block the worker on a sacrificial first request, queue twenty
        # more, then release: the backlog drains as one batch, however
        # long it grew
        n = 20
        recorder = Recorder(block=True)
        coalescer = RequestCoalescer(recorder, max_queue=64)
        threads = [
            threading.Thread(
                target=coalescer.submit, args=("ds", "first"),
            )
        ]
        threads[0].start()
        assert recorder.started.wait(10)
        results = {}

        def submit(i):
            results[i] = coalescer.submit("ds", f"req{i}", timeout=30)

        for i in range(n):
            thread = threading.Thread(target=submit, args=(i,))
            threads.append(thread)
            thread.start()
        while coalescer.stats().queue_depth < n:
            time.sleep(0.005)
        recorder.release.set()
        for thread in threads:
            thread.join(30)
        assert results == {i: f"ds:req{i}" for i in range(n)}
        assert len(recorder.batches) == 2
        assert sorted(recorder.batches[1][1]) == sorted(
            f"req{i}" for i in range(n)
        )
        assert coalescer.stats().max_batch == n
        coalescer.close()

    def test_batches_never_mix_keys(self):
        recorder = Recorder(block=True)
        coalescer = RequestCoalescer(recorder, max_queue=64)
        first = threading.Thread(target=coalescer.submit, args=("a", "x"))
        first.start()
        assert recorder.started.wait(10)
        threads = [
            threading.Thread(target=coalescer.submit, args=(key, key))
            for key in ("a", "b", "a", "b")
        ]
        for thread in threads:
            thread.start()
        while coalescer.stats().queue_depth < 4:
            time.sleep(0.005)
        recorder.release.set()
        for thread in [first] + threads:
            thread.join(30)
        # each key's backlog drains as one batch of its own
        assert sorted(recorder.batches[1:]) == [
            ("a", ["a", "a"]),
            ("b", ["b", "b"]),
        ]
        coalescer.close()


class TestAdmissionControl:
    def test_sheds_when_queue_full(self):
        recorder = Recorder(block=True)
        coalescer = RequestCoalescer(recorder, max_queue=2)
        first = threading.Thread(target=coalescer.submit, args=("ds", 0))
        first.start()
        assert recorder.started.wait(10)
        fillers = [
            threading.Thread(target=coalescer.submit, args=("ds", i))
            for i in (1, 2)
        ]
        for thread in fillers:
            thread.start()
        while coalescer.stats().queue_depth < 2:
            time.sleep(0.005)
        with pytest.raises(ServiceOverloaded, match="queue full"):
            coalescer.submit("ds", 3)
        assert coalescer.stats().shed == 1
        recorder.release.set()
        for thread in [first] + fillers:
            thread.join(30)
        coalescer.close()


class TestErrors:
    def test_execute_error_fans_out_to_every_waiter(self):
        def explode(key, payloads):
            raise ValueError("boom")

        coalescer = RequestCoalescer(explode)
        with pytest.raises(ValueError, match="boom"):
            coalescer.submit("ds", "x", timeout=30)
        assert coalescer.stats().failed == 1
        coalescer.close()

    def test_timeout_raises(self):
        recorder = Recorder(block=True)
        coalescer = RequestCoalescer(recorder)
        first = threading.Thread(target=coalescer.submit, args=("ds", 0))
        first.start()
        assert recorder.started.wait(10)
        with pytest.raises(TimeoutError):
            coalescer.submit("ds", 1, timeout=0.05)
        recorder.release.set()
        first.join(30)
        coalescer.close()

    def test_timed_out_request_is_withdrawn_and_never_executed(self):
        recorder = Recorder(block=True)
        coalescer = RequestCoalescer(recorder)
        first = threading.Thread(
            target=coalescer.submit, args=("ds", "first")
        )
        first.start()
        assert recorder.started.wait(10)
        with pytest.raises(TimeoutError):
            coalescer.submit("ds", "ghost", timeout=0.05)
        stats = coalescer.stats()
        assert stats.timed_out == 1
        assert stats.queue_depth == 0, (
            "abandoned request still occupies an admission slot"
        )
        recorder.release.set()
        first.join(30)
        coalescer.close()
        executed = [
            payload
            for _key, payloads in recorder.batches
            for payload in payloads
        ]
        assert "ghost" not in executed, (
            "worker burned an execution for an abandoned request"
        )

    def test_timeout_in_flight_counts_once(self):
        # the caller gives up while its request executes: the worker
        # still completes it, so it is not also counted as withdrawn
        recorder = Recorder(block=True)
        coalescer = RequestCoalescer(recorder)
        with pytest.raises(TimeoutError):
            coalescer.submit("ds", "slow", timeout=0.5)
        assert recorder.started.is_set(), "request never reached execute"
        recorder.release.set()
        coalescer.close()
        stats = coalescer.stats()
        assert (stats.timed_out, stats.completed) == (0, 1)
        assert stats.submitted == (
            stats.completed + stats.failed + stats.timed_out
        )


class TestStats:
    def test_stats_is_a_snapshot_copy(self):
        coalescer = RequestCoalescer(Recorder())
        coalescer.submit("ds", "x", timeout=30)
        stats = coalescer.stats()
        assert isinstance(stats, CoalescerStats)
        stats.submitted = 999  # mutating the copy must not leak back
        assert coalescer.stats().submitted == 1
        payload = coalescer.stats().as_dict()
        assert payload["mean_batch"] == 1.0
        assert payload["queue_depth"] == 0
        coalescer.close()
