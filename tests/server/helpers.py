"""Identities ``GET /stats`` must satisfy, written once."""


def assert_stats_identities(stats):
    """Check the counter identities of one ``AnalyticsService.stats()``
    (or ``/stats``) payload.

    Per dataset every applied delta is counted once, as incremental or
    as a fallback, every commit once, as a root commit or another one,
    and every query once, as a memo hit or as executed.
    The service must be idle (no request in flight): every request the
    coalescer admitted has finished exactly one way and none is waiting.
    """
    for name, dataset in stats["datasets"].items():
        ivm, answers = dataset["ivm"], dataset["answers"]
        assert ivm["incremental"] + ivm["fallbacks"] == ivm["deltas"], (
            name, ivm,
        )
        commit = dataset["commit"]
        assert commit["root"]["count"] + commit["other"]["count"] == (
            dataset["deltas"]
        ), (name, commit, dataset["deltas"])
        assert dataset["queries"] == (
            answers["memo_hits"] + answers["executed"]
        ), (name, dataset["queries"], answers)
    coalescer = stats["coalescer"]
    assert coalescer["submitted"] == (
        coalescer["completed"] + coalescer["failed"] + coalescer["timed_out"]
    ), coalescer
    assert coalescer["queue_depth"] == 0, coalescer
