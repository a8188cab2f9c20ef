"""Every function the benchmark's tracer wraps still exists.

``bench/trace.py`` times the layers from outside, by wrapping the
functions its ``TARGETS`` table names.  A refactor that renames or
removes one leaves the benchmark's metric for it reading ``ABSENT``;
this test catches that in the fast suite.  It reads ``bench/`` and does
not edit it.
"""

from bench import trace


def test_every_traced_target_resolves():
    uninstall, absent = trace.install(trace.Recorder())
    try:
        assert absent == []
    finally:
        uninstall()
