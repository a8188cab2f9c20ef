"""Benchmark fixtures: cached datasets and engines."""

import ctypes
import gc

import pytest

from repro import LMFAO
from repro.baselines import MaterializedEngine

from .common import dataset


@pytest.fixture(autouse=True, scope="module")
def trimmed_heap():
    """Start every benchmark module from a collected, trimmed heap.

    glibc keeps what earlier modules freed in its arenas, and a thread
    that later allocates from such an arena page-faults its way through
    the same NumPy code up to twice as slowly as in a fresh process: the
    server benchmark's coalescer worker ran one 48-request storm in 2.4 s
    alone and 4.9 s after the merge-mode ablation.  That is allocator
    state left by another module, not the system under test.
    """
    gc.collect()
    try:
        ctypes.CDLL("libc.so.6").malloc_trim(0)
    except (OSError, AttributeError):  # not glibc: nothing to trim
        pass


_ENGINES = {}
_BASELINES = {}


@pytest.fixture(scope="session")
def lmfao_engine():
    def get(name):
        if name not in _ENGINES:
            ds = dataset(name)
            _ENGINES[name] = LMFAO(ds.database, ds.join_tree)
        return _ENGINES[name]

    return get


@pytest.fixture(scope="session")
def materialized_engine():
    def get(name):
        if name not in _BASELINES:
            ds = dataset(name)
            _BASELINES[name] = MaterializedEngine(
                ds.database, materialize_now=True
            )
        return _BASELINES[name]

    return get
