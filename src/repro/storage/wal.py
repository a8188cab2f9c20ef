"""An append-only, fsync'd, checksummed write-ahead log of delta commits.

Each record is one *commit*: an epoch number plus the ordered
:class:`~repro.data.database.DeltaBatch` list that produced it.  The
serving layer appends the record (and fsyncs) *before* publishing the
epoch, so every epoch a client has ever been told about is
reconstructible by replaying the log over the last snapshot.

A commit is one :mod:`~repro.storage.codec` record (magic ``WALR``)
whose header is ``{"epoch": N, "deltas": [{"relation", "inserts":
[column names] | null, "deletes": bool}]}`` and whose columns are each
delta's insert columns, then its delete indices.

Crash behavior is the classic one: a record is only *in* the log if its
magic, lengths, and CRC all check out.  A torn tail (the process died
mid-``write``) makes the trailing record invalid; opening the log
truncates the file back to the last valid record so subsequent appends
extend a clean log.  Corruption never propagates past the first bad
frame — everything before it replays, everything after is discarded.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from typing import Dict, Iterator, List, Sequence, Tuple

import numpy as np

from ..data.database import DeltaBatch
from . import codec

_MAGIC = b"WALR"


class WalError(RuntimeError):
    """The write-ahead log could not be written."""


@dataclass(frozen=True)
class WalCommit:
    """One replayable commit: the epoch it produced and its deltas."""

    epoch: int
    deltas: Tuple[DeltaBatch, ...]

    def n_changes(self) -> int:
        return sum(d.n_changes() for d in self.deltas)


def _encode_commit(epoch: int, deltas: Sequence[DeltaBatch]) -> List:
    specs: List[Dict] = []
    columns: List[np.ndarray] = []
    for delta in deltas:
        inserts = None
        if delta.inserts is not None:
            inserts = list(delta.inserts)
            columns.extend(delta.inserts.values())
        if delta.delete_indices is not None:
            columns.append(np.asarray(delta.delete_indices, dtype=np.int64))
        specs.append(
            {
                "relation": delta.relation,
                "inserts": inserts,
                "deletes": delta.delete_indices is not None,
            }
        )
    return codec.encode(
        _MAGIC, {"epoch": int(epoch), "deltas": specs}, columns
    )


def _decode_commit(header: Dict, columns: List[np.ndarray]) -> WalCommit:
    taken = iter(columns)
    deltas = []
    for spec in header["deltas"]:
        inserts = None
        if spec["inserts"] is not None:
            inserts = {name: next(taken) for name in spec["inserts"]}
        deltas.append(
            DeltaBatch(
                relation=spec["relation"],
                inserts=inserts,
                delete_indices=next(taken) if spec["deletes"] else None,
            )
        )
    return WalCommit(epoch=int(header["epoch"]), deltas=tuple(deltas))


def _iter_frames(path: str) -> Iterator[Tuple[WalCommit, int]]:
    """Yield ``(commit, end_offset)`` for every valid leading frame.

    The single source of truth for frame validation: both the opening
    scan and :meth:`WriteAheadLog.replay` consume it, so what is
    *counted* is always exactly what recovery *applies*.  Iteration
    stops at the end of the file or the first invalid frame.
    """
    try:
        handle = open(path, "rb")
    except OSError:
        return
    with handle:
        while True:
            try:
                record = codec.read_record(handle, _MAGIC)
                if record is None:
                    return
                commit = _decode_commit(*record)
            except Exception:  # noqa: BLE001 - any decode failure = bad frame
                return
            yield commit, handle.tell()


def _scan(path: str) -> Tuple[int, int, int, bool]:
    """(valid_bytes, n_commits, last_epoch, torn) of a WAL file."""
    try:
        size = os.path.getsize(path)
    except OSError:
        return 0, 0, 0, False
    valid = 0
    commits = 0
    last_epoch = 0
    for commit, end_offset in _iter_frames(path):
        valid = end_offset
        commits += 1
        last_epoch = commit.epoch
    return valid, commits, last_epoch, valid < size


class WriteAheadLog:
    """One append-only log file of delta commits.

    Opening scans the existing file: valid records are counted, and a
    torn/corrupt tail is truncated away (``tail_truncated`` reports
    whether that happened) so appends always extend a clean log.
    """

    def __init__(self, path: str):
        self.path = os.path.abspath(path)
        self._lock = threading.Lock()
        os.makedirs(os.path.dirname(self.path), exist_ok=True)
        valid, commits, last_epoch, torn = _scan(self.path)
        self.tail_truncated = torn
        if torn:
            with open(self.path, "ab") as handle:
                handle.truncate(valid)
        self._n_commits = commits
        self._last_epoch = last_epoch
        self._nbytes = valid
        self._failed = False
        self._file = open(self.path, "ab")

    # -- introspection -----------------------------------------------------

    @property
    def n_commits(self) -> int:
        with self._lock:
            return self._n_commits

    @property
    def last_epoch(self) -> int:
        with self._lock:
            return self._last_epoch

    @property
    def nbytes(self) -> int:
        with self._lock:
            return self._nbytes

    # -- writing -----------------------------------------------------------

    def append(self, epoch: int, deltas: Sequence[DeltaBatch]) -> None:
        """Durably append one commit (write + flush + fsync).

        All-or-nothing: if the write or fsync fails, the file is
        truncated back to the pre-append offset so the log stays
        exactly the prefix of acknowledged commits — a half-landed
        frame would otherwise either replay a rolled-back commit
        (complete frame) or render every later commit unreachable
        (torn frame).  If even the scrub fails, the log is marked
        failed and refuses further appends.
        """
        record = _encode_commit(epoch, deltas)
        with self._lock:
            if self._file.closed:
                raise WalError(f"WAL {self.path!r} is closed")
            if self._failed:
                raise WalError(
                    f"WAL {self.path!r} failed a previous append and "
                    "could not be scrubbed; refusing to extend it"
                )
            offset = self._nbytes
            try:
                nbytes = codec.write(self._file, record)
                self._file.flush()
                os.fsync(self._file.fileno())
            except BaseException:
                try:
                    self._file.truncate(offset)
                    self._file.flush()
                    # the scrub itself must be durable: if the frame's
                    # bytes reached disk but the truncation does not,
                    # a power loss resurrects a commit whose caller
                    # was told it failed
                    os.fsync(self._file.fileno())
                except OSError:
                    self._failed = True
                raise
            self._n_commits += 1
            self._last_epoch = int(epoch)
            self._nbytes += nbytes

    def truncate(self) -> None:
        """Reset the log to empty (after a compaction folded it away)."""
        with self._lock:
            self._file.truncate(0)
            self._file.flush()
            os.fsync(self._file.fileno())
            self._n_commits = 0
            self._last_epoch = 0
            self._nbytes = 0
            self._failed = False  # an empty log is clean again

    def sync(self) -> None:
        """Force the OS to persist everything appended so far."""
        with self._lock:
            if not self._file.closed:
                self._file.flush()
                os.fsync(self._file.fileno())

    def close(self) -> None:
        with self._lock:
            if not self._file.closed:
                self._file.flush()
                os.fsync(self._file.fileno())
                self._file.close()

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- replay ------------------------------------------------------------

    def replay(self) -> Iterator[WalCommit]:
        """Yield every valid commit in append order.

        Reads from a fresh handle, so replay is safe while the append
        handle is open; iteration stops at the first invalid frame
        (which :meth:`__init__` already truncated for the common case).
        """
        for commit, _end in _iter_frames(self.path):
            yield commit

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"WriteAheadLog({self.path!r}, commits={self._n_commits}, "
            f"last_epoch={self._last_epoch}, {self._nbytes}B)"
        )
