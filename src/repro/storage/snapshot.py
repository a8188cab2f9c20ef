"""Snapshots of a :class:`Database`: one file, one CRC-framed record.

A snapshot is a single :mod:`~repro.storage.codec` record (magic
``RSNP``).  Its header carries the format name and version, the epoch,
the database name, and per relation its schema, row count and content
fingerprint; its columns are every relation's columns, relation by
relation, in schema order.  Raw column bytes plus a JSON header is
deliberately primitive, because primitive is what recovers — and the
frame's CRC detects torn or bit-rotted files at load, instead of
serving them.

**The round-trip property.**  The header records each relation's
content fingerprint (:func:`repro.engine.viewcache.signature.
relation_fingerprint`, the same hash the view cache keys on).  Loading
checks the CRC *and* recomputes every fingerprint, so a loaded relation
is guaranteed to re-key to exactly the digests the original produced —
which is what lets a restarted process serve warm cache hits from a
persisted :class:`~repro.storage.cachestore.CacheStore` against a
snapshot-loaded database.

**Writes are atomic.**  The record is streamed to a ``<path>.tmp-<pid>``
sibling, fsynced, renamed over ``path`` with ``os.replace``, and
published by fsyncing the directory.  A crash at any point leaves
either the old snapshot or the new one at ``path`` (plus, at worst, a
temp file the next :class:`~repro.storage.manager.DatasetStorage`
removes).
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from ..data.database import Database
from ..data.relation import Relation
from ..data.schema import Attribute, Schema
from ..engine.viewcache.signature import relation_fingerprint
from . import codec

FORMAT_NAME = "repro-snapshot"
FORMAT_VERSION = 2
_MAGIC = b"RSNP"


class SnapshotError(RuntimeError):
    """A snapshot file is missing, malformed, or corrupt."""


@dataclass(frozen=True)
class SnapshotInfo:
    """What one snapshot holds (from its header)."""

    path: str
    epoch: int
    database_name: str
    n_relations: int
    n_rows: int
    nbytes: int
    created_unix: float
    #: relation name -> content fingerprint at write time
    fingerprints: Dict[str, str]


def _fsync_dir(path: str) -> None:
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:  # pragma: no cover - platforms without dir fds
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover
        pass
    finally:
        os.close(fd)


def write_snapshot(
    database: Database, path: str, *, epoch: int = 0
) -> SnapshotInfo:
    """Write a snapshot of ``database`` to the file ``path``, atomically.

    An existing snapshot at ``path`` is replaced only once the new one
    is durable.
    """
    path = os.path.abspath(path)
    relations: List[dict] = []
    columns: List[np.ndarray] = []
    fingerprints: Dict[str, str] = {}
    for relation in database:
        fingerprints[relation.name] = relation_fingerprint(relation)
        relations.append(
            {
                "name": relation.name,
                "n_rows": relation.n_rows,
                "attributes": [
                    [a.name, a.kind, str(a.dtype)] for a in relation.schema
                ],
                "fingerprint": fingerprints[relation.name],
            }
        )
        columns.extend(relation.column(a.name) for a in relation.schema)
    created = time.time()
    header = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "database": database.name,
        "epoch": int(epoch),
        "created_unix": created,
        "relations": relations,
    }
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = f"{path}.tmp-{os.getpid()}"
    with open(tmp, "wb") as handle:
        codec.write(handle, codec.encode(_MAGIC, header, columns))
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    _fsync_dir(os.path.dirname(path))
    return SnapshotInfo(
        path=path,
        epoch=int(epoch),
        database_name=database.name,
        n_relations=len(relations),
        n_rows=sum(spec["n_rows"] for spec in relations),
        nbytes=sum(c.nbytes for c in columns),
        created_unix=created,
        fingerprints=fingerprints,
    )


def load_snapshot(path: str) -> Tuple[Database, SnapshotInfo]:
    """Load a snapshot file back into an in-memory :class:`Database`.

    The frame's CRC and every relation's content fingerprint are
    checked; any mismatch raises :class:`SnapshotError` rather than
    serving silently corrupt data.
    """
    path = os.path.abspath(path)
    try:
        with open(path, "rb") as handle:
            record = codec.read_record(handle, _MAGIC)
    except FileNotFoundError:
        raise SnapshotError(f"no snapshot at {path!r}") from None
    except (OSError, codec.FrameError) as exc:
        raise SnapshotError(f"snapshot {path!r}: {exc}") from None
    if record is None:
        raise SnapshotError(f"snapshot {path!r}: truncated (empty file)")
    header, columns = record
    if header.get("format") != FORMAT_NAME:
        raise SnapshotError(f"{path!r} is not a {FORMAT_NAME} file")
    if header.get("version") != FORMAT_VERSION:
        raise SnapshotError(
            f"{path!r}: unsupported snapshot version "
            f"{header.get('version')!r} (expected {FORMAT_VERSION})"
        )
    taken = iter(columns)
    relations: List[Relation] = []
    for spec in header["relations"]:
        attrs = [
            Attribute(name, kind, np.dtype(dtype))
            for name, kind, dtype in spec["attributes"]
        ]
        relation = Relation(
            spec["name"],
            Schema(attrs),
            {attr.name: next(taken) for attr in attrs},
        )
        if relation.n_rows != spec["n_rows"]:
            raise SnapshotError(
                f"relation {spec['name']!r} has {relation.n_rows} rows, "
                f"header says {spec['n_rows']}"
            )
        if relation_fingerprint(relation) != spec["fingerprint"]:
            raise SnapshotError(
                f"relation {spec['name']!r} fingerprint mismatch: "
                "snapshot does not round-trip"
            )
        relations.append(relation)
    database = Database(relations, name=header["database"])
    info = SnapshotInfo(
        path=path,
        epoch=int(header["epoch"]),
        database_name=header["database"],
        n_relations=len(relations),
        n_rows=sum(r.n_rows for r in relations),
        nbytes=sum(c.nbytes for c in columns),
        created_unix=float(header["created_unix"]),
        fingerprints={
            spec["name"]: spec["fingerprint"] for spec in header["relations"]
        },
    )
    return database, info
