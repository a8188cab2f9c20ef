"""The one on-disk record format: a CRC frame around a header and columns.

Every durable artifact — a WAL commit, a spilled view, a snapshot — is
a JSON header plus raw NumPy columns, so all three are the same record::

    magic(4) | u32 body_len | u32 crc32(body) | body
    body   = u32 header_len | header_json | column bytes, in header order
    header_json = {..., "columns": [[dtype, nbytes], ...]}

The magic names the kind of record; the caller's header fields say what
the columns mean.  A record is valid only if its magic, its lengths and
its CRC all check out.

Neither direction joins the columns into one ``bytes``: :func:`encode`
returns the record as a list of buffers (the CRC computed column by
column), and :func:`read_record` reads each column straight into a
fresh, aligned, writable array, checking the CRC as it goes.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from typing import BinaryIO, List, Optional, Sequence, Tuple

import numpy as np

_FRAME = struct.Struct("<4sII")  # magic, body length, body crc32
_LENGTH = struct.Struct("<I")


class FrameError(ValueError):
    """A record is torn, corrupt, or not of the expected kind."""


def encode(
    magic: bytes, header: dict, columns: Sequence[np.ndarray]
) -> List:
    """One record as a list of buffers, to be written in order."""
    arrays = [np.ascontiguousarray(column) for column in columns]
    raws = [array.reshape(-1).view(np.uint8) for array in arrays]
    header = dict(
        header, columns=[[str(a.dtype), int(a.nbytes)] for a in arrays]
    )
    head = json.dumps(header).encode()
    chunks = [_LENGTH.pack(len(head)), head] + raws
    crc = 0
    for chunk in chunks:
        crc = zlib.crc32(chunk, crc)
    body_len = sum(len(chunk) for chunk in chunks)
    return [_FRAME.pack(magic, body_len, crc)] + chunks


def write(handle: BinaryIO, chunks: Sequence) -> int:
    """Write an encoded record; returns its size in bytes."""
    for chunk in chunks:
        handle.write(chunk)
    return sum(len(chunk) for chunk in chunks)


def read_record(
    handle: BinaryIO, magic: bytes
) -> Optional[Tuple[dict, List[np.ndarray]]]:
    """Read the record at the handle's position: ``(header, columns)``.

    Returns None at end of file and raises :class:`FrameError` for
    anything that is not one whole valid record of kind ``magic``.
    """
    prefix = handle.read(_FRAME.size)
    if not prefix:
        return None
    if len(prefix) < _FRAME.size:
        raise FrameError("truncated")
    found, body_len, expected_crc = _FRAME.unpack(prefix)
    if found != magic:
        raise FrameError(f"bad magic {found!r}, expected {magic!r}")
    # nothing is read or allocated for a body the file cannot hold
    if body_len > os.fstat(handle.fileno()).st_size - handle.tell():
        raise FrameError("truncated")
    if body_len < _LENGTH.size:
        raise FrameError("malformed frame")
    length = handle.read(_LENGTH.size)
    (head_len,) = _LENGTH.unpack(length)
    if _LENGTH.size + head_len > body_len:
        raise FrameError("malformed frame")
    head = handle.read(head_len)
    crc = zlib.crc32(head, zlib.crc32(length))
    try:
        header = json.loads(head)
        specs = [
            (np.dtype(dtype), int(nbytes))
            for dtype, nbytes in header["columns"]
        ]
    except (ValueError, KeyError, TypeError) as exc:
        raise FrameError(f"malformed header: {exc}") from None
    if _LENGTH.size + head_len + sum(n for _, n in specs) != body_len or any(
        dtype.hasobject or not dtype.itemsize or n < 0 or n % dtype.itemsize
        for dtype, n in specs
    ):
        raise FrameError("malformed header: column sizes")
    columns: List[np.ndarray] = []
    for dtype, nbytes in specs:
        column = np.empty(nbytes // dtype.itemsize, dtype=dtype)
        raw = column.view(np.uint8)
        if handle.readinto(raw) != nbytes:
            raise FrameError("truncated")
        crc = zlib.crc32(raw, crc)
        columns.append(column)
    if crc != expected_crc:
        raise FrameError("failed its checksum")
    return header, columns
