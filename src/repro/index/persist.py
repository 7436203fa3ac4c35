"""Index persistence: the one on-DFS form of a set of index entries.

Two kinds of file share it, and one reader (:func:`read_index_file`)
serves both.  A sorted run's index, written beside the run by compaction
(§3.6.5), lists where each surviving version and each carried tombstone
sits in the run.  A checkpoint's *tail file* (§3.8,
:mod:`repro.core.checkpoint`) lists, for one (tablet, group), the index
entries that point into unsorted segments and the delete marks the run
indexes do not carry yet; the entries that point into runs are the runs'
own index files, which the checkpoint block names.  Both are applied by
one loader, :func:`repro.wal.replay.redo_rows`.  The layout::

    block   := magic(4B) count(uvarint) row* crc32c(u32 LE)
    row     := key_len key timestamp file_no offset size   (uvarints)
    file    := versions-block [tombstones-block]

A tombstone's timestamp is its delete mark; an empty tombstones block is
left out, so a tail file with no marks is the versions block alone.
"""

from __future__ import annotations

import struct

from repro.dfs.filesystem import DFS
from repro.errors import CorruptLogRecord
from repro.index.interface import Row
from repro.sim.machine import Machine
from repro.util.crc import crc32c
from repro.util.varint import decode_uvarint, encode_uvarint
from repro.wal.record import LogPointer

_MAGIC = b"LBIX"


def _encode_block(rows: list[Row]) -> bytes:
    body = bytearray(_MAGIC)
    body += encode_uvarint(len(rows))
    for key, timestamp, pointer in rows:
        body += encode_uvarint(len(key))
        body += key
        body += encode_uvarint(timestamp)
        body += encode_uvarint(pointer.file_no)
        body += encode_uvarint(pointer.offset)
        body += encode_uvarint(pointer.size)
    body += struct.pack("<I", crc32c(body))
    return bytes(body)


def _decode_block(payload: bytes, start: int) -> tuple[list[Row], int]:
    """One ``header entries trailer`` block of ``payload`` from ``start``;
    returns ``(rows, end)``.  The block's length is only known once it
    is parsed, so the checksum is verified last and a parse that runs off
    a damaged block is reported as the corruption it is."""
    pos = start + len(_MAGIC)
    if payload[start:pos] != _MAGIC:
        raise CorruptLogRecord("bad index file magic")
    rows = []
    try:
        count, pos = decode_uvarint(payload, pos)
        for _ in range(count):
            n, pos = decode_uvarint(payload, pos)
            key = payload[pos : pos + n]
            pos += n
            timestamp, pos = decode_uvarint(payload, pos)
            file_no, pos = decode_uvarint(payload, pos)
            offset, pos = decode_uvarint(payload, pos)
            size, pos = decode_uvarint(payload, pos)
            rows.append((key, timestamp, LogPointer(file_no, offset, size)))
        (crc,) = struct.unpack_from("<I", payload, pos)
    except (ValueError, struct.error):
        raise CorruptLogRecord("truncated index file") from None
    if crc32c(payload[start:pos]) != crc:
        raise CorruptLogRecord("index file checksum mismatch")
    return rows, pos + 4


def encode_index_file(versions: list[Row], tombstones: list[Row]) -> bytes:
    """An index file: ``versions`` and, when there are any, ``tombstones``,
    each a block of rows in key order.  Whoever holds a run's index needs
    no scan of the run to point an index into it (§3.6.5 moves pointers,
    not data)."""
    payload = _encode_block(versions)
    return payload + _encode_block(tombstones) if tombstones else payload


def decode_index_file(payload: bytes) -> tuple[list[Row], list[Row]]:
    """``(versions, tombstones)`` of an :func:`encode_index_file` file.

    Raises:
        CorruptLogRecord: on bad magic, truncation or checksum mismatch.
    """
    versions, end = _decode_block(payload, 0)
    tombstones: list[Row] = []
    if end != len(payload):
        tombstones, end = _decode_block(payload, end)
    if end != len(payload):
        raise CorruptLogRecord("bytes after the index file's trailer")
    return versions, tombstones


def read_index_file(dfs: DFS, path: str, machine: Machine) -> tuple[list[Row], list[Row]]:
    """``(versions, tombstones)`` of the index file at ``path``.  The file
    checks itself; one that fails is read again verified, so a damaged
    replica is read around and a damaged file raises
    :class:`~repro.errors.CorruptLogRecord`."""
    reader = dfs.open(path, machine)
    try:
        return decode_index_file(reader.read_all())
    except CorruptLogRecord:
        return decode_index_file(reader.read_all(verified=True))
