"""Index persistence: flush in-memory indexes to DFS index files (§3.6.1).

"If the number of updates reaches a threshold, the index can be merged out
into an index file stored in the underlying DFS" — checkpoints persist the
whole index so a restarted server reloads it instead of rescanning the
log.  The file layout is a framed, checksummed sequence of entries::

    header  := magic(4B) count(uvarint)
    entry   := key_len key timestamp file_no offset size   (uvarints)
    trailer := crc32c(u32 LE) over header+entries

A sorted run's index (:func:`encode_run_index`) is two such blocks.
"""

from __future__ import annotations

import struct

from repro.dfs.filesystem import DFS
from repro.errors import CorruptLogRecord
from repro.index.interface import IndexEntry, MultiversionIndex
from repro.sim.machine import Machine
from repro.util.crc import crc32c
from repro.util.varint import decode_uvarint, encode_uvarint
from repro.wal.record import LogPointer

_MAGIC = b"LBIX"


def encode_entries(entries: list[IndexEntry]) -> bytes:
    """Serialize entries into the index-file byte layout."""
    body = bytearray(_MAGIC)
    body += encode_uvarint(len(entries))
    for entry in entries:
        body += encode_uvarint(len(entry.key))
        body += entry.key
        body += encode_uvarint(entry.timestamp)
        body += encode_uvarint(entry.pointer.file_no)
        body += encode_uvarint(entry.pointer.offset)
        body += encode_uvarint(entry.pointer.size)
    body += struct.pack("<I", crc32c(body))
    return bytes(body)


def decode_entries(payload: bytes) -> list[IndexEntry]:
    """Parse an index file produced by :func:`encode_entries`.

    Raises:
        CorruptLogRecord: on bad magic or checksum mismatch.
    """
    entries, end = _decode_block(payload, 0)
    if end != len(payload):
        raise CorruptLogRecord("bytes after the index file's trailer")
    return entries


def _decode_block(payload: bytes, start: int) -> tuple[list[IndexEntry], int]:
    """One ``header entries trailer`` block of ``payload`` from ``start``;
    returns ``(entries, end)``.  The block's length is only known once it
    is parsed, so the checksum is verified last and a parse that runs off
    a damaged block is reported as the corruption it is."""
    pos = start + len(_MAGIC)
    if payload[start:pos] != _MAGIC:
        raise CorruptLogRecord("bad index file magic")
    entries = []
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
            entries.append(IndexEntry(key, timestamp, LogPointer(file_no, offset, size)))
        (crc,) = struct.unpack_from("<I", payload, pos)
    except (ValueError, struct.error):
        raise CorruptLogRecord("truncated index file") from None
    if crc32c(payload[start:pos]) != crc:
        raise CorruptLogRecord("index file checksum mismatch")
    return entries, pos + 4


def encode_run_index(versions: list[IndexEntry], tombstones: list[IndexEntry]) -> bytes:
    """A sorted run's index file: where each surviving version and each
    carried tombstone sits in the run, as two entry blocks.  A tombstone's
    timestamp is its delete mark.  Whoever holds this needs no scan of the
    run to point an index into it (§3.6.5 moves pointers, not data)."""
    return encode_entries(versions) + encode_entries(tombstones)


def decode_run_index(payload: bytes) -> tuple[list[IndexEntry], list[IndexEntry]]:
    """``(versions, tombstones)`` of an :func:`encode_run_index` file.

    Raises:
        CorruptLogRecord: on bad magic, truncation or checksum mismatch.
    """
    versions, end = _decode_block(payload, 0)
    tombstones, end = _decode_block(payload, end)
    if end != len(payload):
        raise CorruptLogRecord("bytes after the run index's trailer")
    return versions, tombstones


def write_index_file(
    dfs: DFS, path: str, machine: Machine, index: MultiversionIndex
) -> int:
    """Persist every entry of ``index`` to ``path``; returns bytes written.

    Atomically replaces any existing file at ``path`` (checkpoints
    replace their predecessor, which a crash mid-write must not lose)."""
    payload = encode_entries(list(index.entries()))
    dfs.install(path, payload, machine)
    return len(payload)


def load_index_file(
    dfs: DFS, path: str, machine: Machine, index: MultiversionIndex
) -> int:
    """Load ``path`` into ``index``; returns the number of entries loaded."""
    payload = dfs.open(path, machine).read_all()
    entries = decode_entries(payload)
    for entry in entries:
        index.insert(entry.key, entry.timestamp, entry.pointer)
    return len(entries)
