"""Index persistence: flush in-memory indexes to DFS index files (§3.6.1).

"If the number of updates reaches a threshold, the index can be merged out
into an index file stored in the underlying DFS" — checkpoints persist the
whole index so a restarted server reloads it instead of rescanning the
log.  The file layout is a framed, checksummed sequence of entries::

    header  := magic(4B) count(uvarint)
    entry   := key_len key timestamp file_no offset size   (uvarints)
    trailer := crc32c(u32 LE) over header+entries
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
    if len(payload) < len(_MAGIC) + 4 or payload[:4] != _MAGIC:
        raise CorruptLogRecord("bad index file magic")
    body, (crc,) = payload[:-4], struct.unpack("<I", payload[-4:])
    if crc32c(body) != crc:
        raise CorruptLogRecord("index file checksum mismatch")
    pos = len(_MAGIC)
    count, pos = decode_uvarint(body, pos)
    entries = []
    for _ in range(count):
        n, pos = decode_uvarint(body, pos)
        key = body[pos : pos + n]
        pos += n
        timestamp, pos = decode_uvarint(body, pos)
        file_no, pos = decode_uvarint(body, pos)
        offset, pos = decode_uvarint(body, pos)
        size, pos = decode_uvarint(body, pos)
        entries.append(IndexEntry(key, timestamp, LogPointer(file_no, offset, size)))
    return entries


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
