"""Log record codec.

A log record is ``<LogKey, Data>`` (§3.4):

* LogKey — log sequence number (LSN), table name, tablet name.
* Data — ``<RowKey, Value>`` where RowKey concatenates the record's
  primary key, the column group updated, and the write timestamp; Value is
  the payload or null for an invalidated (delete) entry.

Commit records (§3.7.2) reuse the same framing with a COMMIT type: they
carry the transaction id and commit timestamp and gate the visibility of
that transaction's writes during recovery and compaction.

Wire format (all integers uvarint unless noted)::

    frame   := length(u32 LE) crc32c(u32 LE) payload
    payload := type(1B) lsn txn_id table_len table tablet_len tablet
               key_len key group_len group timestamp value_flag(1B)
               [value_len value]

Sorted segments produced by compaction omit table/tablet/group per entry
(they are constant per segment); the ``SLIM`` flag bit marks that layout.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass

from repro.errors import CorruptLogRecord
from repro.util.crc import crc32c
from repro.util.varint import decode_uvarint, encode_uvarint

_FRAME_HEADER = struct.Struct("<II")  # length, crc


class RecordType(enum.IntEnum):
    """Discriminates log entry kinds."""

    WRITE = 1        # insert/update of one (key, group) version
    INVALIDATE = 2   # delete marker (null Data per §3.6.3)
    COMMIT = 3       # transaction commit record
    ABORT = 4        # explicit abort marker (optional, aids diagnostics)
    CHECKPOINT = 5   # checkpoint marker written at checkpoint time


@dataclass(frozen=True, slots=True)
class LogPointer:
    """Location of a record in the log: file number, offset, record size.

    This is exactly the ``Ptr`` the paper stores in index entries (§3.5).
    """

    file_no: int
    offset: int
    size: int

    def __lt__(self, other: "LogPointer") -> bool:
        return (self.file_no, self.offset) < (other.file_no, other.offset)


@dataclass(frozen=True, slots=True)
class LogRecord:
    """One decoded log entry.

    Attributes:
        record_type: entry kind.
        lsn: log sequence number, assigned by the repository at append.
        txn_id: owning transaction (0 for auto-committed single writes).
        table: table name ("" in slim/sorted segments).
        tablet: tablet name ("" in slim/sorted segments).
        key: record primary key bytes.
        group: column group name ("" in slim segments).
        timestamp: version timestamp of the write (commit timestamp for
            COMMIT records).
        value: payload bytes, or None for INVALIDATE/COMMIT/ABORT.
    """

    record_type: RecordType
    lsn: int = 0
    txn_id: int = 0
    table: str = ""
    tablet: str = ""
    key: bytes = b""
    group: str = ""
    timestamp: int = 0
    value: bytes | None = None

    @property
    def is_delete(self) -> bool:
        """True for invalidated (delete) entries."""
        return self.record_type is RecordType.INVALIDATE

    def with_lsn(self, lsn: int) -> "LogRecord":
        """Copy of this record with the LSN the repository assigned."""
        return LogRecord(
            record_type=self.record_type,
            lsn=lsn,
            txn_id=self.txn_id,
            table=self.table,
            tablet=self.tablet,
            key=self.key,
            group=self.group,
            timestamp=self.timestamp,
            value=self.value,
        )

    # -- encoding ----------------------------------------------------------------

    def encode(self, *, slim: bool = False) -> bytes:
        """Encode to a framed byte string.

        Args:
            slim: omit table/tablet/group (sorted-segment layout, §3.6.5).
        """
        body = bytearray()
        type_byte = int(self.record_type)
        if slim:
            type_byte |= 0x80
        body.append(type_byte)
        body += encode_uvarint(self.lsn)
        body += encode_uvarint(self.txn_id)
        if not slim:
            for text in (self.table, self.tablet):
                raw = text.encode()
                body += encode_uvarint(len(raw))
                body += raw
        body += encode_uvarint(len(self.key))
        body += self.key
        if not slim:
            raw = self.group.encode()
            body += encode_uvarint(len(raw))
            body += raw
        body += encode_uvarint(self.timestamp)
        if self.value is None:
            body.append(0)
        else:
            body.append(1)
            body += encode_uvarint(len(self.value))
            body += self.value
        frame = _FRAME_HEADER.pack(len(body), crc32c(body))
        return frame + bytes(body)

    @classmethod
    def decode(cls, buf: bytes, offset: int = 0) -> tuple["LogRecord", int]:
        """Decode one framed record from ``buf`` at ``offset``.

        Returns:
            ``(record, next_offset)``.

        Raises:
            CorruptLogRecord: on truncation or checksum mismatch.
        """
        header_end = offset + _FRAME_HEADER.size
        if header_end > len(buf):
            raise CorruptLogRecord("truncated frame header")
        length, crc = _FRAME_HEADER.unpack_from(buf, offset)
        body_end = header_end + length
        if body_end > len(buf):
            raise CorruptLogRecord("truncated frame body")
        body = bytes(buf[header_end:body_end])
        if crc32c(body) != crc:
            raise CorruptLogRecord("checksum mismatch")
        return cls._decode_body(body), body_end

    @classmethod
    def _decode_body(cls, body: bytes) -> "LogRecord":
        pos = 0
        type_byte = body[pos]
        pos += 1
        slim = bool(type_byte & 0x80)
        record_type = RecordType(type_byte & 0x7F)
        lsn, pos = decode_uvarint(body, pos)
        txn_id, pos = decode_uvarint(body, pos)
        table = tablet = group = ""
        if not slim:
            n, pos = decode_uvarint(body, pos)
            table = body[pos : pos + n].decode()
            pos += n
            n, pos = decode_uvarint(body, pos)
            tablet = body[pos : pos + n].decode()
            pos += n
        n, pos = decode_uvarint(body, pos)
        key = body[pos : pos + n]
        pos += n
        if not slim:
            n, pos = decode_uvarint(body, pos)
            group = body[pos : pos + n].decode()
            pos += n
        timestamp, pos = decode_uvarint(body, pos)
        has_value = body[pos]
        pos += 1
        value: bytes | None = None
        if has_value:
            n, pos = decode_uvarint(body, pos)
            value = body[pos : pos + n]
            pos += n
        return cls(
            record_type=record_type,
            lsn=lsn,
            txn_id=txn_id,
            table=table,
            tablet=tablet,
            key=key,
            group=group,
            timestamp=timestamp,
            value=value,
        )

    def encoded_size(self, *, slim: bool = False) -> int:
        """Framed size in bytes (what the log charges for this entry)."""
        return len(self.encode(slim=slim))


def commit_record(txn_id: int, commit_ts: int) -> LogRecord:
    """Build a COMMIT record for ``txn_id`` at ``commit_ts``."""
    return LogRecord(record_type=RecordType.COMMIT, txn_id=txn_id, timestamp=commit_ts)


def abort_record(txn_id: int) -> LogRecord:
    """Build an ABORT record for ``txn_id``."""
    return LogRecord(record_type=RecordType.ABORT, txn_id=txn_id)
