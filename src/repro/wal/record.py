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
from dataclasses import dataclass, fields
from functools import lru_cache

from repro.errors import CorruptLogRecord, TruncatedLogRecord
from repro.util.crc import crc32c
from repro.util.varint import decode_uvarint, encode_uvarint

_FRAME_HEADER = struct.Struct("<II")  # length, crc
_BYTE = tuple(bytes((value,)) for value in range(256))  # type and flag bytes


class RecordType(enum.IntEnum):
    """Discriminates log entry kinds."""

    WRITE = 1        # insert/update of one (key, group) version
    INVALIDATE = 2   # delete marker (null Data per §3.6.3)
    COMMIT = 3       # transaction commit record
    ABORT = 4        # explicit abort marker (optional, aids diagnostics)
    CHECKPOINT = 5   # checkpoint marker written at checkpoint time


_RECORD_TYPES = {int(record_type): record_type for record_type in RecordType}


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
        """Copy of this record with the LSN the repository assigned
        (filled through the slot descriptors, as :meth:`decode` does)."""
        record = object.__new__(LogRecord)
        _SET_TYPE(record, self.record_type)
        _SET_LSN(record, lsn)
        _SET_TXN(record, self.txn_id)
        _SET_TABLE(record, self.table)
        _SET_TABLET(record, self.tablet)
        _SET_KEY(record, self.key)
        _SET_GROUP(record, self.group)
        _SET_TIMESTAMP(record, self.timestamp)
        _SET_VALUE(record, self.value)
        return record

    # -- encoding ----------------------------------------------------------------

    def encode(self, *, slim: bool = False) -> bytes:
        """Encode to a framed byte string.

        Args:
            slim: omit table/tablet/group (sorted-segment layout, §3.6.5).
        """
        key = self.key
        if slim:
            parts = [
                _BYTE[self.record_type | 0x80],
                encode_uvarint(self.lsn),
                encode_uvarint(self.txn_id),
                encode_uvarint(len(key)),
                key,
                encode_uvarint(self.timestamp),
            ]
        else:
            parts = [
                _BYTE[self.record_type],
                encode_uvarint(self.lsn),
                encode_uvarint(self.txn_id),
                _name_field(self.table),
                _name_field(self.tablet),
                encode_uvarint(len(key)),
                key,
                _name_field(self.group),
                encode_uvarint(self.timestamp),
            ]
        value = self.value
        if value is None:
            parts.append(_BYTE[0])
        else:
            parts += (_BYTE[1], encode_uvarint(len(value)), value)
        body = b"".join(parts)
        return _FRAME_HEADER.pack(len(body), crc32c(body)) + body

    @classmethod
    def decode(
        cls, buf: bytes, offset: int = 0, scope: tuple[str, str] | None = None
    ) -> tuple["LogRecord", int]:
        """Decode one framed record from ``buf`` at ``offset``.

        Args:
            scope: ``(table, group)`` of the sorted segment ``buf`` was read
                from, which a slim entry leaves out; None for a log segment.

        Returns:
            ``(record, next_offset)``.

        Raises:
            CorruptLogRecord: on truncation (``TruncatedLogRecord``), checksum
                mismatch, or a body that matches its checksum but does not parse.
        """
        header_end = offset + _FRAME_HEADER.size
        if header_end > len(buf):
            raise TruncatedLogRecord("truncated frame header")
        length, crc = _FRAME_HEADER.unpack_from(buf, offset)
        body_end = header_end + length
        if body_end > len(buf):
            raise TruncatedLogRecord("truncated frame body")
        body = buf[header_end:body_end]
        if type(body) is not bytes:
            body = bytes(body)
        if crc32c(body) != crc:
            raise CorruptLogRecord("checksum mismatch")

        try:
            # One pass over the body; a length below 0x80 is its own uvarint,
            # anything else (a body that ends early too) is decode_uvarint's.
            end = len(body)
            type_byte = body[0]
            code = type_byte & 0x7F
            record_type = _RECORD_TYPES.get(code) or RecordType(code)
            lsn, pos = decode_uvarint(body, 1)
            txn_id, pos = decode_uvarint(body, pos)
            table = tablet = group = ""
            if type_byte < 0x80:
                n = body[pos] if pos < end else 0x80
                if n < 0x80:
                    pos += 1
                else:
                    n, pos = decode_uvarint(body, pos)
                table = body[pos : pos + n].decode()
                pos += n
                n = body[pos] if pos < end else 0x80
                if n < 0x80:
                    pos += 1
                else:
                    n, pos = decode_uvarint(body, pos)
                tablet = body[pos : pos + n].decode()
                pos += n
            n = body[pos] if pos < end else 0x80
            if n < 0x80:
                pos += 1
            else:
                n, pos = decode_uvarint(body, pos)
            key = body[pos : pos + n]
            pos += n
            if type_byte < 0x80:
                n = body[pos] if pos < end else 0x80
                if n < 0x80:
                    pos += 1
                else:
                    n, pos = decode_uvarint(body, pos)
                group = body[pos : pos + n].decode()
                pos += n
            timestamp, pos = decode_uvarint(body, pos)
            value: bytes | None = None
            if body[pos]:
                n, pos = decode_uvarint(body, pos + 1)
                value = body[pos : pos + n]
                pos += n
            else:
                pos += 1
            if pos != end:
                raise CorruptLogRecord(f"fields end at byte {pos} of a {end}-byte body")
        except (IndexError, ValueError) as exc:
            raise CorruptLogRecord(f"malformed record body: {exc}") from exc
        if scope is not None and not table:
            table, group = scope
        record = object.__new__(cls)
        _SET_TYPE(record, record_type)
        _SET_LSN(record, lsn)
        _SET_TXN(record, txn_id)
        _SET_TABLE(record, table)
        _SET_TABLET(record, tablet)
        _SET_KEY(record, key)
        _SET_GROUP(record, group)
        _SET_TIMESTAMP(record, timestamp)
        _SET_VALUE(record, value)
        return record, body_end


# The slot descriptors of the nine fields, bound once: ``decode`` and
# ``with_lsn`` fill a record through them rather than the frozen ``__init__``'s nine
# ``object.__setattr__`` calls.  What it builds is an ordinary
# ``LogRecord`` (same type, equality, hash and immutability).
(
    _SET_TYPE, _SET_LSN, _SET_TXN, _SET_TABLE, _SET_TABLET,
    _SET_KEY, _SET_GROUP, _SET_TIMESTAMP, _SET_VALUE,
) = (getattr(LogRecord, field.name).__set__ for field in fields(LogRecord))  # fmt: skip


@lru_cache(maxsize=1024)
def _name_field(name: str) -> bytes:
    """``uvarint(len) + utf-8`` of a table, tablet or group name."""
    raw = name.encode()
    return encode_uvarint(len(raw)) + raw


def commit_record(txn_id: int, commit_ts: int) -> LogRecord:
    """Build a COMMIT record for ``txn_id`` at ``commit_ts``."""
    return LogRecord(record_type=RecordType.COMMIT, txn_id=txn_id, timestamp=commit_ts)


def abort_record(txn_id: int) -> LogRecord:
    """Build an ABORT record for ``txn_id``."""
    return LogRecord(record_type=RecordType.ABORT, txn_id=txn_id)
