"""Unit tests for the log record codec.

``reference_encode`` is the field-by-field ``bytearray`` encoder
``LogRecord.encode`` used before it joined its parts in one pass; with
the two golden frames it is what holds the wire format still.
"""

import struct
from dataclasses import FrozenInstanceError, fields, replace
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.wal.record
from repro.errors import CorruptLogRecord
from repro.sim.metrics import DFS_CORRUPT_REPLICAS
from repro.util.crc import crc32c
from repro.util.varint import encode_uvarint
from repro.wal.record import (
    LogPointer,
    LogRecord,
    RecordType,
    abort_record,
    commit_record,
    new_record,
)
from repro.wal.repository import LogRepository


def sample_record(**overrides) -> LogRecord:
    fields = dict(
        record_type=RecordType.WRITE,
        lsn=42,
        txn_id=7,
        table="events",
        tablet="events#0",
        key=b"000000000123",
        group="payload",
        timestamp=99,
        value=b"the value",
    )
    fields.update(overrides)
    return LogRecord(**fields)


def test_roundtrip_full():
    record = sample_record()
    decoded, offset = LogRecord.decode(record.encode())
    assert decoded == record
    assert offset == len(record.encode())


def test_roundtrip_null_value():
    record = sample_record(record_type=RecordType.INVALIDATE, value=None)
    decoded, _ = LogRecord.decode(record.encode())
    assert decoded.value is None
    assert decoded.is_delete


def test_roundtrip_empty_key_and_value():
    record = sample_record(key=b"", value=b"")
    decoded, _ = LogRecord.decode(record.encode())
    assert decoded.key == b"" and decoded.value == b""


def test_slim_layout_omits_table_metadata():
    record = sample_record()
    slim = record.encode(slim=True)
    full = record.encode()
    assert len(slim) < len(full)
    decoded, _ = LogRecord.decode(slim)
    assert decoded.table == "" and decoded.group == ""
    assert decoded.key == record.key and decoded.value == record.value


def test_checksum_detects_corruption():
    encoded = bytearray(sample_record().encode())
    encoded[-1] ^= 0xFF
    with pytest.raises(CorruptLogRecord):
        LogRecord.decode(bytes(encoded))


def test_truncated_header_rejected():
    encoded = sample_record().encode()
    with pytest.raises(CorruptLogRecord):
        LogRecord.decode(encoded[:4])


def test_truncated_body_rejected():
    encoded = sample_record().encode()
    with pytest.raises(CorruptLogRecord):
        LogRecord.decode(encoded[: len(encoded) - 3])


def test_multiple_records_in_buffer():
    r1, r2 = sample_record(lsn=1), sample_record(lsn=2, key=b"other")
    buf = r1.encode() + r2.encode()
    d1, pos = LogRecord.decode(buf)
    d2, pos = LogRecord.decode(buf, pos)
    assert (d1.lsn, d2.lsn) == (1, 2)
    assert pos == len(buf)


def test_with_lsn_replaces_only_lsn():
    record = sample_record(lsn=0)
    stamped = record.with_lsn(77)
    assert stamped.lsn == 77
    assert stamped.key == record.key and stamped.value == record.value


def test_commit_record_shape():
    record = commit_record(txn_id=5, commit_ts=123)
    assert record.record_type is RecordType.COMMIT
    assert record.txn_id == 5 and record.timestamp == 123
    assert record.value is None


def test_abort_record_shape():
    record = abort_record(9)
    assert record.record_type is RecordType.ABORT
    assert record.txn_id == 9


def test_pointer_ordering():
    assert LogPointer(1, 100, 10) < LogPointer(1, 200, 10)
    assert LogPointer(1, 900, 10) < LogPointer(2, 0, 10)


def test_unicode_table_names_roundtrip():
    record = sample_record(table="événements", group="payload-β")
    decoded, _ = LogRecord.decode(record.encode())
    assert decoded.table == "événements" and decoded.group == "payload-β"


# -- the wire format is frozen -----------------------------------------------------


def reference_encode(record: LogRecord, *, slim: bool = False) -> bytes:
    body = bytearray()
    type_byte = int(record.record_type)
    if slim:
        type_byte |= 0x80
    body.append(type_byte)
    body += encode_uvarint(record.lsn)
    body += encode_uvarint(record.txn_id)
    if not slim:
        for text in (record.table, record.tablet):
            raw = text.encode()
            body += encode_uvarint(len(raw))
            body += raw
    body += encode_uvarint(len(record.key))
    body += record.key
    if not slim:
        raw = record.group.encode()
        body += encode_uvarint(len(raw))
        body += raw
    body += encode_uvarint(record.timestamp)
    if record.value is None:
        body.append(0)
    else:
        body.append(1)
        body += encode_uvarint(len(record.value))
        body += record.value
    return struct.pack("<II", len(body), crc32c(body)) + bytes(body)


# Multi-byte uvarints everywhere one can occur: lengths and ids past 127,
# timestamps past 2^35, names whose UTF-8 is longer than their text.
wide_records = st.builds(
    LogRecord,
    record_type=st.sampled_from(list(RecordType)),
    lsn=st.integers(0, 2**40),
    txn_id=st.integers(0, 2**30),
    table=st.text(max_size=150),
    tablet=st.text(max_size=150),
    key=st.binary(max_size=300),
    group=st.text(max_size=150),
    timestamp=st.one_of(st.integers(0, 200), st.integers(2**35, 2**62)),
    value=st.one_of(st.none(), st.binary(max_size=300)),
)


@given(wide_records)
@settings(max_examples=300, deadline=None)
def test_encode_is_byte_identical_to_the_reference_encoder(record):
    for slim in (False, True):
        frame = record.encode(slim=slim)
        assert frame == reference_encode(record, slim=slim)
        expected = replace(record, table="", tablet="", group="") if slim else record
        assert LogRecord.decode(frame) == (expected, len(frame))
        # Not at the start of the buffer, and not in a ``bytes``.
        assert LogRecord.decode(bytearray(b"\x00" * 3 + frame), 3) == (
            expected,
            3 + len(frame),
        )


GOLDEN_FULL = LogRecord(
    RecordType.WRITE,
    lsn=300,
    txn_id=7,
    table="événements",
    tablet="événements#0",
    key=b"000000000123",
    group="payload-β",
    timestamp=2**35 + 99,
    value=bytes(range(130)),
)
GOLDEN_FULL_FRAME = bytes.fromhex(
    "c3000000a305dd8801ac02070cc3a976c3a96e656d656e74730ec3a976c3a96e"
    "656d656e747323300c3030303030303030303132330a7061796c6f61642dceb2"
    "e38080808001018201000102030405060708090a0b0c0d0e0f10111213141516"
    "1718191a1b1c1d1e1f202122232425262728292a2b2c2d2e2f30313233343536"
    "3738393a3b3c3d3e3f404142434445464748494a4b4c4d4e4f50515253545556"
    "5758595a5b5c5d5e5f606162636465666768696a6b6c6d6e6f70717273747576"
    "7778797a7b7c7d7e7f8081"
)
GOLDEN_SLIM = sample_record(record_type=RecordType.INVALIDATE, txn_id=0, value=None)
GOLDEN_SLIM_FRAME = bytes.fromhex(
    "12000000fc83b9f8822a000c3030303030303030303132336300"
)
GOLDEN_FRAMES = pytest.mark.parametrize(
    "frame", [GOLDEN_FULL_FRAME, GOLDEN_SLIM_FRAME], ids=["full", "slim"]
)


def test_golden_frames():
    assert GOLDEN_FULL.encode() == GOLDEN_FULL_FRAME
    assert LogRecord.decode(GOLDEN_FULL_FRAME) == (GOLDEN_FULL, 203)
    assert GOLDEN_SLIM.encode(slim=True) == GOLDEN_SLIM_FRAME
    assert LogRecord.decode(GOLDEN_SLIM_FRAME) == (
        replace(GOLDEN_SLIM, table="", tablet="", group=""),
        26,
    )


@GOLDEN_FRAMES
def test_every_proper_prefix_of_a_frame_is_corrupt(frame):
    for cut in range(len(frame)):
        with pytest.raises(CorruptLogRecord):
            LogRecord.decode(frame[:cut])


@GOLDEN_FRAMES
def test_every_single_bit_flip_of_a_frame_is_corrupt(frame):
    for bit in range(8 * len(frame)):
        damaged = bytearray(frame)
        damaged[bit // 8] ^= 1 << bit % 8
        with pytest.raises(CorruptLogRecord):
            LogRecord.decode(bytes(damaged))


def framed(body: bytes) -> bytes:
    """``body`` under a header whose length and checksum match it."""
    return struct.pack("<II", len(body), crc32c(body)) + body


# A frame whose checksum matches a body that does not parse is as corrupt as
# one whose checksum does not: segment scan, redo and the follower tail
# catch CorruptLogRecord and nothing else.


def test_unknown_record_type_is_corrupt():
    frame = framed(b"\x09" + GOLDEN_SLIM_FRAME[9:])
    with pytest.raises(CorruptLogRecord) as raised:
        LogRecord.decode(frame)
    assert isinstance(raised.value.__cause__, ValueError)


def test_an_all_zero_header_is_corrupt():
    # Length 0 and crc32c(b"") == 0: the checksum holds, there is no body.
    assert crc32c(b"") == 0
    with pytest.raises(CorruptLogRecord):
        LogRecord.decode(bytes(8))
    with pytest.raises(CorruptLogRecord):
        LogRecord.decode(GOLDEN_SLIM_FRAME + bytes(8), len(GOLDEN_SLIM_FRAME))


@pytest.mark.parametrize(
    "frame, cut",
    [
        (GOLDEN_FULL_FRAME, 4),
        (GOLDEN_FULL_FRAME, 17),
        (GOLDEN_FULL_FRAME, 32),
        (GOLDEN_FULL_FRAME, 45),
        (GOLDEN_SLIM_FRAME, 3),
    ],
    ids=["full-table", "full-tablet", "full-key", "full-group", "slim-key"],
)
def test_body_ending_where_a_length_begins_is_corrupt(frame, cut):
    # A checksum that matches a body which stops short: the length read
    # fails in decode_uvarint, and decode reports the frame as corrupt.
    with pytest.raises(CorruptLogRecord) as raised:
        LogRecord.decode(framed(frame[8 : 8 + cut]))
    assert "truncated uvarint" in str(raised.value.__cause__)


@GOLDEN_FRAMES
def test_bytes_after_the_last_field_are_corrupt(frame):
    with pytest.raises(CorruptLogRecord, match="fields end"):
        LogRecord.decode(framed(frame[8:] + b"\x00"))


@GOLDEN_FRAMES
def test_every_checksummed_prefix_of_a_body_is_corrupt(frame):
    # Every proper prefix of a body, re-framed so its checksum holds.
    body = frame[8:]
    for cut in range(len(body)):
        with pytest.raises(CorruptLogRecord):
            LogRecord.decode(framed(body[:cut]))


def test_scope_fills_what_a_slim_entry_leaves_out():
    scope = ("events", "payload")
    decoded, offset = LogRecord.decode(GOLDEN_SLIM_FRAME, 0, scope)
    assert decoded == replace(GOLDEN_SLIM, tablet="") and offset == 26
    # A full entry keeps its own names; what takes the segment's is an
    # entry with no table name, whichever layout it was written in.
    assert LogRecord.decode(GOLDEN_FULL_FRAME, 0, scope)[0] == GOLDEN_FULL
    unnamed = commit_record(txn_id=5, commit_ts=123)
    assert LogRecord.decode(unnamed.encode(), 0, scope)[0] == replace(
        unnamed, table="events", group="payload"
    )


# -- a decoded record is the record ------------------------------------------------


@pytest.mark.parametrize(
    "value", [None, b"", bytes(range(256)) * 4], ids=["none", "empty", "1k"]
)
@pytest.mark.parametrize("record_type", list(RecordType), ids=lambda t: t.name)
@pytest.mark.parametrize("layout", ["full", "slim", "slim-scoped"])
def test_a_decoded_record_is_the_record(record_type, value, layout):
    built = LogRecord(
        record_type, 300, 7, "events", "events#0", b"key-1", "payload", 2**35, value
    )
    slim = layout != "full"
    scope = ("events", "payload") if layout == "slim-scoped" else None
    frame = built.encode(slim=slim)
    decoded, end = LogRecord.decode(b"\x00" + frame, 1, scope)
    if slim:
        table, group = scope or ("", "")
        built = LogRecord(record_type, 300, 7, table, "", b"key-1", group, 2**35, value)
    assert end == 1 + len(frame)
    assert type(decoded) is LogRecord
    assert decoded == built and not decoded != built
    assert hash(decoded) == hash(built)
    for field in fields(LogRecord):
        assert getattr(decoded, field.name) == getattr(built, field.name)
        with pytest.raises(FrozenInstanceError):
            setattr(decoded, field.name, getattr(built, field.name))
    with pytest.raises(FrozenInstanceError):
        del decoded.value
    assert decoded.encode(slim=slim) == frame
    assert decoded.with_lsn(301) == replace(built, lsn=301)


@pytest.mark.parametrize(
    "value", [None, b"", bytes(range(256)) * 4], ids=["none", "empty", "1k"]
)
@pytest.mark.parametrize("record_type", list(RecordType), ids=lambda t: t.name)
def test_with_lsn_is_the_record(record_type, value):
    """What the repository stamps is an ordinary record: equal to, and
    hashing like, the one the constructor builds with that LSN."""
    source = LogRecord(
        record_type, 0, 7, "events", "events#0", b"key-1", "payload", 2**35, value
    )
    stamped = source.with_lsn(2**40)
    built = LogRecord(
        record_type, 2**40, 7, "events", "events#0", b"key-1", "payload", 2**35, value
    )
    assert type(stamped) is LogRecord
    assert stamped == built and not stamped != built
    assert hash(stamped) == hash(built)
    assert source.lsn == 0 and source != stamped
    for field in fields(LogRecord):
        assert getattr(stamped, field.name) == getattr(built, field.name)
        with pytest.raises(FrozenInstanceError):
            setattr(stamped, field.name, getattr(built, field.name))
    frame = stamped.encode()
    assert frame == built.encode()
    assert LogRecord.decode(frame) == (built, len(frame))


@pytest.mark.parametrize(
    "value", [None, b"", bytes(range(256)) * 4], ids=["none", "empty", "1k"]
)
@pytest.mark.parametrize("record_type", list(RecordType), ids=lambda t: t.name)
def test_new_record_is_the_record(record_type, value):
    """What staging builds through the slot descriptors equals, hashes and
    encodes like the frozen constructor's record, and is as immutable."""
    fields_ = (record_type, 0, 7, "events", "events#0", b"key-1", "payload", 2**35, value)
    staged, built = new_record(*fields_), LogRecord(*fields_)
    assert type(staged) is LogRecord
    assert staged == built and not staged != built
    assert hash(staged) == hash(built)
    assert staged.encode() == built.encode()
    for field in fields(LogRecord):
        with pytest.raises(FrozenInstanceError):
            setattr(staged, field.name, getattr(built, field.name))


# -- decode_value is decode's value ------------------------------------------------

# WRITE and INVALIDATE records (the kinds a read follows a pointer to), with
# names, keys and values long enough for multi-byte uvarint lengths.
value_records = st.builds(
    LogRecord,
    record_type=st.sampled_from([RecordType.WRITE, RecordType.INVALIDATE]),
    lsn=st.integers(0, 2**40),
    txn_id=st.integers(0, 2**30),
    table=st.text(max_size=150),
    tablet=st.text(max_size=150),
    key=st.one_of(st.binary(max_size=20), st.binary(min_size=128, max_size=300)),
    group=st.text(max_size=150),
    timestamp=st.one_of(st.integers(0, 200), st.integers(2**35, 2**62)),
    value=st.one_of(st.binary(max_size=20), st.binary(min_size=128, max_size=300)),
).map(lambda r: replace(r, value=None) if r.record_type is RecordType.INVALIDATE else r)


def outcome(decoder, buf, offset=0):
    """What ``decoder`` returns on ``buf``, or the exact class it raised."""
    try:
        return decoder(buf, offset)
    except CorruptLogRecord as exc:
        return type(exc)


def decoded_value(buf, offset=0):
    """``LogRecord.decode``'s answer in ``decode_value``'s shape."""
    record, end = LogRecord.decode(buf, offset)
    return record.value, end


def assert_decoded_alike(buf, offset=0):
    assert outcome(LogRecord.decode_value, buf, offset) == outcome(decoded_value, buf, offset)


def padded_body(record: LogRecord, slim: bool, field: str, extra: int) -> bytes:
    """``record``'s body with the uvarint of ``field`` written ``extra``
    bytes longer than it needs to be (past ten bytes it is over-long)."""

    def uvarint(name, value):
        raw = encode_uvarint(value)
        if name != field:
            return raw
        return raw[:-1] + bytes([raw[-1] | 0x80]) + b"\x80" * (extra - 1) + b"\x00"

    def named(name, raw):
        return uvarint(name, len(raw)) + raw

    parts = [bytes([record.record_type | (0x80 if slim else 0)])]
    parts += [uvarint("lsn", record.lsn), uvarint("txn_id", record.txn_id)]
    if not slim:
        parts += [named("table", record.table.encode()), named("tablet", record.tablet.encode())]
    parts.append(named("key", record.key))
    if not slim:
        parts.append(named("group", record.group.encode()))
    parts.append(uvarint("timestamp", record.timestamp))
    if record.value is None:
        parts.append(b"\x00")
    else:
        parts += [b"\x01", named("value", record.value)]
    return b"".join(parts)


@given(value_records)
@settings(max_examples=200, deadline=None)
def test_decode_value_is_the_decoded_records_value(record):
    for slim in (False, True):
        frame = record.encode(slim=slim)
        assert LogRecord.decode_value(frame) == (record.value, len(frame))
        assert LogRecord.decode_value(bytearray(b"\x00" * 3 + frame), 3) == (
            record.value,
            3 + len(frame),
        )
        assert_decoded_alike(frame)


@given(value_records, st.integers(1, 255))
@settings(max_examples=50, deadline=None)
def test_decode_value_raises_as_decode_on_a_damaged_frame(record, delta):
    for slim in (False, True):
        frame = record.encode(slim=slim)
        for cut in range(len(frame)):
            assert_decoded_alike(frame[:cut])
        for at in range(len(frame)):
            damaged = bytearray(frame)
            damaged[at] = (damaged[at] + delta) % 256
            assert_decoded_alike(bytes(damaged))


@GOLDEN_FRAMES
def test_decode_value_raises_as_decode_on_every_single_byte_change(frame):
    for at in range(len(frame)):
        for byte in range(256):
            damaged = bytearray(frame)
            damaged[at] = byte
            assert_decoded_alike(bytes(damaged))


@given(value_records)
@settings(max_examples=50, deadline=None)
def test_decode_value_raises_as_decode_on_a_checksummed_malformed_body(record):
    for slim in (False, True):
        body = record.encode(slim=slim)[8:]
        for cut in range(len(body)):  # a wrong end: the body stops short
            assert_decoded_alike(framed(body[:cut]))
        assert_decoded_alike(framed(body + b"\x00"))  # a wrong end: one byte over
        for code in range(0x80):  # the type byte, same layout
            assert_decoded_alike(framed(bytes([code | body[0] & 0x80]) + body[1:]))
        uvarints = ["lsn", "txn_id", "key", "timestamp"]
        uvarints += [] if slim else ["table", "tablet", "group"]
        uvarints += [] if record.value is None else ["value"]
        for field in uvarints:
            for extra in range(1, 12):  # non-minimal, then over-long
                assert_decoded_alike(framed(padded_body(record, slim, field, extra)))


def test_padded_uvarints_decode_up_to_ten_bytes():
    record = sample_record(lsn=5)
    assert padded_body(record, False, "", 0) == record.encode()[8:]
    assert LogRecord.decode_value(framed(padded_body(record, False, "lsn", 9)))[0] == b"the value"
    with pytest.raises(CorruptLogRecord, match="too long"):
        LogRecord.decode_value(framed(padded_body(record, False, "lsn", 10)))
    with pytest.raises(CorruptLogRecord, match="too long"):
        LogRecord.decode(framed(padded_body(record, False, "lsn", 10)))


@pytest.mark.parametrize("name", ["table", "tablet", "group"])
def test_both_decoders_reject_a_name_that_is_not_utf8(name):
    """A frame's checksum vouches for its bytes, not for its names' UTF-8:
    a body built with a bad name and then checksummed fails ``decode_value``
    as it fails ``decode``, and neither records it, so every frame a memo
    holds is one ``decode`` accepts."""
    record = sample_record(table="tbl", tablet="tab", group="grp")
    body = padded_body(record, False, "", 0)
    bad = framed(body.replace(getattr(record, name).encode(), b"\xff\xfe\xfd", 1))
    for decode in (LogRecord.decode, LogRecord.decode_value):
        checked: dict[int, int] = {}
        with pytest.raises(CorruptLogRecord, match="malformed record body"):
            decode(bad, 0, checked=checked)
        assert checked == {}


# -- the checked-frames memo --------------------------------------------------------

# ``decode`` and ``decode_value`` with a ``checked`` memo, each answering
# with the frame's value.
MEMO_DECODERS = [
    pytest.param(
        lambda buf, checked: LogRecord.decode(buf, 0, None, checked)[0].value, id="decode"
    ),
    pytest.param(
        lambda buf, checked: LogRecord.decode_value(buf, 0, checked)[0], id="decode_value"
    ),
]


def flipped(frame: bytes, at: int, delta: int = 0xFF) -> bytes:
    damaged = bytearray(frame)
    damaged[at] ^= delta
    return bytes(damaged)


@pytest.mark.parametrize("decode", MEMO_DECODERS)
def test_a_flipped_body_byte_is_caught_with_a_warm_memo(decode):
    frame, checked = sample_record().encode(), {}
    assert decode(frame, checked) == b"the value"
    assert len(checked) == 1
    for at in range(8, len(frame)):
        with pytest.raises(CorruptLogRecord):
            decode(flipped(frame, at), checked)
    assert len(checked) == 1


@pytest.mark.parametrize("decode", MEMO_DECODERS)
def test_a_flipped_crc_field_is_caught_with_a_warm_memo(decode):
    frame, checked = sample_record().encode(), {}
    decode(frame, checked)
    for at in range(4, 8):  # the body is unchanged, the frame is not
        with pytest.raises(CorruptLogRecord, match="checksum mismatch"):
            decode(flipped(frame, at), checked)
    assert decode(frame, checked) == b"the value"


@pytest.mark.parametrize("decode", MEMO_DECODERS)
@pytest.mark.parametrize("value", [b"the value", b"", None], ids=["value", "empty", "none"])
def test_a_warm_memo_spares_every_frame_check(decode, value, monkeypatch):
    frame, checked = replace(sample_record(), value=value).encode(), {}
    assert decode(frame, checked) == value
    calls = []
    crc32c = repro.wal.record.crc32c
    monkeypatch.setattr(
        repro.wal.record, "crc32c", lambda data, crc=0: calls.append(data) or crc32c(data, crc)
    )
    assert decode(frame, checked) == value
    assert calls == []


@pytest.mark.parametrize("decode", MEMO_DECODERS)
def test_a_key_collision_with_another_crc_field_still_runs_crc32c(decode, monkeypatch):
    """An entry vouches only for a frame with its CRC field: with every frame
    keyed alike, another frame, or this one with its CRC field flipped, is
    checked as if the memo were cold."""
    monkeypatch.setattr(repro.wal.record, "_digest", lambda buf, offset, end: 0)
    frame, other, checked = sample_record(lsn=1).encode(), sample_record(lsn=2).encode(), {}
    assert frame[4:8] != other[4:8]
    assert decode(frame, checked) == b"the value"
    calls = []
    crc32c = repro.wal.record.crc32c
    monkeypatch.setattr(
        repro.wal.record, "crc32c", lambda data, crc=0: calls.append(data) or crc32c(data, crc)
    )
    assert decode(frame, checked) == b"the value"
    assert calls == []
    with pytest.raises(CorruptLogRecord, match="checksum mismatch"):
        decode(flipped(frame, 4), checked)
    assert decode(other, checked) == b"the value"
    assert calls == [frame[8:], other[8:]]
    assert sorted(checked) == sorted(int.from_bytes(f[4:8], "little") for f in (frame, other))


@pytest.mark.parametrize("decode", MEMO_DECODERS)
def test_a_frame_that_failed_is_never_recorded(decode):
    frame, checked = sample_record().encode(), {}
    bad = flipped(frame, len(frame) - 1)
    for _ in range(2):
        with pytest.raises(CorruptLogRecord, match="checksum mismatch"):
            decode(bad, checked)
    assert checked == {}


@pytest.mark.parametrize("read", ["read", "read_many"])
def test_a_log_read_of_a_flipped_byte_is_reread_verified_with_a_warm_memo(
    dfs, machines, read
):
    repo = LogRepository(dfs, machines[0], "/log", coalesce_gap=0)
    pointer, _ = repo.append(sample_record())
    read_value = {"read": repo.read, "read_many": lambda p: repo.read_many([p])[0]}[read]
    assert read_value(pointer) == b"the value"
    assert len(dfs.checked_frames) == 1
    block = dfs.namenode.get_file(repo.segment_path(pointer.file_no)).blocks[0]
    local = dfs.datanode(machines[0].name)
    local.corrupt_replica(block.block_id, pointer.offset + pointer.size - 1)
    assert read_value(pointer) == b"the value"  # from a clean replica
    assert machines[0].counters.get(DFS_CORRUPT_REPLICAS) == 1
    assert local.name not in block.locations


@given(value_records, st.booleans(), st.data())
@settings(max_examples=150, deadline=None)
def test_a_memo_never_changes_what_a_decoder_answers(record, slim, data):
    frame = record.encode(slim=slim)
    at = data.draw(st.integers(0, len(frame) - 1))
    damaged = flipped(frame, at, data.draw(st.integers(1, 255)))
    checked: dict[int, int] = {}

    def decoded_value_with_memo(buf, offset=0):
        record, end = LogRecord.decode(buf, offset, None, checked)
        return record.value, end

    with_memo = (partial(LogRecord.decode_value, checked=checked), decoded_value_with_memo)
    # A cold memo, a warm one, then the damaged frame twice after a pass.
    for buf in (frame, frame, damaged, damaged, frame):
        for memo_on, memo_off in zip(with_memo, (LogRecord.decode_value, decoded_value)):
            assert outcome(memo_on, buf) == outcome(memo_off, buf)
    # The memo holds the frame once, keyed by the codec's own key function
    # above its CRC field, with where its value starts, and ``decode``
    # records the same entry ``decode_value`` did.
    [(digest, start)] = checked.items()
    crc_field = int.from_bytes(frame[4:8], "little")
    assert digest == repro.wal.record._digest(frame, 0, len(frame)) << 32 | crc_field
    assert (frame[8 + start :] if start else None) == record.value
    by_decode: dict[int, int] = {}
    LogRecord.decode(frame, 0, None, by_decode)
    assert by_decode == checked
    # A writer that vouches for the frame it builds records that entry too.
    by_encode: dict[int, int] = {}
    assert record.encode(slim=slim, checked=by_encode) == frame
    assert by_encode == checked


def test_a_full_memo_is_emptied(monkeypatch):
    monkeypatch.setattr(repro.wal.record, "CHECKED_FRAMES_CAP", 8)
    checked: dict[int, int] = {}
    sizes = []
    for lsn in range(20):
        LogRecord.decode_value(sample_record(lsn=lsn).encode(), 0, checked)
        sizes.append(len(checked))
    assert sizes == [1, 2, 3, 4, 5, 6, 7, 8] * 2 + [1, 2, 3, 4]
