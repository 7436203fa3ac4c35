"""Property tests for the wire codecs: varint, CRC, records, group values."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.schema import decode_group_value, encode_group_value
from repro.util.crc import crc32c
from repro.util.varint import decode_uvarint, encode_uvarint
from repro.wal.record import LogRecord, RecordType


@given(st.integers(min_value=0, max_value=2**63 - 1))
def test_varint_roundtrip(value):
    decoded, offset = decode_uvarint(encode_uvarint(value))
    assert decoded == value
    assert offset == len(encode_uvarint(value))


@given(st.lists(st.integers(min_value=0, max_value=2**40), max_size=20))
def test_varint_sequence_roundtrip(values):
    buf = b"".join(encode_uvarint(v) for v in values)
    pos = 0
    out = []
    while pos < len(buf):
        value, pos = decode_uvarint(buf, pos)
        out.append(value)
    assert out == values


@given(st.binary(max_size=512), st.integers(min_value=0, max_value=511))
def test_crc_incremental_equals_whole(data, split):
    split = min(split, len(data))
    assert crc32c(data) == crc32c(data[split:], crc32c(data[:split]))


record_strategy = st.builds(
    LogRecord,
    record_type=st.sampled_from(list(RecordType)),
    lsn=st.integers(min_value=0, max_value=2**40),
    txn_id=st.integers(min_value=0, max_value=2**30),
    table=st.text(max_size=20),
    tablet=st.text(max_size=20),
    key=st.binary(max_size=64),
    group=st.text(max_size=20),
    timestamp=st.integers(min_value=0, max_value=2**50),
    value=st.one_of(st.none(), st.binary(max_size=256)),
)


@given(record_strategy)
@settings(max_examples=200)
def test_log_record_roundtrip(record):
    decoded, offset = LogRecord.decode(record.encode())
    assert decoded == record
    assert offset == len(record.encode())


@given(record_strategy)
def test_slim_record_preserves_data_fields(record):
    decoded, _ = LogRecord.decode(record.encode(slim=True))
    assert decoded.key == record.key
    assert decoded.value == record.value
    assert decoded.timestamp == record.timestamp
    assert decoded.lsn == record.lsn
    assert decoded.txn_id == record.txn_id


@given(st.lists(record_strategy, max_size=10))
def test_concatenated_records_parse_back(records):
    buf = b"".join(r.encode() for r in records)
    pos = 0
    out = []
    while pos < len(buf):
        record, pos = LogRecord.decode(buf, pos)
        out.append(record)
    assert out == records


group_values = st.dictionaries(
    st.text(min_size=1, max_size=16), st.binary(max_size=64), max_size=8
)


@given(group_values)
def test_group_value_roundtrip(values):
    assert decode_group_value(encode_group_value(values)) == values
