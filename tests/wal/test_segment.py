"""Unit tests for segment writers/readers, including torn-write handling."""

import pytest

from repro.wal.record import LogRecord, RecordType
from repro.wal.segment import LogSegmentReader, LogSegmentWriter, open_segment_reader


def record(key: bytes) -> LogRecord:
    return LogRecord(
        record_type=RecordType.WRITE,
        table="t",
        tablet="t#0",
        key=key,
        group="g",
        timestamp=1,
        value=b"v",
    )


def read_at(reader: LogSegmentReader, pointer) -> LogRecord:
    """The record at ``pointer``: one positional DFS read, decoded (what
    ``LogRepository.read`` does)."""
    raw = reader.dfs_reader.read(pointer.offset, pointer.size)
    return LogRecord.decode(raw)[0]


@pytest.fixture
def segment(dfs, machines):
    writer = dfs.create("/log/segment-1", machines[0])
    return LogSegmentWriter(1, writer)


def test_append_returns_pointer(segment):
    encoded = record(b"a").encode()
    pointer = segment.append(encoded)
    assert pointer.file_no == 1
    assert pointer.offset == 0
    assert pointer.size == len(encoded)


def test_append_many_pointers_are_contiguous(segment):
    frames = [record(str(i).encode()).encode() for i in range(4)]
    pointers = segment.append_many(frames)
    offset = 0
    for pointer, frame in zip(pointers, frames):
        assert pointer.offset == offset
        offset += len(frame)


def test_read_at_and_scan(dfs, machines, segment):
    frames = [record(str(i).encode()).encode() for i in range(3)]
    pointers = segment.append_many(frames)
    reader = open_segment_reader(dfs, "/log/segment-1", 1, machines[0])
    assert read_at(reader, pointers[1]).key == b"1"
    scanned = [rec.key for _, rec in reader.scan()]
    assert scanned == [b"0", b"1", b"2"]


def test_scan_stops_at_torn_tail(dfs, machines, segment):
    segment.append(record(b"complete").encode())
    torn = record(b"torn").encode()[:10]  # simulate crash mid-append
    segment.append(torn)
    reader = open_segment_reader(dfs, "/log/segment-1", 1, machines[0])
    scanned = [rec.key for _, rec in reader.scan()]
    assert scanned == [b"complete"]


def test_scan_pointers_are_readable(dfs, machines, segment):
    segment.append_many([record(str(i).encode()).encode() for i in range(3)])
    reader = open_segment_reader(dfs, "/log/segment-1", 1, machines[0])
    for pointer, rec in list(reader.scan()):
        assert read_at(reader, pointer) == rec
