"""Unit tests for index file persistence (checkpoint substrate)."""

import pytest

from repro.errors import CorruptLogRecord
from repro.index.persist import decode_index_file, encode_index_file, read_index_file
from repro.wal.record import LogPointer


def rows(n: int):
    return [(f"k{i:04d}".encode(), i + 1, LogPointer(2, i * 64, 64)) for i in range(n)]


def test_encode_decode_roundtrip():
    original = rows(50)
    assert decode_index_file(encode_index_file(original, [])) == (original, [])


def test_empty_index_roundtrip():
    assert decode_index_file(encode_index_file([], [])) == ([], [])


def test_corruption_detected():
    payload = bytearray(encode_index_file(rows(5), []))
    payload[10] ^= 0xFF
    with pytest.raises(CorruptLogRecord):
        decode_index_file(bytes(payload))


def test_bad_magic_detected():
    payload = b"XXXX" + encode_index_file(rows(2), [])[4:]
    with pytest.raises(CorruptLogRecord):
        decode_index_file(payload)


def test_tombstones_are_a_second_block_left_out_when_empty():
    versions, marks = rows(20), [(b"k0003", 99, LogPointer(4, 0, 30))]
    alone = encode_index_file(versions, [])
    both = encode_index_file(versions, marks)
    assert both.startswith(alone) and len(both) > len(alone)
    assert decode_index_file(both) == (versions, marks)


def test_a_damaged_tombstones_block_is_detected():
    payload = bytearray(encode_index_file(rows(3), rows(2)))
    payload[-6] ^= 0xFF
    with pytest.raises(CorruptLogRecord):
        decode_index_file(bytes(payload))


def test_write_and_load_via_dfs(dfs, machines):
    dfs.install("/ckpt/idx", encode_index_file(rows(40), []), machines[0])
    versions, tombstones = read_index_file(dfs, "/ckpt/idx", machines[1])
    assert versions == rows(40) and tombstones == []


def test_write_overwrites_previous_checkpoint(dfs, machines):
    dfs.install("/ckpt/idx", encode_index_file(rows(1), []), machines[0])
    dfs.install("/ckpt/idx", encode_index_file(rows(2), []), machines[0])
    assert read_index_file(dfs, "/ckpt/idx", machines[0]) == (rows(2), [])


def test_load_charges_io(dfs, machines):
    dfs.install("/ckpt/idx", encode_index_file(rows(100), []), machines[0])
    before = machines[1].clock.now
    read_index_file(dfs, "/ckpt/idx", machines[1])
    assert machines[1].clock.now > before
