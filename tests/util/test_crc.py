"""Unit tests for CRC-32C.

``reference`` is the byte-at-a-time table loop that ``repro.util.crc``
used before it folded on big integers; it stays here as the definition
the fast implementation is compared against.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.util.crc import crc32c


def _reference_table() -> tuple[int, ...]:
    table = []
    for i in range(256):
        crc = i
        for _ in range(8):
            crc = (crc >> 1) ^ 0x82F63B78 if crc & 1 else crc >> 1
        table.append(crc)
    return tuple(table)


_REFERENCE_TABLE = _reference_table()


def reference(data: bytes, crc: int = 0) -> int:
    crc ^= 0xFFFFFFFF
    for byte in data:
        crc = _REFERENCE_TABLE[(crc ^ byte) & 0xFF] ^ (crc >> 8)
    return crc ^ 0xFFFFFFFF


# Byte lengths of the fold sizes (2^k + 64 bits) from the 16-byte table
# tail up past 200 KiB, each with its neighbours, plus 17 (the shortest
# message that folds at all).
FOLD_BOUNDARIES = sorted(
    {17}
    | {
        (1 << k) // 8 + 8 + delta
        for k in range(6, 22)
        for delta in (-1, 0, 1)
    }
)
assert FOLD_BOUNDARIES[0] == 15 and FOLD_BOUNDARIES[-1] > 200 * 1024

lengths = st.one_of(st.integers(0, 300), st.sampled_from(FOLD_BOUNDARIES))


def test_empty_is_zero():
    assert crc32c(b"") == 0


def test_known_vector():
    # RFC 3720 appendix test vector: 32 zero bytes.
    assert crc32c(b"\x00" * 32) == 0x8A9136AA


def test_known_vector_ones():
    assert crc32c(b"\xff" * 32) == 0x62A8AB43


def test_known_vector_ascending():
    assert crc32c(bytes(range(32))) == 0x46DD794E


def test_incremental_matches_whole():
    data = b"the quick brown fox jumps over the lazy dog" * 3
    whole = crc32c(data)
    partial = crc32c(data[20:], crc32c(data[:20]))
    assert whole == partial


def test_detects_single_bit_flip():
    data = bytearray(b"some block payload")
    original = crc32c(bytes(data))
    data[5] ^= 0x01
    assert crc32c(bytes(data)) != original


def test_different_inputs_differ():
    assert crc32c(b"abc") != crc32c(b"abd")


def test_check_value():
    # The CRC catalogue's check value for CRC-32C; the frozen end-to-end
    # benchmark asserts the same constant.
    assert crc32c(b"123456789") == 0xE3069283


def test_reference_loop_agrees_on_the_known_vectors():
    assert reference(b"123456789") == 0xE3069283
    assert reference(bytes(range(32))) == 0x46DD794E


@pytest.mark.parametrize("length", FOLD_BOUNDARIES)
def test_matches_reference_at_every_fold_boundary(length):
    data = random.Random(length).randbytes(length)
    assert crc32c(data) == reference(data)


@settings(max_examples=120, deadline=None)
@given(lengths, lengths, st.integers(0, 2**32 - 1))
def test_matches_reference_whole_and_incremental(a_len, b_len, seed):
    rng = random.Random(seed)
    a, b = rng.randbytes(a_len), rng.randbytes(b_len)
    expected = reference(a + b)
    assert crc32c(a + b) == expected
    assert crc32c(b, crc32c(a)) == expected


@settings(max_examples=60, deadline=None)
@given(lengths, lengths, st.integers(0, 2**32 - 1))
def test_accepts_any_bytes_like_object_without_a_copy(a_len, b_len, seed):
    rng = random.Random(seed)
    data = rng.randbytes(a_len + b_len)
    expected = reference(data)
    assert crc32c(bytearray(data)) == expected
    assert crc32c(memoryview(data)) == expected
    # A slice of a larger buffer, continued from a running value.
    view = memoryview(bytearray(data))
    assert crc32c(view[a_len:], crc32c(view[:a_len])) == expected
