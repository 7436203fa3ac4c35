"""Unit tests for the uvarint codec."""

import pytest

from repro.util.varint import decode_uvarint, encode_uvarint


def test_zero_is_single_byte():
    assert encode_uvarint(0) == b"\x00"


def test_small_values_one_byte():
    for value in (1, 42, 127):
        assert len(encode_uvarint(value)) == 1


def test_128_needs_two_bytes():
    assert len(encode_uvarint(128)) == 2


def test_roundtrip_boundaries():
    for value in (0, 1, 127, 128, 16383, 16384, 2**32 - 1, 2**63 - 1):
        encoded = encode_uvarint(value)
        decoded, offset = decode_uvarint(encoded)
        assert decoded == value
        assert offset == len(encoded)


def test_decode_at_offset():
    buf = b"\xff" + encode_uvarint(300)
    value, offset = decode_uvarint(buf, 1)
    assert value == 300
    assert offset == len(buf)


def test_negative_rejected():
    with pytest.raises(ValueError):
        encode_uvarint(-1)


def test_truncated_raises():
    encoded = encode_uvarint(2**40)
    with pytest.raises(ValueError):
        decode_uvarint(encoded[:-1])


def test_overlong_rejected():
    with pytest.raises(ValueError):
        decode_uvarint(b"\x80" * 11 + b"\x01")


def test_consecutive_varints_parse_in_sequence():
    buf = encode_uvarint(7) + encode_uvarint(70000) + encode_uvarint(0)
    v1, pos = decode_uvarint(buf)
    v2, pos = decode_uvarint(buf, pos)
    v3, pos = decode_uvarint(buf, pos)
    assert (v1, v2, v3) == (7, 70000, 0)
    assert pos == len(buf)


@pytest.mark.parametrize("value", [0, 1, 127, 128, 300, 16383, 16384, 2**21, 2**35])
@pytest.mark.parametrize(
    "tail", [b"", b"\x05", b"\xff\x01"], ids=["end", "byte", "varint"]
)
def test_every_length_decodes_at_an_offset_before_any_tail(value, tail):
    encoded = encode_uvarint(value)
    buf = b"\x81" + encoded + tail
    assert decode_uvarint(buf, 1) == (value, 1 + len(encoded))
    # Cut anywhere inside the varint (and nothing after it): truncated.
    for cut in range(1, len(encoded)):
        with pytest.raises(ValueError, match="truncated"):
            decode_uvarint(b"\x81" + encoded[:cut], 1)
