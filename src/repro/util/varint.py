"""Unsigned variable-length integer codec (LEB128, protobuf-compatible).

Log records, index snapshots and SSTable blocks frame their fields with
uvarints so that small values (lengths, sequence numbers near a checkpoint)
cost one byte instead of eight.
"""

from __future__ import annotations

# Most lengths and ids fit seven bits; their encodings are shared objects.
_ONE_BYTE = tuple(bytes((value,)) for value in range(0x80))


def encode_uvarint(value: int) -> bytes:
    """Encode a non-negative integer as a LEB128 uvarint.

    Args:
        value: integer >= 0.

    Returns:
        The encoded bytes (1 byte per 7 bits of payload).

    Raises:
        ValueError: if ``value`` is negative.
    """
    if 0 <= value < 0x80:
        return _ONE_BYTE[value]
    if value < 0:
        raise ValueError(f"uvarint cannot encode negative value {value}")
    out = []
    while value > 0x7F:
        out.append(value & 0x7F | 0x80)
        value >>= 7
    out.append(value)
    return bytes(out)


def decode_uvarint(buf: bytes, offset: int = 0) -> tuple[int, int]:
    """Decode a LEB128 uvarint from ``buf`` starting at ``offset``.

    Args:
        buf: source buffer.
        offset: position of the first byte of the varint.

    Returns:
        ``(value, next_offset)`` where ``next_offset`` is the position just
        past the varint.

    Raises:
        ValueError: if the buffer ends mid-varint or the varint is longer
            than 10 bytes (would overflow 64 bits of payload).
    """
    if offset < len(buf) and buf[offset] < 0x80:
        return buf[offset], offset + 1
    result = 0
    shift = 0
    pos = offset
    while True:
        if pos >= len(buf):
            raise ValueError("truncated uvarint")
        if shift > 63:
            raise ValueError("uvarint too long")
        byte = buf[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7
