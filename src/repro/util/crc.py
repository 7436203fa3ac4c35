"""CRC-32C (Castagnoli) checksum, the polynomial used by HDFS and LevelDB.

A byte-at-a-time table loop costs ~100 ms per MiB in pure Python, which
made checksumming 92-96 % of the composed system's host time.  This
implementation instead *folds* the message on Python big integers, whose
shifts and XORs run at C speed, and leaves only the last 16 bytes to the
256-entry table.

Convention: CRC-32C is reflected, so reading the message as a
little-endian integer makes bit ``i`` of the integer the coefficient of
``x^(N-1-i)`` of an ``N``-bit GF(2) polynomial — the first byte's low bit
is the highest power.  A 32-bit residue follows the same order: bit 31 is
``x^0``, which is why ``_POLY`` is the bit-reversed polynomial.

Folding identity: split an ``N``-bit message into its first ``s`` bits
``H`` and the rest ``R`` (``N - s`` bits), so ``M = H * x^(N-s) + R``.
Then ``M mod P == (H * (x^(N-s) mod P) + R) mod P``: the head can be
replaced by its carry-less product with one 32-bit constant, XORed onto
the front of ``R``, giving a shorter message with the same remainder.
The kept length is always ``2^k + 64`` bits, so one constant per ``k``
covers every message length, and the 64 spare bits guarantee the product
(at most ``s + 31`` bits) fits inside what is kept.
"""

from __future__ import annotations

_POLY = 0x82F63B78  # reversed Castagnoli polynomial

# Messages this short, and the tail every fold ends with, go through the
# byte table.
_TABLE_BYTES = 16


def _build_table() -> tuple[int, ...]:
    table = []
    for i in range(256):
        crc = i
        for _ in range(8):
            if crc & 1:
                crc = (crc >> 1) ^ _POLY
            else:
                crc >>= 1
        table.append(crc)
    return tuple(table)


_TABLE = _build_table()


def _times_x(r: int) -> int:
    """``r * x mod P`` on a reflected 32-bit residue."""
    return (r >> 1) ^ _POLY if r & 1 else r >> 1


def _times(a: int, b: int) -> int:
    """``a * b mod P`` on reflected 32-bit residues (shift-and-add)."""
    product = 0
    for bit in range(31, -1, -1):  # bit 31 is x^0, bit 0 is x^31
        if b >> bit & 1:
            product ^= a
        a = _times_x(a)
    return product


def _build_fold_constants() -> dict[int, tuple[int, ...]]:
    """``{k: set bits of x^(2^k + 64) mod P}`` for every fold size.

    ``k`` runs from 6 (keep 128 bits, the table's tail) to 40 (a 128 GiB
    message), built by repeated squaring.
    """
    x64 = 0x80000000  # x^0
    for _ in range(64):
        x64 = _times_x(x64)
    power = 0x40000000  # x^1
    constants = {}
    for k in range(1, 41):
        power = _times(power, power)  # x^(2^k)
        if k >= 6:
            constant = _times(power, x64)
            constants[k] = tuple(b for b in range(32) if constant >> b & 1)
    return constants


_FOLD = _build_fold_constants()


def _bytewise(data, crc: int) -> int:
    for byte in data:
        crc = _TABLE[(crc ^ byte) & 0xFF] ^ (crc >> 8)
    return crc


def crc32c(data, crc: int = 0) -> int:
    """Compute the CRC-32C checksum of ``data``.

    Args:
        data: any bytes-like object (``bytes``, ``bytearray``,
            ``memoryview``); it is not copied.
        crc: starting value, for incremental checksumming over chunks.

    Returns:
        The 32-bit checksum as an unsigned integer.
    """
    n = len(data)
    if n <= _TABLE_BYTES:
        return _bytewise(data, crc ^ 0xFFFFFFFF) ^ 0xFFFFFFFF
    # The running CRC enters by XOR into the first four message bytes.
    d = int.from_bytes(data, "little") ^ (crc ^ 0xFFFFFFFF)
    bits = n * 8
    # Largest fold size strictly below the message: 2^k + 64 < bits.
    k = (bits - 65).bit_length() - 1
    while bits > _TABLE_BYTES * 8:
        keep = (1 << k) + 64
        s = bits - keep  # fold the first s bits onto the remaining keep
        head = d & ((1 << s) - 1)
        # Carry-less head * x^keep: bit j of the (s + 31)-bit product is
        # the coefficient of x^(s + 30 - j).
        product = 0
        for b in _FOLD[k]:
            product ^= head << b
        # Bit j of the kept message is x^(keep - 1 - j); line the powers up.
        d = (d >> s) ^ (product << (keep - s - 31))
        bits = keep
        k -= 1
    return _bytewise(d.to_bytes(_TABLE_BYTES, "little"), 0) ^ 0xFFFFFFFF
