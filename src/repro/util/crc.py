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
``H`` and the rest ``R`` (``K = N - s`` bits), so ``M = H * x^K + R``.
Then ``M mod P == (H * (x^K mod P) + R) mod P``: the head can be replaced
by its carry-less product with one 32-bit constant, XORed onto the front
of ``R``, giving a ``K``-bit message with the same remainder.  The
product has at most ``s + 31`` bits, so it fits inside what is kept
whenever ``N <= 2*K - 31``.

The product costs one big-integer shift and XOR per set bit of the
constant, so the kept sizes ``K_0 = 128 < K_1 < ...`` (``_FOLD_SIZES``)
are the ones whose constants are sparse: each ``K_{i+1}`` is the size with
the fewest set bits in ``x^K mod P`` among the ``min(4096, K_i // 8)``
sizes up to the limit ``2*K_i - 31`` (``tests/util/test_crc.py`` re-derives
the table by that rule).  The first round folds the message, whatever its
length, onto the largest size below it; every later round folds exactly
``K_{i+1} -> K_i``; one loop (in ``crc32c``) runs both.
"""

from __future__ import annotations

from bisect import bisect_left

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


# (K, x^K mod P) for every fold size, smallest first; the last covers a
# 128 GiB message.
_FOLD_SIZES = (
    (128, 0x18B8EA18), (220, 0xC023B945), (400, 0x200830F7),
    (759, 0x88494023), (1425, 0xD001401D), (2804, 0x0212089D),
    (5265, 0x5010C905), (10156, 0x0580103B), (19236, 0x82140411),
    (36330, 0xA3000811), (72461, 0x4248420D), (143776, 0x01300093),
    (284951, 0x02060B01), (568987, 0x52000A11), (1137789, 0x010D6061),
    (2274880, 0x08027021), (4549156, 0x60808045), (9095015, 0x00418A81),
    (18189929, 0xB1020011), (36378066, 0x60108085), (72756025, 0x8101A189),
    (145511965, 0x060410B9), (291022401, 0x04601205), (582042364, 0x10033401),
    (1164081564, 0x000A4291), (2328161523, 0x04420423), (4656322577, 0x50006C15),
    (9312642847, 0x22444201), (18625283018, 0x0A034201), (37250564374, 0x03201409),
    (74501126834, 0x01C80085), (149002253030, 0x080C0115), (298004504738, 0x00C04443),
    (596009008886, 0x10005053), (1192018016816, 0x11042643),
)  # fmt: skip
_SIZES = tuple(size for size, _ in _FOLD_SIZES)


def _rounds() -> tuple[tuple[int, int, tuple[int, ...]], ...]:
    """``(K, out, shifts)`` per fold size, for a head of any length ``s``.

    Bit ``j`` of the carry-less ``head * constant`` is the coefficient of
    ``x^(s + 30 - j)`` and bit ``j`` of the kept message is
    ``x^(K - 1 - j)``, so the product lines up ``K - s - 31`` bits in.
    ``shifts`` are the constant's set bits relative to its lowest one and
    ``out`` is ``K - 31`` plus that lowest bit.
    """
    rounds = []
    for size, constant in _FOLD_SIZES:
        low, *rest = (b for b in range(32) if constant >> b & 1)
        rounds.append((size, size - 31 + low, tuple(b - low for b in rest)))
    return tuple(rounds)


_ROUNDS = _rounds()


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
    # Fold onto the largest size below the message, then size by size.
    for level in range(bisect_left(_SIZES, bits) - 1, -1, -1):
        keep, out, shifts = _ROUNDS[level]
        s = bits - keep  # fold the first s bits onto the remaining keep
        head = product = d & ((1 << s) - 1)
        for b in shifts:
            product ^= head << b
        d = (d >> s) ^ (product << (out - s))
        bits = keep
    return _bytewise(d.to_bytes(_TABLE_BYTES, "little"), 0) ^ 0xFFFFFFFF
