"""CRC-32C (Castagnoli) checksum, the polynomial used by HDFS and LevelDB.

A byte-at-a-time table loop costs ~100 ms per MiB in pure Python, which
made checksumming 92-96 % of the composed system's host time.  This
implementation instead *folds* the message on Python big integers, whose
shifts and XORs run at C speed, and leaves only the last 16 bytes to
table lookups.

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
``K_{i+1} -> K_i``; one loop (in ``crc32c``) runs both, a fixed round from
its precomputed ``_ROUNDS`` entry.  Sixteen slice tables take the last 128.
"""

from __future__ import annotations

from bisect import bisect_left

_POLY = 0x82F63B78  # reversed Castagnoli polynomial

# Messages this short go through the byte loop; the tail every fold ends
# with is this long and goes through the slice tables.
_TABLE_BYTES = 16


def _slice_tables() -> list[tuple[int, ...]]:
    """``T_k[v]``, ``k < 16``: the CRC register after byte ``v`` and ``k``
    zero bytes.  ``T_0`` is the byte loop's table."""
    table = []
    for crc in range(256):
        for _ in range(8):
            crc = (crc >> 1) ^ _POLY if crc & 1 else crc >> 1
        table.append(crc)
    tables = [tuple(table)]
    for _ in range(_TABLE_BYTES - 1):
        tables.append(tuple(tables[0][c & 0xFF] ^ (c >> 8) for c in tables[-1]))
    return tables


(_T0, _T1, _T2, _T3, _T4, _T5, _T6, _T7,
 _T8, _T9, _T10, _T11, _T12, _T13, _T14, _T15) = _slice_tables()  # fmt: skip


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


# Masks are held up to one 64 KiB replica checksum chunk (~36 KB in all);
# above it a mask is as large as the message and is made per round.
_MASKED_BITS = 8 * 64 * 1024


def _rounds() -> tuple[tuple[tuple[int, ...], int, int, int], ...]:
    """``(shifts, s, mask, lift)`` per fold size: the fixed round onto it.

    Bit ``j`` of the carry-less ``head * constant`` is the coefficient of
    ``x^(s + 30 - j)`` and bit ``j`` of the kept message is
    ``x^(K - 1 - j)``, so the product lines up ``K - s - 31`` bits in.
    ``shifts`` are the constant's set bits relative to its lowest one and
    ``lift`` is ``K - 31 - s`` plus that lowest bit.  The head ``s`` is
    ``K_{i+1} - K_i`` (the top level's is its largest, ``K - 31``); its
    ``mask`` is ``2^s - 1``, or 0 above ``_MASKED_BITS``.
    """
    rounds = []
    above_sizes = _SIZES[1:] + (2 * _SIZES[-1] - 31,)
    for (size, constant), above in zip(_FOLD_SIZES, above_sizes):
        low, *rest = (b for b in range(32) if constant >> b & 1)
        s = above - size
        mask = (1 << s) - 1 if above <= _MASKED_BITS else 0
        rounds.append((tuple(b - low for b in rest), s, mask, size - 31 + low - s))
    return tuple(rounds)


_ROUNDS = _rounds()


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
        crc ^= 0xFFFFFFFF
        for byte in data:
            crc = _T0[(crc ^ byte) & 0xFF] ^ (crc >> 8)
        return crc ^ 0xFFFFFFFF
    # The running CRC enters by XOR into the first four message bytes.
    d = int.from_bytes(data, "little") ^ (crc ^ 0xFFFFFFFF)
    bits = n * 8
    # Fold onto the largest size below the message, then size by size.  The
    # first round's head is whatever lies above that size: its mask is made
    # (``mask`` 0) and it lands ``fixed - s`` bits off the fixed round's spot.
    level = bisect_left(_SIZES, bits) - 1
    shifts, fixed, _, lift = _ROUNDS[level]
    s = bits - _SIZES[level]
    lift += fixed - s
    mask = 0
    while True:
        head = product = d & (mask or (1 << s) - 1)
        for b in shifts:
            product ^= head << b
        d = (d >> s) ^ (product << lift)
        if not level:
            break
        level -= 1
        shifts, s, mask, lift = _ROUNDS[level]
    # 16 bytes are left: byte i is followed by 15 - i more.
    t = d.to_bytes(_TABLE_BYTES, "little")
    return (
        _T15[t[0]] ^ _T14[t[1]] ^ _T13[t[2]] ^ _T12[t[3]]
        ^ _T11[t[4]] ^ _T10[t[5]] ^ _T9[t[6]] ^ _T8[t[7]]
        ^ _T7[t[8]] ^ _T6[t[9]] ^ _T5[t[10]] ^ _T4[t[11]]
        ^ _T3[t[12]] ^ _T2[t[13]] ^ _T1[t[14]] ^ _T0[t[15]]
        ^ 0xFFFFFFFF
    )  # fmt: skip
