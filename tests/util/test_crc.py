"""Unit tests for CRC-32C.

``reference`` is the byte-at-a-time table loop that ``repro.util.crc``
used before it folded on big integers; it stays here as the definition
the fast implementation is compared against.  The rule that picks the
fold sizes lives here too (``sparsest_size``): the module commits its
result as a literal and these tests derive it again.
"""

import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.util import crc as crc_module
from repro.util.crc import crc32c

POLY = 0x82F63B78
SIZES = [size for size, _ in crc_module._FOLD_SIZES]


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


def reference_prefixes(data: bytes, crc: int) -> list[int]:
    """``reference(data[:n], crc)`` for every ``n`` from 0 to ``len(data)``,
    in one pass of the byte loop."""
    crc ^= 0xFFFFFFFF
    found = [crc ^ 0xFFFFFFFF]
    for byte in data:
        crc = _REFERENCE_TABLE[(crc ^ byte) & 0xFF] ^ (crc >> 8)
        found.append(crc ^ 0xFFFFFFFF)
    return found


def raw_remainder(data: bytes) -> int:
    """``data * x^32 mod P``: the reference loop without the init and
    final XORs."""
    return reference(data, 0xFFFFFFFF) ^ 0xFFFFFFFF


def x_power_by_reference(n: int) -> int:
    """``x^n mod P`` (``n >= 32``) as the remainder of a one-bit message."""
    length = (n - 32) // 8 + 1
    message = bytearray(length)
    message[0] = 1 << (8 * length - 1 - (n - 32))
    return raw_remainder(bytes(message))


def times_x(r: int) -> int:
    return (r >> 1) ^ POLY if r & 1 else r >> 1


def times(a: int, b: int) -> int:
    product = 0
    for bit in range(31, -1, -1):  # bit 31 is x^0
        if b >> bit & 1:
            product ^= a
        a = times_x(a)
    return product


def x_power(n: int) -> int:
    """``x^n mod P`` by square-and-multiply, for sizes no loop can reach."""
    result, base = 0x80000000, 0x40000000  # x^0, x^1
    while n:
        if n & 1:
            result = times(result, base)
        base = times(base, base)
        n >>= 1
    return result


def sparsest_size(below: int) -> tuple[int, int]:
    """The fold size above ``below``: among the ``min(4096, below // 8)``
    sizes up to ``2 * below - 31`` (the largest a head folded onto
    ``below`` bits still fits from), the one whose constant has the fewest
    set bits — the largest of them on a tie."""
    limit = 2 * below - 31
    first = limit - min(4096, below // 8) + 1
    constant = x_power(first)
    best = (first, constant)
    for size in range(first, limit + 1):
        if constant.bit_count() <= best[1].bit_count():
            best = (size, constant)
        constant = times_x(constant)
    return best


# The fold sizes the byte loop can check directly: up to ~280 KB, sixteen
# of them, so the longest boundary message goes through sixteen rounds.
CHECKED_SIZES = [size for size in SIZES if size <= 8 * 300 * 1024]

# Byte lengths either side of every checked fold size (a length of
# ``K // 8 + 1`` bytes is the shortest that folds onto ``K``), plus 17, the
# shortest message that folds at all.  The ``2^k + 8`` byte lengths +- 1
# land between the sizes (above 17 bytes none is a size boundary), so their
# first round folds a head of in-between length; they are also what the
# power-of-two chunk and block sizes of the DFS plus a short header come to.
FOLD_BOUNDARIES = sorted(
    {17}
    | {size // 8 + delta for size in CHECKED_SIZES for delta in (-1, 0, 1, 2)}
    | {(1 << k) // 8 + 8 + delta for k in range(6, 22) for delta in (-1, 0, 1)}
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


def test_every_fold_constant_is_x_to_its_size():
    for size, constant in crc_module._FOLD_SIZES:
        assert constant == x_power(size), size
        if size in CHECKED_SIZES:
            assert constant == x_power_by_reference(size), size


def test_fold_sizes_follow_the_sparse_constant_rule():
    table = crc_module._FOLD_SIZES
    assert table[0][0] == 128
    for (below, _), entry in zip(table, table[1:]):
        assert entry == sparsest_size(below)
        assert below < entry[0] <= 2 * below - 31
    assert max(c.bit_count() for _, c in table) == 13
    assert max(c.bit_count() for _, c in table[3:]) == 9
    assert 2 * SIZES[-1] - 31 >= 8 << 37  # any message up to 128 GiB folds


def test_matches_reference_at_every_short_length():
    data = random.Random(700).randbytes(700)
    for length in range(701):
        assert crc32c(data[:length]) == reference(data[:length]), length


def test_matches_reference_past_three_megabytes():
    data = random.Random(3).randbytes(3_000_001)
    expected = reference(data)
    assert crc32c(data) == expected
    assert crc32c(data[1_234_567:], crc32c(data[:1_234_567])) == expected


def test_matches_reference_at_every_length_to_4200_from_random_starts():
    # Lengths 0..4200 cover the table-only messages, the first seven ladder
    # sizes and every head length the first round folds onto them.  Each of
    # eight random starting CRCs takes every eighth length.
    rng = random.Random(4200)
    data = rng.randbytes(4200)
    for start in range(8):
        crc = rng.getrandbits(32)
        expected = reference_prefixes(data, crc)
        for length in range(start, 4201, 8):
            assert crc32c(data[:length], crc) == expected[length], (length, crc)


@pytest.mark.parametrize("length", FOLD_BOUNDARIES)
def test_matches_reference_at_every_fold_boundary(length):
    rng = random.Random(length)
    data = rng.randbytes(length)
    assert crc32c(data) == reference(data)
    crc = rng.getrandbits(32)
    assert crc32c(data, crc) == reference(data, crc)


def test_round_table_follows_from_the_fold_sizes():
    # Level i's fixed round folds K_{i+1} bits onto K_i (the top level's
    # head is K - 31 bits, the most it can take): head length s, its mask
    # while K_{i+1} is within a 64 KiB checksum chunk, and where the product
    # of the head and x^K mod P lands.
    chunk_bits = 8 * 64 * 1024
    above = SIZES[1:] + [2 * SIZES[-1] - 31]
    for level, ((size, constant), upper) in enumerate(zip(crc_module._FOLD_SIZES, above)):
        bits = [b for b in range(32) if constant >> b & 1]
        s = upper - size
        expected = (
            tuple(b - bits[0] for b in bits[1:]),
            s,
            (1 << s) - 1 if upper <= chunk_bits else 0,
            size - s - 31 + bits[0],
        )
        assert crc_module._ROUNDS[level] == expected, level
    masked = [level for level, (_, _, mask, _) in enumerate(crc_module._ROUNDS) if mask]
    assert masked == list(range(12))  # a 64 KiB chunk folds through these


def test_slice_tables_are_the_byte_loop_over_trailing_zeros():
    for k in range(16):
        table = getattr(crc_module, f"_T{k}")
        for value in (0, 1, 0x5A, 0x80, 0xFF):
            message = bytes([value]) + bytes(k)
            assert table[value] == reference(message, 0xFFFFFFFF) ^ 0xFFFFFFFF


def test_precomputed_state_stays_small():
    # Masks held for every level took RSS from 89 to 610 MB; capped at the
    # checksum chunk they and the sixteen slice tables are ~200 KB.
    masks = sum(sys.getsizeof(mask) for _, _, mask, _ in crc_module._ROUNDS)
    seen: set[int] = set()
    tables = 0
    for k in range(16):
        table = getattr(crc_module, f"_T{k}")
        tables += sys.getsizeof(table)
        for value in table:
            if id(value) not in seen:
                seen.add(id(value))
                tables += sys.getsizeof(value)
    assert masks + tables <= 256 * 1024, (masks, tables)


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
    # Split at an arbitrary point and continued from the running value,
    # as a slice of a larger buffer and as a copy.
    for buffer in (data, bytearray(data), memoryview(bytearray(data))):
        assert crc32c(buffer[a_len:], crc32c(buffer[:a_len])) == expected
