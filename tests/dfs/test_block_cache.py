"""Unit tests for the per-machine DFS block cache."""

import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dfs.block_cache import BlockCache
from repro.dfs.filesystem import DFS
from repro.sim.machine import Machine
from repro.sim.metrics import (
    BLOCK_CACHE_EVICTIONS,
    BLOCK_CACHE_HITS,
    BLOCK_CACHE_MISSES,
    DFS_CORRUPT_REPLICAS,
)


@pytest.fixture
def cached_dfs(machines):
    """A 3-node DFS with small blocks and a per-machine block cache."""
    return DFS(
        machines,
        replication=3,
        block_size=1 << 20,
        block_cache_bytes=1 << 20,
        block_cache_chunk=1024,
    )


def first_block_id(dfs: DFS, path: str) -> int:
    return dfs.namenode.get_file(path).blocks[0].block_id


def write_file(dfs: DFS, machine: Machine, path: str, data: bytes) -> None:
    writer = dfs.create(path, machine)
    writer.append(data)
    writer.close()


# -- BlockCache in isolation ------------------------------------------------------


def test_hit_miss_eviction_counters():
    cache = BlockCache(capacity_bytes=2048, chunk_size=1024)
    assert cache.get(1, 0) is None
    assert cache.misses == 1 and cache.hits == 0
    cache.put(1, 0, b"a" * 1024)
    assert cache.get(1, 0) == b"a" * 1024
    assert cache.hits == 1
    assert cache.counters.get(BLOCK_CACHE_HITS) == 1
    assert cache.counters.get(BLOCK_CACHE_MISSES) == 1


def test_byte_capacity_eviction():
    cache = BlockCache(capacity_bytes=2048, chunk_size=1024)
    for chunk_no in range(3):
        cache.put(1, chunk_no, b"x" * 1024)
    assert cache.bytes_used <= 2048
    assert cache.evictions == 1
    assert cache.counters.get(BLOCK_CACHE_EVICTIONS) == 1
    # LRU: chunk 0 went first.
    assert not cache.contains(1, 0)
    assert cache.contains(1, 2)


def test_invalidate_tail_drops_only_partial_chunk():
    cache = BlockCache(capacity_bytes=1 << 20, chunk_size=1024)
    cache.put(7, 0, b"a" * 1024)  # full, immutable
    cache.put(7, 1, b"b" * 500)  # partial tail
    cache.invalidate_tail(7, block_length=1524)
    assert cache.contains(7, 0)
    assert not cache.contains(7, 1)


def test_invalidate_block_drops_every_chunk():
    cache = BlockCache(capacity_bytes=1 << 20, chunk_size=1024)
    cache.put(7, 0, b"a" * 1024)
    cache.put(7, 1, b"b" * 1024)
    cache.put(8, 0, b"c" * 1024)
    cache.invalidate_block(7)
    assert cache.cached_chunks(7) == []
    assert cache.cached_chunks(8) == [0]


# -- DFS integration ---------------------------------------------------------------


def test_block_cache_for_disabled_returns_none(dfs, machines):
    assert dfs.block_cache_for(machines[0]) is None


def test_block_cache_for_is_per_machine(cached_dfs, machines):
    a = cached_dfs.block_cache_for(machines[0])
    b = cached_dfs.block_cache_for(machines[1])
    assert a is not None and b is not None and a is not b
    assert cached_dfs.block_cache_for(machines[0]) is a


def test_repeat_read_hits_cache_and_is_cheaper(cached_dfs, machines):
    machine = machines[0]
    write_file(cached_dfs, machine, "/f", b"p" * 5000)
    reader = cached_dfs.open("/f", machine)

    before = machine.clock.now
    assert reader.read(0, 5000) == b"p" * 5000
    cold_cost = machine.clock.now - before

    before = machine.clock.now
    assert reader.read(0, 5000) == b"p" * 5000
    warm_cost = machine.clock.now - before

    # A warm read pays one local-latency hop, no disk access at all.
    assert warm_cost < cold_cost
    assert warm_cost == pytest.approx(machine.network.local_latency)
    assert machine.counters.get(BLOCK_CACHE_HITS) > 0


def test_append_invalidates_cached_tail_chunk(cached_dfs, machines):
    machine = machines[0]
    writer = cached_dfs.create("/g", machine)
    writer.append(b"a" * 1500)  # chunk 0 full, chunk 1 partial
    reader = cached_dfs.open("/g", machine)
    reader.read(0, 1500)  # warm chunks 0 and 1
    cache = cached_dfs.block_cache_for(machine)
    block_id = first_block_id(cached_dfs, "/g")
    assert cache.cached_chunks(block_id) == [0, 1]

    writer.append(b"b" * 300)
    # Only the stale partial tail chunk is dropped; chunk 0 stays warm.
    assert cache.cached_chunks(block_id) == [0]
    reader.refresh()
    assert reader.read(0, 1800) == b"a" * 1500 + b"b" * 300
    writer.close()


def test_delete_invalidates_whole_block(cached_dfs, machines):
    machine = machines[0]
    write_file(cached_dfs, machine, "/h", b"z" * 3000)
    block_id = first_block_id(cached_dfs, "/h")
    cached_dfs.open("/h", machine).read(0, 3000)
    cache = cached_dfs.block_cache_for(machine)
    assert cache.cached_chunks(block_id)
    cached_dfs.delete("/h")
    assert cache.cached_chunks(block_id) == []


def test_drop_block_caches_empties_every_machine(cached_dfs, machines):
    write_file(cached_dfs, machines[0], "/i", b"q" * 2000)
    for machine in machines[:2]:
        cached_dfs.open("/i", machine).read(0, 2000)
        assert len(cached_dfs.block_cache_for(machine)) > 0
    cached_dfs.drop_block_caches()
    for machine in machines[:2]:
        assert len(cached_dfs.block_cache_for(machine)) == 0


def test_cached_reads_return_same_bytes_as_uncached(machines, dfs, cached_dfs):
    payload = bytes(range(256)) * 40  # 10240 bytes, not chunk-aligned
    for fs in (dfs, cached_dfs):
        write_file(fs, machines[0], "/same", payload)
    plain = dfs.open("/same", machines[0])
    cached = cached_dfs.open("/same", machines[0])
    for offset, length in [(0, 10240), (1000, 24), (1023, 2), (10239, 1), (0, 1)]:
        assert cached.read(offset, length) == plain.read(offset, length)
        # Twice: the second time is served from cache.
        assert cached.read(offset, length) == plain.read(offset, length)


# -- a cached chunk is a window over the stored pieces, not a copy -----------------


def _checked_cached_dfs(machines, chunk=1024):
    return DFS(
        machines,
        replication=3,
        block_size=1 << 20,
        checksum_replicas=True,
        block_cache_bytes=1 << 22,
        block_cache_chunk=chunk,
    )


def _appended(dfs, machine, path, pieces):
    writer = dfs.create(path, machine)
    for piece in pieces:
        writer.append(piece)
    writer.close()
    return b"".join(pieces)


def test_an_end_to_end_cached_read_keeps_no_second_copy_of_the_file(machines):
    # 1,024 puts of 1 KiB: 16 default-sized chunks, each over 64 pieces.
    dfs = _checked_cached_dfs(machines, chunk=64 * 1024)
    pieces = [i.to_bytes(4, "big") * 256 for i in range(1024)]
    total = len(_appended(dfs, machines[0], "/log", pieces))
    reader = dfs.open("/log", machines[0])
    cache = dfs.block_cache_for(machines[0])
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        assert len(reader.read(0, total)) == total
        after, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(cache) == 16 and cache.bytes_used == total
    assert after - before < 0.1 * total


@settings(max_examples=60, deadline=None)
@given(
    sizes=st.lists(st.integers(1, 700), min_size=1, max_size=25),
    reads=st.lists(st.tuples(st.integers(0, 1 << 20), st.integers(0, 1 << 20)), max_size=8),
    reader_no=st.integers(0, 2),
)
def test_cached_reads_equal_the_appended_bytes(sizes, reads, reader_no):
    # Blocks of 1,500 bytes over 256-byte chunks: pieces straddle both.
    machines = [Machine(f"node-{i}", rack=f"rack-{i % 2}") for i in range(3)]
    dfs = DFS(
        machines, replication=2, block_size=1500,
        block_cache_bytes=1 << 20, block_cache_chunk=256,
    )
    pieces = [bytes((i * 31 + k) % 251 for k in range(n)) for i, n in enumerate(sizes)]
    whole = _appended(dfs, machines[0], "/p", pieces)
    reader = dfs.open("/p", machines[reader_no])
    cache = dfs.block_cache_for(machines[reader_no])
    for a, b in [(0, len(whole)), *reads]:
        offset = a % len(whole)
        length = 1 + b % (len(whole) - offset)
        assert reader.read(offset, length) == whole[offset : offset + length]
        misses = cache.misses
        assert reader.read(offset, length) == whole[offset : offset + length]
        assert cache.misses == misses


def test_a_chunk_cached_before_corruption_is_served_as_it_was(machines):
    dfs = _checked_cached_dfs(machines)
    payload = _appended(dfs, machines[0], "/c", [bytes(range(256)) * 2] * 4)
    reader = dfs.open("/c", machines[0])
    assert reader.read(0, len(payload)) == payload  # filled from the local replica
    block_id = first_block_id(dfs, "/c")
    node = dfs.datanode(machines[0].name)
    node.corrupt_replica(block_id, at=10)
    assert node.read_replica(block_id, 0, len(payload))[0] != payload
    cache = dfs.block_cache_for(machines[0])
    misses = cache.misses
    assert reader.read(0, len(payload)) == payload
    assert reader.read(5, 20) == payload[5:25]
    assert cache.misses == misses


def test_a_fill_keeps_the_bytes_of_the_replica_that_served_it(machines):
    dfs = _checked_cached_dfs(machines)
    payload = _appended(dfs, machines[0], "/s", [bytes(range(256)) * 2] * 4)
    block_id = first_block_id(dfs, "/s")
    for machine in machines[1:]:  # every replica but the local one
        dfs.datanode(machine.name).corrupt_replica(block_id, at=10)
    reader = dfs.open("/s", machines[0])
    assert reader.read(0, len(payload)) == payload
    assert reader.read(0, len(payload)) == payload


def test_a_verified_read_refills_a_plain_chunk_from_a_clean_replica(machines):
    dfs = _checked_cached_dfs(machines)
    payload = _appended(dfs, machines[0], "/v", [bytes(range(256)) * 2] * 4)
    reader = dfs.open("/v", machines[0])
    assert reader.read(0, len(payload)) == payload
    block_id = first_block_id(dfs, "/v")
    dfs.datanode(machines[0].name).corrupt_replica(block_id, at=10)
    cache = dfs.block_cache_for(machines[0])
    misses = cache.misses
    assert reader.read(0, len(payload), verified=True) == payload
    assert cache.misses == misses + 2  # both plain-filled chunks dropped and refilled
    assert machines[0].counters.get(DFS_CORRUPT_REPLICAS) == 1
    block = dfs.namenode.get_file("/v").blocks[0]
    assert machines[0].name not in block.locations
    assert all(dfs.datanode(name).verify_replica(block_id) for name in block.locations)
    assert reader.read(0, len(payload), verified=True) == payload
    assert cache.misses == misses + 2


def test_delete_releases_the_files_chunks(cached_dfs, machines):
    write_file(cached_dfs, machines[0], "/keep", b"k" * 3000)
    write_file(cached_dfs, machines[0], "/gone", b"g" * 2500)
    for path in ("/keep", "/gone"):
        cached_dfs.open(path, machines[0]).read_all()
    cache = cached_dfs.block_cache_for(machines[0])
    used = cache.bytes_used
    cached_dfs.delete("/gone")
    assert cache.bytes_used == used - 2500
    assert len(cache) == 3


def test_a_cache_indexes_only_the_blocks_it_holds(cached_dfs, machines):
    write_file(cached_dfs, machines[0], "/x", b"x" * 3000)
    cached_dfs.open("/x", machines[0]).read_all()
    block_id = first_block_id(cached_dfs, "/x")
    assert cached_dfs.block_cache_for(machines[0]).blocks == {block_id: {0, 1, 2}}
    assert cached_dfs.block_cache_for(machines[1]).blocks == {}


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(st.sampled_from("ptb"), st.integers(1, 3), st.integers(0, 5),
                  st.integers(1, 2048)),
        max_size=40,
    )
)
def test_the_block_index_covers_the_cached_chunks(ops):
    cache = BlockCache(capacity_bytes=4096, chunk_size=1024)
    for op, block_id, chunk_no, size in ops:
        if op == "p":
            cache.put(block_id, chunk_no, b"d" * size)
        elif op == "t":
            cache.invalidate_tail(block_id, chunk_no * 1024 + size % 1024)
        else:
            cache.invalidate_block(block_id)
        for bid in (1, 2, 3):
            held = [c for c in range(6) if cache.contains(bid, c)]
            assert cache.cached_chunks(bid) == held
            assert set(held) <= cache.blocks.get(bid, set())
