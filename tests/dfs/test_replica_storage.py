"""A payload is stored once: the replicas of a block share the appended
object, reads hand it back uncopied, and damage injected into one replica
stays in that replica."""

import tracemalloc

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dfs.datanode import CHECKSUM_CHUNK, DataNode
from repro.dfs.filesystem import DFS
from repro.sim.machine import Machine
from repro.sim.metrics import DFS_CORRUPT_REPLICAS, DFS_READ_FAILOVERS
from repro.util.crc import crc32c


def _machines(n=4):
    return [Machine(f"node-{i}", rack=f"rack-{i % 2}") for i in range(n)]


def _checked_dfs(machines, block_size=1 << 20):
    return DFS(
        machines,
        replication=3,
        block_size=block_size,
        checksum_replicas=True,
    )


def _replicas(dfs, path, block_no=0):
    block = dfs.namenode.get_file(path).blocks[block_no]
    return block, [dfs.datanode(name) for name in block.locations]


def test_three_replicas_and_a_record_read_return_the_appended_object():
    machines = _machines()
    dfs = _checked_dfs(machines)
    writer = dfs.create("/f", machines[0])
    writer.append(b"head" * 10)
    record = b"r" * 1024
    offset = writer.append(record)
    writer.append(b"tail" * 10)
    block, replicas = _replicas(dfs, "/f")
    assert len(replicas) == 3
    for node in replicas:
        assert node.read_replica(block.block_id, offset, len(record))[0] is record
    assert dfs.open("/f", machines[0]).read(offset, len(record)) is record


def test_reads_inside_and_across_pieces():
    node = DataNode(Machine("m0"))
    node.create_replica(1)
    for piece in (b"abc", b"defgh", b"", b"i", b"jklm"):
        node.append_replica(1, piece)
    whole = b"abcdefghijklm"
    assert node.block_length(1) == len(whole)
    for offset in range(len(whole) + 1):
        for length in range(len(whole) - offset + 1):
            assert node.read_replica(1, offset, length)[0] == whole[offset:][:length]


def test_a_mutable_payload_is_copied_once_at_the_dfs_boundary():
    machines = _machines()
    dfs = _checked_dfs(machines)
    writer = dfs.create("/f", machines[0])
    buffer = bytearray(b"original bytes")
    writer.append(buffer)
    writer.append(memoryview(buffer)[:8])
    buffer[:] = b"X" * len(buffer)
    expected = b"original bytes" + b"original"
    block, replicas = _replicas(dfs, "/f")
    for node in replicas:
        assert node.read_replica(block.block_id, 0, len(expected))[0] == expected
        assert node.verify_replica(block.block_id)
    assert dfs.open("/f", machines[0]).read_all() == expected


def test_a_payload_that_overflows_the_block_is_still_split():
    machines = _machines()
    dfs = _checked_dfs(machines, block_size=100)
    writer = dfs.create("/f", machines[0])
    writer.append(b"a" * 60)
    payload = bytes(range(250))
    assert writer.append(payload) == 60
    assert [b.length for b in dfs.namenode.get_file("/f").blocks] == [100, 100, 100, 10]
    assert dfs.open("/f", machines[0]).read(60, 250) == payload


def test_corruption_stays_in_the_replica_it_was_injected_into():
    machines = _machines()
    dfs = _checked_dfs(machines, block_size=1 << 22)
    payload = bytes(range(256)) * (CHECKSUM_CHUNK // 64)  # 4 chunks, one piece
    writer = dfs.create("/f", machines[0])
    writer.append(payload)
    writer.append(b"z" * 10)
    block, (damaged, *others) = _replicas(dfs, "/f")
    assert damaged.machine is machines[0]  # the reader's local replica
    k = 2
    damaged.corrupt_replica(block.block_id, at=k * CHECKSUM_CHUNK + 1)
    whole = payload + b"z" * 10
    for node in others:
        assert node.read_replica(block.block_id, 0, len(whole))[0] == whole
        assert node.verify_replica(block.block_id)
    bad, _ = damaged.read_replica(block.block_id, 0, len(whole))
    assert [i for i in range(len(whole)) if bad[i] != whole[i]] == [
        k * CHECKSUM_CHUNK + 1
    ]
    # Both ways: ranges touching the damaged chunk fail, others pass.
    assert not damaged.verify_replica(block.block_id)
    assert not damaged.verify_replica(block.block_id, k * CHECKSUM_CHUNK - 8, 16)
    assert not damaged.verify_replica(block.block_id, (k + 1) * CHECKSUM_CHUNK - 1, 2)
    assert damaged.verify_replica(block.block_id, 0, k * CHECKSUM_CHUNK)
    assert damaged.verify_replica(
        block.block_id, (k + 1) * CHECKSUM_CHUNK, CHECKSUM_CHUNK + 10
    )
    # A verified read of the damaged range fails over and drops the replica.
    reader = dfs.open("/f", machines[0])
    assert reader.read(k * CHECKSUM_CHUNK, 64, verified=True) == whole[k * CHECKSUM_CHUNK :][:64]
    assert damaged.name not in block.locations
    assert machines[0].counters.get(DFS_READ_FAILOVERS) == 1
    assert machines[0].counters.get(DFS_CORRUPT_REPLICAS) == 1


@settings(max_examples=25, deadline=None)
@given(
    sizes=st.lists(
        st.one_of(
            st.integers(1, 2048),
            st.integers(CHECKSUM_CHUNK - 2, CHECKSUM_CHUNK + 2),
            st.integers(1, 200 * 1024),
        ),
        min_size=1,
        max_size=8,
    ),
    data=st.data(),
)
def test_random_appends_then_random_reads_equal_the_concatenation(sizes, data):
    machines = _machines(3)
    block_size = 3 * CHECKSUM_CHUNK + 1000  # appends cross block boundaries too
    dfs = _checked_dfs(machines, block_size=block_size)
    writer = dfs.create("/f", machines[0])
    reference = b""
    for i, size in enumerate(sizes):
        payload = bytes([i + 1]) * size
        assert writer.append(payload) == len(reference)
        reference += payload
    reader = dfs.open("/f", machines[0])
    for _ in range(8):
        offset = data.draw(st.integers(0, len(reference) - 1))
        length = data.draw(st.integers(0, len(reference) - offset))
        assert reader.read(offset, length) == reference[offset : offset + length]
    for block_no, block in enumerate(dfs.namenode.get_file("/f").blocks):
        content = reference[block_no * block_size :][:block_size]
        for name in block.locations:
            node = dfs.datanode(name)
            assert node.read_replica(block.block_id, 0, block.length)[0] == content
            assert node.checksums_for_copy(block.block_id)[1] == [
                crc32c(content[start : start + CHECKSUM_CHUNK])
                for start in range(0, len(content), CHECKSUM_CHUNK)
            ]
            assert node.verify_replica(block.block_id)


def test_three_replica_append_keeps_less_than_one_and_a_half_payloads():
    machines = _machines()
    dfs = DFS(machines, replication=3, block_size=1 << 26)
    writer = dfs.create("/f", machines[0])
    total = 2 << 20
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        for i in range(total // 1024):
            writer.append(i.to_bytes(4, "big") * 256)
        after, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert dfs.file_length("/f") == total
    assert after - before < 1.5 * total
