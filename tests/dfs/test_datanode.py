"""Unit tests for datanode replica storage."""

import pytest

from repro.dfs.datanode import CHECKSUM_CHUNK, DataNode
from repro.dfs.filesystem import DFS
from repro.errors import BlockCorruptionError, DataNodeDownError
from repro.sim.machine import Machine
from repro.util.crc import crc32c


@pytest.fixture
def node():
    return DataNode(Machine("m0"), checksum_replicas=True)


def test_create_append_read(node):
    node.create_replica(1)
    node.append_replica(1, b"hello")
    payload, cost = node.read_replica(1, 0, 5)
    assert payload == b"hello"
    assert cost > 0


def test_read_range(node):
    node.create_replica(1)
    node.append_replica(1, b"abcdefgh")
    payload, _ = node.read_replica(1, 2, 3)
    assert payload == b"cde"


def test_read_past_end_raises(node):
    node.create_replica(1)
    node.append_replica(1, b"abc")
    with pytest.raises(BlockCorruptionError):
        node.read_replica(1, 2, 5)


def test_down_node_rejects_ops(node):
    node.create_replica(1)
    node.fail()
    with pytest.raises(DataNodeDownError):
        node.append_replica(1, b"x")
    with pytest.raises(DataNodeDownError):
        node.read_replica(1, 0, 0)


def test_checksum_verification(node):
    node.create_replica(7)
    node.append_replica(7, b"block data")
    node.append_replica(7, b" more")
    assert node.verify_replica(7)


def test_verify_detects_corruption(node):
    node.create_replica(7)
    node.append_replica(7, b"block data")
    node.corrupt_replica(7, at=0)  # simulate bit rot
    assert not node.verify_replica(7)


def test_verify_missing_block(node):
    assert not node.verify_replica(99)


def test_drop_replica(node):
    node.create_replica(1)
    node.append_replica(1, b"x")
    node.drop_replica(1)
    assert not node.has_block(1)


def test_appends_charge_disk_time(node):
    node.create_replica(1)
    before = node.machine.clock.now
    node.append_replica(1, b"x" * 10_000)
    assert node.machine.clock.now > before


# -- per-chunk checksums -----------------------------------------------------


def _chunk_crcs(node, block_id):
    """What the stored list must equal: one CRC per chunk of the bytes."""
    replica, _ = node.read_replica(block_id, 0, node.block_length(block_id))
    return [
        crc32c(replica[start : start + CHECKSUM_CHUNK])
        for start in range(0, len(replica), CHECKSUM_CHUNK)
    ]


@pytest.mark.parametrize(
    "sizes",
    [
        (CHECKSUM_CHUNK, 10),  # ends exactly on a chunk boundary
        (CHECKSUM_CHUNK - 1, 1, 1),  # one byte before, then across it
        (CHECKSUM_CHUNK + 1, 10),  # one byte after
        (100, 2 * CHECKSUM_CHUNK + 50, 7),  # one payload spanning three chunks
        (10, 0, 20),  # an empty append leaves the tail chunk as it was
    ],
)
def test_appends_around_chunk_boundaries_verify(node, sizes):
    node.create_replica(1)
    for i, size in enumerate(sizes):
        node.append_replica(1, bytes([i + 1]) * size)
        assert node._checksums[1] == _chunk_crcs(node, 1)
        assert node.verify_replica(1)


def test_shipped_checksums_equal_self_computed(node):
    follower = DataNode(Machine("m1"), checksum_replicas=True)
    node.create_replica(1)
    follower.create_replica(1)
    for size in (100, 2 * CHECKSUM_CHUNK + 50, CHECKSUM_CHUNK - 150, 1):
        payload = b"p" * size
        shipped = node.checksums_for_append(1, payload)
        node.append_replica(1, payload)  # computes its own
        follower.append_replica(1, payload, shipped)
    assert follower._checksums[1] == node._checksums[1] == _chunk_crcs(node, 1)
    assert follower.verify_replica(1)


def test_replica_of_another_length_ignores_shipped_checksums(node):
    # A sender whose offset disagrees with this replica's length cannot
    # know this replica's tail chunk: the datanode computes its own.
    node.create_replica(1)
    node.append_replica(1, b"short")
    node.append_replica(1, b"x" * 100, shipped=(4096, [0xDEADBEEF]))
    assert node._checksums[1] == _chunk_crcs(node, 1)
    assert node.verify_replica(1)


def test_range_verification_finds_damage_only_in_the_chunks_it_touches(node):
    node.create_replica(1)
    node.append_replica(1, b"d" * (4 * CHECKSUM_CHUNK + 10))
    k = 2
    node.corrupt_replica(1, at=k * CHECKSUM_CHUNK + 1)
    assert not node.verify_replica(1)  # whole replica
    assert not node.verify_replica(1, k * CHECKSUM_CHUNK, 16)
    assert not node.verify_replica(1, k * CHECKSUM_CHUNK - 8, 16)  # straddles in
    assert not node.verify_replica(1, (k + 1) * CHECKSUM_CHUNK - 1, 2)
    # By design (and HDFS's): a read that stays inside other chunks does
    # not pay for, and so does not see, damage outside its range.
    assert node.verify_replica(1, 0, k * CHECKSUM_CHUNK)
    assert node.verify_replica(1, (k + 1) * CHECKSUM_CHUNK, CHECKSUM_CHUNK + 10)


def test_appending_to_a_damaged_tail_chunk_keeps_it_detectable(node):
    node.create_replica(1)
    node.append_replica(1, b"a" * 100)
    node.corrupt_replica(1, at=3)
    node.append_replica(1, b"b" * 100)
    assert not node.verify_replica(1, 150, 10)


def test_unchecksummed_datanode_verifies_anything():
    plain = DataNode(Machine("m0"))
    plain.create_replica(1)
    assert plain.checksums_for_append(1, b"abc") is None
    plain.append_replica(1, b"abc")
    plain.corrupt_replica(1)
    assert plain.verify_replica(1)


# -- the same, through the DFS pipeline; work counted in bytes, not time -------


@pytest.fixture
def checked_dfs():
    machines = [Machine(f"node-{i}", rack=f"rack-{i % 2}") for i in range(4)]
    return DFS(
        machines,
        replication=3,
        block_size=1 << 20,
        checksum_replicas=True,
        verify_reads=True,
    )


@pytest.fixture
def replica_crc_bytes(monkeypatch):
    """Bytes handed to ``crc32c`` by the datanode module (every replica
    checksum, computed or verified, goes through that name)."""
    seen = []

    def counting(data, crc=0):
        seen.append(len(data))
        return crc32c(data, crc)

    monkeypatch.setattr("repro.dfs.datanode.crc32c", counting)
    return seen


def test_three_replica_append_checksums_the_payload_once(
    checked_dfs, replica_crc_bytes
):
    writer = checked_dfs.create("/f", checked_dfs.datanode("node-0").machine)
    payload = b"w" * (CHECKSUM_CHUNK + 5000)
    writer.append(b"head")
    del replica_crc_bytes[:]
    writer.append(payload)
    assert sum(replica_crc_bytes) == len(payload)
    block = checked_dfs.namenode.get_file("/f").blocks[0]
    assert len(block.locations) == 3
    lists = [
        checked_dfs.datanode(name)._checksums[block.block_id]
        for name in block.locations
    ]
    assert lists[0] == lists[1] == lists[2]
    primary = checked_dfs.datanode(block.locations[0])
    assert lists[0] == _chunk_crcs(primary, block.block_id)


def test_verified_read_checksums_only_the_chunks_it_reads(
    checked_dfs, replica_crc_bytes
):
    machine = checked_dfs.datanode("node-0").machine
    checked_dfs.create("/f", machine).append(b"r" * (1 << 20))
    del replica_crc_bytes[:]
    reader = checked_dfs.open("/f", machine)
    assert reader.read((1 << 20) - 1024, 1024) == b"r" * 1024
    assert 0 < sum(replica_crc_bytes) <= CHECKSUM_CHUNK


def test_rereplicated_copy_verifies(checked_dfs):
    machine = checked_dfs.datanode("node-0").machine
    checked_dfs.create("/f", machine).append(b"c" * (2 * CHECKSUM_CHUNK + 9))
    block = checked_dfs.namenode.get_file("/f").blocks[0]
    spare = next(n for n in checked_dfs.datanodes if n not in block.locations)
    checked_dfs.datanode(block.locations[1]).fail()
    assert checked_dfs.rereplicate() == 1
    assert spare in block.locations
    copy = checked_dfs.datanode(spare)
    assert copy.verify_replica(block.block_id)
    assert copy._checksums[block.block_id] == _chunk_crcs(copy, block.block_id)
