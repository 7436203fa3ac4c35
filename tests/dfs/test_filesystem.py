"""Unit tests for the DFS facade: files, appends, reads, blocks."""

import pytest

from repro.dfs.filesystem import DFS
from repro.errors import FileAlreadyExists, FileClosedError, FileNotFoundInDFS
from repro.sim.machine import Machine


@pytest.fixture
def machines():
    return [Machine(f"node-{i}", rack=f"rack-{i % 2}") for i in range(3)]


@pytest.fixture
def dfs(machines):
    return DFS(machines, replication=3, block_size=100)


def test_create_write_read(dfs, machines):
    writer = dfs.create("/f", machines[0])
    offset = writer.append(b"hello world")
    assert offset == 0
    reader = dfs.open("/f", machines[0])
    assert reader.read(0, 11) == b"hello world"
    assert reader.read(6, 5) == b"world"


def test_append_returns_running_offset(dfs, machines):
    writer = dfs.create("/f", machines[0])
    assert writer.append(b"aaa") == 0
    assert writer.append(b"bbbb") == 3
    assert writer.length == 7


def test_appends_span_blocks(dfs, machines):
    writer = dfs.create("/f", machines[0])
    writer.append(b"x" * 250)  # block size 100 -> 3 blocks
    meta = dfs.namenode.get_file("/f")
    assert len(meta.blocks) == 3
    reader = dfs.open("/f", machines[1])
    assert reader.read_all() == b"x" * 250


def test_read_across_block_boundary(dfs, machines):
    writer = dfs.create("/f", machines[0])
    writer.append(bytes(range(200)) + bytes(range(50)))
    reader = dfs.open("/f", machines[0])
    assert reader.read(95, 10) == bytes(range(95, 105))


def test_every_replica_holds_data(dfs, machines):
    writer = dfs.create("/f", machines[0])
    writer.append(b"replicated")
    block = dfs.namenode.get_file("/f").blocks[0]
    assert len(block.locations) == 3
    for location in block.locations:
        node = dfs.datanode(location)
        assert node.has_block(block.block_id)
        assert node.block_length(block.block_id) == 10


def test_closed_writer_rejects_appends(dfs, machines):
    writer = dfs.create("/f", machines[0])
    writer.close()
    with pytest.raises(FileClosedError):
        writer.append(b"late")


def test_reopen_for_append(dfs, machines):
    writer = dfs.create("/f", machines[0])
    writer.append(b"first")
    writer.close()
    writer2 = dfs.open_for_append("/f", machines[1])
    writer2.append(b"second")
    assert dfs.open("/f", machines[0]).read_all() == b"firstsecond"


def test_duplicate_create_rejected(dfs, machines):
    dfs.create("/f", machines[0])
    with pytest.raises(FileAlreadyExists):
        dfs.create("/f", machines[1])


def test_read_past_eof_raises(dfs, machines):
    writer = dfs.create("/f", machines[0])
    writer.append(b"short")
    with pytest.raises(FileNotFoundInDFS):
        dfs.open("/f", machines[0]).read(3, 10)


def test_delete_drops_replicas(dfs, machines):
    writer = dfs.create("/f", machines[0])
    writer.append(b"data")
    block = dfs.namenode.get_file("/f").blocks[0]
    dfs.delete("/f")
    assert not dfs.exists("/f")
    for location in block.locations:
        assert not dfs.datanode(location).has_block(block.block_id)


def test_rename(dfs, machines):
    writer = dfs.create("/a", machines[0])
    writer.append(b"x")
    dfs.rename("/a", "/b")
    assert dfs.open("/b", machines[0]).read_all() == b"x"


def test_write_charges_writer_and_replicas(dfs, machines):
    writer_machine = machines[0]
    dfs.create("/f", writer_machine).append(b"y" * 50)
    assert writer_machine.clock.now > 0
    block = dfs.namenode.get_file("/f").blocks[0]
    for location in block.locations[1:]:
        assert dfs.datanode(location).machine.clock.now > 0


def test_replication_capped_by_cluster_size():
    machines = [Machine(f"n{i}") for i in range(2)]
    dfs = DFS(machines, replication=3)
    assert dfs.namenode.replication == 2


def test_a_reader_opened_before_an_append_reads_it_without_refresh(dfs, machines):
    writer = dfs.create("/f", machines[0])
    writer.append(b"x" * 60)
    reader = dfs.open("/f", machines[1])
    writer.append(b"y" * 90)  # crosses into a second block
    assert reader.length == 150
    assert reader.read(0, 150) == b"x" * 60 + b"y" * 90


def test_append_to_a_file_deleted_under_its_writer_raises(dfs, machines):
    writer = dfs.create("/f", machines[0])
    writer.append(b"a")
    dfs.delete("/f")
    with pytest.raises(FileNotFoundInDFS):
        writer.append(b"b")
