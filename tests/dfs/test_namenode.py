"""Unit tests for the namenode: namespace and rack-aware placement."""

import pytest

from repro.dfs.filesystem import DFS
from repro.dfs.namenode import NameNode
from repro.errors import FileAlreadyExists, FileNotFoundInDFS, ReplicationError
from repro.sim.machine import Machine


@pytest.fixture
def namenode():
    nn = NameNode(replication=3)
    for i in range(6):
        nn.register_datanode(f"node-{i}", f"rack-{i % 2}")
    return nn


ALIVE = {f"node-{i}" for i in range(6)}


def test_create_and_get(namenode):
    meta = namenode.create_file("/a/b")
    assert meta.path == "/a/b"
    assert namenode.get_file("/a/b") is meta


def test_duplicate_create_rejected(namenode):
    namenode.create_file("/a")
    with pytest.raises(FileAlreadyExists):
        namenode.create_file("/a")


def test_missing_file(namenode):
    with pytest.raises(FileNotFoundInDFS):
        namenode.get_file("/missing")


def test_delete_removes(namenode):
    namenode.create_file("/x")
    namenode.delete_file("/x")
    assert not namenode.exists("/x")


def test_rename(namenode):
    namenode.create_file("/old")
    namenode.rename("/old", "/new")
    assert namenode.exists("/new")
    assert not namenode.exists("/old")


def test_rename_to_existing_rejected(namenode):
    namenode.create_file("/a")
    namenode.create_file("/b")
    with pytest.raises(FileAlreadyExists):
        namenode.rename("/a", "/b")


def test_list_files_prefix(namenode):
    for path in ("/logs/1", "/logs/2", "/data/1"):
        namenode.create_file(path)
    assert namenode.list_files("/logs/") == ["/logs/1", "/logs/2"]


def test_first_replica_local(namenode):
    namenode.create_file("/f")
    block = namenode.allocate_block("/f", "node-3", ALIVE)
    assert block.locations[0] == "node-3"
    assert len(block.locations) == 3
    assert len(set(block.locations)) == 3


def test_second_replica_on_other_rack(namenode):
    namenode.create_file("/f")
    block = namenode.allocate_block("/f", "node-0", ALIVE)
    racks = ["rack-0" if int(n[-1]) % 2 == 0 else "rack-1" for n in block.locations]
    assert racks[0] != racks[1]
    # third replica shares the second replica's rack (HDFS policy)
    assert racks[1] == racks[2]


def test_dead_writer_falls_back(namenode):
    namenode.create_file("/f")
    alive = ALIVE - {"node-0"}
    block = namenode.allocate_block("/f", "node-0", alive)
    assert "node-0" not in block.locations


def test_replication_error_when_too_few_nodes(namenode):
    namenode.create_file("/f")
    with pytest.raises(ReplicationError):
        namenode.allocate_block("/f", "node-0", {"node-0", "node-1"})


def test_file_length_sums_blocks():
    # The length is kept by the append that grows the blocks, so the file
    # is written through the DFS rather than by setting block lengths.
    machines = [Machine(f"node-{i}", rack=f"rack-{i % 2}") for i in range(6)]
    dfs = DFS(machines, replication=3, block_size=100)
    dfs.create("/f", machines[0]).append(b"x" * 150)
    meta = dfs.namenode.get_file("/f")
    assert [block.length for block in meta.blocks] == [100, 50]
    assert meta.length == 150
