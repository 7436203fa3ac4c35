"""Read-path failover: corrupt or dead replicas are pruned and the read
retries on the next candidate instead of returning bad bytes."""

import pytest

from repro.dfs.filesystem import DFS
from repro.errors import DataNodeDownError, FileNotFoundInDFS, ReplicaCorruptError
from repro.sim.failure import FailureInjector
from repro.sim.machine import Machine
from repro.sim.metrics import (
    DFS_CORRUPT_REPLICAS,
    DFS_READ_FAILOVERS,
    DFS_UNDER_REPLICATED,
)
from repro.sim.network import NetworkModel


@pytest.fixture
def network():
    return NetworkModel()


@pytest.fixture
def machines(network):
    return [
        Machine(f"node-{i}", rack=f"rack-{i % 2}", network=network)
        for i in range(4)
    ]


@pytest.fixture
def dfs(machines):
    return DFS(
        machines,
        replication=3,
        block_size=1 << 16,
        checksum_replicas=True,
    )


PAYLOAD = b"verified-bytes"


def _block(dfs, path):
    return dfs.namenode.get_file(path).blocks[0]


def test_corrupt_replica_fails_over_and_is_pruned(dfs, machines):
    dfs.create("/f", machines[0]).append(PAYLOAD)
    block = _block(dfs, "/f")
    first = block.locations[0]
    dfs.datanode(first).corrupt_replica(block.block_id)
    reader = dfs.open("/f", machines[0])
    assert reader.read_all(verified=True) == PAYLOAD  # served by a clean replica
    assert first not in block.locations
    assert block.block_id in dfs.namenode.under_replicated
    counters = machines[0].counters
    assert counters.get(DFS_READ_FAILOVERS) == 1
    assert counters.get(DFS_CORRUPT_REPLICAS) == 1
    assert counters.get(DFS_UNDER_REPLICATED) == 1


def test_all_replicas_corrupt_raises(dfs, machines):
    dfs.create("/f", machines[0]).append(PAYLOAD)
    block = _block(dfs, "/f")
    for name in block.locations:
        dfs.datanode(name).corrupt_replica(block.block_id)
    with pytest.raises(ReplicaCorruptError):
        dfs.open("/f", machines[0]).read_all(verified=True)


def test_corruption_not_detected_without_verify(machines):
    # The seed read path: checksums may exist but reads do not verify, so
    # a corrupt local replica is served as-is.
    dfs = DFS(machines, replication=3, block_size=1 << 16, checksum_replicas=True)
    dfs.create("/f", machines[0]).append(PAYLOAD)
    block = _block(dfs, "/f")
    dfs.datanode(block.locations[0]).corrupt_replica(block.block_id)
    reader = dfs.open("/f", dfs.datanode(block.locations[0]).machine)
    assert reader.read_all() != PAYLOAD
    assert block.locations  # nothing pruned


def test_dead_replica_skipped_without_failover_penalty(dfs, machines):
    # A replica known dead never enters the candidate list, so the read
    # serves from a survivor without a failover event (liveness is the
    # heartbeat's job, not the read path's).
    dfs.create("/f", machines[0]).append(PAYLOAD)
    block = _block(dfs, "/f")
    first = block.locations[0]
    dfs.datanode(first).fail()
    reader_machine = next(
        m for m in machines if m.alive and m.name != first
    )
    assert dfs.open("/f", reader_machine).read_all() == PAYLOAD
    assert reader_machine.counters.get(DFS_READ_FAILOVERS) == 0


def test_failover_then_heartbeat_restores_replication(dfs, machines):
    dfs.create("/f", machines[0]).append(PAYLOAD)
    block = _block(dfs, "/f")
    dfs.datanode(block.locations[0]).corrupt_replica(block.block_id)
    dfs.open("/f", machines[0]).read_all(verified=True)  # prunes the corrupt copy
    assert dfs.heartbeat() == 1
    live = [n for n in block.locations if dfs.datanodes[n].alive]
    assert len(live) == 3
    # The repaired replica serves clean bytes everywhere.
    for name in block.locations:
        reader = dfs.open("/f", dfs.datanode(name).machine)
        assert reader.read_all() == PAYLOAD
    assert block.block_id not in dfs.namenode.under_replicated


def test_partitioned_replicas_are_skipped(dfs, machines, network):
    dfs.create("/f", machines[0]).append(PAYLOAD)
    block = _block(dfs, "/f")
    reader_name = next(
        m.name for m in machines if m.name not in block.locations
    )
    reader = next(m for m in machines if m.name == reader_name)
    # Cut the reader off from every replica holder: nothing is reachable.
    network.partitions.isolate(reader_name)
    with pytest.raises(DataNodeDownError):
        dfs.open("/f", reader).read_all()
    network.partitions.heal()
    assert dfs.open("/f", reader).read_all() == PAYLOAD


def test_injector_killed_datanode_detected_by_read(dfs, machines):
    # End-to-end with the failure injector used by the chaos harness.
    injector = FailureInjector()
    for machine in machines:
        injector.register(machine.name, machine)
    dfs.create("/f", machines[0]).append(PAYLOAD)
    block = _block(dfs, "/f")
    victim = block.locations[0]
    injector.kill(victim)
    reader = next(m for m in machines if m.alive)
    assert dfs.open("/f", reader).read_all() == PAYLOAD
    injector.revive(victim)
    assert injector.is_alive(victim)
    reader_local = dfs.datanode(victim).machine
    assert dfs.open("/f", reader_local).read_all() == PAYLOAD


def _assert_no_dfs_bookkeeping(dfs, machines):
    for machine in machines:
        for counter in (DFS_READ_FAILOVERS, DFS_CORRUPT_REPLICAS, DFS_UNDER_REPLICATED):
            assert machine.counters.get(counter) == 0
    assert not dfs.namenode.under_replicated


@pytest.mark.parametrize("verified", [True, False])
def test_read_of_a_deleted_file_is_not_a_corrupt_replica(dfs, machines, verified):
    # A long-lived reader (a follower's, over a segment the owner's
    # compaction retired) outlives its file.  Every replica is absent,
    # which is not damage: nothing is pruned, counted or queued.
    dfs.create("/f", machines[0]).append(PAYLOAD)
    block = _block(dfs, "/f")
    locations = list(block.locations)
    reader = dfs.open("/f", machines[1])
    dfs.delete("/f")
    with pytest.raises(FileNotFoundInDFS):
        reader.read_all(verified=verified)
    assert block.locations == locations
    _assert_no_dfs_bookkeeping(dfs, machines)
    assert dfs.heartbeat() == 0


def test_reader_of_a_deleted_file_ignores_its_recreated_path(dfs, machines):
    dfs.create("/f", machines[0]).append(PAYLOAD)
    reader = dfs.open("/f", machines[0])
    dfs.delete("/f")
    dfs.create("/f", machines[0]).append(b"another file entirely")
    with pytest.raises(FileNotFoundInDFS):
        reader.read_all()
    _assert_no_dfs_bookkeeping(dfs, machines)


def test_rereplicate_discards_queued_blocks_no_file_owns(dfs, machines):
    dfs.create("/f", machines[0]).append(PAYLOAD)
    dfs.namenode.report_under_replicated(10_000)  # a block of no file
    assert dfs.heartbeat() == 0
    assert not dfs.namenode.under_replicated
