"""Edge cases of the re-replication sweep: rack-aware target choice,
degraded clusters, sources dying mid-pass, stale copies on revived nodes,
partitions, and the heartbeat-driven repair queue."""

import pytest

from repro.dfs.filesystem import DFS
from repro.errors import DFSError
from repro.sim.failure import CP_DFS_REREPLICATE, FaultPlan, fault_plan
from repro.sim.machine import Machine
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
    return DFS(machines, replication=3, block_size=1 << 16)


def _block(dfs, path):
    return dfs.namenode.get_file(path).blocks[0]


def test_target_prefers_rack_without_replica(machines, network):
    # Replication 2 on 4 nodes leaves two candidate targets in different
    # racks; the one whose rack holds no replica must win.
    dfs = DFS(machines, replication=2, block_size=1 << 16)
    dfs.create("/f", machines[0]).append(b"rack-aware")
    block = _block(dfs, "/f")
    # Placement: node-0 (rack-0) + one node in rack-1.
    rack1_holder = next(n for n in block.locations if n != "node-0")
    dfs.datanode(rack1_holder).fail()
    assert dfs.rereplicate() == 1
    # Candidates were the rack-0 spare and the rack-1 spare; rack-1 has no
    # live replica so its spare must have been chosen.
    added = block.locations[-1]
    assert dfs.namenode.rack_of(added) == "rack-1"


def test_degraded_cluster_caps_replica_want(dfs, machines):
    # Only 2 datanodes survive on a replication-3 DFS: the sweep restores
    # as many replicas as there are live nodes and stops calling the
    # block under-replicated.
    dfs.create("/f", machines[0]).append(b"degraded")
    block = _block(dfs, "/f")
    non_holder = next(m.name for m in machines if m.name not in block.locations)
    dead = [n for n in block.locations if n != "node-0"][:2]
    for name in dead:
        dfs.datanode(name).fail()
    created = dfs.rereplicate()
    assert created == 1  # want = min(replication=3, live nodes=2)
    live = [n for n in block.locations if dfs.datanodes[n].alive]
    assert sorted(live) == sorted(["node-0", non_holder])
    assert block.block_id not in dfs.namenode.under_replicated


def test_source_death_mid_pass_fails_over_to_survivor(dfs, machines):
    dfs.create("/f", machines[0]).append(b"survivor-sourced")
    block = _block(dfs, "/f")
    first, second, third = block.locations
    dfs.datanode(first).fail()
    plan = FaultPlan()
    # The moment the sweep reaches this block, its first live source dies.
    plan.add(
        CP_DFS_REREPLICATE,
        lambda ctx: dfs.datanode(second).fail(),
        block=block.block_id,
    )
    with fault_plan(plan):
        created = dfs.rereplicate()
    assert created == 1  # copied from the remaining survivor
    target = block.locations[-1]
    assert target not in (first, second, third)
    assert dfs.datanode(target).block_length(block.block_id) == len(
        b"survivor-sourced"
    )


def test_all_sources_dead_mid_pass_raises_in_strict_mode(dfs, machines):
    dfs.create("/f", machines[0]).append(b"doomed")
    block = _block(dfs, "/f")
    survivors = list(block.locations[1:])
    dfs.datanode(block.locations[0]).fail()

    def kill_survivors(_ctx):
        for name in survivors:
            dfs.datanode(name).fail()

    plan = FaultPlan()
    plan.add(CP_DFS_REREPLICATE, kill_survivors, block=block.block_id)
    with fault_plan(plan):
        with pytest.raises(DFSError):
            dfs.rereplicate()


def test_no_live_replica_skipped_in_background_mode(dfs, machines):
    dfs.create("/f", machines[0]).append(b"lost")
    block = _block(dfs, "/f")
    dfs.namenode.report_under_replicated(block.block_id)
    for name in block.locations:
        dfs.datanode(name).fail()
    # The background heartbeat pass must not raise; the block stays
    # queued in case a replica holder comes back.
    assert dfs.heartbeat() == 0
    assert block.block_id in dfs.namenode.under_replicated


def test_stale_copy_on_revived_node_is_replaced(dfs, machines):
    writer = dfs.create("/f", machines[0])
    writer.append(b"old")
    block = _block(dfs, "/f")
    stale = block.locations[-1]
    non_holder = next(m.name for m in machines if m.name not in block.locations)
    dfs.datanode(stale).fail()
    writer.append(b"+new")  # pipeline prunes the dead replica
    assert stale not in block.locations
    assert block.block_id in dfs.namenode.under_replicated
    # The node comes back with its short pre-crash replica on disk; the
    # spare node stays down so the revived node is the only target.
    dfs.datanode(non_holder).fail()
    dfs.datanode(stale).machine.restart()
    assert dfs.datanode(stale).block_length(block.block_id) == len(b"old")
    assert dfs.heartbeat() == 1
    assert stale in block.locations
    assert dfs.datanode(stale).block_length(block.block_id) == len(b"old+new")
    assert dfs.datanode(stale).read_replica(block.block_id, 0, 7)[0] == b"old+new"


def test_partitioned_target_left_queued_until_heal(dfs, machines, network):
    dfs.create("/f", machines[0]).append(b"partitioned")
    block = _block(dfs, "/f")
    non_holder = next(m.name for m in machines if m.name not in block.locations)
    dfs.datanode(block.locations[-1]).fail()
    network.partitions.isolate(non_holder)
    # The only candidate target is unreachable: nothing is copied, the
    # block stays queued rather than erroring out of the sweep.
    assert dfs.rereplicate() == 0
    assert block.block_id in dfs.namenode.under_replicated
    network.partitions.heal()
    assert dfs.rereplicate() == 1
    assert non_holder in block.locations
    assert block.block_id not in dfs.namenode.under_replicated


def test_heartbeat_noop_when_queue_empty(dfs, machines):
    dfs.create("/f", machines[0]).append(b"healthy")
    assert dfs.heartbeat() == 0


def test_degraded_allocation_places_on_survivors(machines):
    dfs = DFS(
        machines, replication=3, block_size=1 << 16, degraded_allocation=True
    )
    for name in ("node-2", "node-3"):
        dfs.datanode(name).fail()
    writer = dfs.create("/f", machines[0])
    writer.append(b"short-handed")
    block = _block(dfs, "/f")
    assert sorted(block.locations) == ["node-0", "node-1"]
    # The short placement is queued for repair, and once a node returns
    # the heartbeat completes the replica set.
    assert block.block_id in dfs.namenode.under_replicated
    dfs.datanode("node-2").machine.restart()
    assert dfs.heartbeat() == 1
    assert sorted(block.locations) == ["node-0", "node-1", "node-2"]


def test_strict_allocation_still_refuses_when_degraded_off(machines):
    from repro.errors import ReplicationError

    dfs = DFS(machines, replication=3, block_size=1 << 16)
    for name in ("node-2", "node-3"):
        dfs.datanode(name).fail()
    with pytest.raises(ReplicationError):
        dfs.create("/f", machines[0]).append(b"refused")


# -- checksummed replicas: a copy is only ever made from verified bytes --------


@pytest.fixture
def checked_dfs(machines):
    return DFS(
        machines,
        replication=3,
        block_size=1 << 16,
        checksum_replicas=True,
    )


def test_rereplication_does_not_launder_a_corrupt_source(checked_dfs, machines):
    payload = bytes(range(250)) * 20
    checked_dfs.create("/f", machines[0]).append(payload)
    block = _block(checked_dfs, "/f")
    bad, good, doomed = block.locations
    spare = next(m.name for m in machines if m.name not in block.locations)
    checked_dfs.datanode(bad).corrupt_replica(block.block_id, at=100)
    checked_dfs.datanode(doomed).fail()
    assert checked_dfs.rereplicate() == 1
    # The damaged first replica was found out and dropped, exactly as a
    # verified read drops one; the copy came from the next survivor.
    assert bad not in block.locations
    assert block.locations == [good, spare]
    counters = checked_dfs.datanode(bad).machine.counters
    assert counters.get("dfs.corrupt_replicas") == 1
    assert counters.get("dfs.read_failovers") == 1
    copy = checked_dfs.datanode(spare)
    assert copy.verify_replica(block.block_id)
    assert copy.read_replica(block.block_id, 0, len(payload))[0] == payload
    # One source was lost on the way, so the block is still one short.
    assert block.block_id in checked_dfs.namenode.under_replicated
    assert checked_dfs.heartbeat() == 1  # replaces the stale copy on ``bad``
    assert sorted(block.locations) == sorted([bad, good, spare])
    assert checked_dfs.datanode(bad).verify_replica(block.block_id)
    assert checked_dfs.open("/f", machines[0]).read_all() == payload


def test_copy_is_checked_against_the_sources_checksums(checked_dfs, machines):
    # Damage that appears between the source's verification and the copy
    # (here: injected through the read) must not be blessed by the target.
    payload = b"s" * 5000
    checked_dfs.create("/f", machines[0]).append(payload)
    block = _block(checked_dfs, "/f")
    source = checked_dfs.datanode(block.locations[0])
    spare = next(m.name for m in machines if m.name not in block.locations)
    checked_dfs.datanode(block.locations[2]).fail()
    clean_read = source.read_replica

    def torn_read(block_id, offset, length):
        data, cost = clean_read(block_id, offset, length)
        return b"X" + data[1:], cost

    source.read_replica = torn_read
    assert checked_dfs.rereplicate() == 1
    assert not checked_dfs.datanode(spare).verify_replica(block.block_id)


def test_no_source_verifies_leaves_block_queued(checked_dfs, machines):
    checked_dfs.create("/f", machines[0]).append(b"q" * 5000)
    block = _block(checked_dfs, "/f")
    checked_dfs.datanode(block.locations[2]).fail()
    for name in block.locations[:2]:
        checked_dfs.datanode(name).corrupt_replica(block.block_id, at=7)
    assert checked_dfs.rereplicate(strict=False) == 0  # background: no raise
    assert block.locations == []
    assert block.block_id in checked_dfs.namenode.under_replicated
    with pytest.raises(DFSError):
        checked_dfs.rereplicate()


def test_checksummed_copy_on_revived_node_verifies_and_reads_back(
    checked_dfs, machines
):
    writer = checked_dfs.create("/f", machines[0])
    writer.append(b"old")
    block = _block(checked_dfs, "/f")
    stale = block.locations[-1]
    non_holder = next(m.name for m in machines if m.name not in block.locations)
    checked_dfs.datanode(stale).fail()
    writer.append(b"+new")
    checked_dfs.datanode(non_holder).fail()
    checked_dfs.datanode(stale).machine.restart()
    assert checked_dfs.heartbeat() == 1
    revived = checked_dfs.datanode(stale)
    assert revived.verify_replica(block.block_id)
    assert revived.read_replica(block.block_id, 0, 7)[0] == b"old+new"
    assert revived.checksums_for_copy(block.block_id) == checked_dfs.datanode(
        block.locations[0]
    ).checksums_for_copy(block.block_id)
