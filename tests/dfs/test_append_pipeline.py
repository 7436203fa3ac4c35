"""Exact charges of one replication-pipeline append.

``DFS._append_to_block`` is the write path's last hop: every put pays it
once.  These tests pin what it charges — each clock, each counter, the
ack wait with and without deferral — and every liveness and
reachability check it makes, so host-side work on the path cannot move
a simulated number or skip a check unnoticed.
"""

import pytest

from repro.dfs.filesystem import DFS, defer_replication_acks
from repro.errors import DFSError
from repro.sim.disk import DiskModel
from repro.sim.failure import CP_DFS_APPEND, FaultPlan, fault_plan
from repro.sim.machine import Machine
from repro.sim.network import NetworkModel

N = 1000  # payload bytes of the pinned append
NET = NetworkModel()
DISK = DiskModel()
DISK_S = N / DISK.bandwidth  # one buffered replica write
HOP_S = NET.latency + N / NET.bandwidth  # primary -> one secondary


@pytest.fixture
def machines():
    network = NetworkModel()
    return [
        Machine(f"node-{i}", rack=f"rack-{i % 2}", network=network) for i in range(4)
    ]


@pytest.fixture
def dfs(machines):
    return DFS(machines, replication=3, block_size=1 << 20)


@pytest.fixture
def block(dfs, machines):
    """A block of ``/f`` written by node-0, with one byte already in it."""
    dfs.create("/f", machines[0]).append(b"x")
    return dfs.namenode.get_file("/f").blocks[0]


def _node(dfs, name):
    return dfs.datanode(name).machine


def _snapshot(machines):
    return {m.name: (m.clock.now, m.counters.snapshot()) for m in machines}


def _deltas(machines, before):
    out = {}
    for m in machines:
        clock, counters = before[m.name]
        out[m.name] = (m.clock.now - clock, m.counters.delta_since(counters))
    return out


def test_local_primary_charges(dfs, machines, block):
    writer = machines[0]
    primary, *secondaries = block.locations
    assert primary == writer.name
    before = _snapshot(machines)
    dfs._append_to_block(block, b"y" * N, writer)
    deltas = _deltas(machines, before)
    # Writer == primary: loopback send, its own disk write, the ack wait.
    clock, counters = deltas[primary]
    assert clock == pytest.approx(NET.local_latency + DISK_S + 2 * NET.latency)
    assert counters == {
        "net.bytes_sent": 3 * N,  # loopback to itself + once per secondary
        "net.messages": 1,
        "disk.bytes_written": N,
        "disk.writes": 1,
        "dfs.append_round_trips": 1,
    }
    for name in secondaries:
        clock, counters = deltas[name]
        assert clock == pytest.approx(HOP_S + DISK_S)
        assert counters == {"disk.bytes_written": N, "disk.writes": 1}
    bystander = next(m.name for m in machines if m.name not in block.locations)
    assert deltas[bystander] == (0.0, {})
    assert block.length == 1 + N


def test_remote_writer_charges(dfs, machines, block):
    writer = next(m for m in machines if m.name not in block.locations)
    primary, *secondaries = block.locations
    before = _snapshot(machines)
    dfs._append_to_block(block, b"y" * N, writer)
    deltas = _deltas(machines, before)
    clock, counters = deltas[writer.name]
    assert clock == pytest.approx(HOP_S + 2 * NET.latency)
    assert counters == {
        "net.bytes_sent": N,
        "net.messages": 1,
        "dfs.append_round_trips": 1,
    }
    clock, counters = deltas[primary]
    assert clock == pytest.approx(DISK_S)
    assert counters == {
        "net.bytes_sent": 2 * N,
        "disk.bytes_written": N,
        "disk.writes": 1,
    }
    for name in secondaries:
        assert deltas[name][0] == pytest.approx(HOP_S + DISK_S)
    totals = {"disk.writes": 0, "disk.bytes_written": 0, "net.messages": 0}
    for _, counters in deltas.values():
        for key in totals:
            totals[key] += counters.get(key, 0)
    assert totals == {"disk.writes": 3, "disk.bytes_written": 3 * N, "net.messages": 1}


def test_deferred_ack_is_collected_not_charged(dfs, machines, block):
    writer = machines[0]
    before = writer.clock.now
    with defer_replication_acks() as deferral:
        dfs._append_to_block(block, b"y" * N, writer)
    assert deferral.seconds == pytest.approx(2 * NET.latency)
    assert writer.clock.now - before == pytest.approx(NET.local_latency + DISK_S)


def test_limping_link_slows_transfer_and_ack(dfs, machines, block):
    writer = machines[0]
    primary, slow, healthy = block.locations
    dfs.network.links.slow(primary, slow, 3.0)
    before = _snapshot(machines)
    dfs._append_to_block(block, b"y" * N, writer)
    deltas = _deltas(machines, before)
    assert deltas[slow][0] == pytest.approx(3.0 * HOP_S + DISK_S)
    assert deltas[healthy][0] == pytest.approx(HOP_S + DISK_S)
    assert deltas[primary][0] == pytest.approx(
        NET.local_latency + DISK_S + (3.0 + 1.0) * NET.latency
    )


def test_dead_secondary_is_pruned(dfs, machines, block):
    writer = machines[0]
    primary, dead, live = block.locations
    _node(dfs, dead).fail()
    before = _snapshot(machines)
    dfs._append_to_block(block, b"y" * N, writer)
    deltas = _deltas(machines, before)
    assert block.locations == [primary, live]
    assert deltas[primary][1]["dfs.under_replicated"] == 1
    assert deltas[primary][1]["net.bytes_sent"] == 2 * N
    assert deltas[dead] == (0.0, {})
    assert block.block_id in dfs.namenode.under_replicated
    # One ack leg fewer.
    assert deltas[primary][0] == pytest.approx(
        NET.local_latency + DISK_S + NET.latency
    )


def test_partitioned_secondary_is_pruned(dfs, machines, block):
    writer = machines[0]
    primary, cut, live = block.locations
    dfs.network.partitions.partition([cut])
    before = _snapshot(machines)
    dfs._append_to_block(block, b"y" * N, writer)
    deltas = _deltas(machines, before)
    assert block.locations == [primary, live]
    assert deltas[primary][1]["dfs.under_replicated"] == 1
    assert deltas[cut] == (0.0, {})
    assert dfs.datanode(cut).block_length(block.block_id) == 1


@pytest.mark.parametrize("fault", ["fail", "partition"])
def test_secondary_lost_mid_pipeline_is_pruned(dfs, machines, block, fault):
    """The second-stage check: a secondary that passed the writer's check
    but is dead or cut off by its turn in the pipeline gets no bytes."""
    writer = machines[0]
    primary, lost, live = block.locations
    node = dfs.datanode(primary)
    append = node.append_replica

    def append_then_lose(*args):
        cost = append(*args)
        if fault == "fail":
            _node(dfs, lost).fail()
        else:
            dfs.network.partitions.partition([lost])
        return cost

    node.append_replica = append_then_lose
    dfs._append_to_block(block, b"y" * N, writer)
    assert block.locations == [primary, live]
    assert writer.counters.get("dfs.under_replicated") == 1
    assert dfs.datanode(lost).block_length(block.block_id) == 1
    assert dfs.datanode(live).block_length(block.block_id) == 1 + N


def test_all_replicas_dead_raises(dfs, machines, block):
    for name in block.locations:
        _node(dfs, name).fail()
    writer = next(m for m in machines if m.alive)
    with pytest.raises(DFSError):
        dfs._append_to_block(block, b"y" * N, writer)
    assert block.length == 1


def test_crash_point_hit_once_with_context(dfs, machines, block):
    hits = []
    plan = FaultPlan()
    plan.add(CP_DFS_APPEND, hits.append, repeat=True)
    with fault_plan(plan):
        dfs._append_to_block(block, b"y" * N, machines[0])
    assert hits == [{"block": block.block_id, "writer": machines[0].name}]
