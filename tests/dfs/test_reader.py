"""What a DFS read tries and what it charges: the replica order a reader
walks, and the exact clock and counter deltas of ``DFSReader.read`` at
its edges (empty ranges, a range ending on a block boundary, EOF)."""

import pytest

from repro.dfs.filesystem import DFS
from repro.errors import FileNotFoundInDFS
from repro.sim.health import GrayPolicy
from repro.sim.machine import Machine
from repro.sim.metrics import BREAKER_SKIPS
from repro.sim.network import NetworkModel

# node-0 reads; node-2 shares its rack, node-1/3/4 do not.
RACKS = {"node-0": "a", "node-1": "b", "node-2": "a", "node-3": "c", "node-4": "b"}
# Replica locations in an order that is none of the classes' order.
LOCATIONS = ["node-3", "node-2", "node-1", "node-0", "node-4"]


def _order_fixture(gray=None):
    network = NetworkModel()
    machines = [
        Machine(name, rack=rack, network=network) for name, rack in RACKS.items()
    ]
    dfs = DFS(machines, replication=len(machines), gray=gray)
    dfs.create("/f", machines[0]).append(b"ordered" * 10)
    block = dfs.namenode.get_file("/f").blocks[0]
    assert sorted(block.locations) == sorted(LOCATIONS)
    block.locations[:] = LOCATIONS
    return dfs, machines, block, dfs.open("/f", machines[0])


def _names(reader, block):
    return [node.name for node in reader._replica_candidates(block)]


def test_candidates_go_local_then_same_rack_then_other_racks():
    _, _, block, reader = _order_fixture()
    # Within a class, the block's own location order is kept.
    assert _names(reader, block) == ["node-0", "node-2", "node-3", "node-1", "node-4"]


def test_dead_and_partitioned_replicas_are_dropped():
    dfs, machines, block, reader = _order_fixture()
    machines[2].fail()
    dfs.network.partitions.partition(["node-0", "node-1", "node-4"], ["node-3"])
    assert _names(reader, block) == ["node-0", "node-1", "node-4"]


def test_open_breakers_are_demoted_behind_every_allowed_replica():
    dfs, machines, block, reader = _order_fixture(gray=GrayPolicy())
    now = machines[0].clock.now
    for name in ("node-0", "node-3"):
        dfs.health.breaker(name)._open(now)
    assert _names(reader, block) == ["node-2", "node-1", "node-4", "node-0", "node-3"]
    assert machines[0].counters.get(BREAKER_SKIPS) == 2


def test_with_every_replica_blocked_the_order_stays_as_is():
    dfs, machines, block, reader = _order_fixture(gray=GrayPolicy())
    now = machines[0].clock.now
    for name in RACKS:
        dfs.health.breaker(name)._open(now)
    assert _names(reader, block) == ["node-0", "node-2", "node-3", "node-1", "node-4"]
    assert machines[0].counters.get(BREAKER_SKIPS) == 0


def test_a_pruned_location_is_never_tried():
    dfs, machines, block, reader = _order_fixture()
    block.locations.remove("node-0")
    assert dfs.datanode("node-0").has_block(block.block_id)
    assert _names(reader, block) == ["node-2", "node-3", "node-1", "node-4"]
    assert reader.read(0, 7) == b"ordered"
    assert machines[0].counters.get("disk.reads") == 0
    assert machines[2].counters.get("disk.reads") == 1


# -- DFSReader.read at its edges ---------------------------------------------------


@pytest.fixture
def three():
    machines = [Machine(f"node-{i}", rack=f"rack-{i % 2}") for i in range(3)]
    dfs = DFS(machines, replication=3, block_size=100)
    dfs.create("/f", machines[0]).append(bytes(range(250)))  # blocks of 100, 100, 50
    return dfs, machines, dfs.open("/f", machines[0])


def _state(machines):
    return [(m.clock.now, m.counters.snapshot()) for m in machines]


@pytest.mark.parametrize("offset", [0, 100, 250], ids=["start", "boundary", "eof"])
def test_a_zero_length_read_returns_empty_and_charges_nothing(three, offset):
    _, machines, reader = three
    before = _state(machines)
    assert reader.read(offset, 0) == b""
    assert _state(machines) == before


@pytest.mark.parametrize("offset, length", [(90, 10), (190, 10), (240, 10)])
def test_a_range_ending_on_a_block_end_reads_that_block_only(three, offset, length):
    _, machines, reader = three
    reader_machine = machines[0]
    clock = reader_machine.clock.now
    before = reader_machine.counters.snapshot()
    assert reader.read(offset, length) == bytes(range(offset, offset + length))
    assert reader_machine.counters.delta_since(before) == {
        "disk.reads": 1,
        "disk.seeks": 1,
        "disk.bytes_read": length,
    }
    # One random access on the local replica plus the loopback hop.
    expected = (
        reader_machine.disk.model.random_access_cost(length)
        + reader_machine.network.local_latency
    )
    assert reader_machine.clock.now - clock == pytest.approx(expected)
    for other in machines[1:]:
        assert other.counters.get("disk.reads") == 0


def test_a_range_across_a_block_boundary_reads_each_block_once(three):
    _, machines, reader = three
    before = machines[0].counters.snapshot()
    assert reader.read(95, 110) == bytes(range(95, 205))
    assert machines[0].counters.delta_since(before) == {
        "disk.reads": 3,
        "disk.seeks": 3,
        "disk.bytes_read": 110,
    }


@pytest.mark.parametrize("offset, length", [(245, 6), (250, 1), (300, 0), (0, 251)])
def test_a_read_past_eof_raises_and_charges_nothing(three, offset, length):
    _, machines, reader = three
    before = _state(machines)
    with pytest.raises(FileNotFoundInDFS):
        reader.read(offset, length)
    assert _state(machines) == before
