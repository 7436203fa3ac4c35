"""Unit tests for checkpointing (§3.8)."""

import pytest

from repro import ColumnGroup, LogBase, TableSchema
from repro.config import LogBaseConfig
from repro.coordination.tso import TimestampOracle
from repro.coordination.znodes import CoordinationService
from repro.core.checkpoint import CheckpointBlock, CheckpointManager
from repro.core.partition import KeyRange
from repro.core.recovery import recover_server
from repro.core.tablet import Tablet, TabletId
from repro.core.tablet_server import TabletServer
from repro.errors import ServerDownError
from repro.sim.failure import CP_DFS_APPEND, FaultPlan, fault_plan, kill_action
from repro.wal.record import LogPointer


@pytest.fixture
def server(dfs, machines, schema):
    tso = TimestampOracle(CoordinationService())
    srv = TabletServer("ts-0", machines[0], dfs, tso, LogBaseConfig())
    srv.assign_tablet(Tablet(TabletId("events", 0), KeyRange(b"", None), schema))
    return srv


@pytest.fixture
def manager(dfs, server):
    return CheckpointManager(dfs, server)


def test_block_roundtrip():
    block = CheckpointBlock(
        lsn=42, position=LogPointer(3, 128, 0), index_files={"t#0|g": "/p"}
    )
    restored = CheckpointBlock.from_bytes(block.to_bytes())
    assert restored.lsn == 42
    assert restored.position.file_no == 3 and restored.position.offset == 128
    assert restored.index_files == {"t#0|g": "/p"}


def test_no_checkpoint_initially(manager):
    assert not manager.has_checkpoint()


def test_write_checkpoint_persists_block_and_files(server, manager, dfs):
    for i in range(10):
        server.write("events", f"k{i}".encode(), {"payload": b"v"})
    block = manager.write_checkpoint()
    assert manager.has_checkpoint()
    assert block.lsn == server.log.next_lsn - 1
    for path in block.index_files.values():
        assert dfs.exists(path)


def test_load_checkpoint_restores_indexes(server, manager):
    for i in range(10):
        server.write("events", f"k{i}".encode(), {"payload": f"v{i}".encode()})
    manager.write_checkpoint()

    server.crash()
    server.restart()
    server.assign_tablet(
        Tablet(TabletId("events", 0), KeyRange(b"", None), server.tablets["events#0"].schema)
    )
    block = manager.load_checkpoint()
    assert block.lsn > 0
    assert server.read("events", b"k3", "payload")[1] == b"v3"


def test_checkpoint_overwrites_previous(server, manager):
    server.write("events", b"a", {"payload": b"1"})
    first = manager.write_checkpoint()
    server.write("events", b"b", {"payload": b"2"})
    second = manager.write_checkpoint()
    assert second.lsn > first.lsn
    assert manager.read_block().lsn == second.lsn


def test_checkpoint_cost_scales_with_index_size(server, manager, machines):
    for i in range(5):
        server.write("events", f"s{i}".encode(), {"payload": b"v"})
    before = machines[0].clock.now
    manager.write_checkpoint()
    small_cost = machines[0].clock.now - before

    for i in range(500):
        server.write("events", f"m{i:04d}".encode(), {"payload": b"v"})
    before = machines[0].clock.now
    manager.write_checkpoint()
    large_cost = machines[0].clock.now - before
    assert large_cost > small_cost


@pytest.mark.parametrize("torn", ["index-file", "block"])
def test_crash_while_writing_checkpoint_keeps_the_previous_one(torn):
    """A kill inside the DFS append of a checkpoint's first index file, or
    of its block, must leave the previous checkpoint whole: restart
    recovers from it and every acked value reads back."""
    db = LogBase(
        n_nodes=3, config=LogBaseConfig.with_fault_tolerance(segment_size=64 * 1024)
    )
    db.create_table(TableSchema("t", "id", (ColumnGroup("g", ("c",)),)))
    cluster = db.cluster
    server = cluster.servers[0]
    manager = cluster.checkpoints[server.name]
    acked = {}

    def put(numbers):
        for i in numbers:
            key = f"{i:012d}".encode()
            db.put("t", key, {"g": {"c": b"v%d" % i}})
            acked[key] = {"c": b"v%d" % i}

    put(range(30))
    manager.write_checkpoint()
    put(range(30, 60))

    plan = FaultPlan()
    plan.add(
        CP_DFS_APPEND,
        kill_action(cluster.failures, server.name, ServerDownError("power cut")),
        hits=1 if torn == "index-file" else len(server.indexes()) + 1,
        writer=server.machine.name,
    )
    with fault_plan(plan), pytest.raises(ServerDownError):
        manager.write_checkpoint()

    report = cluster.restart_server(server.name)
    assert report.used_checkpoint
    for key, value in acked.items():
        assert db.get("t", key, "g") == value


# -- a checkpoint names the runs -------------------------------------------------


def restart(server, schema, manager):
    server.crash()
    server.restart()
    server.assign_tablet(Tablet(TabletId("events", 0), KeyRange(b"", None), schema))
    return recover_server(server, manager)


def test_a_block_names_its_runs_and_a_run_free_block_has_no_runs_key():
    block = CheckpointBlock(7, LogPointer(9, 0, 0), {"t#0|g": "/p"}, {"t|g": [3, 5]})
    assert CheckpointBlock.from_bytes(block.to_bytes()) == block
    bare = CheckpointBlock(7, LogPointer(9, 0, 0), {"t#0|g": "/p"})
    assert b"runs" not in bare.to_bytes()


def test_a_checkpoint_after_compaction_writes_only_the_tail(server, manager, dfs):
    for i in range(50):
        server.write("events", f"k{i:02d}".encode(), {"payload": b"v" * 100})
    server.compact()  # the round's checkpoint names the run
    block = manager.read_block()
    (run,) = block.runs["events|payload"]
    tail = dfs.open(block.index_files["events#0|payload"], server.machine).read_all()
    assert len(tail) == 9  # an empty rows block: every entry is in the run
    server.write("events", b"k07", {"payload": b"new"})
    restart(server, schema=server.tablets["events#0"].schema, manager=manager)
    assert server.read("events", b"k07", "payload")[1] == b"new"
    assert server.read("events", b"k08", "payload")[1] == b"v" * 100
    assert {e.pointer.file_no for e in server.indexes()[("events#0", "payload")].entries()
            if e.key != b"k07"} == {run}


def test_a_compaction_that_retires_a_delete_drops_its_mark(server, manager):
    server.write("events", b"k", {"payload": b"v1"})
    server.compact()
    server.delete("events", b"k", "payload")
    assert b"k" in server.delete_marks[("events", "payload")]
    server.compact()  # the round's run carries the delete as a tombstone
    assert server.delete_marks[("events", "payload")] == {}
    restart(server, server.tablets["events#0"].schema, manager)
    assert server.read("events", b"k", "payload") is None


def test_a_restart_holds_the_marks_its_checkpoint_held(server, manager, schema):
    """A mark in the tail file must be held again after the restart, or the
    next checkpoint drops it and the run's older version comes back after
    a second one."""
    server.write("events", b"k", {"payload": b"v1"})
    server.compact()  # a run holds k@v1
    server.delete("events", b"k", "payload")
    manager.write_checkpoint()
    for _ in range(2):
        restart(server, schema, manager)
        assert server.read("events", b"k", "payload") is None
        manager.write_checkpoint()
