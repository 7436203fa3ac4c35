"""Recovery tests (§3.8): redo from checkpoint, durability (Guarantee 4)."""

import pytest

from repro.config import LogBaseConfig
from repro.coordination.tso import TimestampOracle
from repro.coordination.znodes import CoordinationService
from repro.core.checkpoint import CheckpointManager
from repro.core.partition import KeyRange
from repro.core.recovery import recover_server
from repro.core.tablet import Tablet, TabletId
from repro.core.tablet_server import TabletServer
from repro.wal.record import LogRecord, RecordType, commit_record
from repro.wal.replay import LogCursor


@pytest.fixture
def tso():
    return TimestampOracle(CoordinationService())


def make_server(dfs, machine, schema, tso, name="ts-0") -> TabletServer:
    srv = TabletServer(name, machine, dfs, tso, LogBaseConfig())
    srv.assign_tablet(Tablet(TabletId("events", 0), KeyRange(b"", None), schema))
    return srv


def crash_and_restart(server, schema):
    server.crash()
    server.restart()
    server.assign_tablet(Tablet(TabletId("events", 0), KeyRange(b"", None), schema))


def test_recovery_without_checkpoint_scans_whole_log(dfs, machines, schema, tso):
    server = make_server(dfs, machines[0], schema, tso)
    manager = CheckpointManager(dfs, server)
    for i in range(20):
        server.write("events", f"k{i:02d}".encode(), {"payload": f"v{i}".encode()})
    crash_and_restart(server, schema)
    report = recover_server(server, manager)
    assert not report.used_checkpoint
    assert report.writes_applied == 20
    assert server.read("events", b"k13", "payload")[1] == b"v13"


def test_recovery_with_checkpoint_scans_only_tail(dfs, machines, schema, tso):
    server = make_server(dfs, machines[0], schema, tso)
    manager = CheckpointManager(dfs, server)
    for i in range(20):
        server.write("events", f"k{i:02d}".encode(), {"payload": b"v"})
    manager.write_checkpoint()
    for i in range(5):
        server.write("events", f"tail{i}".encode(), {"payload": b"t"})
    crash_and_restart(server, schema)
    report = recover_server(server, manager)
    assert report.used_checkpoint
    assert report.writes_applied == 5  # only the tail is redone
    assert server.read("events", b"k07", "payload") is not None
    assert server.read("events", b"tail3", "payload") is not None


def test_every_confirmed_write_survives_crash(dfs, machines, schema, tso):
    """Guarantee 4: durability of confirmed writes."""
    server = make_server(dfs, machines[0], schema, tso)
    manager = CheckpointManager(dfs, server)
    written = {}
    for i in range(50):
        key = f"k{i:02d}".encode()
        ts = server.write("events", key, {"payload": f"v{i}".encode()})
        written[key] = (ts, f"v{i}".encode())
    crash_and_restart(server, schema)
    recover_server(server, manager)
    for key, (ts, value) in written.items():
        assert server.read("events", key, "payload") == (ts, value)


def test_uncommitted_transactional_writes_invisible_after_recovery(
    dfs, machines, schema, tso
):
    server = make_server(dfs, machines[0], schema, tso)
    manager = CheckpointManager(dfs, server)
    # Committed transaction.
    committed = [
        LogRecord(RecordType.WRITE, txn_id=1, table="events", tablet="events#0",
                  key=b"ok", group="payload", timestamp=10, value=b"committed"),
        commit_record(1, 10),
    ]
    server.append_transactional(committed)
    # Uncommitted: writes persisted, no commit record (crash before commit).
    server.append_transactional([
        LogRecord(RecordType.WRITE, txn_id=2, table="events", tablet="events#0",
                  key=b"bad", group="payload", timestamp=11, value=b"uncommitted"),
    ])
    crash_and_restart(server, schema)
    report = recover_server(server, manager)
    assert report.uncommitted_ignored == 1
    assert server.read("events", b"ok", "payload")[1] == b"committed"
    assert server.read("events", b"bad", "payload") is None


def test_deletes_reapplied_over_stale_checkpoint(dfs, machines, schema, tso):
    """§3.6.3: the invalidated log entry re-applies the delete even though
    the checkpointed index still contains the deleted key."""
    server = make_server(dfs, machines[0], schema, tso)
    manager = CheckpointManager(dfs, server)
    server.write("events", b"victim", {"payload": b"v"})
    manager.write_checkpoint()          # checkpoint still has the key
    server.delete("events", b"victim", "payload")
    crash_and_restart(server, schema)
    report = recover_server(server, manager)
    assert report.used_checkpoint
    assert report.deletes_applied == 1
    assert server.read("events", b"victim", "payload") is None


def test_repeated_restart_is_idempotent(dfs, machines, schema, tso):
    server = make_server(dfs, machines[0], schema, tso)
    manager = CheckpointManager(dfs, server)
    for i in range(10):
        server.write("events", f"k{i}".encode(), {"payload": b"v"})
    for _ in range(3):  # crash during recovery -> redo again
        crash_and_restart(server, schema)
        recover_server(server, manager)
    assert server.read("events", b"k4", "payload")[1] == b"v"
    assert len(list(server.full_scan("events", "payload"))) == 10


def test_lsn_restored_after_recovery(dfs, machines, schema, tso):
    server = make_server(dfs, machines[0], schema, tso)
    manager = CheckpointManager(dfs, server)
    for i in range(7):
        server.write("events", f"k{i}".encode(), {"payload": b"v"})
    lsn_before = server.log.next_lsn
    crash_and_restart(server, schema)
    recover_server(server, manager)
    assert server.log.next_lsn >= lsn_before
    # New writes continue the LSN sequence without collision.
    server.write("events", b"new", {"payload": b"v"})
    lsns = [record.lsn for _, record in server.log.scan_all()]
    assert len(lsns) == len(set(lsns))


def test_writes_after_recovery_work(dfs, machines, schema, tso):
    server = make_server(dfs, machines[0], schema, tso)
    manager = CheckpointManager(dfs, server)
    server.write("events", b"pre", {"payload": b"1"})
    crash_and_restart(server, schema)
    recover_server(server, manager)
    ts = server.write("events", b"post", {"payload": b"2"})
    assert server.read("events", b"post", "payload") == (ts, b"2")


def test_redo_scan_respects_min_lsn(dfs, machines, schema, tso):
    """The redo cursor counts what a checkpoint already holds (at or below
    ``min_lsn``) but feeds only what follows it."""
    server = make_server(dfs, machines[0], schema, tso)
    for i in range(4):
        server.write("events", f"k{i}".encode(), {"payload": b"v"})
    cutoff = server.log.next_lsn - 1
    server.write("events", b"late", {"payload": b"v"})
    crash_and_restart(server, schema)
    cursor, fed = LogCursor(server.log, min_lsn=cutoff), []
    assert cursor.read(lambda pointer, record: fed.append(record.key) or True)
    assert fed == [b"late"]
    assert (cursor.scanned, cursor.applied, cursor.max_lsn) == (5, 1, cutoff + 1)


def test_recovery_time_grows_with_unscanned_log(dfs, machines, schema, tso):
    """The Figure 18 effect: more un-checkpointed log -> longer recovery."""
    server = make_server(dfs, machines[0], schema, tso)
    manager = CheckpointManager(dfs, server)
    for i in range(10):
        server.write("events", f"a{i:03d}".encode(), {"payload": b"x" * 200})
    crash_and_restart(server, schema)
    short = recover_server(server, manager).seconds

    for i in range(200):
        server.write("events", f"b{i:03d}".encode(), {"payload": b"x" * 200})
    crash_and_restart(server, schema)
    long = recover_server(server, manager).seconds
    assert long > short


def test_redo_skips_writes_shadowed_by_earlier_tombstone(dfs, machines, schema, tso):
    """Incremental compaction re-homes old versions into runs numbered
    past the tombstone that shadows them, so a file-order redo can meet
    the delete marker *before* the write it kills.  Timestamps, not scan
    order, decide: the shadowed version stays dead, a strictly newer
    rebirth survives."""
    server = make_server(dfs, machines[0], schema, tso)
    manager = CheckpointManager(dfs, server)

    def raw(record_type, key, ts, value=b""):
        return LogRecord(
            record_type=record_type,
            lsn=0,
            txn_id=0,
            table="events",
            tablet="events#0",
            key=key,
            group="payload",
            timestamp=ts,
            value=value,
        )

    server.log.append(raw(RecordType.INVALIDATE, b"k", 50))
    server.log.append(raw(RecordType.WRITE, b"k", 10, b"old"))  # shadowed
    server.log.append(raw(RecordType.WRITE, b"k", 90, b"reborn"))  # newer: lives
    crash_and_restart(server, schema)
    report = recover_server(server, manager)
    assert report.deletes_applied == 1
    assert report.writes_applied == 1  # the shadowed write is skipped
    index = server.indexes()[("events#0", "payload")]
    assert {entry.timestamp for entry in index.versions(b"k")} == {90}
