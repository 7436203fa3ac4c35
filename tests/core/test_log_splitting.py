"""Direct unit tests for log splitting, split-log adoption (§3.8) and the
one re-home loop under both adoption and migration (``rehome``)."""

import pytest

from repro.config import LogBaseConfig
from repro.coordination.tso import TimestampOracle
from repro.coordination.znodes import CoordinationService
from repro.core.partition import KeyRange
from repro.core.recovery import adopt_split_log, rehome, split_log_by_tablet
from repro.core.tablet import Tablet, TabletId
from repro.core.tablet_server import TabletServer
from repro.sim.failure import CP_ADOPT_MID, FaultPlan, fault_plan
from repro.sim.metrics import DFS_APPEND_ROUND_TRIPS
from repro.wal.record import LogRecord, RecordType, commit_record
from repro.wal.replay import LogCursor
from repro.wal.repository import LogRepository


@pytest.fixture
def tso():
    return TimestampOracle(CoordinationService())


def two_tablet_server(dfs, machine, schema, tso, name="ts-split") -> TabletServer:
    server = TabletServer(name, machine, dfs, tso, LogBaseConfig())
    server.assign_tablet(
        Tablet(TabletId("events", 0), KeyRange(b"", b"m"), schema)
    )
    server.assign_tablet(
        Tablet(TabletId("events", 1), KeyRange(b"m", None), schema)
    )
    return server


def test_split_separates_tablets(dfs, machines, schema, tso):
    server = two_tablet_server(dfs, machines[0], schema, tso)
    server.write("events", b"aaa", {"payload": b"left"})
    server.write("events", b"zzz", {"payload": b"right"})
    splits = split_log_by_tablet(dfs, server.name, machines[1])
    assert set(splits.paths) == {"events#0", "events#1"}


def test_adopt_replays_only_its_tablet(dfs, machines, schema, tso):
    source = two_tablet_server(dfs, machines[0], schema, tso)
    source.write("events", b"aaa", {"payload": b"left"})
    source.write("events", b"zzz", {"payload": b"right"})
    split_log_by_tablet(dfs, source.name, machines[1])

    adopter = TabletServer("ts-adopt", machines[1], dfs, tso, LogBaseConfig())
    adopter.assign_tablet(Tablet(TabletId("events", 1), KeyRange(b"m", None), schema))
    report = adopt_split_log(adopter, dfs, source.name, "events#1")
    assert report.writes_applied == 1
    assert adopter.read("events", b"zzz", "payload")[1] == b"right"
    from repro.errors import TabletNotFound

    with pytest.raises(TabletNotFound):
        adopter.read("events", b"aaa", "payload")


def _left_adopter(dfs, machine, schema, tso, name) -> TabletServer:
    adopter = TabletServer(name, machine, dfs, tso, LogBaseConfig())
    adopter.assign_tablet(Tablet(TabletId("events", 0), KeyRange(b"", b"m"), schema))
    return adopter


def _source_scan(dfs, machine, source, position=(0, 0)):
    """The source's left tablet as another machine reads it from the
    shared DFS."""
    log = LogRepository.reattach(dfs, machine, f"/logbase/{source.name}/log")
    return LogCursor(log, position=position, keep=_is_left)


def _crash(_ctx):
    raise RuntimeError("adopter died")


def _is_left(table: str, key: bytes) -> bool:
    return key < b"m"


def _txn_write(txn_id, key, timestamp, value=b"v", tablet="events#0") -> LogRecord:
    return LogRecord(RecordType.WRITE, txn_id=txn_id, table="events", tablet=tablet,
                     key=key, group="payload", timestamp=timestamp, value=value)


def _own_writes(server) -> list[bytes]:
    return [r.key for _, r in server.log.scan_all() if r.record_type is RecordType.WRITE]


def test_rehome_start_replays_only_the_suffix(dfs, machines, schema, tso):
    """Only what follows the persisted cursor is re-homed (a migration's
    flip delta; the §3.8 'from the consistent recovery starting point')."""
    server = two_tablet_server(dfs, machines[0], schema, tso)
    server.write("events", b"aaa", {"payload": b"old"})
    marker = server.log.end_pointer()
    server.write("events", b"bbb", {"payload": b"new"})
    adopter = _left_adopter(dfs, machines[2], schema, tso, "ts-adopt2")
    position = (marker.file_no, marker.offset)
    report = rehome(adopter, _source_scan(dfs, machines[2], server, position), "events#0")
    assert report.writes_applied == 1  # only "bbb"
    assert adopter.read("events", b"aaa", "payload") is None
    assert adopter.read("events", b"bbb", "payload")[1] == b"new"


def test_rehome_txn_spanning_two_tablets_moves_only_its_side_at_commit(
    dfs, machines, schema, tso
):
    server = two_tablet_server(dfs, machines[0], schema, tso)
    server.append_transactional([
        _txn_write(7, b"left", 20),
        _txn_write(7, b"right", 20, tablet="events#1"),
    ])
    adopter = _left_adopter(dfs, machines[1], schema, tso, "ts-adopt6")
    # The COMMIT has not been logged yet: nothing takes effect.
    report = rehome(adopter, _source_scan(dfs, machines[1], server), "events#0")
    assert (report.writes_applied, report.uncommitted_ignored) == (0, 1)
    assert _own_writes(adopter) == []
    server.append_transactional([commit_record(7, 20)])
    report = rehome(adopter, _source_scan(dfs, machines[1], server), "events#0")
    assert (report.writes_applied, report.uncommitted_ignored) == (1, 0)
    assert _own_writes(adopter) == [b"left"]
    assert adopter.read("events", b"left", "payload")[1] == b"v"
    # Re-homed as auto-committed: the COMMIT marker stays behind.
    assert [r.txn_id for _, r in adopter.log.scan_all()] == [0]


def test_rehome_attributes_a_split_parents_records_by_key(dfs, machines, schema, tso):
    # Both records were logged under a since-split parent's id; only the
    # key says which child each belongs to.
    server = two_tablet_server(dfs, machines[0], schema, tso)
    server.append_transactional([
        _txn_write(0, b"aaa", 5, tablet="events#9"),
        _txn_write(0, b"zzz", 6, tablet="events#9"),
    ])
    adopter = _left_adopter(dfs, machines[1], schema, tso, "ts-adopt7")
    report = rehome(adopter, _source_scan(dfs, machines[1], server), "events#0")
    assert (report.records_scanned, report.writes_applied) == (2, 1)
    assert _own_writes(adopter) == [b"aaa"]


def test_rehome_again_over_the_same_scan_appends_nothing(dfs, machines, schema, tso):
    server = two_tablet_server(dfs, machines[0], schema, tso)
    for i in range(6):
        server.write("events", b"a%02d" % i, {"payload": b"v%d" % i})
    server.write("events", b"zzz", {"payload": b"other tablet"})
    adopter = _left_adopter(dfs, machines[1], schema, tso, "ts-adopt8")
    first = rehome(adopter, _source_scan(dfs, machines[1], server), "events#0")
    assert (first.writes_applied, first.skipped) == (6, 0)
    size = adopter.log.total_bytes()
    second = rehome(adopter, _source_scan(dfs, machines[1], server), "events#0")
    assert (second.writes_applied, second.skipped) == (0, 6)
    assert adopter.log.total_bytes() == size


def test_rehome_appends_by_the_chunk_and_a_crash_loses_only_the_queue(
    dfs, machines, schema, tso
):
    """150 x 1 KB records re-home in a DFS append per 64 KiB, not one per
    record, the same version met twice in one scan is queued once, and an
    adopter killed late dedupes what its flushes made durable."""
    server = two_tablet_server(dfs, machines[0], schema, tso)
    for i in range(150):
        if i == 3:  # the first version, logged again
            server.log.append_batch([next(server.log.scan_all())[1]])
        server.write("events", b"a%03d" % i, {"payload": bytes([i]) * 1000})
    adopter = _left_adopter(dfs, machines[1], schema, tso, "ts-adopt9")
    counters = machines[1].counters
    plan = FaultPlan()
    plan.add(CP_ADOPT_MID, _crash, hits=140)
    with fault_plan(plan), pytest.raises(RuntimeError):
        rehome(adopter, _source_scan(dfs, machines[1], server), "events#0")
    # Two full chunks went out before the 140th record; the rest of the
    # queue died with the adopter.
    assert counters.get(DFS_APPEND_ROUND_TRIPS) == 2
    kept = len(_own_writes(adopter))
    assert 120 < kept < 139 and kept == len(set(_own_writes(adopter)))
    report = rehome(adopter, _source_scan(dfs, machines[1], server), "events#0")
    assert (report.skipped, report.writes_applied) == (kept + 1, 150 - kept)
    assert counters.get(DFS_APPEND_ROUND_TRIPS) == 3
    assert sorted(_own_writes(adopter)) == [b"a%03d" % i for i in range(150)]
    for i in (0, 77, 149):
        assert adopter.read("events", b"a%03d" % i, "payload")[1] == bytes([i]) * 1000


def test_uncommitted_txn_writes_not_adopted(dfs, machines, schema, tso):
    server = two_tablet_server(dfs, machines[0], schema, tso)
    # Committed transactional write plus an uncommitted one.
    server.append_transactional([
        LogRecord(RecordType.WRITE, txn_id=5, table="events", tablet="events#0",
                  key=b"good", group="payload", timestamp=10, value=b"committed"),
        commit_record(5, 10),
    ])
    server.append_transactional([
        LogRecord(RecordType.WRITE, txn_id=6, table="events", tablet="events#0",
                  key=b"bad", group="payload", timestamp=11, value=b"uncommitted"),
    ])
    split_log_by_tablet(dfs, server.name, machines[1])
    adopter = TabletServer("ts-adopt3", machines[1], dfs, tso, LogBaseConfig())
    adopter.assign_tablet(Tablet(TabletId("events", 0), KeyRange(b"", b"m"), schema))
    report = adopt_split_log(adopter, dfs, server.name, "events#0")
    assert report.uncommitted_ignored == 1
    assert adopter.read("events", b"good", "payload")[1] == b"committed"
    assert adopter.read("events", b"bad", "payload") is None


def test_adopted_deletes_apply(dfs, machines, schema, tso):
    server = two_tablet_server(dfs, machines[0], schema, tso)
    server.write("events", b"aaa", {"payload": b"v"})
    server.delete("events", b"aaa", "payload")
    split_log_by_tablet(dfs, server.name, machines[1])
    adopter = TabletServer("ts-adopt4", machines[1], dfs, tso, LogBaseConfig())
    adopter.assign_tablet(Tablet(TabletId("events", 0), KeyRange(b"", b"m"), schema))
    report = adopt_split_log(adopter, dfs, server.name, "events#0")
    assert report.deletes_applied == 1
    assert adopter.read("events", b"aaa", "payload") is None


def test_adoption_rehomes_data_into_adopter_log(dfs, machines, schema, tso):
    """Adoption re-appends records to the adopter's own log, so the
    adopter no longer depends on the failed server's files."""
    server = two_tablet_server(dfs, machines[0], schema, tso)
    server.write("events", b"aaa", {"payload": b"move-me"})
    split_log_by_tablet(dfs, server.name, machines[1])
    adopter = TabletServer("ts-adopt5", machines[1], dfs, tso, LogBaseConfig())
    adopter.assign_tablet(Tablet(TabletId("events", 0), KeyRange(b"", b"m"), schema))
    adopt_split_log(adopter, dfs, server.name, "events#0")
    own_records = [r.key for _, r in adopter.log.scan_all() if r.record_type is RecordType.WRITE]
    assert b"aaa" in own_records
