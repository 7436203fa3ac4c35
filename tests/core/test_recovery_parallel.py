"""Restart recovery: parallel redo parity with the sequential reference,
hot-first bring-up, serve-while-recovering, crash-safe split/adopt, and
the retired (pinned) config gates."""

import random

import pytest

from repro.config import LogBaseConfig
from repro.coordination.tso import TimestampOracle
from repro.coordination.znodes import CoordinationService
from repro.core.checkpoint import CheckpointManager
from repro.core.database import LogBase
from repro.core.partition import KeyRange
from repro.core.recovery import (
    adopt_split_log,
    read_split_fence,
    recover_server,
    recover_server_parallel,
    redo_scan,
    split_log_by_tablet,
)
from repro.core.schema import ColumnGroup, TableSchema
from repro.core.tablet import Tablet, TabletId
from repro.core.tablet_server import TabletServer
from repro.errors import (
    RecoveryError,
    ServerDownError,
    TabletRecoveringError,
)
from repro.sim.failure import (
    CP_RECOVERY_MID,
    CP_SPLIT_PERSIST,
    FaultPlan,
    fault_plan,
    kill_action,
)
from repro.wal.record import LogRecord, RecordType, commit_record
from repro.wal.repository import LogRepository

TABLE = "recov"
GROUP = "g"
SCHEMA = TableSchema(TABLE, "id", (ColumnGroup(GROUP, ("v",)),))
SERVER = "ts-node-0"


@pytest.fixture
def tso():
    return TimestampOracle(CoordinationService())


def make_db(*, workers: int = 4) -> LogBase:
    config = LogBaseConfig(
        segment_size=16 * 1024,
        recovery_workers=workers,
        client_retry_limit=3,
    )
    db = LogBase(n_nodes=3, config=config)
    db.create_table(
        SCHEMA,
        tablets_per_server=4,
        key_domain=1000,
        key_width=4,
        only_servers=[SERVER],
    )
    return db


def load(db: LogBase, n: int, *, checkpoint_at: int | None = None):
    client = db.client(db.cluster.machines[-1])
    keys = [str(i * 7 % 1000).zfill(4).encode() for i in range(n)]
    for i, key in enumerate(keys):
        client.put_raw(TABLE, key, GROUP, f"v{i}".encode())
        if checkpoint_at is not None and i == checkpoint_at:
            db.cluster.checkpoints[SERVER].write_checkpoint()
    return keys


def crash_and_recover(db: LogBase):
    db.cluster.kill_node(SERVER)
    return db.cluster.restart_server(SERVER)


def crash_and_recover_sequentially(db: LogBase):
    """The reference arm: restart without recovery, then run the
    sequential checkpoint+redo scan directly."""
    db.cluster.kill_node(SERVER)
    db.cluster.restart_server(SERVER, recover=False)
    return recover_server(
        db.cluster.server_by_name(SERVER), db.cluster.checkpoints[SERVER]
    )


def index_signature(db: LogBase, keys) -> set:
    """(key, timestamp) of every rebuilt index entry."""
    server = db.cluster.server_by_name(SERVER)
    return {
        (key, entry.timestamp)
        for key in keys
        for entry in server.index_for(TABLE, key, GROUP).versions(key)
    }


def readback(db: LogBase, keys):
    client = db.client(db.cluster.machines[-1])
    return {key: client.get_raw(TABLE, key, GROUP) for key in keys}


# -- config gate ---------------------------------------------------------------


@pytest.mark.parametrize(
    "gate", ["incremental_compaction", "fast_recovery", "dfs_verify_reads"]
)
def test_retired_gates_are_pinned_on(gate):
    assert getattr(LogBaseConfig(), gate) is True
    with pytest.raises(ValueError, match=gate):
        LogBaseConfig(**{gate: False}).validate()


def test_validate_rejects_bad_worker_count():
    with pytest.raises(ValueError):
        LogBaseConfig(recovery_workers=0).validate()


# -- parity with the sequential path -------------------------------------------


@pytest.mark.parametrize("checkpoint_at", [None, 60])
def test_parallel_recovery_matches_sequential(checkpoint_at):
    db_seq, db_par = make_db(), make_db()
    keys = load(db_seq, 120, checkpoint_at=checkpoint_at)
    assert load(db_par, 120, checkpoint_at=checkpoint_at) == keys
    seq = crash_and_recover_sequentially(db_seq)
    par = crash_and_recover(db_par)
    assert not seq.parallel and par.parallel
    assert par.used_checkpoint == seq.used_checkpoint == (checkpoint_at is not None)
    for field in (
        "records_scanned",
        "writes_applied",
        "deletes_applied",
        "uncommitted_ignored",
    ):
        assert getattr(par, field) == getattr(seq, field), field
    assert index_signature(db_par, keys) == index_signature(db_seq, keys)
    assert readback(db_par, keys) == readback(db_seq, keys)


def test_restart_server_is_parallel_under_the_plain_config():
    db_seq, db_par = (LogBase(n_nodes=3, config=LogBaseConfig()) for _ in range(2))
    for db in (db_seq, db_par):
        db.create_table(SCHEMA, key_domain=1000, key_width=4, only_servers=[SERVER])
        keys = load(db, 40)
    report = crash_and_recover(db_par)
    assert report.parallel is True
    crash_and_recover_sequentially(db_seq)
    assert index_signature(db_par, keys) == index_signature(db_seq, keys)


def test_parallel_gating_ignores_uncommitted_and_applies_committed(tso, dfs, machines):
    config = LogBaseConfig()
    server = TabletServer(SERVER, machines[0], dfs, tso, config)
    server.assign_tablet(Tablet(TabletId(TABLE, 0), KeyRange(b"", None), SCHEMA))
    manager = CheckpointManager(dfs, server)

    def rec(record_type, txn, key, ts, value=b""):
        return LogRecord(record_type, lsn=0, txn_id=txn, table=TABLE,
                         tablet=f"{TABLE}#0", key=key, group=GROUP,
                         timestamp=ts, value=value)

    server.append_transactional([
        rec(RecordType.WRITE, 1, b"ok", 10, b"committed"),
        commit_record(1, 10),
    ])
    server.append_transactional([
        rec(RecordType.WRITE, 2, b"bad", 11, b"uncommitted"),
    ])
    server.crash()
    server.restart()
    server.assign_tablet(Tablet(TabletId(TABLE, 0), KeyRange(b"", None), SCHEMA))
    report = recover_server_parallel(server, manager)
    assert report.parallel
    assert report.writes_applied == 1
    assert report.uncommitted_ignored == 1
    assert server.read(TABLE, b"ok", GROUP)[1] == b"committed"
    assert server.read(TABLE, b"bad", GROUP) is None


# -- hot-first, serve-while-recovering -----------------------------------------


def test_hot_tablets_come_up_first():
    # One worker makes the bring-up order strictly the heat order; the
    # checkpoint gives every tablet a real (DFS index load) bring-up cost.
    db = make_db(workers=1)
    keys = load(db, 120, checkpoint_at=60)
    client = db.client(db.cluster.machines[-1])
    hot_key = keys[0]
    for _ in range(200):
        client.get_raw(TABLE, hot_key, GROUP)
    db.cluster.heartbeat()
    hot_tablet = str(db.cluster.master.locate(TABLE, hot_key)[1].tablet_id)
    assert db.cluster.tablet_heat[hot_tablet] == max(db.cluster.tablet_heat.values())
    report = crash_and_recover(db)
    assert report.tablets_recovered == 4
    assert report.first_ready_seconds == min(report.tablet_ready.values())
    assert report.tablet_ready[hot_tablet] == report.first_ready_seconds
    assert report.first_ready_seconds < report.seconds


def test_parallel_recovery_beats_sequential_and_serves_hot_first():
    # 256 random 1 KB writes over 12 tablets with a checkpoint at the
    # quarter mark (a long redo tail after reloaded indexes), then reads
    # that heat one tablet.  Same config in both arms, so the simulated
    # seconds compare: the parallel redo takes fewer, and the hot tablet
    # serves well before the whole server does.
    config = LogBaseConfig(segment_size=32 * 1024, recovery_workers=4)
    ops, width, domain = 256, 8, 100_000
    rng = random.Random(7)
    keys = [str(v).zfill(width).encode() for v in rng.sample(range(domain), ops)]
    runs = []
    for parallel in (False, True):
        db = LogBase(n_nodes=3, config=config)
        db.create_table(
            SCHEMA, tablets_per_server=12, key_domain=domain, key_width=width,
            only_servers=[SERVER],
        )
        client = db.client(db.cluster.machines[-1])
        for i, key in enumerate(keys):
            client.put_raw(TABLE, key, GROUP, b"x" * 1000)
            if i == ops // 4:
                db.cluster.checkpoints[SERVER].write_checkpoint()
        for _ in range(64):
            client.get_raw(TABLE, keys[0], GROUP)
        db.cluster.heartbeat()
        hot = str(db.cluster.master.locate(TABLE, keys[0])[1].tablet_id)
        recover = crash_and_recover if parallel else crash_and_recover_sequentially
        report = recover(db)
        runs.append((report, index_signature(db, keys)))
    (seq, seq_index), (par, par_index) = runs
    assert par.seconds < seq.seconds
    assert par.tablet_ready[hot] <= 0.9 * par.seconds
    for field in ("records_scanned", "writes_applied", "deletes_applied",
                  "uncommitted_ignored"):
        assert getattr(par, field) == getattr(seq, field), field
    assert par_index == seq_index


def test_ready_tablets_serve_while_others_recover():
    db = make_db(workers=1)
    keys = load(db, 80)
    server = db.cluster.server_by_name(SERVER)
    snapshots = []

    def on_ready(tablet_id, _at):
        snapshots.append((tablet_id, set(server.recovering_tablets)))

    db.cluster.kill_node(SERVER)
    db.cluster.restart_server(SERVER, recover=False)
    recover_server_parallel(
        server, db.cluster.checkpoints[SERVER], on_tablet_ready=on_ready
    )
    assert len(snapshots) == 4
    first_ready, still_recovering = snapshots[0]
    assert first_ready not in still_recovering
    assert len(still_recovering) == 3  # the rest were still recovering
    assert not server.recovering_tablets  # all served at the end
    assert all(value is not None for value in readback(db, keys).values())


def test_ops_on_recovering_tablet_raise_retryable_error():
    db = make_db()
    keys = load(db, 40)
    server = db.cluster.server_by_name(SERVER)
    server.begin_tablet_recovery(server.tablets.keys())
    with pytest.raises(TabletRecoveringError):
        server.read(TABLE, keys[0], GROUP)
    with pytest.raises(TabletRecoveringError):
        server.write(TABLE, keys[0], {GROUP: b"x"})
    # The client backs off and retries; the window never closes here, so
    # the retryable error surfaces only after the retry budget.
    client = db.client(db.cluster.machines[-1])
    with pytest.raises(TabletRecoveringError):
        client.get_raw(TABLE, keys[0], GROUP)
    for tablet_id in list(server.tablets):
        server.finish_tablet_recovery(tablet_id)
    assert client.get_raw(TABLE, keys[0], GROUP) is not None


def test_client_retry_covers_recovery_window():
    db = make_db()
    keys = load(db, 40)
    server = db.cluster.server_by_name(SERVER)
    server.begin_tablet_recovery(server.tablets.keys())
    client = db.client(db.cluster.machines[-1])
    original = server.read
    calls = {"n": 0}

    def flaky_read(*args, **kwargs):
        calls["n"] += 1
        if calls["n"] == 2:  # recovery finishes while the client backs off
            for tablet_id in list(server.tablets):
                server.finish_tablet_recovery(tablet_id)
        return original(*args, **kwargs)

    server.read = flaky_read
    try:
        assert client.get_raw(TABLE, keys[0], GROUP) is not None
    finally:
        server.read = original
    assert calls["n"] >= 2


def test_client_scan_retry_covers_recovery_window():
    db = make_db()
    keys = load(db, 40)
    server = db.cluster.server_by_name(SERVER)
    client = db.client(db.cluster.machines[-1])
    server.begin_tablet_recovery(server.tablets.keys())
    original = server.range_scan
    calls = {"n": 0}

    def scan_with_recovery_ending(*args, **kwargs):
        calls["n"] += 1
        if calls["n"] == 2:  # recovery finishes while the client backs off
            for tablet_id in list(server.tablets):
                server.finish_tablet_recovery(tablet_id)
        return original(*args, **kwargs)

    server.range_scan = scan_with_recovery_ending
    try:
        rows = client.scan_raw(TABLE, GROUP, b"0000", b"9999")
    finally:
        server.range_scan = original
    assert sorted(key for key, _ in rows) == sorted(set(keys))
    assert calls["n"] >= 2


# -- crash-safe recovery -------------------------------------------------------


def test_crash_mid_parallel_recovery_then_rerun_converges():
    db = make_db()
    keys = load(db, 120, checkpoint_at=60)
    expected = readback(db, keys)
    db.cluster.kill_node(SERVER)
    plan = FaultPlan()
    plan.add(
        CP_RECOVERY_MID,
        kill_action(db.cluster.failures, SERVER, ServerDownError("mid-redo")),
        hits=2,
        server=SERVER,
    )
    with fault_plan(plan):
        with pytest.raises(ServerDownError):
            db.cluster.restart_server(SERVER)
        report = db.cluster.restart_server(SERVER)
    assert len(plan.fired) == 1
    assert report.parallel and not db.cluster.server_by_name(SERVER).recovering_tablets
    assert readback(db, keys) == expected


def test_split_persist_is_atomic_under_crash(tso, dfs, machines):
    server = TabletServer("ts-a", machines[0], dfs, tso, LogBaseConfig())
    server.assign_tablet(Tablet(TabletId(TABLE, 0), KeyRange(b"", None), SCHEMA))
    for i in range(10):
        server.write(TABLE, f"k{i}".encode(), {GROUP: b"x"})
    from repro.sim.failure import FailureInjector

    injector = FailureInjector()
    injector.register("ts-b", machines[1])
    plan = FaultPlan()
    plan.add(
        CP_SPLIT_PERSIST,
        kill_action(injector, "ts-b", ServerDownError("mid-split")),
        server="ts-a",
    )
    with fault_plan(plan):
        with pytest.raises(ServerDownError):
            split_log_by_tablet(dfs, "ts-a", machines[1], fence=1)
    # The torn attempt left only the temp file: a reattach of the split
    # directory sees no segments, and no fence was installed.
    split_root = f"/logbase/splits/ts-a/{TABLE}#0"
    assert dfs.exists(f"{split_root}/segment-00000001.log.tmp")
    assert not dfs.exists(f"{split_root}/segment-00000001.log")
    repo = LogRepository.reattach(dfs, machines[2], split_root)
    assert list(repo.scan_all()) == []
    assert read_split_fence(dfs, "ts-a", machines[2]) is None
    # The retried split (fresh epoch) overwrites the leftover cleanly.
    machines[1].restart()
    splits = split_log_by_tablet(dfs, "ts-a", machines[1], fence=2)
    assert f"{TABLE}#0" in splits.paths
    assert read_split_fence(dfs, "ts-a", machines[2]) == 2


def test_adopt_rejects_stale_fence(tso, dfs, machines):
    source = TabletServer("ts-a", machines[0], dfs, tso, LogBaseConfig())
    tablet = Tablet(TabletId(TABLE, 0), KeyRange(b"", None), SCHEMA)
    source.assign_tablet(tablet)
    source.write(TABLE, b"k", {GROUP: b"x"})
    split_log_by_tablet(dfs, "ts-a", machines[1], fence=1)
    adopter = TabletServer("ts-b", machines[1], dfs, tso, LogBaseConfig())
    adopter.assign_tablet(tablet)
    with pytest.raises(RecoveryError, match="fence"):
        adopt_split_log(adopter, dfs, "ts-a", f"{TABLE}#0", fence=2)


def test_adopting_twice_never_double_appends(tso, dfs, machines):
    source = TabletServer("ts-a", machines[0], dfs, tso, LogBaseConfig())
    tablet = Tablet(TabletId(TABLE, 0), KeyRange(b"", None), SCHEMA)
    source.assign_tablet(tablet)
    written = {}
    for i in range(12):
        key = f"k{i:02d}".encode()
        written[key] = source.write(TABLE, key, {GROUP: f"v{i}".encode()})
    split_log_by_tablet(dfs, "ts-a", machines[1], fence=1)
    adopter = TabletServer("ts-b", machines[1], dfs, tso, LogBaseConfig())
    adopter.assign_tablet(tablet)
    first = adopt_split_log(adopter, dfs, "ts-a", f"{TABLE}#0", fence=1)
    assert first.writes_applied == 12 and first.skipped == 0
    appended = len(list(adopter.log.scan_all()))
    # A re-run (crashed failover retried) skips every already-homed record.
    second = adopt_split_log(adopter, dfs, "ts-a", f"{TABLE}#0", fence=1)
    assert second.skipped == 12 and second.writes_applied == 0
    assert len(list(adopter.log.scan_all())) == appended
    for key in written:
        index = adopter.index_for(TABLE, key, GROUP)
        assert len(index.versions(key)) == 1  # one version, not two


# -- the foreign-repository LSN satellite --------------------------------------


def test_redo_scan_of_foreign_repository_leaves_lsn_cursor(tso, dfs, machines):
    source = TabletServer("ts-a", machines[0], dfs, tso, LogBaseConfig())
    tablet = Tablet(TabletId(TABLE, 0), KeyRange(b"", None), SCHEMA)
    source.assign_tablet(tablet)
    for i in range(8):
        source.write(TABLE, f"k{i}".encode(), {GROUP: b"x"})
    reader = TabletServer("ts-b", machines[1], dfs, tso, LogBaseConfig())
    reader.assign_tablet(tablet)
    before = reader.log.next_lsn
    report = redo_scan(reader, repository=source.log)
    assert report.writes_applied == 8
    assert reader.log.next_lsn == before  # foreign scan must not move it


def test_redo_scan_of_own_log_still_restores_lsn(tso, dfs, machines):
    server = TabletServer("ts-a", machines[0], dfs, tso, LogBaseConfig())
    server.assign_tablet(Tablet(TabletId(TABLE, 0), KeyRange(b"", None), SCHEMA))
    for i in range(8):
        server.write(TABLE, f"k{i}".encode(), {GROUP: b"x"})
    lsn_before = server.log.next_lsn
    server.crash()
    server.restart()
    server.assign_tablet(Tablet(TabletId(TABLE, 0), KeyRange(b"", None), SCHEMA))
    redo_scan(server)
    assert server.log.next_lsn >= lsn_before


# -- stats surface -------------------------------------------------------------


def test_recovery_surfaces_in_stats():
    from repro.core.stats import collect_server_stats

    db = make_db()
    keys = load(db, 40)
    crash_and_recover(db)
    stats = collect_server_stats(db.cluster.server_by_name(SERVER))
    assert stats.recovering_tablets == 0
    assert stats.last_recovery is not None
    assert stats.last_recovery["parallel"] is True
    assert stats.last_recovery["tablets_recovered"] == 4
    assert stats.counters.get("recovery.parallel_runs") == 1
    assert stats.counters.get("recovery.tablets_recovered") == 4
    histogram = db.cluster.server_by_name(SERVER).recovery_histogram
    assert histogram is not None and histogram.count == 4
    assert readback(db, keys)
