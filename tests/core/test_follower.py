"""Follower (read replica) tests: log tailing, watermarks, staleness.

The invariants under test: a follower read never observes a write past
the follower's watermark and always returns the *latest* version at or
below it; a replica beyond its staleness bound rejects instead of
serving stale; a fresh replica never serves before its first complete
tail pass; ownership changes (promotion, migration) tear replicas down;
and compaction on the owner only ever lags a follower transiently —
the next tail pass re-points retired log positions.
"""

import random
from unittest.mock import Mock

import pytest

from repro import ColumnGroup, LogBase, LogBaseConfig, TableSchema
from repro.bench import concurrent as loop
from repro.chaos.history import History, WriteStatus, encode_value
from repro.errors import (
    CorruptLogRecord,
    DataNodeDownError,
    FollowerLaggingError,
    LogBaseError,
)
from repro.sim.failure import CP_DFS_APPEND, FaultPlan, fault_plan
from repro.sim.machine import Machine
from repro.wal.record import LogRecord, RecordType, commit_record

TABLE = "events"
GROUP = "payload"
SOURCE = "ts-node-0"


def _rep_config(**overrides):
    return LogBaseConfig.with_read_replicas(segment_size=16 * 1024, **overrides)


@pytest.fixture
def rep_db(schema):
    """A 3-node cluster, one tablet on the source, followers placed and
    caught up on ``ops`` raw writes."""
    db = LogBase(n_nodes=3, config=_rep_config())
    db.create_table(schema, tablets_per_server=1, only_servers=[SOURCE])
    client = db.client(db.cluster.machines[-1])
    keys = [str(k).zfill(12).encode() for k in range(0, 2_000_000_000, 97_000_003)]
    history = {}
    for i, key in enumerate(keys):
        ts = client.put_raw(TABLE, key, GROUP, encode_value(i))
        history[key] = (ts, i)
    db.cluster.heartbeat()
    return db, keys, history


def _the_follower(db):
    """(tablet_id, follower server, FollowerTablet) of the only tablet."""
    followers = db.cluster.master.catalog.followers
    tablet_id = next(iter(followers))
    server = db.cluster.server_by_name(followers[tablet_id][0])
    return tablet_id, server, server.replicas.followers[tablet_id]


def test_follower_placed_and_caught_up(rep_db):
    db, keys, history = rep_db
    tablet_id, server, follower = _the_follower(db)
    assert server.name != SOURCE
    assert follower.owner_name == SOURCE
    assert follower.watermark > 0
    assert follower.entry_count() == len(keys)
    for key, (ts, i) in history.items():
        assert server.follower_read(TABLE, key, GROUP) == (ts, encode_value(i))


def test_follower_read_never_passes_the_watermark(rep_db):
    """Property test: across interleaved writes and tail passes, every
    successful follower read is exactly the latest version at or below
    the follower's watermark — never newer, never an older shadow."""
    db, keys, fixture = rep_db
    tablet_id, server, follower = _the_follower(db)
    client = db.client(db.cluster.machines[-1])
    history = History()

    def acked(key, ts, seq):
        op = history.invoke(client)
        op.writes[key] = seq
        history.end(op, WriteStatus.ACKED, commit_ts=ts)

    for key, (ts, i) in fixture.items():
        acked(key, ts, i)
    rng = random.Random(7)
    seq = len(keys)
    for round_no in range(6):
        for key in rng.sample(keys, 3):
            acked(key, client.put_raw(TABLE, key, GROUP, encode_value(seq)), seq)
            seq += 1
        if round_no % 2 == 0:
            db.cluster.heartbeat()  # tail pass advances the watermark
        for key in keys:
            op = history.invoke()
            try:
                result = server.follower_read(TABLE, key, GROUP)
            except FollowerLaggingError:
                continue
            finally:
                history.end(op, snapshot=follower.watermark)
            op.reads[key] = None if result is None else result[1]
    assert history.check() == []
    assert history.summary["reads_checked"] > 0


def test_stale_follower_rejects_instead_of_serving(rep_db):
    db, keys, _ = rep_db
    _, server, follower = _the_follower(db)
    bound = db.cluster.config.replica_max_staleness
    server.machine.clock.advance(bound + 1.0)
    with pytest.raises(FollowerLaggingError):
        server.follower_read(TABLE, keys[0], GROUP)
    # A fresh tail pass resets the lag and the replica serves again.
    db.cluster.heartbeat()
    assert server.follower_read(TABLE, keys[0], GROUP) is not None


def test_per_request_staleness_bound_overrides_the_default(rep_db):
    db, keys, _ = rep_db
    _, server, _ = _the_follower(db)
    server.machine.clock.advance(1.0)
    # Within the 5s default, but beyond an exacting per-request bound.
    assert server.follower_read(TABLE, keys[0], GROUP) is not None
    with pytest.raises(FollowerLaggingError):
        server.follower_read(TABLE, keys[0], GROUP, max_staleness=0.5)


def test_as_of_past_the_watermark_is_rejected(rep_db):
    db, keys, _ = rep_db
    _, server, follower = _the_follower(db)
    with pytest.raises(FollowerLaggingError):
        server.follower_read(
            TABLE, keys[0], GROUP, as_of=follower.watermark + 1
        )
    # At or below the watermark, historical reads serve.
    assert (
        server.follower_read(TABLE, keys[0], GROUP, as_of=follower.watermark)
        is not None
    )


def test_fresh_replica_never_serves_before_first_tail(rep_db):
    """A just-subscribed replica has no complete tail pass behind it, so
    its staleness is unbounded — it must reject even at time zero."""
    db, keys, _ = rep_db
    tablet_id, server, _ = _the_follower(db)
    other = next(
        s
        for s in db.cluster.servers
        if s.name not in (SOURCE, server.name)
    )
    tablet = db.cluster.master._tablet_by_id(tablet_id)
    other.replicas.follow(tablet, SOURCE, 0)
    with pytest.raises(FollowerLaggingError):
        other.follower_read(TABLE, keys[0], GROUP)
    other.replicas.unfollow(tablet_id)


def test_deletes_replicate_as_tombstones(rep_db):
    db, keys, _ = rep_db
    _, server, _ = _the_follower(db)
    db.delete(TABLE, keys[0], GROUP)
    db.cluster.heartbeat()
    assert server.follower_read(TABLE, keys[0], GROUP) is None
    # The other keys are untouched.
    assert server.follower_read(TABLE, keys[1], GROUP) is not None


def test_owner_compaction_only_lags_the_follower_transiently(rep_db):
    """Compaction retires the log positions the replica's index points
    at; reads may lag until the next tail pass re-points them at the
    sorted segments, but never return wrong data."""
    db, keys, history = rep_db
    _, server, follower = _the_follower(db)
    db.cluster.server_by_name(SOURCE).compact()
    for key in keys:
        try:
            result = server.follower_read(TABLE, key, GROUP)
        except FollowerLaggingError:
            continue  # retired position: fall back to the owner
        assert result == (history[key][0], encode_value(history[key][1]))
    db.cluster.heartbeat()  # tail pass picks up the sorted segments
    for key, (ts, i) in history.items():
        assert server.follower_read(TABLE, key, GROUP) == (ts, encode_value(i))


def test_follower_tailing_a_half_written_run_ends_pointer_exact(schema):
    """Compaction writes a run a 64 KiB chunk at a time.  A tail pass that
    lands between two of those flushes must neither consume the
    uninstalled run (its records decode scopeless until the plan installs
    the metadata map) nor write it off as done: after ``close()`` and the
    install, the next pass re-points every entry at the run, exactly as
    the owner's patched index has them."""
    db = LogBase(n_nodes=3, config=_rep_config())
    db.create_table(schema, tablets_per_server=1, only_servers=[SOURCE])
    client = db.client(db.cluster.machines[-1])
    keys = [str(k).zfill(12).encode() for k in range(0, 2_000_000_000, 13_000_003)]
    for i, key in enumerate(keys):
        client.put_raw(TABLE, key, GROUP, bytes([i % 251]) * 1000)
    db.cluster.heartbeat()
    tablet_id, server, follower = _the_follower(db)
    owner = db.cluster.server_by_name(SOURCE)
    before = {(e.key, e.timestamp): e.pointer for e in follower.index(GROUP).entries()}
    assert len(before) == len(keys)

    def pointers(index):
        return {(e.key, e.timestamp): e.pointer for e in index.entries()}

    mid_run = []

    def tail_between_flushes(ctx):
        server.tail_followed_logs()
        mid_run.append(pointers(follower.index(GROUP)))

    plan = FaultPlan()
    plan.add(CP_DFS_APPEND, tail_between_flushes, hits=2, writer=owner.machine.name)
    with fault_plan(plan):
        owner.compact()
    # The pass between the run's first and second flush changed nothing.
    assert mid_run == [before]
    (run,) = owner.log.segments()
    assert owner.log.segment_bytes(run) > 2 * 64 * 1024  # several flushes
    server.tail_followed_logs()
    after = pointers(follower.index(GROUP))
    assert after == pointers(owner._indexes[(tablet_id, GROUP)])
    assert {pointer.file_no for pointer in after.values()} == {run}
    for i, key in enumerate(keys):
        assert server.follower_read(TABLE, key, GROUP)[1] == bytes([i % 251]) * 1000


def _compacted_kilobyte_rows(schema, n=120):
    """One tablet of ``n`` 1 KB rows, tailed, then compacted by its owner:
    ``(db, keys, owner, follower server, its tailer)``."""
    db = LogBase(n_nodes=3, config=_rep_config())
    db.create_table(schema, tablets_per_server=1, only_servers=[SOURCE])
    client = db.client(db.cluster.machines[-1])
    keys = [str(k).zfill(12).encode() for k in range(0, n * 13_000_003, 13_000_003)]
    for i, key in enumerate(keys):
        client.put_raw(TABLE, key, GROUP, bytes([i % 251]) * 1000)
    db.cluster.heartbeat()
    _, server, _ = _the_follower(db)
    owner = db.cluster.server_by_name(SOURCE)
    owner.compact()
    return db, keys, owner, server, server.replicas.tailers[SOURCE]


def test_tailing_a_run_reads_its_index_not_its_values(schema):
    """A run holds nothing a follower has not applied, only new pointers,
    and its index lists them at ~30 bytes each: re-homing N x 1 KB rows
    must not cost reading N KB again."""
    db, keys, owner, server, tailer = _compacted_kilobyte_rows(schema)
    (run,) = owner.log.segments()
    run_bytes = owner.log.segment_bytes(run)
    assert run_bytes > len(keys) * 1000

    def bytes_read():
        totals = db.cluster.total_counters()
        return totals.get("disk.bytes_read", 0) + totals.get("blockcache.fill_bytes", 0)

    before = bytes_read()
    assert tailer.tail(10 * len(keys)) == (len(keys), True)
    assert bytes_read() - before < run_bytes / 10
    for i, key in enumerate(keys):
        assert server.follower_read(TABLE, key, GROUP)[1] == bytes([i % 251]) * 1000
    rows = server.follower_scan(TABLE, GROUP, b"", b"\xff")
    assert [key for key, _, _ in rows] == keys
    (follower,) = server.replicas.followers.values()
    assert {e.pointer.file_no for e in follower.index(GROUP).entries()} == {run}


def test_a_bounded_pass_resumes_inside_a_run_index(schema):
    db, keys, owner, server, tailer = _compacted_kilobyte_rows(schema, n=25)
    passes = []
    while not passes or not passes[-1][1]:
        passes.append(tailer.tail(10))
    assert passes == [(10, False), (10, False), (5, True)]


def test_a_damaged_run_index_fails_the_pass(schema):
    """A run's index that fails its checksum is an unreadable file: the
    pass ends, nothing is marked caught up, the heartbeat goes on, and
    the replicas age out to the owner."""
    db, keys, owner, server, tailer = _compacted_kilobyte_rows(schema, n=25)
    (run,) = owner.log.segments()
    path = owner.log.run_index_path(run)
    payload = bytearray(db.cluster.dfs.open(path, owner.machine).read_all())
    payload[len(payload) // 2] ^= 0x40
    db.cluster.dfs.install(path, bytes(payload), owner.machine)
    (follower,) = server.replicas.followers.values()
    caught_up_at = follower.caught_up_at
    with pytest.raises(CorruptLogRecord):
        tailer.tail(1000)
    server.machine.clock.advance(1.0)
    db.cluster.heartbeat()
    assert follower.caught_up_at == caught_up_at
    assert server.machine.counters.get("replica.tail_errors") == 1
    with pytest.raises(FollowerLaggingError):
        server.follower_read(TABLE, keys[0], GROUP)
    client = db.client(db.cluster.machines[-1])
    assert client.get_raw(TABLE, keys[3], GROUP) == bytes([3]) * 1000


def test_a_version_retired_without_being_rehomed_reads_absent(schema):
    """``put k, delete k, tail(1), compact()``: the plan covers the scope,
    so it drops the tombstone with the write and retires both segments.
    The follower applied the put and never read the delete; nothing will
    re-emit either.  Once a pass drains, an entry whose file the owner no
    longer lists is a dead version — absent, not a replica that lags on
    this key for good."""
    db = LogBase(n_nodes=2, config=LogBaseConfig(segment_size=16 * 1024))
    db.create_table(schema, tablets_per_server=1, only_servers=[SOURCE])
    owner, server = db.cluster.servers
    (tablet,) = owner.tablets.values()
    server.replicas.follow(tablet, SOURCE, 0)
    tailer = server.replicas.tailers[SOURCE]
    dead, alive, later = b"000000000001", b"000000000002", b"000000000003"
    client = db.client(db.cluster.machines[-1])
    client.put_raw(TABLE, alive, GROUP, b"kept")
    client.put_raw(TABLE, later, GROUP, b"kept")
    assert tailer.tail(8) == (2, True)
    client.put_raw(TABLE, dead, GROUP, b"doomed")
    db.delete(TABLE, dead, GROUP)
    assert tailer.tail(1) == (1, False)
    owner.compact()
    # Mid-replay the handle already lacks the retired file, but a version
    # whose run index has not been applied yet is not dead: still lagging.
    assert tailer.tail(1) == (1, False)
    for key in (dead, later):
        with pytest.raises(FollowerLaggingError):
            server.follower_read(TABLE, key, GROUP)
    assert tailer.tail(8) == (1, True)
    assert server.follower_read(TABLE, dead, GROUP) is None
    assert server.follower_read(TABLE, later, GROUP)[1] == b"kept"
    rows = server.follower_scan(TABLE, GROUP, b"", b"\xff")
    assert [key for key, _, _ in rows] == [alive, later]
    assert rows == list(owner.range_scan(TABLE, GROUP, b"", b"\xff"))


def test_retired_segment_is_absent_not_corrupt(rep_db):
    """The follower's cached reader still lists the blocks of a segment
    the owner's compaction deleted.  Those replicas are *gone*, not
    damaged: the client falls back to the owner, and the DFS books no
    corrupt replica, no failover and no repair work for a block no file
    owns."""
    db, keys, history = rep_db
    _, server, _ = _the_follower(db)
    db.cluster.server_by_name(SOURCE).compact()
    lagging = 0
    for key in keys:
        try:
            server.follower_read(TABLE, key, GROUP)
        except FollowerLaggingError:
            lagging += 1
    assert lagging > 0
    with pytest.raises(FollowerLaggingError):
        server.follower_scan(TABLE, GROUP, keys[0], keys[-1] + b"\xff")
    client = db.client(db.cluster.machines[-1])
    for key, (_, i) in history.items():
        assert client.get_raw(TABLE, key, GROUP) == encode_value(i)
    totals = db.cluster.total_counters()
    assert totals.get("replica.redirects", 0) > 0
    assert totals.get("dfs.corrupt_replicas", 0) == 0
    assert totals.get("dfs.read_failovers", 0) == 0
    assert totals.get("dfs.under_replicated", 0) == 0
    assert not db.cluster.dfs.namenode.under_replicated


def test_follower_scan_matches_owner_scan(rep_db):
    db, keys, history = rep_db
    _, server, _ = _the_follower(db)
    rows = server.follower_scan(TABLE, GROUP, keys[0], keys[-1] + b"\xff")
    assert [(k, v) for k, ts, v in rows] == [
        (key, encode_value(history[key][1])) for key in sorted(keys)
    ]


def test_scan_with_no_covering_replica_rejects(schema):
    """A clipped scan landing (via a stale client route) on a server that
    hosts other tablets of the table but no replica covering the range
    must raise, not silently return [] — the client would accept the
    empty slice and drop that tablet's rows from the scan result."""
    db = LogBase(n_nodes=3, config=_rep_config())
    db.create_table(schema, tablets_per_server=2, only_servers=[SOURCE])
    client = db.client(db.cluster.machines[-1])
    k0, k1 = b"000000000001", b"001000000001"
    client.put_raw(TABLE, k0, GROUP, encode_value(0))
    client.put_raw(TABLE, k1, GROUP, encode_value(1))
    db.cluster.heartbeat()
    followers = db.cluster.master.catalog.followers
    t0_id, t1_id = sorted(followers)
    # The rotation spreads the two replicas over the two non-owners.
    assert followers[t0_id] != followers[t1_id]
    t1 = db.cluster.master._tablet_by_id(t1_id)
    s0 = db.cluster.server_by_name(followers[t0_id][0])
    assert t1_id not in s0.replicas.followers
    with pytest.raises(FollowerLaggingError):
        s0.follower_scan(TABLE, GROUP, t1.key_range.start, k1 + b"\xff")
    # The server that does cover the range serves the same clipped scan.
    s1 = db.cluster.server_by_name(followers[t1_id][0])
    rows = s1.follower_scan(TABLE, GROUP, t1.key_range.start, k1 + b"\xff")
    assert [(k, v) for k, _, v in rows] == [(k1, encode_value(1))]


def test_scan_ignores_lag_of_non_intersecting_replicas(schema):
    """A lagging replica of an unrelated tablet must not fail a clipped
    scan that a fresh co-hosted replica fully covers."""
    db = LogBase(n_nodes=2, config=_rep_config())
    db.create_table(schema, tablets_per_server=2, only_servers=[SOURCE])
    client = db.client(db.cluster.machines[-1])
    k0, k1 = b"000000000001", b"001000000001"
    client.put_raw(TABLE, k0, GROUP, encode_value(0))
    client.put_raw(TABLE, k1, GROUP, encode_value(1))
    db.cluster.heartbeat()
    followers = db.cluster.master.catalog.followers
    t0_id, t1_id = sorted(followers)
    # One non-owner, so it co-hosts both replicas on one tailer.
    server = db.cluster.server_by_name(followers[t0_id][0])
    assert followers[t1_id][0] == server.name
    server.replicas.followers[t1_id].caught_up_at = None  # unrelated replica lags
    rows = server.follower_scan(TABLE, GROUP, k0, k0 + b"\xff")
    assert [(k, v) for k, _, v in rows] == [(k0, encode_value(0))]
    t1 = db.cluster.master._tablet_by_id(t1_id)
    with pytest.raises(FollowerLaggingError):
        server.follower_scan(TABLE, GROUP, t1.key_range.start, k1 + b"\xff")


def test_new_subscription_quarantines_cohosted_replicas(schema):
    """Subscribing a replica resets the shared stream; until the
    re-replay fully drains, co-hosted replicas must stop serving — a
    batch-bounded pass can transiently re-insert a WRITE whose shadowing
    INVALIDATE only lands in a later pass."""
    db = LogBase(n_nodes=2, config=_rep_config())
    db.create_table(schema, tablets_per_server=2, only_servers=[SOURCE])
    client = db.client(db.cluster.machines[-1])
    k0, k1 = b"000000000001", b"001000000001"
    client.put_raw(TABLE, k0, GROUP, encode_value(0))
    client.put_raw(TABLE, k1, GROUP, encode_value(1))
    db.delete(TABLE, k0, GROUP)
    db.cluster.heartbeat()
    followers = db.cluster.master.catalog.followers
    t0_id, t1_id = sorted(followers)
    server = db.cluster.server_by_name(followers[t0_id][0])
    assert server.follower_read(TABLE, k0, GROUP) is None
    # Re-point tablet 1's replica: the shared stream restarts from zero.
    t1 = db.cluster.master._tablet_by_id(t1_id)
    epoch = server.replicas.followers[t1_id].epoch
    server.replicas.unfollow(t1_id)
    server.replicas.follow(t1, SOURCE, epoch)
    tailer = server.replicas.tailers[SOURCE]
    with pytest.raises(FollowerLaggingError):
        server.follower_read(TABLE, k0, GROUP)
    # One-record passes re-insert k0's WRITE before its INVALIDATE is
    # re-seen; the co-hosted replica must keep rejecting mid-replay.
    drained = False
    while not drained:
        _, drained = tailer.tail(1)
        if not drained:
            with pytest.raises(FollowerLaggingError):
                server.follower_read(TABLE, k0, GROUP)
    # Fully drained: serving resumes and the delete still holds.
    assert server.follower_read(TABLE, k0, GROUP) is None
    assert server.follower_read(TABLE, k1, GROUP) is not None


def test_promotion_tears_the_replica_down(rep_db):
    db, keys, _ = rep_db
    tablet_id, server, _ = _the_follower(db)
    tablet = db.cluster.master._tablet_by_id(tablet_id)
    server.assign_tablet(tablet)
    assert tablet_id not in server.replicas.followers
    assert not server.replicas.tailers


def test_migration_fences_and_repoints_the_replica(rep_db):
    db, keys, _ = rep_db
    tablet_id, server, _ = _the_follower(db)
    target = next(
        s.name
        for s in db.cluster.servers
        if s.name not in (SOURCE, server.name)
    )
    report = db.cluster.migrate_tablet(tablet_id, target)
    assert report.completed
    # Torn down inside the flip...
    assert all(tablet_id not in s.replicas.followers for s in db.cluster.servers)
    # ...and re-placed against the new owner at the next heartbeat.
    db.cluster.heartbeat()
    _, new_server, new_follower = _the_follower(db)
    assert new_follower.owner_name == target
    assert new_server.follower_read(TABLE, keys[0], GROUP) is not None


def test_replica_routed_client_reads_every_ack(rep_db):
    db, keys, history = rep_db
    client = db.client(db.cluster.machines[-1])
    for key, (ts, i) in history.items():
        assert client.get_raw(TABLE, key, GROUP) == encode_value(i)
    served = db.cluster.total_counters().get("replica.reads_served", 0)
    assert served > 0


def test_a_client_reads_its_own_writes_past_a_lagging_replica(rep_db):
    """Read-your-writes: a replica that has not tailed a client's acked
    write redirects that client's read to the owner instead of answering
    from before the write (a fresh key read back "absent")."""
    db, keys, _ = rep_db
    client = db.client(db.cluster.machines[-1])
    redirects = db.cluster.total_counters().get("replica.redirects", 0)
    for n, key in enumerate(keys[:6]):
        client.put_raw(TABLE, key + b"-new", GROUP, encode_value(1000 + n))
        assert client.get_raw(TABLE, key + b"-new", GROUP) == encode_value(1000 + n)
    assert db.cluster.total_counters()["replica.redirects"] > redirects


def test_a_transaction_raises_its_clients_floor(rep_db):
    """A transaction run for a client commits past the replica's drained
    watermark; that client's next read must not be answered from before
    the commit (the pre-transaction value, from the follower)."""
    db, keys, _ = rep_db
    client = db.client(db.cluster.machines[-1])
    client.put_raw(TABLE, keys[0], GROUP, encode_value(100))
    db.cluster.heartbeat()  # the follower drains past the client's floor
    served = db.cluster.total_counters().get("replica.reads_served", 0)
    writes = [(TABLE, keys[0], GROUP, encode_value(101))]
    loop.run_clients(db.cluster, [loop.write_txn(db, client, writes)])
    assert client.get_raw(TABLE, keys[0], GROUP) == encode_value(101)
    assert db.cluster.total_counters().get("replica.reads_served", 0) == served


def test_an_acked_submit_raises_its_clients_floor(rep_db):
    """A group-committed put acked to a client commits past the replica's
    drained watermark; that client's next read must see it, not the
    follower's older value."""
    db, keys, _ = rep_db
    client = db.client(db.cluster.machines[-1])
    client.put_raw(TABLE, keys[0], GROUP, b"v0")
    db.cluster.heartbeat()  # the follower drains past the client's floor
    loop.run_clients(db.cluster, [loop.submit(client, TABLE, keys[0], GROUP, b"submitted")])
    assert client.get_raw(TABLE, keys[0], GROUP) == b"submitted"


def test_a_partial_pass_past_the_floor_still_redirects(rep_db):
    """A batch-limited pass can apply a version newer than a client's own
    write without the write itself (here it waits on its COMMIT); only a
    drained pass vouches for everything below its watermark."""
    db, keys, _ = rep_db
    tablet_id, server, follower = _the_follower(db)
    owner = db.cluster.server_by_name(SOURCE)
    tailer = server.replicas.tailers[SOURCE]
    mine = db.cluster.tso.next_timestamp()
    owner.append_transactional([LogRecord(
        RecordType.WRITE, txn_id=77, table=TABLE, tablet=tablet_id, key=keys[0],
        group=GROUP, timestamp=mine, value=encode_value(500),
    )])
    later = db.client(db.cluster.machines[-1]).put_raw(TABLE, keys[1], GROUP, encode_value(501))
    owner.append_transactional([commit_record(77, mine)])
    assert tailer.tail(2) == (1, False)  # the later version, not the commit
    assert follower.watermark == later > mine
    with pytest.raises(FollowerLaggingError):
        server.follower_read(TABLE, keys[0], GROUP, floor=mine)
    assert tailer.tail(10)[1]
    assert server.follower_read(TABLE, keys[0], GROUP, floor=mine) == (mine, encode_value(500))


def test_heartbeat_reports_replica_lag(rep_db):
    db, keys, _ = rep_db
    tick = db.cluster.heartbeat()
    tablet_id, _, _ = _the_follower(db)
    assert tablet_id in tick["replica_lags"]
    assert tick["replica_lags"][tablet_id] >= 0.0


def test_gate_off_places_nothing(schema):
    db = LogBase(n_nodes=3, config=LogBaseConfig(segment_size=16 * 1024))
    db.create_table(schema, tablets_per_server=1, only_servers=[SOURCE])
    db.put(TABLE, b"000000000001", {GROUP: {"body": b"v"}})
    tick = db.cluster.heartbeat()
    assert tick["replica_lags"] == {}
    assert not db.cluster.master.catalog.followers
    assert all(not s.replicas.followers for s in db.cluster.servers)


def test_a_follower_that_cannot_tail_does_not_stop_the_heartbeat(schema, monkeypatch):
    """One follower cut off from every replica of its owner's log is
    skipped for the tick: the heartbeat returns, the other follower
    tails, re-replication and the monitor run, and the cut-off replica
    only ages (out of its staleness bound, so reads fall back)."""
    db = LogBase(
        n_nodes=6, config=_rep_config(replicas_per_tablet=2, monitoring=True)
    )
    cluster = db.cluster
    db.create_table(schema, tablets_per_server=1, only_servers=[SOURCE])
    client = db.client(cluster.machines[-1])
    keys = [str(k).zfill(12).encode() for k in range(0, 2_000_000_000, 97_000_003)]
    for i, key in enumerate(keys):
        client.put_raw(TABLE, key, GROUP, encode_value(i))
    cluster.heartbeat()

    (tablet_id, hosts), = cluster.master.catalog.followers.items()
    log = cluster.server_by_name(SOURCE).log
    files = [
        cluster.dfs.namenode.get_file(log.segment_path(n)) for n in log.segments()
    ]
    holders = {
        location for meta in files for block in meta.blocks for location in block.locations
    }
    cut_off, healthy = sorted(
        (cluster.server_by_name(name) for name in hosts),
        key=lambda server: server.machine.name in holders,
    )
    assert cut_off.machine.name not in holders
    assert cut_off.replicas.followers[tablet_id].lag(cut_off.machine.clock.now) == 0.0
    cluster.config.network.partitions.isolate(cut_off.machine.name)

    rereplicate = Mock(wraps=cluster.dfs.heartbeat)
    monitor_tick = Mock(wraps=cluster.monitor.tick)
    monkeypatch.setattr(cluster.dfs, "heartbeat", rereplicate)
    monkeypatch.setattr(cluster.monitor, "tick", monitor_tick)

    lags = []
    for round_no in range(3):
        ts = client.put_raw(TABLE, keys[round_no], GROUP, encode_value(round_no))
        for machine in cluster.machines:
            machine.clock.advance(0.5)
        tick = cluster.heartbeat()
        assert {"rereplicated", "replica_lags", "alerts_fired"} <= tick.keys()
        assert healthy.replicas.followers[tablet_id].watermark >= ts
        assert cut_off.replicas.followers[tablet_id].watermark < ts
        lags.append(cut_off.replicas.followers[tablet_id].lag(cut_off.machine.clock.now))
    assert rereplicate.call_count == monitor_tick.call_count == 3
    assert lags == sorted(set(lags)) and lags[0] > 0.0
    assert cluster.total_counters()["replica.tail_errors"] == 3


def test_a_tail_pass_abandoned_midway_counts_what_it_applied(rep_db, monkeypatch):
    db, keys, _ = rep_db
    _, server, follower = _the_follower(db)
    client = db.client(db.cluster.machines[-1])
    for round_no in range(4):
        client.put_raw(TABLE, keys[round_no], GROUP, encode_value(round_no))
    repo = server.replicas.tailers[SOURCE].repo
    scan_segment = repo.scan_segment

    def two_records_then_down(file_no, start_offset=0):
        for n, item in enumerate(scan_segment(file_no, start_offset=start_offset)):
            if n == 2:
                raise DataNodeDownError("all replicas of block 1 are down")
            yield item

    monkeypatch.setattr(repo, "scan_segment", two_records_then_down)
    counters = server.machine.counters
    before = counters.get("replica.lag_records"), counters.get("replica.tail_batches")
    caught_up_at = follower.caught_up_at
    server.tail_followed_logs()
    assert counters.get("replica.lag_records") == before[0] + 2
    assert counters.get("replica.tail_batches") == before[1] + 1
    assert counters.get("replica.tail_errors") == 1
    assert follower.caught_up_at == caught_up_at

    # The cursor stands after the two it applied: the next pass takes the rest.
    monkeypatch.undo()
    server.tail_followed_logs()
    assert counters.get("replica.lag_records") == before[0] + 4


# -- the read-replica sweep: followers scale the owner's serving capacity ------

SWEEP_TABLE, SWEEP_GROUP = "reads", "g"
SWEEP_KEY_DOMAIN, SWEEP_RECORD = 100_000, 200
SWEEP_NODES = 5  # owner + 3 follower slots + a client-side node
SWEEP_CLIENTS = 4  # open-loop client pool, on machines outside the cluster
SWEEP_OPS = 300


def _replica_sweep_arm(followers):
    """One tablet server owns the table while ``followers`` followers tail
    its log; a 95/5 Zipfian read/write mix (u^2 skew) over 400 preloaded
    keys runs from clients outside the cluster.  Returns (ops per
    simulated second of the cluster makespan, failed ops, replica reads)."""
    # No read buffer (the paper's disk-resident working set: every read
    # pays its DFS fetch wherever it is served, the cost replicas spread),
    # and full replication, so each follower tails a local log replica.
    config = LogBaseConfig.with_read_replicas(
        segment_size=64 * 1024,
        replicas_per_tablet=followers,
        read_cache_enabled=False,
        replication=SWEEP_NODES,
    )
    db = LogBase(n_nodes=SWEEP_NODES, config=config)
    db.create_table(
        TableSchema(SWEEP_TABLE, "id", (ColumnGroup(SWEEP_GROUP, ("v",)),)),
        tablets_per_server=1,
        key_domain=SWEEP_KEY_DOMAIN,
        key_width=8,
        only_servers=[SOURCE],
    )
    clients = [
        db.client(
            Machine(f"client-{i}", rack="rack-client", disk_model=config.disk,
                    network=config.network)
        )
        for i in range(SWEEP_CLIENTS)
    ]
    rng = random.Random(23)
    written = set()
    for i in range(400):
        key = str(int(SWEEP_KEY_DOMAIN * rng.random() ** 2)).zfill(8).encode()
        clients[i % SWEEP_CLIENTS].put_raw(
            SWEEP_TABLE, key, SWEEP_GROUP, b"%0*d" % (SWEEP_RECORD, i)
        )
        written.add(key)
    keyset = sorted(written)
    # Place the followers and let them catch up before the measured phase.
    db.cluster.heartbeat()
    db.cluster.heartbeat()
    db.cluster.reset_clocks()
    failed = 0
    for i in range(SWEEP_OPS):
        if i % 25 == 0:
            db.cluster.heartbeat()  # lease renewal + follower tail passes
        key = keyset[int(len(keyset) * rng.random() ** 2)]
        client = clients[i % SWEEP_CLIENTS]
        try:
            if rng.random() < 0.95:
                client.get_raw(SWEEP_TABLE, key, SWEEP_GROUP)
            else:
                client.put_raw(SWEEP_TABLE, key, SWEEP_GROUP, b"%0*d" % (SWEEP_RECORD, i + 1))
        except LogBaseError:
            failed += 1
    served = db.cluster.total_counters().get("replica.reads_served", 0)
    return SWEEP_OPS / db.cluster.elapsed_makespan(), failed, served


@pytest.fixture(scope="module")
def replica_sweep():
    """follower count -> (throughput, failed ops, replica reads)."""
    return {n: _replica_sweep_arm(n) for n in (0, 1, 3)}


def test_three_followers_scale_read_throughput(replica_sweep):
    """3 followers serve >= 2.5x the owner-only throughput: the makespan
    covers every server, so follower tail work is charged against it."""
    speedup = replica_sweep[3][0] / replica_sweep[0][0]
    assert speedup >= 2.5, f"3-follower speed-up {speedup:.2f}x"


def test_replica_sweep_is_fully_available(replica_sweep):
    assert {n: failed for n, (_, failed, _) in replica_sweep.items()} == {0: 0, 1: 0, 3: 0}


@pytest.mark.parametrize("followers", [1, 3])
def test_every_follower_arm_serves_replica_reads(replica_sweep, followers):
    assert replica_sweep[followers][2] > 0
