"""Recovery of group-commit-written records: a crash right after a group
flush must leave every acked member readable, the fan-in counters must
survive the restart, and group commit must compose with the parallel
restart redo of coalesced appends."""

import pytest

from repro.config import LogBaseConfig
from repro.core.database import LogBase
from repro.sim.metrics import COMMIT_GROUP_FANIN, COMMIT_GROUPS


def make_key(value: int) -> bytes:
    return str(value).zfill(12).encode()


def build_db(schema, **overrides) -> LogBase:
    config = LogBaseConfig(segment_size=16 * 1024, **overrides)
    db = LogBase(n_nodes=3, config=config)
    db.create_table(schema)
    return db


def submit_batch(db: LogBase, n: int) -> dict[bytes, bytes]:
    """Submit ``n`` writes through the async group-commit path, flush
    every coordinator, and assert each future was acked cleanly."""
    client = db.client(db.cluster.machines[0])
    futures = {}
    for i in range(n):
        key = make_key(i)
        future, _request, _ack = client.submit_put_raw(
            "events", key, "payload", b"gc%d" % i
        )
        futures[key] = future
    for server in db.cluster.servers:
        server.commit.drain()
    for key, future in futures.items():
        assert future.done, key
        assert future.error is None, key
        assert future.acked, key
    return {key: b"gc%d" % i for i, key in enumerate(futures)}


def crash_and_restart_all(db: LogBase):
    reports = {}
    for server in list(db.cluster.servers):
        db.cluster.kill_node(server.name)
    for server in list(db.cluster.servers):
        reports[server.name] = db.cluster.restart_server(server.name)
    return reports


def readback(db: LogBase, expected: dict[bytes, bytes]) -> None:
    client = db.client(db.cluster.machines[0])
    for key, value in expected.items():
        assert client.get_raw("events", key, "payload") == value, key


def test_acked_group_members_survive_crash(schema):
    db = build_db(schema)
    expected = submit_batch(db, 30)
    totals = db.cluster.total_counters()
    groups, fanin = totals[COMMIT_GROUPS], totals[COMMIT_GROUP_FANIN]
    assert groups >= 1
    assert fanin == len(expected)  # every acked member was group-flushed
    crash_and_restart_all(db)
    readback(db, expected)
    # Counters live on the machines, not the server process: the restart
    # must not reset them, and redo must not re-count the commit groups.
    totals = db.cluster.total_counters()
    assert totals[COMMIT_GROUPS] == groups
    assert totals[COMMIT_GROUP_FANIN] == fanin


def test_crash_between_groups_recovers_every_flushed_group(schema):
    db = build_db(schema)
    first = submit_batch(db, 12)
    second = submit_batch(db, 24)  # a later group on the same logs
    crash_and_restart_all(db)
    readback(db, {**first, **second})


def test_group_commit_composes_with_parallel_recovery(schema):
    db = build_db(schema, recovery_workers=4)
    expected = submit_batch(db, 30)
    reports = crash_and_restart_all(db)
    assert all(report.parallel for report in reports.values())
    assert sum(report.writes_applied for report in reports.values()) >= len(
        expected
    )
    readback(db, expected)
